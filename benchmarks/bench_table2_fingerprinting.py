"""E1 — Paper Table II: unconstrained ODC fingerprinting of the suite.

Per circuit: measure the baseline, find every fingerprint location, apply
the paper's maximal embedding (one modification per location), re-measure,
and report locations / log2(combinations) / area-delay-power overheads
next to the paper's numbers.  The benchmarked quantity is the full
pipeline (location finding + embedding + measurement), i.e. the runtime of
the paper's "circuit modifier".

Run ``pytest benchmarks/bench_table2_fingerprinting.py --benchmark-only -s``
to see the rendered table; set ``REPRO_SUITE=full`` for all 14 circuits.
"""

from __future__ import annotations

from repro.analysis import measure, overhead
from repro.bench import PAPER_TABLE2, render_table2, run_table2
from repro.fingerprint import capacity, embed, find_locations, full_assignment


def _pipeline(base):
    catalog = find_locations(base)
    assignment = full_assignment(base, catalog)
    copy = embed(base, catalog, assignment)
    return catalog, copy


def test_table2_rows(benchmark, circuits, suite_names):
    """Regenerate Table II rows and attach them to the benchmark record."""
    name = suite_names[0]
    base = circuits[name]

    catalog, copy = benchmark.pedantic(
        _pipeline, args=(base,), rounds=3, iterations=1
    )

    rows = run_table2(suite_names, verify=True)
    print()
    print(render_table2(rows))

    for row in rows:
        paper = PAPER_TABLE2[row.name]
        assert row.equivalent, f"{row.name}: fingerprint broke functionality"
        assert row.baseline.gates == paper["gates"]
        # Shape assertions: non-trivial capacity, paper-magnitude locations,
        # positive area cost, delay cost at least comparable to area cost.
        assert row.capacity.n_locations >= paper["locations"] / 4
        assert row.capacity.bits >= row.capacity.n_locations
        assert row.overhead.area > 0
    avg_area = sum(r.overhead.area for r in rows) / len(rows)
    avg_delay = sum(r.overhead.delay for r in rows) / len(rows)
    assert 0.0 < avg_area < 0.35
    assert avg_delay > avg_area * 0.5  # delay is a first-class cost, as in the paper

    benchmark.extra_info["rows"] = [
        {
            "name": r.name,
            "locations": r.capacity.n_locations,
            "log2_combinations": round(r.capacity.bits, 2),
            "area_overhead_pct": round(100 * r.overhead.area, 2),
            "delay_overhead_pct": round(100 * r.overhead.delay, 2),
            "power_overhead_pct": round(100 * r.overhead.power, 2),
            "paper_locations": PAPER_TABLE2[r.name]["locations"],
            "paper_log2": PAPER_TABLE2[r.name]["log2_combos"],
        }
        for r in rows
    ]


def test_location_finding_throughput(benchmark, circuits, suite_names):
    """Runtime of Definition-1 location discovery alone (largest circuit)."""
    name = max(suite_names, key=lambda n: circuits[n].n_gates)
    base = circuits[name]
    catalog = benchmark(find_locations, base)
    report = capacity(catalog)
    benchmark.extra_info["circuit"] = name
    benchmark.extra_info["locations"] = report.n_locations
    benchmark.extra_info["bits"] = round(report.bits, 1)
    assert report.n_locations > 0


def test_embedding_throughput(benchmark, circuits, catalogs, suite_names):
    """Runtime of applying the maximal embedding (largest circuit)."""
    name = max(suite_names, key=lambda n: circuits[n].n_gates)
    base = circuits[name]
    catalog = catalogs[name]
    assignment = full_assignment(base, catalog)

    def run():
        return embed(base, catalog, assignment)

    copy = benchmark(run)
    oh = overhead(measure(base), measure(copy.circuit))
    benchmark.extra_info["circuit"] = name
    benchmark.extra_info["area_overhead_pct"] = round(100 * oh.area, 2)
    assert copy.n_active == catalog.n_locations
