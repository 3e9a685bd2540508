"""Tests for the repro-fp command-line tool."""

import os

import pytest

from repro.cli import load_design, main
from repro.netlist import save_verilog, write_blif


@pytest.fixture
def golden_v(tmp_path, fig1_circuit):
    path = tmp_path / "golden.v"
    save_verilog(fig1_circuit, str(path))
    return str(path)


@pytest.fixture
def demo_blif(tmp_path, fig1_circuit):
    path = tmp_path / "demo.blif"
    path.write_text(write_blif(fig1_circuit))
    return str(path)


class TestLoadDesign:
    def test_verilog(self, golden_v):
        design = load_design(golden_v)
        assert design.n_gates == 3

    def test_blif_is_mapped(self, demo_blif):
        design = load_design(demo_blif)
        assert design.n_gates > 0

    def test_unknown_extension(self):
        from repro.errors import DesignLoadError

        with pytest.raises(DesignLoadError) as excinfo:
            load_design("design.json")
        assert excinfo.value.stage == "load"

    def test_missing_file_fails_typed(self):
        from repro.errors import DesignLoadError

        with pytest.raises(DesignLoadError):
            load_design("does_not_exist.v")

    def test_diagnostic_exit_code(self, capsys):
        assert main(["measure", "design.json"]) == 3
        err = capsys.readouterr().err
        assert "[load] DesignLoadError" in err


class TestCommands:
    def test_locations(self, golden_v, capsys):
        assert main(["locations", golden_v, "-v"]) == 0
        out = capsys.readouterr().out
        assert "locations" in out and "loc 0" in out

    def test_embed_and_extract_roundtrip(self, golden_v, tmp_path, capsys):
        out_v = str(tmp_path / "copy.v")
        assert main(["embed", golden_v, "--value", "1", "-o", out_v]) == 0
        assert os.path.exists(out_v)
        assert main(["extract", out_v, "--golden", golden_v]) == 0
        out = capsys.readouterr().out
        assert "fingerprint value: 1" in out

    def test_embed_buyer(self, golden_v, tmp_path, capsys):
        out_v = str(tmp_path / "buyer.v")
        assert main(["embed", golden_v, "--buyer", "acme", "-o", out_v]) == 0
        out = capsys.readouterr().out
        assert "embedded fingerprint value" in out

    def test_embed_stdout(self, golden_v, capsys):
        assert main(["embed", golden_v, "--value", "0"]) == 0
        out = capsys.readouterr().out
        assert "module" in out

    def test_embed_proves_a_wide_copy(self, tmp_path, capsys):
        """A design wider than the exhaustive limit is proven by the
        ladder's SAT tier, not screened with random vectors."""
        import json

        from repro.bench import build_benchmark

        golden = str(tmp_path / "c432.v")
        save_verilog(build_benchmark("C432"), golden)
        out_v = str(tmp_path / "copy.v")
        assert main(["embed", golden, "--value", "5", "-o", out_v, "--json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["n_modifications"] >= 1
        assert result["verify_method"] == "sat-cec"

    def test_verify_equivalent(self, golden_v, tmp_path, capsys):
        out_v = str(tmp_path / "copy.v")
        main(["embed", golden_v, "--value", "1", "-o", out_v])
        assert main(["verify", golden_v, out_v]) == 0
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_verify_mismatch(self, tmp_path, fig1_circuit, capsys):
        left = tmp_path / "left.v"
        save_verilog(fig1_circuit, str(left))
        broken = fig1_circuit.clone("fig1")
        broken.replace_gate("F", "OR", ["X", "Y"])
        right = tmp_path / "right.v"
        save_verilog(broken, str(right))
        assert main(["verify", str(left), str(right)]) == 1
        assert "NOT equivalent" in capsys.readouterr().out

    def test_verify_ladder_knobs(self, golden_v, tmp_path, capsys):
        out_v = str(tmp_path / "copy.v")
        main(["embed", golden_v, "--value", "1", "-o", out_v])
        assert main([
            "verify", golden_v, out_v,
            "--max-exhaustive-inputs", "0",
            # The sweep proves this copy without a conflict; a budget of
            # 0 stops the session before its first solve.
            "--max-conflicts", "0",
            "--random-vectors", "512",
            "--no-simplify",
        ]) == 0
        out = capsys.readouterr().out
        assert "random-sim" in out
        assert "SAT budget spent" in out

    def test_verify_identical_is_proven(self, golden_v, capsys):
        assert main(["verify", golden_v, golden_v]) == 0
        out = capsys.readouterr().out
        assert "exhaustive-sim" in out and "proven" in out

    def test_verify_no_sat(self, golden_v, tmp_path, capsys):
        out_v = str(tmp_path / "copy.v")
        main(["embed", golden_v, "--value", "1", "-o", out_v])
        assert main(["verify", golden_v, out_v, "--no-sat"]) == 0
        assert "exhaustive-sim" in capsys.readouterr().out

    def test_inject_clean(self, golden_v, capsys):
        assert main(["inject", golden_v, "--text"]) == 0
        out = capsys.readouterr().out
        assert "verdict: CLEAN" in out

    def test_measure(self, golden_v, capsys):
        assert main(["measure", golden_v]) == 0
        out = capsys.readouterr().out
        assert "gates:  3" in out

    def test_bench(self, tmp_path, capsys):
        out_v = str(tmp_path / "c432.v")
        assert main(["bench", "C432", "-o", out_v]) == 0
        assert os.path.exists(out_v)
        assert "166 gates" in capsys.readouterr().out

    def test_tampered_extract_flagged(self, golden_v, tmp_path, capsys):
        out_v = str(tmp_path / "copy.v")
        main(["embed", golden_v, "--value", "1", "-o", out_v])
        # Attacker rewires the modified slot to an unknown structure.
        design = load_design(out_v)
        from repro.fingerprint import find_locations

        catalog = find_locations(load_design(golden_v))
        victim = catalog.slots()[0].target
        gate = design.gate(victim)
        swap = "NOR" if gate.kind != "NOR" else "NAND"
        design.replace_gate(victim, swap, list(gate.inputs))
        tampered_v = str(tmp_path / "tampered.v")
        save_verilog(design, tampered_v)
        assert main(["extract", tampered_v, "--golden", golden_v]) == 2
        assert "tampered" in capsys.readouterr().out.lower()


class TestBatch:
    def test_batch_summary_and_json(self, tmp_path, capsys):
        from repro.bench import RandomLogicSpec, generate

        design = generate(
            RandomLogicSpec(name="clibatch", n_inputs=10, n_outputs=6,
                            n_gates=90, seed=4)
        )
        design_v = str(tmp_path / "clibatch.v")
        save_verilog(design, design_v)
        json_path = str(tmp_path / "batch.json")
        assert main([
            "batch", design_v, "--copies", "3", "--jobs", "1",
            "--json", json_path, "-v",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 copies" in out and "copies/s" in out
        assert "value" in out  # verbose per-copy lines
        import json

        payload = json.loads(open(json_path).read())
        assert payload["tool"] == "repro-fp"
        assert payload["command"] == "batch"
        assert payload["result"]["n_copies"] == 3
        assert payload["result"]["n_mismatch"] == 0
        assert "metrics" in payload["telemetry"]

    def test_batch_rejects_fewer_than_one_job(self, golden_v, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", golden_v, "--jobs", "0"])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestEnvelope:
    def test_json_stdout_is_pure_envelope(self, golden_v, capsys):
        import json

        assert main(["locations", golden_v, "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # nothing but the envelope on stdout
        assert payload["tool"] == "repro-fp"
        assert payload["command"] == "locations"
        assert payload["result"]["n_locations"] >= 1
        from repro import __version__

        assert payload["version"] == __version__

    def test_every_subcommand_shares_the_envelope(self, golden_v, tmp_path, capsys):
        import json

        out_v = str(tmp_path / "copy.v")
        runs = [
            (["embed", golden_v, "--value", "1", "-o", out_v, "--json"], 0),
            (["extract", out_v, "--golden", golden_v, "--json"], 0),
            (["verify", golden_v, out_v, "--json"], 0),
            (["measure", golden_v, "--json"], 0),
            (["bench", "C432", "--json"], 0),
        ]
        for argv, expected in runs:
            assert main(argv) == expected
            payload = json.loads(capsys.readouterr().out)
            assert set(payload) == {
                "tool", "version", "command", "telemetry", "result"
            }
            assert payload["command"] == argv[0]

    def test_error_envelope(self, capsys):
        assert main(["measure", "design.json", "--json"]) == 3
        import json

        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert "error" in payload["result"]
        assert "DesignLoadError" in captured.err

    def test_trace_file_from_cli(self, golden_v, tmp_path, capsys):
        import json

        trace_path = str(tmp_path / "verify.trace")
        assert main(["verify", golden_v, golden_v, "--trace", trace_path]) == 0
        trace = json.loads(open(trace_path).read())
        events = trace["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        assert "ladder.verify" in names
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_repeated_invocations_do_not_leak_spans(self, golden_v, tmp_path):
        import json

        first = str(tmp_path / "a.trace")
        second = str(tmp_path / "b.trace")
        assert main(["measure", golden_v, "--trace", first]) == 0
        assert main(["measure", golden_v, "--trace", second]) == 0
        n_first = len(json.loads(open(first).read())["traceEvents"])
        n_second = len(json.loads(open(second).read())["traceEvents"])
        assert n_first == n_second


class TestMeasureFull:
    def test_full_report(self, golden_v, capsys):
        assert main(["measure", golden_v, "--full"]) == 0
        out = capsys.readouterr().out
        assert "gate mix:" in out and "fingerprintability:" in out


class TestCampaignCommand:
    @pytest.fixture()
    def c17_path(self):
        from repro.bench.data import data_path

        return data_path("c17.blif")

    def test_run_status_resume_report(self, c17_path, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        # interrupt after 2 of 4 jobs — a checkpointed run still exits 0
        assert main(["campaign", "run", c17_path, "--db", db,
                     "--copies", "4", "--max-jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "interrupted" in out

        assert main(["campaign", "status", "--db", db]) == 0
        assert "2/4 terminal" in capsys.readouterr().out

        assert main(["campaign", "resume", "--db", db]) == 0
        assert "done=4" in capsys.readouterr().out

        out_dir = str(tmp_path / "rep")
        assert main(["campaign", "report", "--db", db,
                     "--out", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "report.json"))
        assert os.path.exists(os.path.join(out_dir, "report.html"))

    def test_finished_campaign_rerun_is_noop(self, c17_path, tmp_path, capsys):
        db = str(tmp_path / "c.db")
        assert main(["campaign", "run", c17_path, "--db", db,
                     "--copies", "2"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", c17_path, "--db", db,
                     "--copies", "2"]) == 0
        assert "0 executed" in capsys.readouterr().out

    def test_json_envelope(self, c17_path, tmp_path, capsys):
        import json

        db = str(tmp_path / "c.db")
        assert main(["campaign", "run", c17_path, "--db", db,
                     "--copies", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "campaign"
        assert payload["result"]["counts"] == {"done": 2}
        assert payload["result"]["complete"] is True

    def test_run_without_designs_errors(self, tmp_path):
        db = str(tmp_path / "c.db")
        with pytest.raises(SystemExit, match="needs at least one design"):
            main(["campaign", "run", "--db", db])

    def test_resume_with_designs_errors(self, tmp_path):
        db = str(tmp_path / "c.db")
        with pytest.raises(SystemExit, match="takes no designs"):
            main(["campaign", "resume", "x.v", "--db", db])

    def test_typed_error_exit_code(self, tmp_path, capsys):
        db = str(tmp_path / "empty.db")
        from repro.campaign import JobStore

        JobStore(db).close()
        assert main(["campaign", "resume", "--db", db]) == 3
        assert "no campaign spec" in capsys.readouterr().err

    def test_inject_kind(self, c17_path, tmp_path, capsys):
        db = str(tmp_path / "i.db")
        assert main(["campaign", "run", c17_path, "--db", db,
                     "--kind", "inject", "--injectors", "StuckAtNet",
                     "--trials", "2"]) == 0
        assert "done=2" in capsys.readouterr().out
