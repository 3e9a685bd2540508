"""Tests for whole-catalog formal auditing."""


from repro.fingerprint import audit_catalog, find_locations
from repro.bench import build_benchmark


class TestAudit:
    def test_fig1_audit_clean(self, fig1_circuit):
        catalog = find_locations(fig1_circuit)
        report = audit_catalog(fig1_circuit, catalog)
        assert report.clean
        assert report.n_checked == sum(
            len(s.variants) for s in catalog.slots()
        )
        assert all(v.method == "exhaustive" for v in report.verdicts)
        assert "CLEAN" in report.summary()

    def test_benchmark_audit_clean_sat(self):
        base = build_benchmark("C432")  # 54 inputs -> SAT path
        catalog = find_locations(base)
        report = audit_catalog(base, catalog, max_variants=12)
        assert report.clean
        assert report.n_checked == 12
        assert all(v.method == "sat" for v in report.verdicts)

    def test_sat_audit_encodes_the_base_once(self):
        """Every SAT check of an audit runs in one CEC session."""
        from repro import telemetry

        base = build_benchmark("C432")
        catalog = find_locations(base)
        telemetry.get_tracer().reset()
        try:
            with telemetry.enabled(trace=True, metrics=False):
                report = audit_catalog(base, catalog, max_variants=12)
            encodes = [
                node
                for root in telemetry.get_tracer().drain()
                for node in root.walk()
                if node.name == "sat.encode_base"
            ]
        finally:
            telemetry.get_tracer().reset()
        assert report.n_checked == 12
        assert len(encodes) == 1

    def test_audit_catches_a_poisoned_variant(self, fig1_circuit):
        """Inject a wrong-polarity variant; the audit must flag it."""
        from repro.fingerprint.locations import LocationCatalog
        from repro.fingerprint.modifications import Literal, Slot, Variant

        catalog = find_locations(fig1_circuit)
        location = catalog.locations[0]
        slot = location.slots[0]
        good = slot.variants[0]
        poisoned_variant = Variant(
            good.kind,
            tuple(Literal(l.net, not l.positive) for l in good.literals),
            "poisoned",
        )
        poisoned_slot = Slot(
            location_id=slot.location_id,
            primary=slot.primary,
            target=slot.target,
            target_kind=slot.target_kind,
            trigger=slot.trigger,
            trigger_value=slot.trigger_value,
            variants=(poisoned_variant,),
        )
        poisoned_catalog = LocationCatalog(catalog.circuit_name)
        poisoned_catalog.locations = [
            type(location)(
                id=location.id,
                primary=location.primary,
                primary_kind=location.primary_kind,
                ffc_root=location.ffc_root,
                trigger=location.trigger,
                trigger_value=location.trigger_value,
                ffc_gates=location.ffc_gates,
                slots=(poisoned_slot,),
            )
        ]
        report = audit_catalog(fig1_circuit, poisoned_catalog)
        assert not report.clean
        assert report.failures[0].target == slot.target
        assert "FAILURES" in report.summary()

    def test_sat_audit_refutes_a_poisoned_variant(self):
        """The same wrong-polarity variant on C432 (54 inputs): the audit
        refutes it through SAT, not exhaustive simulation."""
        from repro.fingerprint.locations import LocationCatalog
        from repro.fingerprint.modifications import Literal, Slot, Variant

        base = build_benchmark("C432")
        catalog = find_locations(base)
        location = catalog.locations[0]
        slot = location.slots[0]
        good = slot.variants[0]
        poisoned_variant = Variant(
            good.kind,
            tuple(Literal(l.net, not l.positive) for l in good.literals),
            "poisoned",
        )
        poisoned_slot = Slot(
            location_id=slot.location_id,
            primary=slot.primary,
            target=slot.target,
            target_kind=slot.target_kind,
            trigger=slot.trigger,
            trigger_value=slot.trigger_value,
            variants=(poisoned_variant,),
        )
        poisoned_catalog = LocationCatalog(catalog.circuit_name)
        poisoned_catalog.locations = [
            type(location)(
                id=location.id,
                primary=location.primary,
                primary_kind=location.primary_kind,
                ffc_root=location.ffc_root,
                trigger=location.trigger,
                trigger_value=location.trigger_value,
                ffc_gates=location.ffc_gates,
                slots=(poisoned_slot,),
            )
        ]
        report = audit_catalog(base, poisoned_catalog)
        assert not report.clean
        failure = report.failures[0]
        assert failure.target == slot.target
        assert failure.method == "sat"

    def test_audit_restores_circuit(self, fig1_circuit):
        catalog = find_locations(fig1_circuit)
        golden_gates = {g.name: g for g in fig1_circuit.gates}
        audit_catalog(fig1_circuit, catalog)
        assert {g.name: g for g in fig1_circuit.gates} == golden_gates


class TestCliAudit:
    def test_cli_audit(self, tmp_path, fig1_circuit, capsys):
        from repro.cli import main
        from repro.netlist import save_verilog

        path = tmp_path / "fig1.v"
        save_verilog(fig1_circuit, str(path))
        assert main(["audit", str(path)]) == 0
        assert "CLEAN" in capsys.readouterr().out
