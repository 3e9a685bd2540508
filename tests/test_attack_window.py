"""Window extraction (:mod:`repro.attack.window`) for the resubstitution attack."""

from repro.attack import window as window_module
from repro.attack.window import extract_window
from repro.ir import compile_circuit
from tests.golden.make_catalog_pin import small_circuit


def small_bounds(monkeypatch, max_levels, max_gates):
    """Patch the window bounds low, so the cuts bind on small circuits."""
    monkeypatch.setattr(window_module, "MAX_LEVELS", max_levels)
    monkeypatch.setattr(window_module, "MAX_GATES", max_gates)


class TestWindowInvariants:
    """Structural guarantees the resubstitution attack's windows rest on."""

    def test_members_topological_and_fanin_closed(self, monkeypatch):
        small_bounds(monkeypatch, max_levels=3, max_gates=10)
        circuit = small_circuit(3, n_gates=120)
        compiled = compile_circuit(circuit)
        full = 0
        for gate in circuit.gates:
            seed_id = compiled.id_of(gate.name)
            window = extract_window(compiled, seed_id)
            ids = [int(i) for i in window.gate_ids]
            assert ids == sorted(ids)
            assert len(ids) <= 10
            full += len(ids) == 10
            members = set(ids)
            # Fanin-closure within the cone: any member's fanin that is
            # itself in the seed's fanout cone must also be a member —
            # otherwise side inputs could carry a difference into the
            # window unseen and a window-local proof would be unsound.
            cone = set(int(g) for g in compiled.fanout_cone(gate.name))
            for gid in ids:
                for fid in compiled.fanin_row(gid):
                    fid = int(fid)
                    if fid in cone and fid != seed_id:
                        assert fid in members, (gate.name, gid, fid)
        assert full, "the gate bound never binds"

    def test_boundary_bookkeeping(self, monkeypatch):
        small_bounds(monkeypatch, max_levels=2, max_gates=6)
        circuit = small_circuit(11, n_gates=120)
        compiled = compile_circuit(circuit)
        po_ids = set(int(i) for i in compiled.output_ids)
        for gate in circuit.gates:
            seed_id = compiled.id_of(gate.name)
            window = extract_window(compiled, seed_id)
            members = set(int(i) for i in window.gate_ids)
            outputs = set(int(i) for i in window.output_ids)
            for gid in members:
                escapes = any(
                    int(f) not in members for f in compiled.fanout_row(gid)
                )
                assert ((gid in po_ids) or escapes) == (gid in outputs)
            seed_escapes = any(
                int(f) not in members for f in compiled.fanout_row(seed_id)
            )
            assert window.seed_escapes == seed_escapes
            assert window.seed_is_po == (seed_id in po_ids)
