"""Window extraction (:mod:`repro.attack.window`) for the resubstitution attack."""

from repro.attack.window import WindowConfig, extract_window
from repro.ir import compile_circuit
from tests.golden.make_catalog_pin import small_circuit


class TestWindowInvariants:
    """Structural guarantees the resubstitution attack's windows rest on."""

    def test_members_topological_and_fanin_closed(self):
        circuit = small_circuit(3, n_gates=120)
        compiled = compile_circuit(circuit)
        config = WindowConfig(max_levels=3, max_gates=10)
        for gate in circuit.gates:
            seed_id = compiled.id_of(gate.name)
            window = extract_window(compiled, seed_id, config)
            ids = [int(i) for i in window.gate_ids]
            assert ids == sorted(ids)
            assert len(ids) <= config.max_gates
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

    def test_boundary_bookkeeping(self):
        circuit = small_circuit(11, n_gates=120)
        compiled = compile_circuit(circuit)
        po_ids = set(int(i) for i in compiled.output_ids)
        config = WindowConfig(max_levels=2, max_gates=6)
        for gate in circuit.gates:
            seed_id = compiled.id_of(gate.name)
            window = extract_window(compiled, seed_id, config)
            members = set(int(i) for i in window.gate_ids)
            outputs = set(int(i) for i in window.output_ids)
            for gid in members:
                escapes = any(
                    int(f) not in members for f in compiled.fanout_row(gid)
                )
                assert ((gid in po_ids) or escapes) == (gid in outputs)
            assert set(int(i) for i in window.po_ids) == members & po_ids
            assert window.seed_is_po == (seed_id in po_ids)
