import cmath
import math

import numpy as np
import pytest

from qsprep import amplitudes as amp
from qsprep import sim
from qsprep.circuit_ir import GATE_SIGNATURES, Block, Circuit
from qsprep.errors import DeallocNotZero, NormDrift, PeakQubitsExceeded
from qsprep.sim import run
from qsprep.subroutines import copy
from reference import (append, circuit_json, class_split_oracle, flag_oracle, gate, gate_unitary, loadf_oracle,
                       pair_index, place, spf_oracle, to_json_dict)


def ry_matrix(theta):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def sim_unitary(op, params=()):
    """The simulator's unitary of one gate, a column per basis input run through
    ``run``; operand t owns bit t."""
    c = Circuit()
    qs = list(c.alloc_many(GATE_SIGNATURES[op][0], at_layer=0))
    c.mark_persistent(qs)
    c.put(op, qs, 0, list(params))
    columns = []
    for i in range(1 << len(qs)):
        _, state = run(c, seeds={q: (0.0, 1.0) if (i >> t) & 1 else None for t, q in enumerate(qs)})
        columns.append(state.statevector(qs))
    return np.array(columns).T


class TestGateUnitaries:
    """Pin the simulator's gate semantics to explicit matrices.

    Index convention: operand t owns bit t, so basis order for (a, b) is
    |b a> = 00, 01(a=1), 10(b=1), 11.
    """

    def test_x_h_ry(self):
        assert np.allclose(sim_unitary("x"), [[0, 1], [1, 0]])
        assert np.allclose(sim_unitary("h"), np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        assert np.allclose(sim_unitary("ry", (0.7,)), ry_matrix(0.7))

    def test_s_t(self):
        assert np.allclose(sim_unitary("s"), np.diag([1, 1j]))
        assert np.allclose(sim_unitary("t"), np.diag([1, cmath.exp(1j * math.pi / 4)]))
        assert np.allclose(sim_unitary("phase", (0.3,)), np.diag([1, cmath.exp(0.3j)]))

    def test_cnot(self):
        # control = bit 0: basis 1 (a=1,b=0) <-> basis 3 (a=1,b=1)
        want = np.eye(4)[:, [0, 3, 2, 1]]
        assert np.allclose(sim_unitary("cnot"), want)

    def test_swap(self):
        want = np.eye(4)[:, [0, 2, 1, 3]]
        assert np.allclose(sim_unitary("swap"), want)

    def test_toffoli(self):
        # controls bits 0,1: swaps basis 3 (011) and 7 (111)
        perm = list(range(8))
        perm[3], perm[7] = 7, 3
        assert np.allclose(sim_unitary("toffoli"), np.eye(8)[:, perm])

    def test_cswap(self):
        # control bit 0: swaps targets bits 1, 2 when bit 0 set: 011 <-> 101
        perm = list(range(8))
        perm[3], perm[5] = 5, 3
        assert np.allclose(sim_unitary("cswap"), np.eye(8)[:, perm])

    def test_cry(self):
        U = sim_unitary("cry", (0.9,))
        R = ry_matrix(0.9)
        want = np.eye(4, dtype=complex)
        want[np.ix_([1, 3], [1, 3])] = R
        assert np.allclose(U, want)

    def test_rz_phases(self):
        U = sim_unitary("rz", (0.5,))
        assert np.allclose(U, np.diag([cmath.exp(-0.25j), cmath.exp(0.25j)]))

    @pytest.mark.parametrize("op", list(GATE_SIGNATURES))
    def test_every_op_matches_the_dense_oracle(self, op):
        params = (0.7,) * GATE_SIGNATURES[op][1]
        assert np.max(np.abs(sim_unitary(op, params) - gate_unitary(op, params))) < 1e-15


class TestSimBasics:
    def test_empty_circuit_is_identity(self):
        c = Circuit()
        q = c.alloc(at_layer=0)
        c.mark_persistent([q])
        report, state = run(c, target=[1, 0], target_order=[q])
        assert report.fidelity == pytest.approx(1.0)

    def test_bell_state(self):
        c = Circuit()
        a, b = c.alloc(at_layer=0), c.alloc(at_layer=0)
        c.mark_persistent([a, b])
        append(c, gate("h", (a,)))
        append(c, gate("cnot", (a, b)))
        _, state = run(c)
        vec = state.statevector([a, b])
        assert np.allclose(vec, [1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])

    def test_copy_on_superposition(self):
        c = Circuit()
        src = c.alloc(at_layer=0)
        c.mark_persistent([src])
        place(c, [gate("ry", (src,), 2 * math.asin(0.8))], 0)
        reg, _ = copy(c, src, 8, start=1)
        c.mark_persistent(reg[1:])
        _, state = run(c)
        vec = state.statevector(reg)
        want = np.zeros(256)
        want[0] = 0.6
        want[255] = 0.8
        assert np.allclose(vec, want, atol=1e-12)

    def test_dealloc_entangled_raises(self):
        c = Circuit()
        q = c.alloc(at_layer=0)
        place(c, [gate("x", (q,))], 0)
        c.dealloc(q, at_layer=1)
        with pytest.raises(DeallocNotZero):
            run(c)

    def test_dealloc_contracts_state(self):
        c = Circuit()
        a = c.alloc(at_layer=0)
        b = c.alloc(at_layer=0)
        c.mark_persistent([a])
        place(c, [gate("ry", (a,), 1.1)], 0)
        place(c, [gate("cnot", (a, b))], 1)
        place(c, [gate("cnot", (a, b))], 2)  # uncompute
        c.dealloc(b, at_layer=3)
        report, state = run(c)
        assert len(state._pos) == 1
        assert report.ancilla_verdicts[0][2] <= 1e-12

    @pytest.mark.parametrize("late", [False, True])
    def test_wide_state_is_refused(self, monkeypatch, late):
        """Two keys fit a bound of 3 words at 64 qubits, not at 65, where a key takes two words.

        The last qubit comes in at layer 0 (refused when the H doubles the
        support) or after the H (refused when its allocation widens the keys).
        """
        def wide(width):
            c = Circuit()
            qs = [c.alloc(at_layer=0) for _ in range(width - 1)]
            qs.append(c.alloc(at_layer=int(late)))
            c.mark_persistent(qs)
            place(c, [gate("h", (qs[0],))], 0)
            return c

        monkeypatch.setattr(sim, "MAX_SUPPORT", 3)
        report, state = run(wide(64))
        assert (report.peak_live_qubits, len(state._amp)) == (64, 2)
        with pytest.raises(PeakQubitsExceeded, match="support"):
            run(wide(65))

    def test_statevector_reorders(self):
        c = Circuit()
        a, b = c.alloc(at_layer=0), c.alloc(at_layer=0)
        c.mark_persistent([a, b])
        place(c, [gate("x", (a,))], 0)
        _, state = run(c)
        assert np.argmax(np.abs(state.statevector([a, b]))) == 1
        assert np.argmax(np.abs(state.statevector([b, a]))) == 2

    def test_basis_fast_path_stays_symbolic(self):
        c = Circuit()
        qs = [c.alloc(at_layer=0) for _ in range(40)]  # 2**40 amplitudes as a dense vector
        c.mark_persistent(qs)
        place(c, [gate("x", (qs[0],))], 0)
        for i in range(39):
            place(c, [gate("cnot", (qs[i], qs[i + 1]))], i + 1)
        report, state = run(c)
        assert state.dominant_basis() == ((1 << 40) - 1, 1.0)

    def test_dominant_basis_ties_go_to_lowest_key(self):
        c = Circuit()
        a, b = c.alloc(at_layer=0), c.alloc(at_layer=0)
        c.mark_persistent([a, b])
        place(c, [gate("x", (b,))], 0)
        place(c, [gate("h", (a,))], 0)
        _, state = run(c)
        key, prob = state.dominant_basis()
        assert key == 2 and prob == pytest.approx(0.5)

    def test_rounding_residue_is_dropped(self, monkeypatch):
        # cos(pi/2) is 6e-17, not 0; kept, it would double the support
        c = Circuit()
        a, b = c.alloc(at_layer=0), c.alloc(at_layer=0)
        c.mark_persistent([a, b])
        place(c, [gate("ry", (a,), math.pi)], 0)
        place(c, [gate("cnot", (a, b))], 1)
        monkeypatch.setattr(sim, "MAX_SUPPORT", 1)
        _, state = run(c)
        key, prob = state.dominant_basis()
        assert key == 3 and prob == pytest.approx(1.0)

    def test_dirty_seed_restored(self):
        c = Circuit()
        a = c.alloc(at_layer=0)
        c.mark_persistent([a])
        d = c.alloc("dirty", at_layer=0)
        place(c, [gate("cnot", (a, d))], 0)
        place(c, [gate("cnot", (a, d))], 1)
        c.dealloc(d, at_layer=2)
        seed = (0.6, 0.8j)
        report, _ = run(c, seeds={d: seed})
        assert report.dirty_restoration == [(d, True)]

    def test_dirty_seed_not_restored_raises(self):
        c = Circuit()
        d = c.alloc("dirty", at_layer=0)
        place(c, [gate("x", (d,))], 0)
        c.dealloc(d, at_layer=1)
        with pytest.raises(DeallocNotZero):
            run(c, seeds={d: (0.6, 0.8)})

    def test_norm_drift_raises(self):
        # each ancilla leaves 0.9e-10 of its mass behind, under the dealloc
        # bound; after the 12th the lost mass passes the 1e-9 norm bound
        c = Circuit()
        a = c.alloc(at_layer=0)
        c.mark_persistent([a])
        for t in range(12):
            q = c.alloc(at_layer=t)
            place(c, [gate("ry", (q,), 2 * math.asin(math.sqrt(0.9e-10)))], t)
            c.dealloc(q, at_layer=t + 1)
        place(c, [gate("x", (a,))], 12)
        with pytest.raises(NormDrift, match="after layer 12"):
            run(c)

    def test_detach_product_factor(self):
        c = Circuit()
        a, b, e = (c.alloc(at_layer=0) for _ in range(3))
        c.mark_persistent([a, b, e])
        place(c, [gate("ry", (a,), 0.5)], 0)
        place(c, [gate("cnot", (a, b))], 1)
        place(c, [gate("ry", (e,), 1.3)], 0)
        _, state = run(c)
        factor, defect = state.detach([e])
        assert defect < 1e-12
        assert np.allclose(np.abs(factor), np.abs(ry_matrix(1.3) @ [1, 0]))
        assert len(state._pos) == 2


def strip_deallocs(c: Circuit) -> tuple[Circuit, dict]:
    """Same gates and allocations, but no qubit is ever contracted out."""
    from qsprep.circuit_ir import loads

    doc = to_json_dict(c)
    doc["dealloc"] = []
    doc["persistent"] = [qid for qid, _, _ in doc["alloc"]]
    flat = loads(circuit_json(doc))
    id_map = {q: q for q in flat.qubits()}
    return flat, id_map


class TestContractionSoundness:
    def test_dynamic_equals_projected_static(self):
        # circuit with deallocs vs the same gates with every ancilla kept,
        # projected onto ancilla |0>
        rng = np.random.default_rng(4)
        for trial in range(5):
            theta = rng.uniform(0, math.pi)
            dyn = Circuit()
            src = dyn.alloc(at_layer=0)
            dyn.mark_persistent([src])
            place(dyn, [gate("ry", (src,), theta)], 0)
            block = Block(dyn, 1)
            reg, end = copy(block, src, 8, start=1)
            block.mirror(end, end - 1)
            _, dstate = run(dyn)
            dyn_vec = dstate.statevector([src])

            flat, id_map = strip_deallocs(dyn)
            _, fstate = run(flat)
            order = [id_map[src]] + [id_map[q] for q in flat.qubits() if q != src]
            full = fstate.statevector(order).reshape(-1, 2)  # columns indexed by src bit
            projected = full[0, :]  # every ancilla in |0>
            assert np.allclose(projected, dyn_vec, atol=1e-10)
            assert np.allclose(dyn_vec, [math.cos(theta / 2), math.sin(theta / 2)], atol=1e-12)


class TestContractionSoundnessFragments:
    """Dynamic dealloc equals the flattened run projected on ancilla |0>."""

    def compare(self, circ, keep):
        _, dstate = run(circ)
        dyn = dstate.statevector(keep)
        flat, id_map = strip_deallocs(circ)
        _, fstate = run(flat)
        keep_mapped = [id_map[q] for q in keep]
        keep_ids = {q for q in keep_mapped}
        rest = [q for q in flat.qubits() if q not in keep_ids]
        full = fstate.statevector(keep_mapped + rest).reshape(-1, 1 << len(keep))
        assert np.max(np.abs(full[0, :] - dyn)) < 1e-10

    def test_spf_fragment(self):
        from qsprep.subroutines import spf, split_levels

        rng = np.random.default_rng(44)
        vals = rng.random(8) + 0.05
        aset = amp.sp_angles(vals)
        c = Circuit()
        data = [c.alloc(at_layer=0) for _ in range(3)]
        A = [c.alloc(at_layer=0) for _ in range(7)]
        c.mark_persistent(data + A)
        for s in range(3):
            for p in range(1 << s):
                place(c, [gate("ry", (A[pair_index(s, p)],), aset.theta(s, p))], 0)
        spf(c, data, split_levels(A), start=1)
        self.compare(c, data + A)

    def test_flag_fragment_on_superposition(self):
        from qsprep.subroutines import flag, split_levels

        c = Circuit()
        data = [c.alloc(at_layer=0) for _ in range(3)]
        F = [c.alloc(at_layer=0) for _ in range(7)]
        c.mark_persistent(data + F)
        for q in data:
            place(c, [gate("h", (q,))], 0)
        for q in F:
            place(c, [gate("x", (q,))], 0)
        flag(c, data, split_levels(F), start=1)
        self.compare(c, data + F)

    def test_copyswap_round_trip(self):
        from qsprep.subroutines import copyswap

        c = Circuit()
        ctrl = [c.alloc(at_layer=0) for _ in range(3)]
        payload = c.alloc(at_layer=0)
        c.mark_persistent(ctrl + [payload])
        for q in ctrl:
            place(c, [gate("h", (q,))], 0)
        place(c, [gate("ry", (payload,), 0.9)], 0)
        block = Block(c, 1)
        res = copyswap(block, ctrl, payload, start=1)
        block.mirror(res.end, 3)
        self.compare(c, ctrl + [payload])

    def test_loadf_fragment(self):
        from qsprep.protocols import fragment_circuit

        rng = np.random.default_rng(45)
        t = amp.make_target(rng.random(8) + 0.05)
        conv = amp.csp_angles(t, 1)
        c = fragment_circuit("loadf", m=1, angles=conv, basis=1,
                             flags=[1, 1, 1], fanout=False)
        keep = c.registers["D0"] + c.registers["B0"] + c.registers["F0"]
        self.compare(c, keep)


class TestOracles:
    def test_flag_oracle_small_cases(self):
        assert flag_oracle(0, 3) == {(s, p): int(p == 0) for s in range(3) for p in range(1 << s)}
        f = flag_oracle(5, 3)
        assert {k for k, v in f.items() if v} == {(0, 0), (1, 1), (2, 1)}

    def test_flag_oracle_one_per_level(self):
        for m in range(1, 5):
            for j in range(1 << m):
                f = flag_oracle(j, m)
                for s in range(m):
                    assert sum(f[(s, p)] for p in range(1 << s)) == 1

    def test_spf_oracle_m1(self):
        y = amp.PartitionNorms(m=1, values=np.array([0.6, 0.8]))
        aset = amp.AngleSet(m=1, angles=np.array([2 * math.asin(0.8)]))
        vec = spf_oracle(y, aset)
        # data bit 0, angle qubit bit 1; injected pair is always (0, 0): garbage |0>
        want = np.zeros(4, dtype=complex)
        want[0] = 0.6
        want[1] = 0.8
        assert np.allclose(vec, want)

    def test_spf_oracle_norm(self):
        rng = np.random.default_rng(9)
        for m in (2, 3):
            vals = rng.random(1 << m)
            y = amp.PartitionNorms(m=m, values=vals)
            aset = amp.sp_angles(vals)
            vec = spf_oracle(y, aset)
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
            for s in range(m):
                for p in range(1 << s):
                    assert abs(aset.theta(s, p) - class_split_oracle(vals, s, p)) < 1e-12

    def test_loadf_oracle_zero_flags(self):
        t = amp.make_target(np.arange(1, 9))
        cset = amp.csp_angles(t, 1)
        seg = np.abs(t.amplitudes[:4])
        assert all(abs(cset.theta(0, s, p) - class_split_oracle(seg, s, p)) < 1e-12
                   for s in range(2) for p in range(1 << s))
        vec = loadf_oracle(cset, 0, [0, 0, 0])
        want = np.zeros(8)
        want[0] = 1.0
        assert np.allclose(vec, want)

    def test_loadf_oracle_all_flags(self):
        t = amp.make_target(np.arange(1, 9))
        cset = amp.csp_angles(t, 1)
        seg = np.abs(t.amplitudes[4:])
        assert all(abs(cset.theta(1, s, p) - class_split_oracle(seg, s, p)) < 1e-12
                   for s in range(2) for p in range(1 << s))
        vec = loadf_oracle(cset, 1, [1, 1, 1])
        states = [np.array([math.cos(cset.theta(1, s, p) / 2), math.sin(cset.theta(1, s, p) / 2)])
                  for s in range(2) for p in range(1 << s)]
        want = np.kron(states[2], np.kron(states[1], states[0]))
        assert np.allclose(vec, want)

    def test_pair_index(self):
        assert [pair_index(s, p) for s in range(3) for p in range(1 << s)] == list(range(7))


class TestPositionReuse:
    """A freed qubit's key bit is reused, so keys stay as wide as the peak live count."""

    def test_freed_position_is_reused_lowest_first(self):
        c = Circuit()
        a, b, d = (c.alloc(at_layer=0) for _ in range(3))
        c.mark_persistent([a])
        place(c, [gate("x", (a,))], 0)
        c.dealloc(b, at_layer=1)
        c.dealloc(d, at_layer=1)
        e = c.alloc(at_layer=1)
        c.mark_persistent([e])
        place(c, [gate("cnot", (a, e))], 1)
        _, state = run(c)
        assert state._pos == {a: 0, e: 1}
        assert state.dominant_basis() == (0b11, 1.0)

    def test_dominant_basis_ties_follow_allocation_order(self):
        # d reuses b's position below c; a tie still goes to the lowest key read
        # over the live qubits in allocation order (a, c, d): c=1, d=0
        c = Circuit()
        a, b, cq = (c.alloc(at_layer=0) for _ in range(3))
        c.mark_persistent([a, cq])
        place(c, [gate("x", (a,))], 0)
        c.dealloc(b, at_layer=1)
        d = c.alloc(at_layer=1)
        c.mark_persistent([d])
        place(c, [gate("h", (cq,))], 1)
        place(c, [gate("cnot", (cq, d))], 2)
        place(c, [gate("x", (d,))], 3)
        _, state = run(c)
        assert (state._pos[cq], state._pos[d]) == (2, 1)
        key, prob = state.dominant_basis()
        assert (key & 1, (key >> 2) & 1, (key >> 1) & 1) == (1, 1, 0)
        assert prob == pytest.approx(0.5)

    @pytest.mark.parametrize("n, m", [(8, 5), (10, 6)])
    @pytest.mark.parametrize("dirty_b1", [False, True])
    def test_paper_layout_basis_targets(self, n, m, dirty_b1):
        """Basis targets keep the support small at any width: every angle is 0 or pi."""
        from qsprep.protocols import ProtocolConfig, spcsp

        rng = np.random.default_rng(n + dirty_b1)
        for j in (0, 5, (1 << n) - 1):
            amplitudes = np.zeros(1 << n)
            amplitudes[j] = 1.0
            t = amp.make_target(amplitudes)
            c = spcsp(t, ProtocolConfig(n=n, m=m, dirty_b1=dirty_b1))
            seeds = {q: (0.0, 1.0) if rng.integers(2) else (1.0, 0.0)
                     for q in c.qubits() if c.kind(q) == "dirty"}
            report, state = run(c, seeds=seeds, target=t.amplitudes,
                                target_order=c.registers["D"])
            assert report.fidelity == 1.0
            assert all(mass == 0.0 for _, _, mass in report.ancilla_verdicts)
            assert bool(seeds) == dirty_b1
            assert len(report.dirty_restoration) == len(seeds)
            assert all(ok for _, ok in report.dirty_restoration)
            assert state._width == report.peak_live_qubits
