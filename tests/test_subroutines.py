import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsprep import amplitudes as amp
from qsprep.circuit_ir import Block, Circuit, spacetime_allocation
from qsprep.errors import BadRegisterShape, NotPowerOfTwo, RegisterTooSmall
from qsprep.protocols import FRAGMENT_MAX_M, fragment_circuit
from qsprep.sim import run
from qsprep.subroutines import (
    _spf_plan,
    bitrev,
    copy,
    copy_layer,
    copyswap,
    cs_layer,
    fan_out,
    flag,
    spf,
    split_levels,
)
from reference import copy_tree_oracle, flag_oracle, gate, gates, loadf_oracle, pair_index, place, spf_oracle


def extract_block(state, keep, fixed):
    """Amplitudes over `keep` given the `fixed` registers hold basis values."""
    order = list(keep)
    combined = 0
    shift = 0
    for qubits, value in fixed:
        order += list(qubits)
        combined |= value << shift
        shift += len(qubits)
    full = state.statevector(order)
    return full.reshape(-1, 1 << len(keep))[combined, :]


class TestCopy:
    @pytest.mark.parametrize("size", [2, 4, 8, 16, 32])
    def test_depth_and_sa(self, size):
        c = Circuit()
        src = c.alloc(at_layer=0)
        c.mark_persistent([src])
        reg, _ = copy(c, src, size, start=0)
        c.mark_persistent(reg[1:])
        assert c.depth() == int(math.log2(size))
        assert spacetime_allocation(c).sa_exact == 2 * size - 2

    def test_c2_single_cnot(self):
        c = Circuit()
        src = c.alloc(at_layer=0)
        c.mark_persistent([src])
        reg, _ = copy(c, src, 2, start=0)
        c.mark_persistent(reg[1:])
        assert c.size() == 1

    def test_simulated_ghz_weights(self):
        c = Circuit()
        src = c.alloc(at_layer=0)
        c.mark_persistent([src])
        place(c, [gate("ry", (src,), 2 * math.asin(0.8))], 0)
        reg, end = copy(c, src, 8, start=1)
        c.mark_persistent(reg[1:])
        _, state = run(c)
        vec = state.statevector(reg)
        assert vec[0] == pytest.approx(0.6)
        assert vec[255] == pytest.approx(0.8)

    def test_uncopy_round_trip(self):
        c = Circuit()
        src = c.alloc(at_layer=0)
        c.mark_persistent([src])
        place(c, [gate("ry", (src,), 0.9)], 0)
        block = Block(c, 1)
        reg, end = copy(block, src, 8, start=1)
        block.mirror(end, end - 1)
        _, state = run(c)  # dealloc checks pass
        assert len(state._pos) == 1

    def test_rejects_non_power(self):
        c = Circuit()
        src = c.alloc(at_layer=0)
        with pytest.raises(NotPowerOfTwo):
            copy(c, src, 6)


def grow_copy_trees(c, roots, size, starts, halving, tree_major):
    """The package's copy trees for :func:`copy_tree_oracle`'s arguments: ``fan_out``
    for doubling trees, ``copy`` per tree for halving trees grown tree by tree, and for
    halving trees grown a layer at a time ``copy_layer`` on the trees that grow at each
    layer, those of one start in one call.  Returns the registers as lists."""
    if not halving:
        return fan_out(c, roots, size, starts).tolist()
    if tree_major:
        return [list(copy(c, root, size, start)[0]) for root, start in zip(roots, starts)]
    depth = size.bit_length() - 1
    trees = [np.array([[root]], np.intc) for root in roots]
    for layer in sorted({s + t for s in starts for t in range(depth)}):
        growing = [k for k, s in enumerate(starts) if s <= layer < s + depth]
        for _, group in groupby(growing, key=starts.__getitem__):
            group = list(group)
            grown = copy_layer(c, np.vstack([trees[k] for k in group]), layer)
            for k, row in zip(group, grown):
                trees[k] = row[None]
    return [tree[0].tolist() for tree in trees]


@st.composite
def forests(draw):
    """(size, starts, halving, tree_major, in_block): 1..5 trees of one size, 1..64 for
    doubling trees and a power of two for halving ones, with equal or staggered starts."""
    halving = draw(st.booleans())
    size = 1 << draw(st.integers(0, 6)) if halving else draw(st.integers(1, 64))
    count, first = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    starts = [first] * count if draw(st.booleans()) else draw(st.lists(st.integers(0, 6), min_size=count,
                                                                       max_size=count))
    tree_major = draw(st.booleans()) if halving else True
    return size, starts, halving, tree_major, draw(st.booleans())


@settings(max_examples=80, deadline=None, derandomize=True)
@given(forests())
def test_copy_trees_match_the_reference(forest):
    """Halving trees grown tree by tree (``copy``) and a layer at a time (``copy_layer``),
    and doubling trees grown tree by tree (``fan_out``), on a bare circuit or in a
    ``Block`` followed by ``mirror``: the qubit ids with their alloc layers, each layer's
    CNOT column and the registers equal the slot-at-a-time reference, and the mirror
    releases each copy allocated at ``start + rel`` at ``at + span - rel``."""
    size, starts, halving, tree_major, in_block = forest
    ref = Circuit()
    want, cnots = copy_tree_oracle(ref, ref.alloc_many(len(starts), at_layer=0), size, starts, halving, tree_major)
    c = Circuit()
    roots = c.alloc_many(len(starts), at_layer=0)
    c.mark_persistent(roots)
    start, span = min(starts), max(starts) + (size - 1).bit_length() - min(starts)
    block = Block(c, start)
    got = grow_copy_trees(block if in_block else c, roots, size, starts, halving, tree_major)
    assert got == want
    assert list(c._alloc) == list(ref._alloc)
    assert {t: list(c._qs[t]) for t in range(c.num_layers()) if c._qs[t]} == cnots
    if in_block:
        at = start + span
        assert block.mirror(at, span) == at + span
        copies = [q for q in c.qubits() if q not in roots]
        assert [c.dealloc_layer(q) for q in copies] == [at + span - (c.alloc_layer(q) - start) for q in copies]
        assert c.validate() == []


class TestCsLayer:
    @pytest.mark.parametrize("t,count", [(0, 1), (1, 2), (2, 4)])
    def test_gate_count_single_layer(self, t, count):
        c = Circuit()
        controls = [c.alloc(at_layer=0) for _ in range(1 << t)]
        targets = [c.alloc(at_layer=0) for _ in range(2 << t)]
        c.mark_persistent(controls + targets)
        cs_layer(c, t, controls, targets, at_layer=0)
        assert c.depth() == 1
        assert c.size() == count

    def test_all_ones_controls_exchange_halves(self):
        t = 1
        c = Circuit()
        controls = [c.alloc(at_layer=0) for _ in range(2)]
        targets = [c.alloc(at_layer=0) for _ in range(4)]
        c.mark_persistent(controls + targets)
        for q in controls:
            place(c, [gate("x", (q,))], 0)
        place(c, [gate("x", (targets[0],))], 0)  # S = |0001>
        cs_layer(c, t, controls, targets, at_layer=1)
        _, state = run(c)
        vec = state.statevector(targets + controls)
        assert np.argmax(np.abs(vec)) == 0b11_0100  # marker moved from slot 0 to slot 2

    def test_register_too_small(self):
        c = Circuit()
        controls = [c.alloc(at_layer=0)]
        targets = [c.alloc(at_layer=0) for _ in range(2)]
        with pytest.raises(RegisterTooSmall):
            cs_layer(c, 1, controls, targets)


class TestCopySwap:
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_depth_is_m(self, m):
        c = fragment_circuit("copyswap", m)
        assert c.depth() == m

    @pytest.mark.parametrize("m", [2, 3])
    def test_basis_permutation_all_k(self, m):
        for k in range(1 << m):
            c = Circuit()
            ctrl = [c.alloc(at_layer=0) for _ in range(m)]
            payload = c.alloc(at_layer=0)
            c.mark_persistent(ctrl + [payload])
            for bit in range(m):
                if (k >> bit) & 1:
                    place(c, [gate("x", (ctrl[bit],))], 0)
            place(c, [gate("x", (payload,))], 0)  # xi = |1> marks the routed slot
            res = copyswap(c, ctrl, payload, start=1)
            c.mark_persistent(res.slots[1:])
            for tr in res.trees:
                c.mark_persistent(tr[1:])
            _, state = run(c)
            # payload |1> must sit at slot k, every other slot |0>; the copy
            # registers of bit j hold that bit everywhere
            fixed = []
            for j, tr in enumerate(res.trees):
                for q in tr:
                    fixed.append(([q], (k >> j) & 1))
            slot_vec = extract_block(state, res.slots, fixed)
            assert np.argmax(np.abs(slot_vec)) == 1 << k
            assert abs(np.abs(slot_vec[1 << k]) - 1.0) < 1e-12

    def test_k0_leaves_payload_in_place(self):
        m = 3
        c = Circuit()
        ctrl = [c.alloc(at_layer=0) for _ in range(m)]
        payload = c.alloc(at_layer=0)
        c.mark_persistent(ctrl + [payload])
        place(c, [gate("ry", (payload,), 1.2)], 0)
        res = copyswap(c, ctrl, payload, start=1)
        c.mark_persistent(res.slots[1:])
        for tr in res.trees:
            c.mark_persistent(tr[1:])
        _, state = run(c)
        fixed = [([q], 0) for tr in res.trees for q in tr]
        vec = extract_block(state, res.slots, fixed)
        assert abs(vec[0]) == pytest.approx(math.cos(0.6))
        assert abs(vec[1]) == pytest.approx(math.sin(0.6))

    def test_superposed_payload_routed(self):
        m, k = 3, 5
        c = Circuit()
        ctrl = [c.alloc(at_layer=0) for _ in range(m)]
        payload = c.alloc(at_layer=0)
        c.mark_persistent(ctrl + [payload])
        for bit in range(m):
            if (k >> bit) & 1:
                place(c, [gate("x", (ctrl[bit],))], 0)
        place(c, [gate("ry", (payload,), 0.77)], 0)
        res = copyswap(c, ctrl, payload, start=1)
        c.mark_persistent(res.slots[1:])
        for tr in res.trees:
            c.mark_persistent(tr[1:])
        _, state = run(c)
        fixed = [([q], (k >> j) & 1) for j, tr in enumerate(res.trees) for q in tr]
        slot_vec = extract_block(state, res.slots, fixed)
        # xi lives at slot k: amplitudes on slot-k bit, rest |0>
        assert abs(slot_vec[0]) == pytest.approx(math.cos(0.77 / 2))
        assert abs(slot_vec[1 << k]) == pytest.approx(math.sin(0.77 / 2))

    def test_adjoint_round_trip(self):
        m = 3
        c = Circuit()
        ctrl = [c.alloc(at_layer=0) for _ in range(m)]
        payload = c.alloc(at_layer=0)
        c.mark_persistent(ctrl + [payload])
        for q in ctrl:
            place(c, [gate("h", (q,))], 0)
        place(c, [gate("ry", (payload,), 0.5)], 0)
        block = Block(c, 1)
        res = copyswap(block, ctrl, payload, start=1)
        block.mirror(res.end, m)  # releases the copies and the target slots
        report, state = run(c)
        assert len(state._pos) == m + 1
        assert all(mass <= 1e-12 for _, _, mass in report.ancilla_verdicts)


def spf_fragment(y_values):
    """Build data + angle registers, prep |Theta>, run spf; return pieces."""
    vals = np.asarray(y_values, float)
    m = int(math.log2(len(vals)))
    aset = amp.sp_angles(vals)
    c = Circuit()
    data = [c.alloc(at_layer=0) for _ in range(m)]
    A = [c.alloc(at_layer=0) for _ in range((1 << m) - 1)]
    c.mark_persistent(data + A)
    for s in range(m):
        for p in range(1 << s):
            place(c, [gate("ry", (A[pair_index(s, p)],), aset.theta(s, p))], 0)
    end, sched = spf(c, data, split_levels(A), start=1)
    return c, data, A, aset, sched


class TestSpf:
    def test_m1_is_single_swap(self):
        c, data, A, aset, _ = spf_fragment([0.6, 0.8])
        swaps = [g for t in range(c.num_layers()) for g in gates(c, t) if g.op == "swap"]
        assert len(swaps) == 1
        _, state = run(c)
        vec = state.statevector(data + A)
        assert abs(vec[0]) == pytest.approx(0.6)
        assert abs(vec[1]) == pytest.approx(0.8)

    @pytest.mark.parametrize("m", [2, 3])
    def test_uniform_superposition(self, m):
        c, data, A, aset, _ = spf_fragment([1.0] * (1 << m))
        _, state = run(c)
        vec = state.statevector(data + A)
        y = amp.PartitionNorms(m=m, values=np.array([1.0] * (1 << m)))
        want = spf_oracle(y, aset)
        assert np.max(np.abs(vec - want)) < 1e-10

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            vals = rng.random(8) + 0.05
            c, data, A, aset, _ = spf_fragment(vals)
            _, state = run(c)
            vec = state.statevector(data + A)
            y = amp.PartitionNorms(m=3, values=vals)
            want = spf_oracle(y, aset)
            assert np.max(np.abs(vec - want)) < 1e-10

    def test_oracle_equivalence_with_zeros(self):
        vals = np.array([0.0, 0.5, 0.0, 0.8])
        c, data, A, aset, _ = spf_fragment(vals)
        _, state = run(c)
        vec = state.statevector(data + A)
        want = spf_oracle(amp.PartitionNorms(m=2, values=vals), aset)
        assert np.max(np.abs(vec - want)) < 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_m4_oracle_and_depth(self, m):
        rng = np.random.default_rng(m)
        vals = rng.random(1 << m) + 0.05
        c, data, A, aset, sched = spf_fragment(vals)
        if m <= 4:
            _, state = run(c)
            vec = state.statevector(data + A)
            want = spf_oracle(amp.PartitionNorms(m=m, values=vals), aset)
            assert np.max(np.abs(vec - want)) < 1e-10

    def test_depth_bound_stable(self):
        depths = {m: fragment_circuit("spf", m).depth() for m in range(2, 9)}
        for m, d in depths.items():
            assert d <= 6 * m
        # the growth rate settles at 6 layers per level (3 per half)
        increments = [depths[m + 1] - depths[m] for m in range(2, 8)]
        assert all(inc == increments[-1] for inc in increments[2:])

    def test_schedule_rules(self):
        for m in range(1, FRAGMENT_MAX_M + 1):
            sched = _spf_plan(m, start=5)
            if m <= 8:
                c = Circuit()
                data = [c.alloc(at_layer=0) for _ in range(m)]
                A = [c.alloc(at_layer=0) for _ in range((1 << m) - 1)]
                c.mark_persistent(data + A)
                end, emitted = spf(c, data, split_levels(A), start=5)
                assert emitted == sched
                assert end == c.num_layers()
            # every level is swapped in once; every CS_t of level s and every copy layer is planned
            assert set(sched.swap_layer) == set(range(m))
            assert set(sched.cs_layer) == {(s, t) for s in range(m) for t in range(s)}
            assert set(sched.oplus_layer) == {(q, i) for q in range(m) for i in range(m - 2 - q)}
            # copy layers of one data qubit run in ascending order
            for (q, i), layer in sched.oplus_layer.items():
                if (q, i + 1) in sched.oplus_layer:
                    assert layer < sched.oplus_layer[(q, i + 1)]
            # copying a data qubit starts after its injection
            for (q, i), layer in sched.oplus_layer.items():
                assert layer > sched.swap_layer[q]
            # CS_t waits for the copies it consumes
            for (s, t), layer in sched.cs_layer.items():
                q = s - 1 - t
                if t >= 1:
                    assert layer > sched.oplus_layer[(q, t - 1)]
                assert layer > sched.swap_layer[q]
            # the CS chain of a level runs strides high-to-low, then injects
            for s in range(1, m):
                chain = [sched.cs_layer[(s, t)] for t in range(s - 1, -1, -1)]
                assert chain == sorted(chain)
                assert chain[-1] < sched.swap_layer[s]
            # one event per data qubit and per level register in each layer
            uses = [(layer, "d", s) for s, layer in sched.swap_layer.items()]
            uses += [(layer, "l", s) for s, layer in sched.swap_layer.items()]
            uses += [(layer, "d", s - 1 - t) for (s, t), layer in sched.cs_layer.items()]
            uses += [(layer, "l", s) for (s, t), layer in sched.cs_layer.items()]
            uses += [(layer, "d", q) for (q, _), layer in sched.oplus_layer.items()]
            assert len(set(uses)) == len(uses)
            assert max(x[0] for x in uses) < sched.end == 5 + max(3 * m - 3, 1)

    def test_fresh_ancilla_budget(self):
        for m in range(2, 8):
            c = Circuit()
            data = [c.alloc(at_layer=0) for _ in range(m)]
            A = [c.alloc(at_layer=0) for _ in range((1 << m) - 1)]
            c.mark_persistent(data + A)
            before = len(c.qubits())
            spf(c, data, split_levels(A), start=0)
            fresh = len(c.qubits()) - before
            assert fresh == (1 << (m - 1)) - m

    def test_bad_register_shape(self):
        c = Circuit()
        data = [c.alloc(at_layer=0) for _ in range(3)]
        with pytest.raises(BadRegisterShape):
            spf(c, data, [[data[0]]], start=0)


class TestFlag:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_exhaustive_against_oracle(self, m):
        for j in range(1 << m):
            c = fragment_circuit("flag", m, basis=j)
            data = c.registers["D"]
            F = c.registers["F"]
            _, state = run(c)
            vec = state.statevector(data + F)
            idx = int(np.argmax(np.abs(vec)))
            assert abs(abs(vec[idx]) - 1.0) < 1e-12
            f = flag_oracle(j, m)
            want = j
            for s in range(m):
                for p in range(1 << s):
                    want |= (1 - f[(s, p)]) << (m + pair_index(s, p))
            assert idx == want

    def test_adjoint_is_identity(self):
        m = 3
        c = Circuit()
        data = [c.alloc(at_layer=0) for _ in range(m)]
        F = [c.alloc(at_layer=0) for _ in range((1 << m) - 1)]
        c.mark_persistent(data + F)
        for q in data:
            place(c, [gate("h", (q,))], 0)
        for q in F:
            place(c, [gate("x", (q,))], 0)
        levels = split_levels(F)
        end = flag(c, data, levels, start=1)
        flag(c, data, levels, start=end, adjoint=True)
        _, state = run(c)
        vec = state.statevector(data + F)
        # back to H|0>^m on data and |1...1> on flags
        want = np.zeros(1 << (m + len(F)), dtype=complex)
        base = ((1 << len(F)) - 1) << m
        for j in range(1 << m):
            want[base + j] = (1 / math.sqrt(2)) ** m
        assert np.max(np.abs(vec - want)) < 1e-10

    def test_depth_linear(self):
        for m in range(2, 9):
            c = fragment_circuit("flag", m)
            assert c.depth() <= 3 * m


class TestLoadf:
    def setup_method(self):
        rng = np.random.default_rng(33)
        self.t = amp.make_target(rng.random(8) + 0.05)
        self.conv = amp.csp_angles(self.t, 1)

    def loadf_state(self, k, flags, **kwargs):
        c = fragment_circuit("loadf", m=1, angles=self.conv, basis=k,
                             flags=flags, **kwargs)
        _, state = run(c)
        B0 = c.registers["B0"]
        F0 = c.registers["F0"]
        ctrl = c.registers["D0"]
        fixed_f = sum(f << i for i, f in enumerate(flags))
        fixed = [(F0, fixed_f), (ctrl, k)]
        return extract_block(state, B0, fixed), c

    @pytest.mark.parametrize("k", [0, 1])
    def test_all_flags_loads_theta(self, k):
        vec, _ = self.loadf_state(k, [1, 1, 1])
        want = loadf_oracle(self.conv, k, [1, 1, 1])
        assert np.max(np.abs(vec - want)) < 1e-10

    def test_zero_flags_is_identity(self):
        vec, _ = self.loadf_state(0, [0, 0, 0])
        want = np.zeros(8)
        want[0] = 1
        assert np.max(np.abs(vec - want)) < 1e-12

    @pytest.mark.parametrize("flags", [[1, 0, 1], [0, 1, 0], [1, 1, 0]])
    def test_partial_flags(self, flags):
        for k in (0, 1):
            vec, _ = self.loadf_state(k, flags)
            want = loadf_oracle(self.conv, k, flags)
            assert np.max(np.abs(vec - want)) < 1e-10

    def test_lean_mode_matches_fanout(self):
        for k in (0, 1):
            fan, _ = self.loadf_state(k, [1, 1, 1], fanout=True)
            lean, _ = self.loadf_state(k, [1, 1, 1], fanout=False)
            assert np.max(np.abs(fan - lean)) < 1e-12

    def test_first_optimized_matches(self):
        full, _ = self.loadf_state(1, [1, 1, 1])
        opt, _ = self.loadf_state(1, [1, 1, 1], first_optimized=True)
        assert np.max(np.abs(full - opt)) < 1e-12

    def test_forward_then_adjoint_is_identity(self):
        from qsprep.protocols import Shape
        from qsprep.subroutines import loadf as loadf_frag

        c = Circuit()
        ctrl = [c.alloc(at_layer=0)]
        c.mark_persistent(ctrl)
        place(c, [gate("h", (ctrl[0],))], 0)
        F0 = [c.alloc(at_layer=1) for _ in range(3)]
        for q in F0:
            place(c, [gate("x", (q,))], 1)
        B0 = [c.alloc(at_layer=2) for _ in range(3)]
        c.mark_persistent(F0 + B0)
        refs = []
        end = loadf_frag(c, ctrl, B0, F0, refs, start=2)
        loadf_frag(c, ctrl, B0, F0, refs, start=end, adjoint=True)
        Shape(c, refs, (None, (1, 3, False))).write(None, self.conv)
        _, state = run(c)
        vec = state.statevector(ctrl + F0 + B0)
        want = np.zeros(1 << 7, dtype=complex)
        want[0b0001110] = 1 / math.sqrt(2)   # flags set, ctrl 0, buffer 0
        want[0b0001111] = 1 / math.sqrt(2)   # flags set, ctrl 1, buffer 0
        assert np.max(np.abs(vec - want)) < 1e-10

    def test_dirty_blocks_restored(self):
        rng = np.random.default_rng(5)
        for trial in range(3):
            c = fragment_circuit("loadf", m=1, angles=self.conv, basis=1,
                                 flags=[1, 1, 1], dirty_b1=True)
            b1 = c.registers["B1"]
            assert len(b1) == 3
            seeds = {}
            for q in b1:
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                seeds[q] = v / np.linalg.norm(v)
            report, _ = run(c, seeds=seeds)
            assert all(ok for _, ok in report.dirty_restoration)

    def test_register_shapes_match_declared(self):
        from qsprep.subroutines import FRAGMENTS

        c = fragment_circuit("loadf", m=1, angles=self.conv, basis=0, flags=[1, 1, 1])
        decl = FRAGMENTS["loadf"].consumes
        m, n = 1, 3
        for name in ("D1", "D2", "D3", "A0", "A1", "A2", "B1", "F1"):
            assert len(c.registers[name]) == decl[name](m, n), name
