import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsprep import amplitudes as amp
from qsprep import circuit_ir as cir
from qsprep import protocols as proto
from qsprep import sim
from qsprep.circuit_ir import ROTATION_OPS, spacetime_allocation
from qsprep.errors import BadSplit, ComplexTargetNeedsCSP, NoValidSplit, PeakQubitsExceeded
from qsprep.sim import run
from reference import circuit_json, class_split_oracle, gates, to_json_dict
from tests_reflection_helper import run_with_input


def fidelity(circuit, target_vec):
    data = circuit.registers["D"]
    report, _ = run(circuit, target=target_vec, target_order=data)
    return report, report.fidelity


def random_targets(rng, n, count, complex_=False):
    out = []
    for _ in range(count):
        v = rng.standard_normal(1 << n)
        if complex_:
            v = v + 1j * rng.standard_normal(1 << n)
        else:
            v = np.abs(v) + 0.01
        out.append(amp.make_target(v))
    return out


class TestChooseM:
    def test_examples(self):
        assert proto.choose_m(8) == 5
        assert proto.choose_m(16) == 12
        assert proto.choose_m(4) == 2

    def test_small_n_has_no_split(self):
        for n in (2, 3):
            with pytest.raises(NoValidSplit):
                proto.choose_m(n)

    def test_window_invariant(self):
        for n in range(4, 20):
            try:
                m = proto.choose_m(n)
            except NoValidSplit:
                # the window can be empty for small n (it is for n = 5)
                assert math.ceil(math.log2(n)) > math.floor(n - math.log2(n))
                continue
            assert math.ceil(math.log2(n)) <= m <= math.floor(n - math.log2(n))


class TestInjectionAngles:
    def test_older_names_are_the_angle_functions(self):
        """The benchmark's tracer times the angles under the older protocols names."""
        assert proto.injection_angles is amp.sp_angles
        assert proto.injection_csp_angles is amp.csp_angles

    def test_injection_masses(self):
        rng = np.random.default_rng(1)
        vals = rng.random(8)
        aset = amp.sp_angles(vals)
        for s in range(3):
            for p in range(1 << s):
                assert abs(aset.theta(s, p) - class_split_oracle(vals, s, p)) < 1e-12

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("n, m", [(3, 1), (6, 2), (8, 5)])
    def test_one_angle_definition_for_both_stages(self, n, m, complex_):
        """Control value k's CSP angles are the SP angles of segment k's magnitudes, bit for
        bit, and each phase is that of the segment entry its bottom pair child selects."""
        t = random_targets(np.random.default_rng(n + 10 * m), n, 1, complex_)[0]
        cset = amp.csp_angles(t, m, with_phases=True)
        half = 1 << (n - m - 1)
        for k, seg in enumerate(t.amplitudes.reshape(1 << m, -1)):
            assert np.array_equal(cset.angles[k], amp.sp_angles(np.abs(seg)).angles)
            for p in range(half):
                for i in (0, 1):
                    assert cset.phases[k, 2 * p + i] == cmath.phase(seg[p + i * half])


class TestSpCircuit:
    def test_pixel_example(self):
        t = amp.make_target([232, 31, 62, 137])
        c = proto.sp_circuit(amp.sp_angles(np.abs(t.amplitudes)))
        _, fid = fidelity(c, [0.834, 0.111, 0.223, 0.492])
        assert fid >= 1 - 5e-4

    def test_basis_vector_zero_rotations(self):
        c = proto.sp_circuit(amp.sp_angles(np.array([1.0, 0, 0, 0])))
        rotations = [g for t in range(c.num_layers()) for g in gates(c, t) if g.op in ROTATION_OPS]
        assert all(abs(g.params[0]) == 0.0 for g in rotations)
        _, fid = fidelity(c, [1, 0, 0, 0])
        assert fid >= 1 - 1e-12

    def test_random_targets_m3(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            vals = rng.random(8) + 0.02
            c = proto.sp_circuit(amp.sp_angles(vals))
            report, fid = fidelity(c, vals / np.linalg.norm(vals))
            assert fid >= 1 - 1e-9
            assert all(mass <= 1e-10 for _, _, mass in report.ancilla_verdicts)

    def test_ancillae_all_freed(self):
        c = proto.sp_circuit(amp.sp_angles(np.array([1.0, 2, 3, 4])))
        live_at_end = [q for q in c.qubits() if c.dealloc_layer(q) is None]
        assert {q for q in live_at_end} == c.persistent()


class TestCspCircuit:
    def test_basis_control_zero_target(self):
        t = amp.make_target([1, 0, 0, 0, 0, 0, 0, 0])
        c = proto.csp_circuit(amp.csp_angles(t, 1), control_state=0)
        _, state = run(c)
        vec = state.statevector(c.registers["D"])
        assert abs(abs(vec[0]) - 1.0) < 1e-10

    @pytest.mark.parametrize("k", [0, 1])
    def test_per_branch_action(self, k):
        rng = np.random.default_rng(40 + k)
        t = amp.make_target(rng.random(8) + 0.05)
        y = amp.partition_norms(t, 1)
        c = proto.csp_circuit(amp.csp_angles(t, 1), control_state=k)
        data = c.registers["D"]
        want = np.zeros(8, dtype=complex)
        seg = t.amplitudes[4 * k: 4 * k + 4]
        want[4 * k: 4 * k + 4] = seg / y.values[k]
        report, _ = run(c, target=want, target_order=data)
        assert report.fidelity >= 1 - 1e-9


class TestSpCsp:
    @pytest.mark.parametrize("n,m", [(3, 1), (4, 2)])
    def test_real_targets(self, n, m):
        rng = np.random.default_rng(n * 10 + m)
        for t in random_targets(rng, n, 5):
            cfg = proto.ProtocolConfig(n=n, m=m, fanout=False)
            c = proto.spcsp(t, cfg)
            report, fid = fidelity(c, t.amplitudes)
            assert fid >= 1 - 1e-9
            assert all(mass <= 1e-10 for _, _, mass in report.ancilla_verdicts)

    def test_fanout_variant_m1_n3(self):
        rng = np.random.default_rng(77)
        t = random_targets(rng, 3, 1)[0]
        c = proto.spcsp(t, proto.ProtocolConfig(n=3, m=1, fanout=True))
        report, fid = fidelity(c, t.amplitudes)
        assert fid >= 1 - 1e-9

    def test_complex_targets_n3(self):
        rng = np.random.default_rng(5)
        for t in random_targets(rng, 3, 3, complex_=True):
            c = proto.spcsp(t, proto.ProtocolConfig(n=3, m=1, fanout=False))
            report, fid = fidelity(c, t.amplitudes)
            assert fid >= 1 - 1e-9

    @pytest.mark.parametrize("n,m", [(3, 2), (4, 2)])
    def test_complex_targets_other_splits(self, n, m):
        # exercises the bottom-level phase handling at sub-register sizes 1 and 2
        rng = np.random.default_rng(50 + n)
        t = random_targets(rng, n, 1, complex_=True)[0]
        c = proto.spcsp(t, proto.ProtocolConfig(n=n, m=m, fanout=False))
        report, fid = fidelity(c, t.amplitudes)
        assert fid >= 1 - 1e-9

    @pytest.mark.parametrize("n,m,fanout", [(3, 1, True), (4, 2, False), (4, 2, True)])
    def test_complex_targets_first_optimized(self, n, m, fanout):
        # LOADF without flag controls: its bottom-level phases ride on one control, not two
        rng = np.random.default_rng(70 + n + fanout)
        t = random_targets(rng, n, 1, complex_=True)[0]
        c = proto.spcsp(t, proto.ProtocolConfig(n=n, m=m, fanout=fanout, loadf_first_optimized=True))
        report, fid = fidelity(c, t.amplitudes)
        assert fid >= 1 - 1e-9
        assert all(mass <= 1e-10 for _, _, mass in report.ancilla_verdicts)

    @pytest.mark.parametrize("complex_mode", [False, True])
    def test_complex_target_keeps_its_phases(self, complex_mode):
        """A target that is not real non-negative tracks its phases whatever complex_mode says."""
        t = amp.make_target([0.5, -0.5, 0.5, 0.5, 0.1, 0.2, -0.3, 0.4j])
        c = proto.spcsp(t, proto.ProtocolConfig(n=3, m=1, complex_mode=complex_mode))
        assert c.validate() == []
        _, fid = fidelity(c, t.amplitudes)
        assert fid >= 1 - 1e-9

    def test_fanout_with_single_qubit_buffer(self):
        rng = np.random.default_rng(60)
        t = random_targets(rng, 3, 1)[0]
        c = proto.spcsp(t, proto.ProtocolConfig(n=3, m=2, fanout=True))
        report, fid = fidelity(c, t.amplitudes)
        assert fid >= 1 - 1e-9

    def test_loadf_angle_count_mismatch(self):
        """A circuit takes only angle sets of its own widths and phase key."""
        from qsprep.errors import AngleCountMismatch

        rng = np.random.default_rng(61)
        t = random_targets(rng, 3, 1)[0]
        conv = amp.csp_angles(t, 1)
        shape = proto.spcsp_shape(proto.ProtocolConfig(n=3, m=2))  # wrong control width
        with pytest.raises(AngleCountMismatch):
            shape.write(amp.sp_angles([1.0] * 4), conv)
        shape = proto.spcsp_shape(proto.ProtocolConfig(n=3, m=1), phased=True)  # wrong phase key
        with pytest.raises(AngleCountMismatch):
            shape.write(amp.sp_angles([1.0] * 2), conv)

    def test_sp_only_fallback(self):
        t = amp.make_target([3, 1, 2, 5])
        c = proto.spcsp(t, proto.ProtocolConfig(n=2))
        assert c.meta.get("sp_only")
        _, fid = fidelity(c, t.amplitudes)
        assert fid >= 1 - 1e-9

    def test_sp_only_rejects_complex(self):
        t = amp.make_target([1j, 1, 1, 1])
        with pytest.raises(ComplexTargetNeedsCSP):
            proto.spcsp(t, proto.ProtocolConfig(n=2))

    def test_dirty_b1(self):
        rng = np.random.default_rng(6)
        t = random_targets(rng, 3, 1)[0]
        cfg = proto.ProtocolConfig(n=3, m=1, fanout=False, dirty_b1=True)
        c = proto.spcsp(t, cfg)
        b1 = c.registers["B1"]
        assert len(b1) == 3
        seeds = {}
        for q in c.qubits():
            if c.kind(q) == "dirty":
                v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                seeds[q] = v / np.linalg.norm(v)
        report, _ = run(c, seeds=seeds)
        assert all(ok for _, ok in report.dirty_restoration)
        data = c.registers["D"]
        # rebuild to measure fidelity with the same seeds
        report2, _ = run(c, seeds=seeds, target=t.amplitudes, target_order=data)
        assert report2.fidelity >= 1 - 1e-9

    def test_rotation_layer_count_constant(self):
        counts = set()
        rng = np.random.default_rng(7)
        for n in (4, 6, 8):
            t = random_targets(rng, n, 1)[0]
            c = proto.spcsp(t, proto.ProtocolConfig(n=n))
            counts.add(spacetime_allocation(c).rotation_layers)
        assert len(counts) == 1

    def test_validate_clean(self):
        rng = np.random.default_rng(8)
        t = random_targets(rng, 4, 1)[0]
        c = proto.spcsp(t, proto.ProtocolConfig(n=4))
        assert c.validate() == []

    def test_mismatched_config(self):
        t = amp.make_target([1, 0, 0, 0])
        with pytest.raises(BadSplit):
            proto.spcsp(t, proto.ProtocolConfig(n=5))


def kind_target(kind: str, n: int, seed: int):
    """A dense target, one with zeros, a real signed one or a complex one."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.05, 1.0, 1 << n)
    if kind == "zeros":
        v[rng.random(1 << n) < 0.5] = 0.0
        v[rng.integers(1 << n)] = 1.0
    elif kind == "signed":
        v *= rng.choice([-1.0, 1.0], 1 << n)
    elif kind == "complex":
        v = v * np.exp(1j * rng.uniform(0, 2 * np.pi, 1 << n))
    return amp.make_target(v)


class TestShape:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(4, 7), kind=st.sampled_from(["dense", "zeros", "signed", "complex"]),
           fanout=st.booleans(), dirty_b1=st.booleans(), first_optimized=st.booleans(),
           seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)))
    def test_a_shape_built_for_one_target_takes_another(self, data, n, kind, fanout, dirty_b1,
                                                        first_optimized, seeds):
        """A circuit depends on its target only through its rotation parameters, once the
        phase key is fixed: built for one target and re-angled for another of the same key,
        it is ``spcsp`` of the other, byte for byte."""
        m = data.draw(st.sampled_from([None, *range(1, n)]))
        cfg = proto.ProtocolConfig(n=n, m=m, dirty_b1=dirty_b1, fanout=fanout,
                                   loadf_first_optimized=first_optimized)
        assume(cfg.resolved_m() is not None or kind in ("dense", "zeros"))
        one, other = (kind_target(kind, n, seed) for seed in seeds)
        aset, angles = proto.stage_angles(one, cfg)
        shape = proto.spcsp_shape(cfg, angles is not None and angles.phases is not None)
        shape.write(aset, angles)
        assert cir.dumps(shape.write(*proto.stage_angles(other, cfg))) == cir.dumps(proto.spcsp(other, cfg))


def paper_layout_case(n, m, complex_=False, dirty_b1=False, seed=0):
    """A paper-layout (fanout=True) SP+CSP circuit, its target and random dirty seeds."""
    rng = np.random.default_rng(seed)
    t = random_targets(rng, n, 1, complex_)[0]
    c = proto.spcsp(t, proto.ProtocolConfig(n=n, m=m, dirty_b1=dirty_b1, fanout=True))
    seeds = {}
    for q in c.qubits():
        if c.kind(q) == "dirty":
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            seeds[q] = v / np.linalg.norm(v)
    return t, c, seeds


class TestEmissionMemory:
    def test_spcsp_peak_per_gate(self):
        """Emission builds no per-gate Python objects: the tracemalloc peak of ``spcsp`` at
        n=12 (paper layout, 72,790 gates) is the circuit's columns and tables, about 21 B a
        gate, plus transients of a batch or a layer, under 31 B a gate in all.  LOADF's
        per-gate rotation tuples and list registers took it to 81 B a gate, and releasing a
        LOADF's qubits as a list of ints to 33 B."""
        rng = np.random.default_rng(1)
        t = amp.make_target(rng.uniform(0.05, 1.0, 1 << 12))
        tracemalloc.start()
        try:
            c = proto.spcsp(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.size() == 72790
        assert peak / c.size() < 31


class TestEmissionWork:
    def test_allocation_calls_scale_with_layers(self, monkeypatch):
        """Copy trees grow as id matrices, a copy layer or a whole fan-out per
        ``alloc_many`` call, so emission's Python work follows the circuit's layers, not
        its trees.  ``spcsp_shape`` at n=12 (paper layout) makes 566 allocation calls
        (``Circuit._add_qubits``); the bound is that plus 25%.  A ``CopyTree`` object per
        tree, grown one tree and one layer at a time, made 3,584."""
        calls = []
        add_qubits = cir.Circuit._add_qubits
        monkeypatch.setattr(cir.Circuit, "_add_qubits", lambda c, *args: calls.append(1) or add_qubits(c, *args))
        proto.spcsp_shape(proto.ProtocolConfig(n=12))
        assert len(calls) <= 566 * 1.25


class TestPaperLayout:
    """The paper's own layout, far wider than a dense statevector could hold."""

    @pytest.mark.parametrize("n, m, complex_, dirty_b1", [
        (4, 2, False, False),
        (4, 2, True, True),
        (5, 3, False, False),
        (6, 3, True, False),
    ])
    def test_verifies(self, n, m, complex_, dirty_b1):
        t, c, seeds = paper_layout_case(n, m, complex_, dirty_b1)
        report, _ = run(c, seeds=seeds, target=t.amplitudes,
                        target_order=c.registers["D"])
        assert report.peak_live_qubits > 26  # a dense vector of 2**26 amplitudes is 1 GiB
        assert report.fidelity >= 1 - 1e-9
        assert all(mass <= 1e-10 for _, _, mass in report.ancilla_verdicts)
        assert bool(report.dirty_restoration) == dirty_b1
        assert all(ok for _, ok in report.dirty_restoration)

    def test_support_cap(self, monkeypatch):
        # random dirty seeds put the B1 block in superposition: support 16 384
        _, c, seeds = paper_layout_case(4, 2, complex_=True, dirty_b1=True)
        monkeypatch.setattr(sim, "MAX_SUPPORT", 1 << 10)
        with pytest.raises(PeakQubitsExceeded, match="support"):
            run(c, seeds=seeds)


class TestOracleTriangle:
    """The injection oracles and the full simulation agree pairwise."""

    def test_csp_conversion_matches_per_branch_injection(self):
        rng = np.random.default_rng(23)
        t = amp.make_target(rng.random(8) + 0.02)
        y = amp.partition_norms(t, 1)
        conv = amp.csp_angles(t, 1)
        for k in range(2):
            seg = np.abs(t.amplitudes[4 * k: 4 * k + 4]) / y.values[k]
            direct = amp.sp_angles(seg)
            assert np.allclose(conv.angles[k], direct.angles, atol=1e-12)

    def test_loadf_oracle_feeds_spf_oracle(self):
        from reference import _angle_state, _kron_le, loadf_oracle, spf_oracle

        rng = np.random.default_rng(24)
        t = amp.make_target(rng.random(8) + 0.02)
        y = amp.partition_norms(t, 1)
        conv = amp.csp_angles(t, 1)
        for k in range(2):
            theta_state = loadf_oracle(conv, k, [1, 1, 1])
            pair_states = [_angle_state(conv.theta(k, s, p))
                           for s in range(2) for p in range(1 << s)]
            assert np.allclose(theta_state, _kron_le(pair_states), atol=1e-12)
            seg = np.abs(t.amplitudes[4 * k: 4 * k + 4]) / y.values[k]
            branch = spf_oracle(amp.PartitionNorms(m=2, values=seg),
                                amp.AngleSet(m=2, angles=conv.angles[k]))
            data_marg = np.sqrt((np.abs(branch) ** 2).reshape(-1, 4).sum(axis=0))
            assert np.allclose(data_marg, seg, atol=1e-10)

    def test_spcsp_realizes_the_oracle_branches(self):
        rng = np.random.default_rng(25)
        t = amp.make_target(rng.random(8) + 0.02)
        c = proto.spcsp(t, proto.ProtocolConfig(n=3, m=1, fanout=False))
        report, _ = run(c, target=t.amplitudes, target_order=c.registers["D"])
        assert report.fidelity >= 1 - 1e-9


class TestDegenerateTargets:
    def test_zero_segment(self):
        # an entire control branch with zero weight stays unobservable
        t = amp.make_target([3, 1, 4, 1, 0, 0, 0, 0])
        c = proto.spcsp(t, proto.ProtocolConfig(n=3, m=1, fanout=False))
        report, fid = fidelity(c, t.amplitudes)
        assert fid >= 1 - 1e-9

    def test_single_basis_target(self):
        t = amp.make_target([0] * 7 + [1])
        c = proto.spcsp(t, proto.ProtocolConfig(n=3, m=1, fanout=False))
        report, fid = fidelity(c, t.amplitudes)
        assert fid >= 1 - 1e-12

    def test_scattered_zeros(self):
        rng = np.random.default_rng(30)
        vals = rng.random(16)
        vals[rng.random(16) < 0.4] = 0.0
        vals[0] = max(vals[0], 0.1)
        t = amp.make_target(vals)
        c = proto.spcsp(t, proto.ProtocolConfig(n=4, m=2, fanout=False))
        report, fid = fidelity(c, t.amplitudes)
        assert fid >= 1 - 1e-9


class TestSerializedExecution:
    def test_round_tripped_circuit_simulates_identically(self):
        from qsprep.circuit_ir import dumps, loads

        rng = np.random.default_rng(31)
        t = random_targets(rng, 3, 1)[0]
        c = proto.spcsp(t, proto.ProtocolConfig(n=3, m=1, fanout=False))
        c2 = loads(dumps(c))
        r1, _ = run(c, target=t.amplitudes, target_order=c.registers["D"])
        r2, _ = run(c2, target=t.amplitudes, target_order=c2.registers["D"])
        assert r1.fidelity == r2.fidelity
        assert r1.peak_live_qubits == r2.peak_live_qubits


class TestWideSplit:
    def test_n5_m2_end_to_end(self):
        # the widest desk-scale case (24 live qubits); sampled small for runtime
        rng = np.random.default_rng(52)
        for _ in range(2):
            t = amp.make_target(rng.random(32) + 0.02)
            c = proto.spcsp(t, proto.ProtocolConfig(n=5, m=2, fanout=False))
            report, _ = run(c, target=t.amplitudes, target_order=c.registers["D"])
            assert report.fidelity >= 1 - 1e-9
            assert all(mass <= 1e-10 for _, _, mass in report.ancilla_verdicts)


class TestAngleErrorPropagation:
    def test_perturbed_angles_bound(self):
        # perturbing every rotation by delta moves fidelity by at most ~(n*delta)^2/2
        rng = np.random.default_rng(9)
        t = random_targets(rng, 4, 1)[0]
        cfg = proto.ProtocolConfig(n=4, m=2, fanout=False)
        base = proto.spcsp(t, cfg)
        n_rot = sum(1 for layer in range(base.num_layers()) for g in gates(base, layer) if g.op in ROTATION_OPS)
        for delta in (1e-3, 1e-4):
            # every op with a parameter is a rotation, so this perturbs each rotation's angle
            doc = to_json_dict(base)
            for layer in doc["layers"]:
                for g in layer:
                    g["params"] = [p + delta for p in g["params"]]
            c = cir.loads(circuit_json(doc))
            report, _ = run(c, target=t.amplitudes, target_order=c.registers["D"],
                            enforce_dealloc=False)
            assert 0 < 1 - report.fidelity <= (n_rot * delta) ** 2 / 2 + 1e-9


class TestReflection:
    def setup_method(self):
        rng = np.random.default_rng(10)
        self.t = amp.make_target(rng.random(8) + 0.05)
        self.cfg = proto.ProtocolConfig(n=3, m=1, fanout=False)
        self.R = proto.reflection(self.t, self.cfg)

    def run_on(self, vec):
        data = self.R.registers["D"]
        c = self.R
        # prep: rotate |0..0> into vec via injected amplitudes is complex; instead
        # drive the simulator manually from the prepared state
        from qsprep.sim import SimState
        from qsprep.circuit_ir import Circuit

        report, state = run_with_input(c, vec)
        return state.statevector(data), report

    def test_reflects_target(self):
        out, _ = self.run_on(self.t.amplitudes)
        assert np.max(np.abs(out + self.t.amplitudes)) < 1e-9

    def test_preserves_orthogonal(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v -= np.vdot(self.t.amplitudes, v) * self.t.amplitudes
            v /= np.linalg.norm(v)
            out, _ = self.run_on(v)
            assert np.max(np.abs(out - v)) < 1e-9

    def test_involution(self):
        rng = np.random.default_rng(12)
        for _ in range(2):
            v = rng.standard_normal(8)
            v /= np.linalg.norm(v)
            once, _ = self.run_on(v)
            R2 = proto.reflection(self.t, self.cfg)
            twice = run_with_input_chain(R2, once)
            assert np.max(np.abs(twice - v)) < 1e-8

    def test_sp_only_reflection(self):
        t = amp.make_target([3, 1, 2, 5])
        R = proto.reflection(t, proto.ProtocolConfig(n=2))
        _, state = run_with_input(R, t.amplitudes)
        out = state.statevector(R.registers["D"])
        assert np.max(np.abs(out + t.amplitudes)) < 1e-9


def run_with_input_chain(circuit, data_vec):
    _, state = run_with_input(circuit, data_vec)
    return state.statevector(circuit.compact().registers["D"])
