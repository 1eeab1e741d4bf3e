"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

from qsprep import amplitudes as amp
from qsprep import multicopy as mc
from qsprep import protocols as proto
from qsprep.circuit_ir import Circuit, GateSetModel, spacetime_allocation
from qsprep.protocols import fragment_circuit
from qsprep.sim import run
from qsprep.subroutines import copy, spf, split_levels
from reference import flag_oracle, gate, pair_index, place, spf_oracle


def report_line(num, text):
    print(f"ACCEPTANCE {num:>2} PASS  {text}")


def random_real_targets(rng, n, count):
    return [amp.make_target(rng.random(1 << n) + 0.01) for _ in range(count)]


def prepare_and_check(t, cfg, floor=1e-9, dealloc=1e-10, **run_kwargs):
    c = proto.spcsp(t, cfg)
    report, _ = run(c, target=t.amplitudes, target_order=c.registers["D"], **run_kwargs)
    assert report.fidelity >= 1 - floor
    assert all(mass <= dealloc for _, _, mass in report.ancilla_verdicts)
    return c, report


class TestAcceptance:
    def test_01_golden_pixels(self):
        t0 = time.monotonic()
        target = amp.make_target([232, 31, 62, 137])
        c = proto.spcsp(target, proto.ProtocolConfig(n=2))
        _, state = run(c)
        vec = state.statevector(c.registers["D"])
        assert np.allclose(np.abs(vec), [0.834, 0.111, 0.223, 0.492], atol=5e-4)
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        report_line(1, f"4-pixel amplitudes reproduced to 5e-4 ({elapsed:.2f}s)")

    def test_02_code_artifact_cases(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(202)
        for n, m in [(3, 1), (4, 2)]:
            cfg = proto.ProtocolConfig(n=n, m=m, fanout=False)
            for t in random_real_targets(rng, n, 50):
                prepare_and_check(t, cfg)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        report_line(2, f"(m=1,n=3) and (m=2,n=4): 50 targets each at 1-1e-9 ({elapsed:.1f}s)")

    def test_03_copy_exactness(self):
        t0 = time.monotonic()
        for size in (2, 4, 8, 16, 32):
            c = Circuit()
            src = c.alloc(at_layer=0)
            c.mark_persistent([src])
            reg, _ = copy(c, src, size, start=0)
            c.mark_persistent(reg[1:])
            assert c.depth() == int(math.log2(size))
            assert spacetime_allocation(c).sa_exact == 2 * size - 2
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        report_line(3, f"COPY depth=log2(c), SA=2c-2 for c in 2..32 ({elapsed:.2f}s)")

    def test_04_double_count_identity(self):
        rng = np.random.default_rng(204)
        circuits = []
        t = random_real_targets(rng, 4, 1)[0]
        circuits.append(proto.spcsp(t, proto.ProtocolConfig(n=4)))
        t3 = random_real_targets(rng, 3, 1)[0]
        circuits.append(proto.spcsp(t3, proto.ProtocolConfig(n=3, m=1, fanout=False)))
        circuits.append(proto.reflection(t3, proto.ProtocolConfig(n=3, m=1, fanout=False)))
        circuits.append(fragment_circuit("flag", 4))
        circuits.append(fragment_circuit("spf", 4))
        circuits.append(mc.stack(mc.BatchPlan(random_real_targets(rng, 3, 4))).circuit)
        for c in circuits:
            cc = c.compact()
            by_layers = sum(cc.live_profile())
            by_qubits = 0
            L = cc.num_layers()
            for q in cc.qubits():
                d = cc.dealloc_layer(q)
                by_qubits += (L if d is None else d) - cc.alloc_layer(q)
            assert by_layers == by_qubits
            assert spacetime_allocation(cc).sa_exact == by_layers
        report_line(4, f"sum_i d_i == sum_t q_t on {len(circuits)} emitted circuits")

    def _scaling_builds(self):
        if not hasattr(TestAcceptance, "_builds"):
            builds = {}
            for n in range(4, 17):
                t = amp.make_target(np.ones(1 << n))
                cfg = proto.ProtocolConfig(n=n, m=mc.batch_split(n))
                builds[n] = spacetime_allocation(proto.spcsp(t, cfg))
            TestAcceptance._builds = builds
        return TestAcceptance._builds

    def test_05_depth_linearity(self):
        t0 = time.monotonic()
        builds = self._scaling_builds()
        ns = np.array(sorted(builds))
        depths = np.array([builds[n].depth for n in ns], dtype=float)
        a, b = np.polyfit(ns, depths, 1)
        residuals = np.abs(depths - (a * ns + b))
        assert np.all(residuals <= 0.2 * a * ns)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        report_line(5, f"depth(n) ~ {a:.1f}n+{b:.1f}, max residual "
                       f"{residuals.max():.1f} ({elapsed:.1f}s incl. builds)")

    def test_06_sa_linearity(self):
        builds = self._scaling_builds()
        ratios = [builds[n].sa_exact / (1 << n) for n in range(6, 17)]
        assert max(ratios) <= 2 * min(ratios)
        report_line(6, f"sa/2^n in [{min(ratios):.1f}, {max(ratios):.1f}] for n=6..16")

    def test_07_constant_rotation_layers(self):
        builds = self._scaling_builds()
        counts = {builds[n].rotation_layers for n in range(4, 17)}
        assert len(counts) == 1
        report_line(7, f"rotation-bearing layers = {counts.pop()} for every n=4..16")

    def test_08_flag_exhaustive(self):
        t0 = time.monotonic()
        for m in (1, 2, 3, 4):
            for j in range(1 << m):
                c = fragment_circuit("flag", m, basis=j)
                _, state = run(c)
                vec = state.statevector(c.registers["D"] + c.registers["F"])
                idx = int(np.argmax(np.abs(vec)))
                assert abs(abs(vec[idx]) - 1.0) < 1e-12
                f = flag_oracle(j, m)
                want = j
                for s in range(m):
                    for p in range(1 << s):
                        want |= (1 - f[(s, p)]) << (m + pair_index(s, p))
                assert idx == want
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        report_line(8, f"FLAG matches the p = j mod 2^s oracle for all j, m<=4 ({elapsed:.1f}s)")

    def test_09_spf_oracle(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(209)
        for _ in range(20):
            vals = rng.random(8) + 0.02
            aset = amp.sp_angles(vals)
            c = Circuit()
            data = [c.alloc(at_layer=0) for _ in range(3)]
            A = [c.alloc(at_layer=0) for _ in range(7)]
            c.mark_persistent(data + A)
            for s in range(3):
                for p in range(1 << s):
                    place(c, [gate("ry", (A[pair_index(s, p)],), aset.theta(s, p))], 0)
            spf(c, data, split_levels(A), start=1)
            _, state = run(c)
            got = state.statevector(data + A)
            want = spf_oracle(amp.PartitionNorms(m=3, values=vals), aset)
            assert np.max(np.abs(got - want)) < 1e-10
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        report_line(9, f"SPF equals sum_j y_j |j>|g_j> for 20 random y at m=3 ({elapsed:.1f}s)")

    def test_10_dirty_restoration(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(210)
        t = random_real_targets(rng, 3, 1)[0]
        cfg = proto.ProtocolConfig(n=3, m=1, fanout=False, dirty_b1=True)
        base = proto.spcsp(t, cfg)
        clean_fid, _ = run(proto.spcsp(t, proto.ProtocolConfig(n=3, m=1, fanout=False)),
                           target=t.amplitudes,
                           target_order=base.registers["D"])
        for _ in range(20):
            c = proto.spcsp(t, cfg)
            seeds = {}
            for q in c.qubits():
                if c.kind(q) == "dirty":
                    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                    seeds[q] = v / np.linalg.norm(v)
            report, _ = run(c, seeds=seeds, target=t.amplitudes,
                            target_order=c.registers["D"])
            assert all(ok for _, ok in report.dirty_restoration)
            assert report.fidelity >= 1 - 1e-9
        elapsed = time.monotonic() - t0
        assert elapsed < 20.0
        report_line(10, f"dirty block register restored for 20 random seedings ({elapsed:.1f}s)")

    def test_11_reflection(self):
        from tests_reflection_helper import run_with_input  # local helper below

        t0 = time.monotonic()
        rng = np.random.default_rng(211)
        t = random_real_targets(rng, 3, 1)[0]
        cfg = proto.ProtocolConfig(n=3, m=1, fanout=False)
        R = proto.reflection(t, cfg)
        for _ in range(10):
            psi = t.amplitudes
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            v -= np.vdot(psi, v) * psi
            v /= np.linalg.norm(v)
            _, state = run_with_input(R, psi)
            out = state.statevector(R.registers["D"])
            assert np.max(np.abs(out + psi)) < 1e-9
            _, state = run_with_input(R, v)
            out = state.statevector(R.registers["D"])
            assert np.max(np.abs(out - v)) < 1e-9
        w = rng.standard_normal(8)
        w /= np.linalg.norm(w)
        _, s1 = run_with_input(R, w)
        once = s1.statevector(R.registers["D"])
        _, s2 = run_with_input(proto.reflection(t, cfg), once)
        twice = s2.statevector(R.registers["D"])
        assert np.max(np.abs(twice - w)) < 1e-9
        elapsed = time.monotonic() - t0
        assert elapsed < 20.0
        report_line(11, f"R psi = -psi, R perp = perp (10 pairs), R^2 = I ({elapsed:.1f}s)")

    def test_12_multicopy(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(212)
        single_cfg = proto.ProtocolConfig(n=3, m=1, fanout=False)
        single_depth = proto.spcsp(random_real_targets(rng, 3, 1)[0], single_cfg).depth()
        for w in (4, 8):
            ts = random_real_targets(rng, 3, w)
            plan = mc.BatchPlan(ts, indentation=single_depth, fanout=False)
            res = mc.stack(plan)
            assert res.report.depth < w * single_depth
            assert res.peak_ancillae <= 8 * 8
            fids, report = mc.simulate_batch(res, ts)
            assert all(f >= 1 - 1e-8 for f in fids)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        report_line(12, f"batch depth < w*single, pool <= 8N, product fidelity "
                        f"1-1e-8 for w=4,8 ({elapsed:.1f}s)")

    def test_13_complex_amplitudes(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(213)
        cfg = proto.ProtocolConfig(n=3, m=1, fanout=False)
        for _ in range(10):
            v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            t = amp.make_target(v)
            prepare_and_check(t, cfg)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        report_line(13, f"complex targets at n=3 reach 1-1e-9 with phases ({elapsed:.1f}s)")

    def test_14_decomposition_semantics(self):
        from qsprep.circuit_ir import GATE_SIGNATURES
        from reference import DECOMPOSITIONS, U2_CNOT, block_unitary, expand_gate, gate_unitary

        checked = []
        for op, params in [("swap", ()), ("toffoli", ()), ("cswap", ()),
                           ("cry", (0.618,)), ("ccry", (1.234,)),
                           ("crz", (0.377,)), ("ccrz", (2.718,))]:
            nq = GATE_SIGNATURES[op][0]
            qs = [i for i in range(nq)]
            g = gate(op, tuple(qs), *params)
            expanded = expand_gate(g, U2_CNOT)
            err = np.max(np.abs(block_unitary(expanded, qs) - gate_unitary(op, params)))
            assert err < 1e-10
            checked.append(op)
        assert sorted(checked) == sorted(DECOMPOSITIONS)
        report_line(14, f"expansions match their unitaries to 1e-10: {', '.join(checked)}")

    def test_15_model_widening_monotone(self):
        rng = np.random.default_rng(215)
        t = random_real_targets(rng, 4, 1)[0]
        c = proto.spcsp(t, proto.ProtocolConfig(n=4))
        values = [spacetime_allocation(c, GateSetModel(eps)).sa_approx
                  for eps in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(a < b for a, b in zip(values, values[1:]))
        report_line(15, f"sa_approx strictly increases as epsilon shrinks: {values}")
