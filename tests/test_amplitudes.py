import math

import numpy as np
import pytest

from qsprep import amplitudes as amp
from qsprep.errors import BadSplit, LengthNotPowerOfTwo, ZeroVector
from reference import class_split_oracle

PIXELS = [232, 31, 62, 137]


def partition_oracle(x, m):
    """Direct evaluation of the defining sum."""
    n = int(math.log2(len(x)))
    block = 1 << (n - m)
    return [math.sqrt(sum(abs(x[i * block + l]) ** 2 for l in range(block)))
            for i in range(1 << m)]


class TestMakeTarget:
    def test_basis_state(self):
        t = amp.make_target([1, 0, 0, 0])
        assert t.n == 2
        assert np.allclose(t.amplitudes, [1, 0, 0, 0])

    def test_pixel_example(self):
        t = amp.make_target(PIXELS)
        assert t.n == 2
        assert np.allclose(t.amplitudes.real, [0.834, 0.111, 0.223, 0.492], atol=5e-4)
        assert abs(np.sum(np.abs(t.amplitudes) ** 2) - 1.0) < 1e-12

    def test_rejects_non_power_of_two(self):
        with pytest.raises(LengthNotPowerOfTwo):
            amp.make_target([1, 1, 1])

    def test_rejects_zero_vector(self):
        with pytest.raises(ZeroVector):
            amp.make_target([0, 0, 0, 0])

    def test_rejects_scalar(self):
        with pytest.raises(LengthNotPowerOfTwo):
            amp.make_target([1])

    @pytest.mark.parametrize("raw", [[1e-170] * 4, [1e200] * 4, [3e-160, 4e-160], [1e300, 1e300, 1, 1]],
                             ids=["tiny", "huge", "subnormal_squares", "norm_overflow"])
    def test_extreme_magnitudes_normalize(self, raw):
        t = amp.make_target(raw)
        assert abs(np.sum(np.abs(t.amplitudes) ** 2) - 1.0) <= 1e-15

    def test_power_of_two_scale_keeps_every_bit(self):
        """Scaling by a power of two is exact, so a rescaled input normalizes to the same bits."""
        rng = np.random.default_rng(29)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        want = amp.make_target(v).amplitudes
        for k in (-900, -300, 300, 900):
            assert np.array_equal(amp.make_target(v * 2.0**k).amplitudes, want)


class TestPartitionNorms:
    def test_uniform(self):
        t = amp.make_target([1, 1, 1, 1])
        y = amp.partition_norms(t, 1)
        assert np.allclose(y.values, [1 / math.sqrt(2)] * 2)

    def test_pixels_against_oracle(self):
        t = amp.make_target(PIXELS)
        y = amp.partition_norms(t, 1)
        assert np.allclose(y.values, partition_oracle(t.amplitudes, 1), atol=1e-12)
        assert np.allclose(y.values, [0.8414, 0.5405], atol=2e-3)

    def test_basis_state(self):
        t = amp.make_target([1] + [0] * 7)
        y = amp.partition_norms(t, 2)
        assert np.allclose(y.values, [1, 0, 0, 0])

    def test_mass_is_preserved(self):
        rng = np.random.default_rng(7)
        t = amp.make_target(rng.standard_normal(16) + 1j * rng.standard_normal(16))
        for m in range(1, 4):
            y = amp.partition_norms(t, m)
            assert abs(np.sum(y.values**2) - 1.0) < 1e-12

    def test_bad_split(self):
        t = amp.make_target([1, 0, 0, 0])
        for m in (0, 2, 5):
            with pytest.raises(BadSplit):
                amp.partition_norms(t, m)


class TestSpAngles:
    def test_uniform_gives_pi_over_2(self):
        aset = amp.sp_angles([1, 1, 1, 1])
        assert np.allclose(aset.angles, math.pi / 2, rtol=0, atol=1e-12)

    def test_basis_vector_all_zero(self):
        for j in range(8):
            aset = amp.sp_angles(np.eye(8)[j])
            assert all(theta == 0.0 for theta in aset.angles.tolist()) == (j == 0)

    def test_pixels_against_oracle(self):
        t = amp.make_target(PIXELS)
        vals = np.abs(t.amplitudes)
        aset = amp.sp_angles(vals)
        for s in range(2):
            for p in range(1 << s):
                assert abs(aset.theta(s, p) - class_split_oracle(vals, s, p)) < 1e-12
        assert abs(aset.theta(0, 0) - 1.0585) < 5e-3

    def test_angle_count(self):
        for m in range(1, 6):
            aset = amp.sp_angles([1.0] * (1 << m))
            assert aset.m == m and len(aset) == (1 << m) - 1

    def test_rejects_non_power(self):
        with pytest.raises(LengthNotPowerOfTwo):
            amp.sp_angles([1, 1, 1])

    def test_degenerate_zero_patterns_stay_finite(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            vals = rng.random(16)
            vals[rng.random(16) < 0.5] = 0.0
            if not vals.any():
                vals[0] = 1.0
            aset = amp.sp_angles(vals)
            assert np.all(np.isfinite(aset.angles))
            assert np.all(aset.angles >= 0) and np.all(aset.angles <= math.pi + 1e-12)
            for s in range(4):
                for p in range(1 << s):
                    assert abs(aset.theta(s, p) - class_split_oracle(vals, s, p)) < 1e-12


class TestCspAngles:
    def test_real_target_has_zero_phases(self):
        t = amp.make_target(PIXELS)
        cset = amp.csp_angles(t, 1, with_phases=True)
        assert np.array_equal(cset.phases, np.zeros((2, 2)))

    def test_basis_top_entry(self):
        # only the k = 1 branch carries weight; its angles walk to the last leaf
        t = amp.make_target([0] * 7 + [1])
        cset = amp.csp_angles(t, 1)
        for s in range(cset.sub_levels):
            for p in range(1 << s):
                assert cset.theta(1, s, p) == class_split_oracle([0, 0, 0, 1], s, p)
        assert cset.angles[1].tolist() == [math.pi, 0.0, math.pi]
        assert not cset.angles[0].any()

    def test_brute_force_every_entry(self):
        rng = np.random.default_rng(13)
        t = amp.make_target(rng.random(16))
        for m in (1, 2, 3):
            cset = amp.csp_angles(t, m)
            block = 1 << (t.n - m)
            for k in range(1 << m):
                seg = np.abs(t.amplitudes[k * block:(k + 1) * block])
                for s in range(cset.sub_levels):
                    for p in range(1 << s):
                        assert abs(cset.theta(k, s, p) - class_split_oracle(seg, s, p)) < 1e-12

    def test_global_phase_pattern(self):
        mags = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        t = amp.make_target(mags * np.exp(1j * math.pi / 4))
        cset = amp.csp_angles(t, 1, with_phases=True)
        assert np.allclose(cset.phases, math.pi / 4)

    def test_angle_count_identity(self):
        rng = np.random.default_rng(17)
        for n, m in [(3, 1), (4, 2), (5, 2), (6, 3)]:
            t = amp.make_target(rng.random(1 << n))
            sp = amp.sp_angles(amp.partition_norms(t, m).values)
            csp = amp.csp_angles(t, m, with_phases=True)
            assert len(sp) + csp.count() == (1 << n) - 1
            assert csp.phases.size == 1 << n

    def test_phase_of_zero_amplitude_is_zero(self):
        t = amp.make_target([1j, 0, 0, 1])
        cset = amp.csp_angles(t, 1, with_phases=True)
        assert cset.phases[0, 1] == 0.0 and cset.phases[1, 0] == 0.0
        assert cset.phases[0, 0] == math.pi / 2 and cset.phases[1, 1] == 0.0


class TestJsonInterface:
    def test_real_and_complex_forms(self):
        t1 = amp.target_from_json({"amplitudes": [1, 0, 0, 0]})
        t2 = amp.target_from_json({"amplitudes": [[0, 1], [0, 0]]})
        assert t1.n == 2 and t2.n == 1
        assert t2.amplitudes[0] == 1j

    def test_angles_document_shape(self):
        t = amp.make_target(PIXELS)
        sp = amp.sp_angles(amp.partition_norms(t, 1).values)
        csp = amp.csp_angles(t, 1, with_phases=True)
        doc = amp.angles_to_json(sp, csp)
        assert doc == {"sp_angles": [sp.theta(0, 0)],
                       "csp_angles": [[csp.theta(0, 0, 0)], [csp.theta(1, 0, 0)]],
                       "phases": [[0.0, 0.0], [0.0, 0.0]]}
        assert amp.angles_to_json(sp, amp.csp_angles(t, 1)).keys() == {"sp_angles", "csp_angles"}
        assert amp.angles_to_json(sp) == {"sp_angles": [sp.theta(0, 0)]}
