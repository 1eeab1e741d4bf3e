import contextlib
import heapq
import math

import numpy as np
import pytest

from qsprep import amplitudes as amp
from qsprep import circuit_ir as cir
from qsprep import multicopy as mc
from qsprep import protocols as proto
from qsprep.errors import NoValidSplit, PoolExceeded
from reference import gates


def targets(rng, n, w):
    return [amp.make_target(rng.random(1 << n) + 0.02) for _ in range(w)]


def greedy_pool_size(c) -> int:
    """Physical ids the lifetimes need when each takes the lowest id free at its alloc layer."""
    free, releases, size = [], [], 0
    end = c.num_layers()
    ends = [end if c.dealloc_layer(q) is None else c.dealloc_layer(q) for q in c.qubits()]
    for a, d in sorted(zip(map(c.alloc_layer, c.qubits()), ends)):
        while releases and releases[0][0] <= a:
            heapq.heappush(free, heapq.heappop(releases)[1])
        pid = heapq.heappop(free) if free else size
        size = max(size, pid + 1)
        heapq.heappush(releases, (d, pid))
    return size


def single_depth(n, fanout=True):
    t = amp.make_target([1.0] * (1 << n))
    cfg = proto.ProtocolConfig(n=n, m=mc.batch_split(n), fanout=fanout)
    return proto.spcsp(t, cfg).depth()


def priced_parts(ts, fanout=True):
    """Each target's (sp_end, ancilla profile), as ``stack`` prices them."""
    return mc._instances(ts, fanout)[1]


class TestMinIndentation:
    def test_unbounded_pool_gives_one(self):
        rng = np.random.default_rng(1)
        assert mc.min_indentation(priced_parts(targets(rng, 3, 4)), math.inf) == 1

    def test_returned_k_is_minimal_and_feasible(self):
        """For every batch, pool and start, the walk's k fits and every k from start up to it does not."""
        for n, w, fanout in [(3, 4, True), (3, 8, False), (4, 4, True), (4, 8, True)]:
            rng = np.random.default_rng(n * 10 + w)
            parts = priced_parts(targets(rng, n, w), fanout)
            depth = len(parts[0][1])
            peaks = {k: mc._priced_peak(parts, k) for k in range(1, depth + 1)}
            for cap in sorted(set(peaks.values())):
                for start in (1, 2, depth // 2):
                    k = mc.min_indentation(parts, cap, start)
                    misses = [j for j in range(start, depth + 1) if peaks[j] > cap]
                    if k is None:
                        assert len(misses) == depth + 1 - start
                        continue
                    assert start <= k <= depth and peaks[k] <= cap
                    assert k == start or peaks[k - 1] > cap
                    assert misses[:k - start] == list(range(start, k))

    def test_flat_profile_forces_serial(self):
        # when every layer holds the peak, a cap at the peak leaves no overlap
        parts = [(0, [5] * 12)] * 3
        assert mc.min_indentation(parts, 5) == 12
        assert mc.min_indentation(parts, 10) == 6    # two copies overlap, never three
        assert mc.min_indentation(parts, 15) == 1
        # SP stages run in parallel at every k
        assert mc.min_indentation([(12, [5] * 12)] * 3, 10) is None

    def test_default_cap_is_feasible(self):
        rng = np.random.default_rng(4)
        parts = priced_parts(targets(rng, 4, 4))
        k = mc.min_indentation(parts, 8 << 4)
        assert 1 <= k <= single_depth(4)

    def test_too_small_pool_raises(self):
        """A pool below one instance's peak fits no k; the walk says so and ``stack`` raises."""
        rng = np.random.default_rng(2)
        ts = targets(rng, 3, 1)
        assert mc.min_indentation(priced_parts(ts), 2) is None
        with pytest.raises(PoolExceeded) as info:
            mc.stack(mc.BatchPlan(ts, pool_cap=2))
        assert info.value.feasible_k is None

    @pytest.mark.parametrize("n, w, pool_cap, k, depth, sa", [
        (6, 8, 256, 23, 245, 38164),
        (6, 4, 512, 3, 93, 16346),
        (5, 4, None, 3, 75, 8538),
        (9, 16, None, 10, 290, 506512),
    ])
    def test_pinned_indentations(self, n, w, pool_cap, k, depth, sa):
        """The walk from k = 1 at known batches; dense real targets of one n share every count."""
        t = targets(np.random.default_rng(n * 10 + w), n, 1)[0]
        res = mc.stack(mc.BatchPlan([t] * w, pool_cap=pool_cap))
        assert (res.indentation, res.report.depth, res.report.sa_exact) == (k, depth, sa)

    @pytest.mark.parametrize("indentation, pool_cap", [(None, None), (3, None), (1, 22), (None, 2)])
    def test_stack_walks_once_per_plan(self, monkeypatch, indentation, pool_cap):
        calls = []
        walk = mc.min_indentation
        monkeypatch.setattr(mc, "min_indentation", lambda *args: calls.append(args) or walk(*args))
        rng = np.random.default_rng(6)
        with contextlib.suppress(PoolExceeded):
            mc.stack(mc.BatchPlan(targets(rng, 3, 4), indentation=indentation, pool_cap=pool_cap))
        assert len(calls) == 1
        assert calls[0][2] == (indentation or 1)


class TestStack:
    def test_single_copy_matches_spcsp(self):
        rng = np.random.default_rng(0)
        t = targets(rng, 3, 1)[0]
        plan = mc.BatchPlan([t], indentation=1)
        res = mc.stack(plan)
        cfg = proto.ProtocolConfig(n=3, m=mc.batch_split(3))
        single = proto.spcsp(t, cfg)
        from qsprep.circuit_ir import spacetime_allocation
        a = res.report
        b = spacetime_allocation(single)
        assert (a.depth, a.size, a.sa_exact) == (b.depth, b.size, b.sa_exact)

    @pytest.mark.parametrize("w", [4, 8])
    def test_depth_beats_serial(self, w):
        rng = np.random.default_rng(w)
        plan = mc.BatchPlan(targets(rng, 3, w))
        res = mc.stack(plan)
        assert res.report.depth < w * single_depth(3)
        assert res.peak_ancillae <= plan.pool_cap

    def test_depth_amortizes(self):
        rng = np.random.default_rng(3)
        # one indentation feasible for the largest batch, reused across sizes
        k = mc.stack(mc.BatchPlan(targets(rng, 3, 16))).indentation
        per_copy = []
        for w in (4, 8, 16):
            res = mc.stack(mc.BatchPlan(targets(rng, 3, w), indentation=k))
            per_copy.append(res.report.depth / w)
        assert per_copy[0] <= single_depth(3)
        assert per_copy == sorted(per_copy, reverse=True)

    def test_depth_linear_in_w(self):
        rng = np.random.default_rng(4)
        k = mc.stack(mc.BatchPlan(targets(rng, 3, 8))).indentation
        res4 = mc.stack(mc.BatchPlan(targets(rng, 3, 4), indentation=k))
        res8 = mc.stack(mc.BatchPlan(targets(rng, 3, 8), indentation=k))
        assert res8.report.depth - res4.report.depth == 4 * k

    def test_pool_honesty(self):
        rng = np.random.default_rng(5)
        res = mc.stack(mc.BatchPlan(targets(rng, 3, 4)))
        prof = res.circuit.live_profile(mc._ancillae(res.circuit))
        assert res.peak_ancillae == max(prof)
        live = res.circuit.live_profile()
        assert max(live) == res.report.qubit_count

    def test_pool_exceeded_reports_feasible_k(self):
        rng = np.random.default_rng(6)
        plan = mc.BatchPlan(targets(rng, 3, 4), indentation=1, pool_cap=22)
        try:
            mc.stack(plan)
        except PoolExceeded as e:
            assert e.feasible_k is None or e.feasible_k > 1
        else:
            pytest.fail("expected PoolExceeded")

    def test_physical_recycling_saves_qubits(self):
        rng = np.random.default_rng(7)
        res = mc.stack(mc.BatchPlan(targets(rng, 3, 8)))
        assert res.physical_qubits < len(res.circuit.qubits())
        assert res.physical_qubits == res.report.qubit_count

    @pytest.mark.parametrize("n, w, kwargs", [(3, 8, {}), (4, 3, {}), (5, 4, {"indentation": 3}),
                                              (4, 5, {"fanout": False})])
    def test_pool_is_the_greedy_colouring(self, n, w, kwargs):
        """The lowest-free-id assignment of the lifetimes needs exactly the peak live count."""
        rng = np.random.default_rng(n * 10 + w)
        res = mc.stack(mc.BatchPlan(targets(rng, n, w), **kwargs))
        assert res.physical_qubits == greedy_pool_size(res.circuit)

    def test_last_layer_is_the_last_gate_on_the_copy(self):
        rng = np.random.default_rng(8)
        res = mc.stack(mc.BatchPlan(targets(rng, 4, 3)))
        last_gate = {}
        for t in range(res.circuit.num_layers()):
            for g in gates(res.circuit, t):
                for q in g.qubits:
                    last_gate[q] = t
        for meta in res.instances:
            assert meta["last_layer"] == max(last_gate[q] for q in meta["data"])

    @pytest.mark.parametrize("n, w, complex_amps, fanout", [(3, 4, False, True), (4, 3, True, True),
                                                          (4, 3, False, False), (3, 5, True, False)])
    def test_priced_peak_is_the_merged_peak(self, n, w, complex_amps, fanout):
        """For every k the priced peak equals the ancilla peak measured on the merged batch."""
        rng = np.random.default_rng(n * 10 + w)
        phases = np.exp(1j * rng.random((w, 1 << n)) * 6) if complex_amps else np.ones((w, 1 << n))
        insts, parts = mc._instances([amp.make_target(t.amplitudes * phase)
                                      for t, phase in zip(targets(rng, n, w), phases)], fanout)
        for k in range(1, insts[0][0].num_layers() + 1):
            merged, _ = mc._merge(list(insts), k)  # _merge empties the list it is given
            assert mc._priced_peak(parts, k) == max(merged.live_profile(mc._ancillae(merged)))

    @pytest.mark.parametrize("indentation, pool_cap, merges", [(None, None, 1), (1, None, 0), (1, 22, 0)])
    def test_merges_once_and_only_on_success(self, monkeypatch, indentation, pool_cap, merges):
        calls = []
        merge = mc._merge
        monkeypatch.setattr(mc, "_merge", lambda *args: calls.append(args) or merge(*args))
        rng = np.random.default_rng(6)
        plan = mc.BatchPlan(targets(rng, 3, 4), indentation=indentation, pool_cap=pool_cap)
        if merges:
            mc.stack(plan)
        else:
            with pytest.raises(PoolExceeded):
                mc.stack(plan)
        assert len(calls) == merges

    @pytest.mark.parametrize("indentation", [None, 3])
    def test_one_shape_is_built_per_phase_key(self, monkeypatch, indentation):
        """Instances differ only in their angles once their phase key is fixed: five
        distinct real targets build one shape, a mix of real and complex targets two.
        A repeated target object gives the batch of equal distinct targets, and a mix
        gives the merge of each target's own ``spcsp`` circuit."""
        calls = []
        build = mc.spcsp_shape
        monkeypatch.setattr(mc, "spcsp_shape", lambda *args: calls.append(args) or build(*args))
        amplitudes = np.random.default_rng(12).random(1 << 4) + 0.02
        repeated = mc.stack(mc.BatchPlan([amp.make_target(amplitudes)] * 5, indentation=indentation))
        distinct = mc.stack(mc.BatchPlan([amp.make_target(amplitudes) for _ in range(5)],
                                         indentation=indentation))
        assert len(calls) == 2
        assert cir.dumps(repeated.circuit) == cir.dumps(distinct.circuit)
        assert (repeated.report, repeated.peak_ancillae, repeated.indentation, repeated.instances) == \
            (distinct.report, distinct.peak_ancillae, distinct.indentation, distinct.instances)

        rng = np.random.default_rng(13)
        mixed = [t if d % 2 else amp.make_target(t.amplitudes * np.exp(1j * rng.random(1 << 4) * 6))
                 for d, t in enumerate(targets(rng, 4, 5))]
        res = mc.stack(mc.BatchPlan(mixed, indentation=indentation, pool_cap=1 << 10))
        assert len(calls) == 4
        cfg = proto.ProtocolConfig(n=4, m=mc.batch_split(4))
        own = []
        for t in mixed:
            c = proto.spcsp(t, cfg)
            own.append((c.compact(), c.depth(c.meta["sp_end"])))
        assert cir.dumps(mc._merge(own, res.indentation)[0]) == cir.dumps(res.circuit)

    @pytest.mark.parametrize("indentation", [None, 1])
    def test_sp_overlap_past_the_pool_has_no_feasible_k(self, indentation):
        # n=4: one instance peaks at 46 ancillae, its SP stage at 6; 8 parallel SP stages need 48
        rng = np.random.default_rng(9)
        with pytest.raises(PoolExceeded) as info:
            mc.stack(mc.BatchPlan(targets(rng, 4, 8), indentation=indentation, pool_cap=46))
        assert info.value.feasible_k is None

    def test_rejects_mixed_n(self):
        with pytest.raises(NoValidSplit):
            mc.BatchPlan([amp.make_target([1, 0]), amp.make_target([1, 0, 0, 0])])


class TestBatchSimulation:
    @pytest.mark.parametrize("w", [4, 8])
    def test_product_of_targets(self, w):
        # the dense simulator caps live width, so the schedule overlaps the
        # SP stages and recycles ancillae copy to copy without CSP overlap
        rng = np.random.default_rng(w + 10)
        ts = targets(rng, 3, w)
        plan = mc.BatchPlan(ts, indentation=single_depth(3, fanout=False), fanout=False)
        res = mc.stack(plan)
        fids, report = mc.simulate_batch(res, ts)
        assert len(fids) == w
        assert all(f >= 1 - 1e-8 for f in fids)
        assert all(mass <= 1e-10 for _, _, mass in report.ancilla_verdicts)

    def test_distinct_targets_stay_distinct(self):
        rng = np.random.default_rng(42)
        ts = targets(rng, 3, 4)
        plan = mc.BatchPlan(ts, indentation=single_depth(3, fanout=False), fanout=False)
        res = mc.stack(plan)
        fids, _ = mc.simulate_batch(res, ts)
        assert all(f >= 1 - 1e-8 for f in fids)
        # cross-check: copy 0 against target 1 should NOT have unit fidelity
        fids_wrong, _ = mc.simulate_batch(res, [ts[1]] + ts[1:])
        assert fids_wrong[0] < 1 - 1e-4
