"""Stacked preparation of many independent targets with ancilla reuse.

All SP stages run in parallel from layer 0; the CSP stage of copy d starts
k layers after copy d-1's, so ancillae freed by earlier copies can serve
later ones.  The merged circuit uses one qubit id per lifetime interval.
Handing each interval the lowest free physical id needs exactly as many
physical qubits as are live at the peak layer, so the reported physical
pool is the report's ``qubit_count`` and every interval's accounting is
identical to physical reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .amplitudes import TargetState
from .circuit_ir import Circuit, ResourceReport, checked, spacetime_allocation
from .errors import NoValidSplit, PoolExceeded
from .protocols import ProtocolConfig, spcsp_shape, stage_angles


def batch_split(n: int) -> int:
    """The multi-copy split n - ceil(log2 n), clamped into a valid range."""
    if n < 2:
        raise NoValidSplit(f"n={n} admits no split")
    return min(max(n - math.ceil(math.log2(n)), 1), n - 1)


@dataclass
class BatchPlan:
    targets: list[TargetState]
    indentation: int | None = None      # None: the smallest k that fits the pool cap
    pool_cap: int | None = None         # None: 8 * 2**n ancillae
    fanout: bool = True

    def __post_init__(self):
        if not self.targets:
            raise NoValidSplit("empty batch")
        n = self.targets[0].n
        if any(t.n != n for t in self.targets):
            raise NoValidSplit("all batch targets must share n")
        if self.pool_cap is None:
            self.pool_cap = 8 << n
        if self.indentation is not None and self.indentation < 1:
            raise NoValidSplit("indentation must be >= 1")


def _ancillae(c: Circuit) -> list[int]:
    """The non-persistent qubits of a circuit."""
    persistent = c.persistent()
    return [q for q in c.qubits() if q not in persistent]


def _instances(targets: list[TargetState], fanout: bool) -> tuple[list, list]:
    """Each target's (compacted circuit, layer its CSP stage starts at) and (that layer,
    ancilla profile).  One shape is built and profiled per phase key (whether the angles
    carry phases), and each distinct target object gets a copy with its angles written in."""
    n = targets[0].n
    cfg = ProtocolConfig(n=n, m=batch_split(n), fanout=fanout)
    shapes, built = {}, {}
    for t in targets:
        if id(t) in built:
            continue
        aset, angles = stage_angles(t, cfg)
        key = angles.phases is not None
        if key not in shapes:
            shape = spcsp_shape(cfg, key)
            c = shape.circuit
            shapes[key] = shape, c.depth(c.meta["sp_end"]), c.compact().live_profile(_ancillae(c))
        shape, sp_end, profile = shapes[key]
        built[id(t)] = shape._replace(circuit=shape.circuit.copy()).write(aset, angles).compact(), sp_end, profile
    return [built[id(t)][:2] for t in targets], [built[id(t)][1:] for t in targets]


@dataclass
class BatchResult:
    circuit: Circuit
    report: ResourceReport
    peak_ancillae: int
    indentation: int
    physical_qubits: int                # the peak live count, report.qubit_count
    instances: list[dict] = field(default_factory=list)  # data qubits + last layer per copy


def _merge(insts: list[tuple[Circuit, int]], k: int) -> tuple[Circuit, list[dict]]:
    """Overlay instance circuits: SP parts at layer 0, CSP part of copy d at d*k.

    Releases at the stage boundary belong to the SP side: a qubit released
    at ``sp_end`` is released there in the batch too.  Each entry of
    ``insts`` is set to None once it is embedded, so an instance circuit the
    caller holds nowhere else is freed after its last copy.
    """
    batch = Circuit()
    copies = []
    for d in range(len(insts)):
        (inst, sp_end), insts[d] = insts[d], None
        offset = d * k
        mapping = batch.embed(inst, lambda t: t if t < sp_end else t + offset)
        copies.append([mapping[q] for q in inst.registers["D"]])
        batch.add_register(f"D{d}", copies[-1])
    batch = batch.compact()  # keeps qubit ids
    return batch, [{"data": data, "last_layer": max(map(batch.last_use_layer, data))} for data in copies]


def _priced_peak(parts: list[tuple[int, list[int]]], k: int) -> int:
    """``_merge``'s peak ancilla count at indentation k from each instance's (sp_end, ancilla profile).

    Exact while no ancilla lives across an ``sp_end``: the layers compaction drops hold none.
    """
    live = [0] * max(len(p) + d * k for d, (_, p) in enumerate(parts))
    for d, (sp_end, prof) in enumerate(parts):
        for t, count in enumerate(prof):
            live[t if t < sp_end else t + d * k] += count
    return max(live, default=0)


def min_indentation(parts: list[tuple[int, list[int]]], pool_cap: float, start: int = 1) -> int | None:
    """The smallest k in [start, depth] whose priced peak fits the pool, or None.

    ``depth`` is the first instance's layer count: a larger k only adds
    layers that compaction drops.
    """
    return next((k for k in range(start, len(parts[0][1]) + 1) if _priced_peak(parts, k) <= pool_cap), None)


def stack(plan: BatchPlan) -> BatchResult:
    """Schedule all SP stages in parallel and the CSP stages k layers apart.

    One instance shape is built and profiled per phase key among the
    targets, and each distinct target object takes a copy of it with its
    angles written in (:func:`_instances`).  One walk over the priced peaks finds the smallest
    fitting k from 1, or from an explicit k, which must then fit itself and
    lie in [1, depth]; only that k is merged, and the batch passes the
    circuit's walk (:func:`checked`) before it is accounted.
    """
    insts, parts = _instances(plan.targets, plan.fanout)  # _merge frees each instance once embedded
    start, depth = plan.indentation or 1, insts[0][0].num_layers()
    if start > depth:
        raise NoValidSplit(f"indentation {start} exceeds the instance depth {depth}")
    fit = min_indentation(parts, plan.pool_cap, start)
    k = plan.indentation or fit
    if fit is None or fit != k:
        shown = start if fit else depth  # the k asked for, or the last k walked when none fits
        found = f"the smallest that fits is {fit}" if fit else "none fits"
        raise PoolExceeded(f"peak ancillae {_priced_peak(parts, shown)} exceeds pool cap {plan.pool_cap} at "
                           f"k={shown}; of k in [{start}, {depth}], {found}", feasible_k=fit)
    peak_anc = _priced_peak(parts, k)

    batch, instances_meta = _merge(insts, k)
    report = spacetime_allocation(checked(batch))
    return BatchResult(
        circuit=batch,
        report=report,
        peak_ancillae=peak_anc,
        indentation=k,
        physical_qubits=report.qubit_count,
        instances=instances_meta,
    )


def simulate_batch(result: BatchResult, targets: list[TargetState]):
    """Simulate a stacked circuit, splitting each finished copy off as it completes.

    Detaching completed data registers keeps the live width bounded by the
    in-flight instances; the product-factor check certifies the split is
    exact.  Returns (per-copy fidelities, SimReport).
    """
    import numpy as np

    from .sim import run

    plan = [(meta["last_layer"], meta["data"]) for meta in result.instances]
    report, _ = run(result.circuit, detach_plan=plan)
    fidelities = []
    for factor, t in zip(report.detached, targets):
        fidelities.append(float(abs(np.vdot(t.amplitudes, factor))))
    return fidelities, report

