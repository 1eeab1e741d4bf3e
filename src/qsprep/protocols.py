"""Full protocol assembly: SP, CSP, SP+CSP circuits and reflections.

The angles of both stages come from :mod:`amplitudes` (:func:`sp_angles`,
:func:`csp_angles`); :func:`stage_angles` picks the ones :func:`spcsp`
emits for a target and a configuration, and :meth:`Shape.write` writes them.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .amplitudes import AngleSet, CSPAngleSet, TargetState, csp_angles, partition_norms, sp_angles
from .circuit_ir import CLEAN, Block, Circuit
from .errors import AngleCountMismatch, BadSplit, ComplexTargetNeedsCSP, IndexOutOfRange, NoValidSplit
from .subroutines import AngleRef, flag, loadf, spf, split_levels

# perfbench/traced.py looks the angle functions up under these older names
injection_angles, injection_csp_angles = sp_angles, csp_angles


# -- configuration ----------------------------------------------------------------


def choose_m(n: int) -> int:
    """Default split n - ceil(log2 n), valid only when the split window is nonempty.

    The window requires a strict two-sided gap, so n <= 3 never qualifies and
    callers fall back to SP-only preparation (or pass m explicitly).
    """
    if n >= 4:
        lo = math.ceil(math.log2(n))
        hi = math.floor(n - math.log2(n))
        m = n - math.ceil(math.log2(n))
        if lo <= m <= hi:
            return m
    raise NoValidSplit(f"no split m with ceil(log2 {n}) <= m <= floor({n} - log2 {n})")


@dataclass(frozen=True)
class ProtocolConfig:
    n: int
    m: int | None = None                 # None: choose_m, falling back to SP-only
    complex_mode: bool = False           # track phases even for a real non-negative target
    dirty_b1: bool = False
    loadf_first_optimized: bool = False
    fanout: bool = True                  # paper layout; False packs rotations, tiny footprint

    def __post_init__(self):
        if self.m is not None and not 1 <= self.m < self.n:
            raise BadSplit(f"m={self.m} outside [1, {self.n - 1}]")

    def resolved_m(self) -> int | None:
        """The split to use, or None for the SP-only fallback."""
        if self.m is not None:
            return self.m
        try:
            return choose_m(self.n)
        except NoValidSplit:
            return None


def stage_angles(t: TargetState, cfg: ProtocolConfig) -> tuple[AngleSet, CSPAngleSet | None]:
    """The angles :func:`spcsp` emits for ``t`` under ``cfg``.

    With a split m, the SP angles of the partition norms and the CSP angle
    families, with phases for a target that is not real non-negative or
    under ``cfg.complex_mode``.  In the SP-only fallback (no valid split),
    the SP angles of the target's magnitudes and None.
    """
    if cfg.n != t.n:
        raise BadSplit(f"config is for n={cfg.n}, target has n={t.n}")
    complex_mode = t.phased(cfg.complex_mode)
    m = cfg.resolved_m()
    if m is None:
        if complex_mode:
            raise ComplexTargetNeedsCSP(
                f"n={t.n} has no valid split; SP-only fallback handles real non-negative targets only")
        return sp_angles(np.abs(t.amplitudes)), None
    return sp_angles(partition_norms(t, m).values), csp_angles(t, m, with_phases=complex_mode)


# -- emitters -----------------------------------------------------------------------


def _sets(aset: AngleSet | None, angles: CSPAngleSet | None) -> tuple:
    """The SP set's width and the CSP set's (m, n, phased), each None without the set."""
    return getattr(aset, "m", None), angles and (angles.m, angles.n, angles.phases is not None)


class Shape(NamedTuple):
    """A circuit with its rotation parameters unset, the angle-table entries they read,
    and :func:`_sets` of the angle sets it takes."""

    circuit: Circuit
    refs: list[AngleRef]
    sets: tuple

    def write(self, aset: AngleSet | None, angles: CSPAngleSet | None = None) -> Circuit:
        """The circuit with every rotation parameter written from the angle sets."""
        if _sets(aset, angles) != self.sets:
            raise AngleCountMismatch(f"circuit takes angle sets {self.sets}, got {_sets(aset, angles)}")
        tables = {"sp": getattr(aset, "angles", None), "theta": getattr(angles, "angles", None),
                  "phases": getattr(angles, "phases", None)}
        for table, at, spans, how, negate in self.refs:
            x = tables[table].reshape(-1)
            lo = x[at]
            values = lo if how == "x" else x[at + 1] - lo if how == "hi-lo" else (x[at + 1] + lo) / how
            values, done = -values if negate else values, 0
            for layer, first, count in zip(spans[::3], spans[1::3], spans[2::3]):
                self.circuit.params(layer)[first:first + count] = values[done:done + count]
                done += count
        return self.circuit


def _flip(c: Circuit, qubits: list[int], layer: int) -> None:
    """X on each of ``qubits`` at ``layer``, in one batch."""
    c.put("x", qubits, layer)


def _emit_sp(c: Circuit, data: list[int], refs: list[AngleRef], start: int,
             keep_a: bool = False) -> tuple[int, list[int], list[int]]:
    """State preparation on ``data`` from the "sp" angle table.

    Emits the parallel angle rotations, the injection, and the flag-driven
    uncomputation; the angle and flag registers are freed in |0> unless the
    angle register is kept for a caller-managed reflection.
    """
    m = len(data)
    ry, cry = (AngleRef("sp", np.arange((1 << m) - 1), array("i"), negate=negate) for negate in (False, True))
    refs.extend((ry, cry))
    A = c.alloc_many((1 << m) - 1, at_layer=start)   # pair (s, p) owns A[2**s - 1 + p]
    ry.put(c, "ry", A, start, len(A))
    a_levels = split_levels(A)
    spf_end, _ = spf(c, data, a_levels, start=start + 1)

    F = c.alloc_many((1 << m) - 1, at_layer=spf_end)
    _flip(c, F, spf_end)
    f_levels = split_levels(F)
    fl_end = flag(c, data, f_levels, start=spf_end + 1)
    cry.put(c, "cry", [q for fa in zip(F, A) for q in fa], fl_end, len(A))
    fl2_end = flag(c, data, f_levels, start=fl_end + 1, adjoint=True)
    _flip(c, F, fl2_end)
    end = fl2_end + 1
    c.dealloc_many(F if keep_a else [*F, *A], end)
    return end, A, F


def _emit_csp(c: Circuit, ctrl: list[int], lower: list[int], refs: list[AngleRef], phased: bool,
              cfg: ProtocolConfig, start: int, keep_b: bool = False) -> tuple[int, list[int], list[int]]:
    """Controlled state preparation of the lower register for each |k> of ctrl,
    from the "theta" (and, when ``phased``, "phases") angle tables."""
    nb = (1 << len(lower)) - 1
    F0 = c.alloc_many(nb, at_layer=start)
    _flip(c, F0, start)
    B0 = c.alloc_many(nb, at_layer=start + 1)
    lf_end = loadf(c, ctrl, B0, F0, refs, phased, start=start + 1,
                   dirty_b1=cfg.dirty_b1, fanout=cfg.fanout,
                   first_optimized=cfg.loadf_first_optimized)
    spf_end, _ = spf(c, lower, split_levels(B0), start=lf_end)
    fl_end = flag(c, lower, split_levels(F0), start=spf_end)
    lf2_end = loadf(c, ctrl, B0, F0, refs, phased, start=fl_end, adjoint=True,
                    dirty_b1=cfg.dirty_b1, fanout=cfg.fanout)
    fl2_end = flag(c, lower, split_levels(F0), start=lf2_end, adjoint=True)
    _flip(c, F0, fl2_end)
    end = fl2_end + 1
    c.dealloc_many(F0 if keep_b else [*F0, *B0], end)
    return end, B0, F0


def _sp_shape(m: int, keep_a: bool) -> Shape:
    c, refs = Circuit(), []
    data = c.alloc_many(m, at_layer=0)
    c.mark_persistent(data)
    end, A, F = _emit_sp(c, data, refs, 0, keep_a=keep_a)
    c.add_register("D", data)
    c.add_register("A", A)
    c.add_register("F", F)
    c.meta["sp_end"] = end
    c.meta["expected_register_sizes"] = {"D": m, "A": (1 << m) - 1}
    return Shape(c, refs, (m, None))


def sp_circuit(angles: AngleSet, keep_a: bool = False) -> Circuit:
    """Standalone state-preparation circuit for the angle set ``angles`` (:func:`sp_angles`).

    With ``keep_a`` the angle register stays live to the end.
    """
    return _sp_shape(angles.m, keep_a).write(angles)


def _prepare_basis(c: Circuit, qubits: list[int], basis: int | None) -> int:
    """X at layer 0 on each qubit whose bit of ``basis`` is set; returns the first free layer."""
    if basis is None:
        return 0
    _flip(c, [q for bit, q in enumerate(qubits) if (basis >> bit) & 1], 0)
    return 1


def csp_circuit(angles: CSPAngleSet, control_state: int | None = None,
                cfg: ProtocolConfig | None = None) -> Circuit:
    """Standalone controlled-state-preparation circuit for the angle families
    ``angles`` (:func:`csp_angles`).

    When ``control_state`` is given, the control register is prepared in
    that basis state first (for per-branch testing).
    """
    cfg = cfg or ProtocolConfig(n=angles.n, m=angles.m)
    c, refs = Circuit(), []
    ctrl = c.alloc_many(angles.m, at_layer=0)
    lower = c.alloc_many(angles.sub_levels, at_layer=0)
    c.mark_persistent(ctrl)
    c.mark_persistent(lower)
    start = _prepare_basis(c, ctrl, control_state)
    _, B0, F0 = _emit_csp(c, ctrl, lower, refs, angles.phases is not None, cfg, start)
    c.add_register("D", [*lower, *ctrl])
    c.add_register("C", ctrl)
    c.add_register("L", lower)
    c.add_register("B0", B0)
    c.add_register("F0", F0)
    return Shape(c, refs, _sets(None, angles)).write(None, angles)


def spcsp_shape(cfg: ProtocolConfig, phased: bool = False, keep_ab: bool = False) -> Shape:
    """:func:`spcsp`'s circuit under ``cfg`` for any target whose angles carry phases iff
    ``phased``, its rotation parameters unset; in the SP-only fallback, :func:`sp_circuit`'s."""
    m = cfg.resolved_m()
    if m is None:
        shape = _sp_shape(cfg.n, keep_ab)
        shape.circuit.meta["sp_only"] = True
        return shape
    c, refs = Circuit(), []
    ctrl = c.alloc_many(m, at_layer=0)
    c.mark_persistent(ctrl)
    sp_end, A, F = _emit_sp(c, ctrl, refs, 0, keep_a=keep_ab)
    lower = c.alloc_many(cfg.n - m, at_layer=sp_end)
    c.mark_persistent(lower)
    end, B0, F0 = _emit_csp(c, ctrl, lower, refs, phased, cfg, sp_end, keep_b=keep_ab)
    c.add_register("D", [*lower, *ctrl])
    c.add_register("C", ctrl)
    c.add_register("L", lower)
    c.add_register("A", A)
    c.add_register("B0", B0)
    c.add_register("F", F)
    c.add_register("F0", F0)
    c.meta["sp_end"] = sp_end
    nb = (1 << (cfg.n - m)) - 1
    c.meta["expected_register_sizes"] = {"D": cfg.n, "A": (1 << m) - 1, "B0": nb}
    return Shape(c, refs, (m, (m, cfg.n, phased)))


def spcsp(t: TargetState, cfg: ProtocolConfig | None = None,
          keep_ab: bool = False) -> Circuit:
    """Full preparation of target ``t``: SP on the top m bits, then CSP.

    The data register (register "D") lists the lower bits first and the
    control bits last, so reading it little-endian matches the target
    index.  With ``keep_ab`` the angle and buffer registers stay live to the
    end (for reflection constructions).
    """
    cfg = cfg or ProtocolConfig(n=t.n)
    aset, angles = stage_angles(t, cfg)
    return spcsp_shape(cfg, getattr(angles, "phases", None) is not None, keep_ab).write(aset, angles)


# -- reflections ------------------------------------------------------------------


def replay(dst: Circuit, src: Circuit, base: int, shared: dict[int, int]) -> int:
    """Replay a built circuit inside another one, from layer ``base``.

    Qubits in ``shared`` map onto existing destination qubits and keep
    their lifecycle outside the replay; all others must be fully managed
    inside ``src`` and get fresh destination qubits with the same
    alloc/dealloc events (:meth:`Circuit.embed`).  To replay the time
    reversal, pass ``src.compact().adjoint()``.
    """
    src = src.compact()
    for q in src.qubits():
        if q not in shared and src.dealloc_layer(q) is None:
            raise BadSplit(f"replay: unshared qubit {q} has no dealloc")
    dst.embed(src, lambda t: base + t, shared)
    return base + src.num_layers()


def zero_reflection(c: Circuit, qubits: list[int], start: int) -> int:
    """Phase flip on the all-zeros state of ``qubits``.

    X-conjugated Toffoli AND tree onto a fresh root, a pi phase on the
    root, then uncomputation: depth O(log len), len-1 Toffolis each way.
    """
    _flip(c, qubits, start)
    frontier = start + 1
    tree = Block(c, frontier)
    current = list(qubits)
    while len(current) > 1:
        nxt = list(tree.alloc_many(len(current) // 2, CLEAN, at_layer=frontier))
        tree.put("toffoli", [q for i, anc in enumerate(nxt) for q in (*current[2 * i:2 * i + 2], anc)], frontier)
        if len(current) % 2:
            nxt.append(current[-1])
        current = nxt
        frontier += 1
    c.put("phase", [current[0]], frontier, [math.pi])
    frontier = tree.mirror(frontier + 1, frontier - tree.start)
    _flip(c, qubits, frontier)
    return frontier + 1


def reflection(t: TargetState, cfg: ProtocolConfig | None = None) -> Circuit:
    """Reflection I - 2|psi><psi| about the prepared state, on the data register.

    Build: U^dagger, a phase flip on (data, angle, buffer) all zero, then U.
    The angle and buffer registers begin and end in |0>; every other
    ancilla returns to |0> inside each half regardless of the input.
    """
    cfg = cfg or ProtocolConfig(n=t.n)
    inner = spcsp(t, cfg, keep_ab=True)
    inner_data = inner.registers["D"]
    kept = list(inner.registers.get("A", []))
    if "B0" in inner.registers:
        kept += inner.registers["B0"]

    c = Circuit()
    data = c.alloc_many(t.n, at_layer=0)
    c.mark_persistent(data)
    mirror_regs = c.alloc_many(len(kept), at_layer=0)
    shared = dict(zip(inner_data, data))
    shared.update(zip(kept, mirror_regs))

    end1 = replay(c, inner.compact().adjoint(), 0, shared)
    end2 = zero_reflection(c, [*data, *mirror_regs], end1)
    end3 = replay(c, inner, end2, shared)
    c.dealloc_many(mirror_regs, end3)
    c.add_register("D", data)
    return c


# -- standalone fragments (differential testing, CLI) ----------------------------------


#: Largest m (and cs-layer t) of a standalone fragment, which holds up to
#: 2**m qubits.
FRAGMENT_MAX_M = 20


def fragment_circuit(name: str, m: int, angles: CSPAngleSet | None = None, t: int = 0,
                     basis: int | None = None, **kwargs) -> Circuit:
    """Wire one fragment into a standalone circuit with canonical registers.

    ``loadf`` reads the angle families ``angles`` (:func:`csp_angles`).
    ``m`` must lie in [1, FRAGMENT_MAX_M], ``t`` in [0, FRAGMENT_MAX_M] and
    ``basis`` in [0, 2**m).
    """
    from . import subroutines as sub

    if not 1 <= m <= FRAGMENT_MAX_M:
        raise BadSplit(f"m={m} outside [1, {FRAGMENT_MAX_M}]")
    if not 0 <= t <= FRAGMENT_MAX_M:
        raise BadSplit(f"t={t} outside [0, {FRAGMENT_MAX_M}]")
    if basis is not None and not 0 <= basis < (1 << m):
        raise IndexOutOfRange(f"basis={basis} outside [0, {1 << m})")
    c = Circuit()
    if name == "copy":
        src = c.alloc(at_layer=0)
        c.mark_persistent([src])
        reg, _ = sub.copy(c, src, 1 << m, start=0)
        c.mark_persistent(reg[1:])
        c.add_register("R", reg)
    elif name == "cs":
        controls = c.alloc_many(1 << t, at_layer=0)
        targets = c.alloc_many(2 << t, at_layer=0)
        c.mark_persistent([*controls, *targets])
        sub.cs_layer(c, t, controls, targets, at_layer=0)
        c.add_register("R", controls)
        c.add_register("S", targets)
    elif name == "copyswap":
        ctrl = c.alloc_many(m, at_layer=0)
        payload = c.alloc(at_layer=0)
        c.mark_persistent([*ctrl, payload])
        start = _prepare_basis(c, ctrl, basis)
        res = sub.copyswap(c, ctrl, payload, start=start)
        c.mark_persistent(res.slots[1:])
        for tr in res.trees:
            c.mark_persistent(tr[1:])
        c.add_register("C", ctrl)
        c.add_register("S", res.slots)
    elif name in ("spf", "flag"):
        data = c.alloc_many(m, at_layer=0)
        reg = c.alloc_many((1 << m) - 1, at_layer=0)
        c.mark_persistent([*data, *reg])
        start = _prepare_basis(c, data, basis)
        if name == "spf":
            sub.spf(c, data, split_levels(reg), start=start)
            c.add_register("A", reg)
        else:
            _flip(c, reg, start)
            sub.flag(c, data, split_levels(reg), start=start + 1, **kwargs)
            c.add_register("F", reg)
        c.add_register("D", data)
    elif name == "loadf":
        if angles is None:
            raise BadSplit("loadf fragment needs an angle set")
        sub_levels = angles.sub_levels
        nb = (1 << sub_levels) - 1
        ctrl = c.alloc_many(angles.m, at_layer=0)
        c.mark_persistent(ctrl)
        start = _prepare_basis(c, ctrl, basis)
        F0 = c.alloc_many(nb, at_layer=start)
        flags = kwargs.pop("flags", [1] * nb)
        _flip(c, [q for i, q in enumerate(F0) if flags[i]], start)
        B0 = c.alloc_many(nb, at_layer=start + 1)
        c.mark_persistent([*F0, *B0])
        refs = []
        loadf(c, ctrl, B0, F0, refs, angles.phases is not None, start=start + 1, **kwargs)
        c.add_register("D0", ctrl)
        c.add_register("B0", B0)
        c.add_register("F0", F0)
        Shape(c, refs, _sets(None, angles)).write(None, angles)
    else:
        raise BadSplit(f"unknown fragment {name!r}")
    return c
