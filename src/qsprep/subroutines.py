"""The six circuit fragments: COPY, CS_t, CopySwap, SPF, FLAG, LOADF.

Register conventions shared by every fragment:

* Multi-level angle/flag registers are handed over as level lists; level s
  has 2**s qubits in *pair order*, so ``levels[s][p]`` is the qubit labeled
  (s, p).  Data registers are little-endian: ``data[q]`` owns bit q of the
  basis index j, and the pair selected at level s for data value j is
  p = j mod 2**s.
* Internally the routing ladders work in *slot space*: the qubit at slot
  pi of level s is ``levels[s][bitrev(pi, s)]``; slot 0 is pair 0.  The
  stride-2**t swap layers move the slot indexed by the processed data
  prefix to the front.  Callers only ever see pair order.
* Fresh ancillae are allocated in the layer of first use and released
  right after their mirrored last use, which is what gives the fragments
  their published spacetime allocation.  Every fragment records the part
  it uncomputes in a ``circuit_ir.Block``; ``Block.mirror`` is the one
  place that rule and its layer arithmetic live.
* Qubits are the circuit's int ids, and a CNOT copy tree is its ids alone.
  The copies of K trees after t copy layers are a (K, 2**t) id matrix P_t,
  a row per tree in slot order; copy layer t allocates the fresh copies
  ``new_t`` and puts the CNOTs of ``zip(P_t, new_t)``, flattened, as one
  batch.  P_{t+1} interleaves P_t and ``new_t`` in the power-of-two trees
  of COPY, CopySwap, SPF and FLAG (:func:`copy_layer`), and concatenates
  them in LOADF's fan-outs (:func:`fan_out`), which are cut short at any
  size; the register a tree leaves is its last P.  The fresh ids come in
  one of two orders: :func:`copy_layer` allocates a layer at a time, one
  ``alloc_many`` call for the trees it grows (SPF grows each tree alone,
  since its trees reach a layer at different widths), and :func:`fan_out`
  allocates tree by tree, every tree in one call with one layer per qubit.
* Every batch of one op goes in as flat operand and parameter lists
  (``Circuit.put``), straight into the layer's columns; the emitted
  circuit is checked once, as a whole, by ``Circuit.validate``.
* Rotations go in with their parameters unset (:meth:`AngleRef.put`), and
  an :class:`AngleRef` names the stage-angle entries they read, so one built
  circuit takes any target's angles.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .circuit_ir import CLEAN, DIRTY, Block, Circuit, Register
from .errors import BadRegisterShape, NotPowerOfTwo, RegisterTooSmall


def bitrev(x: int, bits: int) -> int:
    r = 0
    for _ in range(bits):
        r = (r << 1) | (x & 1)
        x >>= 1
    return r


def slot_order(level: list[int], s: int) -> list[int]:
    """Reorder a pair-ordered level register into ladder slot order."""
    if len(level) != 1 << s:
        raise BadRegisterShape(f"level {s} needs {1 << s} qubits, got {len(level)}")
    return [level[bitrev(pi, s)] for pi in range(1 << s)]


def split_levels(flat: list[int]) -> list[list[int]]:
    """Split a flat pair-ordered register of size 2**m - 1 into levels."""
    levels, i, s = [], 0, 0
    while i < len(flat):
        levels.append(flat[i:i + (1 << s)])
        i += 1 << s
        s += 1
    if any(len(lv) != 1 << t for t, lv in enumerate(levels)):
        raise BadRegisterShape(f"register size {len(flat)} is not 2**m - 1")
    return levels


@dataclass(frozen=True)
class FragmentSpec:
    """Declared register shapes and fresh-ancilla budget of a fragment."""

    name: str
    consumes: dict
    fresh_ancillae: object


def _ints(ids: np.ndarray) -> array:
    """An id array, flattened row by row, as an ``array('i')``, whose items are ints."""
    return array("i", ids.astype(np.intc, copy=False).tobytes())


def _fresh(qubits: range) -> np.ndarray:
    """A range of fresh qubit ids as a numpy id array."""
    return np.arange(qubits.start, qubits.stop, dtype=np.intc)


def copy_layer(c: Circuit, trees: np.ndarray, layer: int) -> np.ndarray:
    """One copy layer of K power-of-two trees at ``layer``; returns their grown id matrix.

    ``trees`` is the (K, w) id matrix of their copies, a row per tree in
    slot order.  One ``alloc_many`` call takes a fresh copy per entry, row
    by row, and one batch puts a CNOT from each entry onto its fresh copy.
    The grown (K, 2w) matrix interleaves each copy with its fresh one, which
    is also the batch's operand order: in a tree of ``size`` copies, layer t
    copies slot j*size/2**t onto the slot half that stride further.
    """
    fresh = _fresh(c.alloc_many(trees.size, at_layer=layer)).reshape(trees.shape)
    grown = np.stack((trees, fresh), axis=-1).reshape(len(trees), 2 * trees.shape[1])
    c.put("cnot", _ints(grown), layer)
    return grown


def fan_out(c: Circuit, roots, size: int, starts: list[int]) -> np.ndarray:
    """Fan each of K roots out to ``size`` copies, tree k's copy layer t at ``starts[k] + t``.

    Layer t copies slots [0, 2**t) onto [2**t, 2**(t+1)), cut short at
    ``size``, so any size works.  One ``alloc_many`` call takes every fresh
    copy, tree by tree in slot order, each at its layer, and each circuit
    layer's CNOTs go in as one batch, tree by tree.  Returns the (K, size)
    id matrix of the registers, each root first.
    """
    slot = np.arange(1, size)
    t = np.frexp(slot)[1] - 1   # the copy layer that fills the slot, from slot - 2**t
    layers = np.add.outer(starts, t)
    fresh = _fresh(c.alloc_many(layers.size, at_layer=_ints(layers)))
    trees = np.column_stack((roots, fresh.reshape(len(roots), size - 1)))
    pairs = np.stack((trees[:, slot - (1 << t)], trees[:, 1:]), axis=-1)
    for layer in range(min(starts, default=0), max(starts, default=0) + (size - 1).bit_length()):
        c.put("cnot", _ints(pairs[layers == layer]), layer)
    return trees


def copy(c: Circuit, source: int, size: int, start: int | None = None) -> tuple[array, int]:
    """Fan a qubit out to ``size`` total copies (CNOT tree, depth log2 size).

    Ancillae are allocated in the layer of their first CNOT, so an isolated
    copy occupies spacetime exactly 2*size - 2.  Returns (register, end).
    """
    if size < 1 or size & (size - 1):
        raise NotPowerOfTwo(f"copy register size {size} not a power of two")
    if start is None:
        start = c.num_layers()
    tree, end = np.array([[source]], np.intc), start + size.bit_length() - 1
    for layer in range(start, end):
        tree = copy_layer(c, tree, layer)
    return _ints(tree), end


def cs_layer(c: Circuit, t: int, controls: list[int], targets: list[int],
             at_layer: int | None = None) -> int:
    """One layer of 2**t parallel CSWAPs: (controls[i]; targets[i], targets[i+2**t])."""
    if len(controls) < 1 << t:
        raise RegisterTooSmall(f"CS_{t} needs {1 << t} controls, got {len(controls)}")
    if len(targets) < 2 << t:
        raise RegisterTooSmall(f"CS_{t} needs {2 << t} targets, got {len(targets)}")
    if at_layer is None:
        at_layer = c.num_layers()
    half = 1 << t
    c.put("cswap", list(chain.from_iterable(zip(controls[:half], targets[:half], targets[half:2 * half]))),
          at_layer)
    return at_layer + 1


@dataclass
class CopySwapResult:
    slots: array         # size-2**m target register, slot order
    trees: list[array]   # per control bit j, its 2**j copies in slot order
    end: int


def copyswap(c: Circuit, controls, payload: int,
             start: int | None = None, target_kind: str = CLEAN) -> CopySwapResult:
    """Copy m control bits while routing the payload to slot k of a 2**m register.

    Layer t fans control bits j > t one step further and applies CS_t
    controlled on the 2**t copies of bit t, so the payload starting at slot 0
    ends at the slot indexed by the control value; depth is exactly m.  Run
    it inside a ``Block`` to undo it.
    """
    m = len(controls)
    if start is None:
        start = c.num_layers()
    growing = np.asarray(controls, np.intc).reshape(m, 1)   # at layer t: bits t.., 2**t copies each
    trees, target_slots = [], array("i", (payload,))
    for t in range(m):
        layer = start + t
        trees.append(_ints(growing[0]))
        growing = copy_layer(c, growing[1:], layer)
        target_slots.extend(c.alloc_many(1 << t, target_kind, at_layer=layer))
        cs_layer(c, t, trees[t], target_slots, layer)
    return CopySwapResult(slots=target_slots, trees=trees, end=start + m)


# -- SPF -----------------------------------------------------------------------


@dataclass
class SpfSchedule:
    """Layer assignments of the forward SPF half, kept for rule checking."""

    swap_layer: dict    # s -> layer
    oplus_layer: dict   # (q, i) -> layer
    cs_layer: dict      # (s, t) -> layer, control q = s-1-t
    end: int


def _spf_plan(m: int, start: int) -> SpfSchedule:
    """Layers of the forward SPF half, in closed form (relative to ``start``).

    * level s is swapped into data qubit s at max(3s - 1, 0);
    * CS_t on level s, controlled by the 2**t copies of data qubit
      q = s - 1 - t, runs at 3s - 2 - t, so each level's chain runs strides
      high-to-low and ends right before its swap;
    * copy layer i of data qubit q runs at max(3q, 2) + 2i, for
      i < m - 2 - q, after q's swap and between the CS layers that read it;
    * the half ends at max(3m - 3, 1).

    Each level adds three layers.  This is the greedy ASAP schedule of the
    ordering rules above, with at most one event per qubit per layer.
    """
    return SpfSchedule(
        swap_layer={s: start + max(3 * s - 1, 0) for s in range(m)},
        oplus_layer={(q, i): start + max(3 * q, 2) + 2 * i for q in range(m) for i in range(m - 2 - q)},
        cs_layer={(s, t): start + 3 * s - 2 - t for s in range(m) for t in range(s)},
        end=start + max(3 * m - 3, 1),
    )


def spf(c: Circuit, data: list[int], levels: list[list[int]],
        start: int | None = None) -> tuple[int, SpfSchedule]:
    """Inject pre-rotated angle qubits into the data register.

    With the level registers holding a product of single-qubit angle states,
    maps |0^m>|Theta> to sum_j y_j |j>|g_j>: pair (s, j mod 2**s) of every
    level is absorbed into data qubit s, and the mirrored second half (same
    routing, no swaps) returns every surviving angle state to its own qubit
    and uncopies the data-bit fan-outs.  The forward half follows the closed
    form of :func:`_spf_plan` and takes max(3m - 3, 1) layers; its CS and
    copy layers span 3m - 5 of them (m >= 2), which the mirror repeats, so
    the fragment's depth is 6m - 8 for m >= 2.  2**(m-1) - m ancillae.
    """
    m = len(data)
    if len(levels) != m:
        raise BadRegisterShape(f"need {m} angle levels, got {len(levels)}")
    slots = [slot_order(lv, s) for s, lv in enumerate(levels)]
    if start is None:
        start = c.num_layers()
    plan = _spf_plan(m, start)
    # the CS and copy layers run from start + 1 to the last CS layer, start + 3m - 5
    lo, span = (start + 1, 3 * m - 5) if m >= 2 else (start, 0)
    block = Block(c, lo)
    trees = [np.array([[q]], np.intc) for q in data]   # data qubit q's copies so far, in slot order

    # (layer, kind, a, b): kind 0 swaps level a in, 1 is CS_b on level a, 2 is copy layer b
    # of data qubit a; layer-major, and within a layer the swaps, CS layers, copy layers
    events = sorted([(layer, 0, s, 0) for s, layer in plan.swap_layer.items()]
                    + [(layer, 1, *key) for key, layer in plan.cs_layer.items()]
                    + [(layer, 2, *key) for key, layer in plan.oplus_layer.items()])
    for layer, kind, a, b in events:
        if kind == 0:
            c.put("swap", [data[a], slots[a][0]], layer)
        elif kind == 1:  # copy layers interleave, so every (len >> b)-th copy is one of the first 2**b
            copies = trees[a - 1 - b][0]
            cs_layer(block, b, copies[::len(copies) >> b].tolist(), slots[a][:2 << b], layer)
        else:
            trees[a] = copy_layer(block, trees[a], layer)
    return block.mirror(plan.end, span), plan


# -- FLAG ----------------------------------------------------------------------


def flag(c: Circuit, data: list[int], levels: list[list[int]],
         start: int | None = None, adjoint: bool = False) -> int:
    """Mark pair (s, j mod 2**s) of every level register with a 0.

    On level registers holding |1...1>, computes |j> (x)_{s,p} |1-f_(s,p)|j>:
    slot 0 of each level is flipped, then carried to the selected slot by
    stride-doubling CSWAP ladders; all data-bit copies are made up front and
    undone at the end.  The adjoint mirrors the whole sequence.
    """
    m = len(data)
    if len(levels) != m:
        raise BadRegisterShape(f"need {m} flag levels, got {len(levels)}")
    slots = [slot_order(lv, s) for s, lv in enumerate(levels)]
    if start is None:
        start = c.num_layers()

    copy_span = max(m - 2, 0)   # data bit q < m - 2 fans out to 2**(m-2-q) copies in m-2-q layers
    ladder_span = max(m - 1, 0)
    ladder_start = max(copy_span, 1)   # the flips take layer 0 when no tree does
    span = ladder_start + ladder_span + copy_span

    def flip_slot_zeros(layer: int) -> None:
        c.put("x", [level[0] for level in slots], layer)

    if not adjoint:
        flip_slot_zeros(start)
    block = Block(c, start)
    trees = np.array(data[:m - 1], np.intc).reshape(-1, 1)
    copies = [trees.tolist()]   # copies[i][q]: data bit q's 2**i copies, the controls of ladder step i
    for i in range(copy_span):
        trees = copy_layer(block, trees[:m - 2 - i], start + i)
        copies.append(trees.tolist())
    steps = reversed(range(ladder_span)) if adjoint else range(ladder_span)
    for layer, i in enumerate(steps, start + (copy_span if adjoint else ladder_start)):
        for q in range(m - 1 - i):
            cs_layer(c, i, copies[i][q], slots[q + 1 + i][:2 << i], layer)
    if adjoint:
        flip_slot_zeros(start + span - 1)
    return block.mirror(start + ladder_start + ladder_span, copy_span)


# -- rotation parameters -------------------------------------------------------


class AngleRef(NamedTuple):
    """Where one op's rotations take their parameters: rotation i reads entry lo = x[at[i]]
    of the flat angle table ``table`` ("sp", "theta" or "phases") and, for a bottom pair's
    phases, hi = x[at[i] + 1].  ``how`` is "x" for lo, "hi-lo", or a divisor d for
    (hi + lo) / d, negated if ``negate``.  ``spans`` holds (layer, first parameter
    position, count) per batch :meth:`put`, in the order of ``at``."""

    table: str
    at: np.ndarray
    spans: array
    how: str | int = "x"
    negate: bool = False

    def put(self, c: Circuit, op: str, ids, layer: int, count: int) -> None:
        """Put the next ``count`` rotations as ``op`` gates, their parameters unset (0.0)."""
        if count:
            c.put(op, ids, layer, array("d", bytes(8 * count)))
            self.spans.extend((layer, len(c.params(layer)) - count, count))


# -- LOADF ---------------------------------------------------------------------


def loadf(c: Circuit, ctrl: list[int], buffer: list[int], flags: list[int],
          refs: list[AngleRef], phased: bool = False, start: int | None = None,
          adjoint: bool = False, dirty_b1: bool = False, fanout: bool = True,
          first_optimized: bool = False) -> int:
    """Load flagged angle states for the addressed segment into the buffer.

    For control value k, buffer pair (s, p) ends in Ry(f_sp * theta^(k)_sp)|0>
    (plus the bottom-level z-rotations and phases when ``phased``: the set carries
    them).  Setup builds a one-hot address, fans out the controls the
    rotation layer needs, and routes each clean buffer qubit to slot k of a
    private size-2**m block whose other slots may be dirty; the mirrored
    teardown returns every ancilla.  With ``fanout`` all N-M doubly
    controlled rotations share one layer; without it they share control
    qubits and pack into max(M, N/M) layers at a much smaller footprint,
    routing the buffer through the blocks only when they are dirty.  The
    adjoint is the same sandwich with inverted rotations.
    ``first_optimized`` drops the flag controls, valid only when every flag
    is |1>.

    The rotations go in with their parameters unset, and ``refs`` gets the
    entries of a ``CSPAngleSet``'s "theta" and "phases" tables they read.  Returns
    the end layer.  Its ancilla registers (D1, D2, D3, A0, A1, A2, B1, F1 of
    ``FRAGMENTS["loadf"]``) join ``c.registers`` under each name not yet
    there, so a circuit's first LOADF names them.
    """
    m = len(ctrl)
    M = 1 << m
    nb = len(buffer)
    sub = nb.bit_length()
    if nb != (1 << sub) - 1 or not nb or len(flags) != nb:
        raise BadRegisterShape(f"buffer/flag registers need 2**(n-m) - 1 qubits, got {nb} and {len(flags)}")
    route_b = fanout or dirty_b1
    if start is None:
        start = c.num_layers()
    regs = {name: Register() for name in ("D1", "D2", "D3", "A0", "A1", "A2", "B1", "F1")}
    rec = Block(c, start)

    # -- setup: one-hot address ---------------------------------------------------
    (a0,) = rec.alloc_many(1, CLEAN, at_layer=start)
    regs["A0"].append(a0)
    rec.put("x", [a0], start)
    a_cs = copyswap(rec, ctrl, a0, start=start + 1)
    for tr in a_cs.trees:
        regs["D1"] += tr[1:]
    regs["A1"] += a_cs.slots[1:]
    a_slots = a_cs.slots
    a_done = a_cs.end

    # -- setup: buffer block routing ------------------------------------------------
    # nb rows: buffer qubit idx's block of M slots, or the buffer qubit alone
    t_slots = array("i")
    if route_b:
        # ctrl[j] is busy in the address routing until start + 2 + j; its nb + 1 = 2**sub
        # copies take sub layers
        starts = [start + 2 + j for j in range(m)]
        seeds = fan_out(rec, ctrl, nb + 1, starts)
        regs["D2"] += _ints(seeds[:, 1:])
        r3 = max([start, *(s + sub for s in starts)])
        for idx in range(nb):
            res = copyswap(rec, seeds[:, 1 + idx], buffer[idx], start=r3,
                           target_kind=DIRTY if dirty_b1 else CLEAN)
            for tr in res.trees:
                regs["D3"] += tr[1:]
            regs["B1"] += res.slots[1:]
            t_slots += res.slots
        b_done = r3 + m
    else:
        t_slots.extend(buffer)
        b_done = start

    # -- setup: control fan-outs for the rotation layer ---------------------------------
    # the wide fan-outs are scheduled as late as possible so their O(N)
    # qubits never idle: they finish exactly when the rotations start and
    # are the first thing the mirrored teardown removes
    if fanout:
        l_a = (nb - 1).bit_length()
        l_f = 0 if first_optimized else m
        setup_end = max(a_done, b_done, a_done + l_a, start + l_f)
        a_rows = fan_out(rec, a_slots, nb, [setup_end - l_a] * M)   # row k: a_slots[k]'s nb copies
        regs["A2"] += _ints(a_rows[:, 1:])
        if not first_optimized:
            f_rows = fan_out(rec, flags, M, [setup_end - l_f] * nb)   # row idx: flags[idx]'s M copies
            regs["F1"] += _ints(f_rows[:, 1:])
    else:
        setup_end = max(a_done, b_done)
    t_setup = setup_end - start

    # -- rotation block ---------------------------------------------------------------
    rot_base = setup_end
    stages = 4 if phased else 1
    bottom = (1 << (sub - 1)) - 1   # the bottom level's first pair index

    def put_stages(layer, pair, k, ctl: tuple, target) -> None:
        """Put step i of each gate's sequence at the gate's layer + i: one batch per layer,
        step and level group, in layer order.  The gates are numpy columns: first layer
        (non-decreasing), pair index (ascending within a layer), control value, controls
        (address, then any flag) and target.  A pair's sequence is its y-rotation and, on
        a phased bottom level, z-rotations and a phase on the controls.  Every op is a
        rotation, so the adjoint runs each sequence backwards, angles negated.  Each
        batch's operands are made from its group's operand rows as it is put."""
        nc = len(ctl)
        bases = sorted(set(layer.tolist()))
        groups = []   # the upper levels' steps, then the bottom level's, with where each base starts
        for sel, on in (pair < bottom, False), (pair >= bottom, phased):
            p, kk = pair[sel], k[sel]
            rows = np.stack([col[sel] for col in (*ctl, target)], axis=-1).astype(np.intc, copy=False)
            seq = [("c" * nc + "ry", nc + 1, AngleRef("theta", kk * nb + p, array("i"), "x", adjoint))]
            if on:
                lo = (kk << sub) + 2 * (p - bottom)
                seq.append(("c" * nc + "rz", nc + 1, AngleRef("phases", lo, array("i"), "hi-lo", adjoint)))
                if nc == 2:
                    seq.append(("crz", 2, AngleRef("phases", lo, array("i"), 2, adjoint)))
                seq.append(("phase", 1, AngleRef("phases", lo, array("i"), 2 * nc, adjoint)))
            refs.extend(ref for _, _, ref in seq)
            groups.append((seq[::-1] if adjoint else seq, rows,
                           [*np.searchsorted(layer[sel], bases).tolist(), len(p)]))
        for r, base in enumerate(bases):
            for i in range(stages):
                for seq, rows, cuts in groups:
                    if i < len(seq):
                        op, width, ref = seq[i]
                        a, b = cuts[r], cuts[r + 1]
                        ref.put(c, op, array("i", rows[a:b, :width].tobytes()), base + i, b - a)

    if fanout:
        rot_span = stages
        pair, k = np.repeat(np.arange(nb, dtype=np.intc), M), np.tile(np.arange(M, dtype=np.intc), nb)
        a_ctl = a_rows[k, pair]
        f_ctl = () if first_optimized else (f_rows.ravel(),)
        put_stages(np.full(nb * M, rot_base), pair, k, (a_ctl, *f_ctl), np.frombuffer(t_slots, np.intc))
    else:
        # colour-major, so the gates on each shared control arrive in time order
        C = max(M, nb)
        rot_span = C * stages
        a_ids, f_ids = np.frombuffer(a_slots, np.intc), np.asarray(flags)
        blocks = np.frombuffer(t_slots, np.intc).reshape(nb, -1)
        color, pair = np.repeat(np.arange(C, dtype=np.intc), nb), np.tile(np.arange(nb, dtype=np.intc), C)
        k = (color - pair) % C
        color, pair, k = color[k < M], pair[k < M], k[k < M]
        ctl = (a_ids[k],) if first_optimized else (a_ids[k], f_ids[pair])
        put_stages(rot_base + color * stages, pair, k, ctl, blocks[pair, k if route_b else 0])

    for name, qubits in regs.items():
        c.registers.setdefault(name, qubits)
    return rec.mirror(rot_base + rot_span, t_setup)


FRAGMENTS = {
    "copy": FragmentSpec("copy", {"R": lambda m, n: 1 << m},
                         lambda m, n: (1 << m) - 1),
    "cs": FragmentSpec("cs", {"R": lambda m, n: 1 << m, "S": lambda m, n: 2 << m},
                       lambda m, n: 0),
    "copyswap": FragmentSpec("copyswap",
                             {"C": lambda m, n: m, "S": lambda m, n: 1 << m},
                             lambda m, n: ((1 << m) - 1 - m) + ((1 << m) - 1)),
    "spf": FragmentSpec("spf", {"D": lambda m, n: m, "A": lambda m, n: (1 << m) - 1},
                        lambda m, n: (1 << max(m - 1, 0)) - m if m >= 2 else 0),
    "flag": FragmentSpec("flag", {"D": lambda m, n: m, "F": lambda m, n: (1 << m) - 1},
                         lambda m, n: sum(max(1, 1 << (m - q - 2)) - 1 for q in range(max(m - 1, 0)))),
    "loadf": FragmentSpec(
        "loadf",
        {
            "D0": lambda m, n: m,
            "D1": lambda m, n: (1 << m) - m - 1,
            "D2": lambda m, n: ((1 << (n - m)) - 1) * m,
            "D3": lambda m, n: ((1 << (n - m)) - 1) * ((1 << m) - m - 1),
            "A0": lambda m, n: 1,
            "A1": lambda m, n: (1 << m) - 1,
            "A2": lambda m, n: (1 << m) * ((1 << (n - m)) - 2),
            "B0": lambda m, n: (1 << (n - m)) - 1,
            "B1": lambda m, n: ((1 << m) - 1) * ((1 << (n - m)) - 1),
            "F0": lambda m, n: (1 << (n - m)) - 1,
            "F1": lambda m, n: ((1 << m) - 1) * ((1 << (n - m)) - 1),
        },
        lambda m, n: 3 * ((1 << m) - 1) * ((1 << (n - m)) - 1) + (1 << n) - m - 1,  # D1..F1, released
    ),
}
