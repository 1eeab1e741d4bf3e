"""Layered circuit IR with qubit lifecycle events and resource accounting.

A circuit is a list of layers (gate lists) plus, per qubit, an allocation
layer, an optional deallocation layer, and a clean/dirty kind.  A qubit is
its int id, an index into those per-qubit tables: the ids are 0..n-1 in
allocation order, the same ints the circuit JSON carries.  Lifetimes
are half-open: a qubit allocated at layer a and deallocated at layer d may
carry gates on layers a..d-1 and contributes d-a to the spacetime
allocation.  Qubits never deallocated must be marked persistent (data
registers); they accrue from allocation to the end of the circuit.

The check boundary: the per-gate rules are stated once, in
:func:`_gate_faults` (known op, operand and parameter counts, finite
``float`` parameters, distinct int operands), and the whole circuit is
checked by one walk, :meth:`Circuit.validate`'s: each layer as a whole,
then gate by gate only when it fails, to name each fault with its typed
error.

* Emitters build ``Gate`` tuples directly, allocate each layer's fresh
  qubits in one :meth:`Circuit.alloc_many` call and place gates a layer at
  a time; :meth:`Circuit.place` checks only liveness and time order, one
  combined test per operand.  An emitted circuit passes the walk before it
  is written out.
* :func:`loads` turns each layer of input JSON into ``Gate`` tuples,
  checking only its form, and the loaded circuit passes the same walk,
  which raises its first fault.
* :func:`gate` is the checked constructor for hand-built gates: it raises
  the first broken per-gate rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import add, attrgetter, is_not, itemgetter, le
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (
    BadEpsilon,
    CircuitError,
    DoubleDealloc,
    DuplicateOperand,
    InternalInvariant,
    LayerCollision,
    LeakedQubit,
    MalformedCircuit,
    MalformedInput,
    OperandNotLive,
    UseAfterDealloc,
)

CLEAN = "clean"
DIRTY = "dirty"

#: op name -> (number of qubits, number of parameters)
GATE_SIGNATURES = {
    "x": (1, 0), "h": (1, 0), "s": (1, 0), "sdg": (1, 0), "t": (1, 0), "tdg": (1, 0),
    "ry": (1, 1), "rz": (1, 1), "phase": (1, 1),
    "cnot": (2, 0), "swap": (2, 0), "cswap": (3, 0), "toffoli": (3, 0),
    "cry": (2, 1), "crz": (2, 1), "ccry": (3, 1), "ccrz": (3, 1),
}

ROTATION_OPS = frozenset({"ry", "rz", "phase", "cry", "crz", "ccry", "ccrz"})

#: (op, number of qubits, number of parameters) of every well-formed gate
_SHAPES = frozenset((op, nq, npar) for op, (nq, npar) in GATE_SIGNATURES.items())
_FLOAT = frozenset({float})
_INT = frozenset({int})
_LIST = frozenset({list})
_STR = frozenset({str})
_OP = attrgetter("op")
_PARAMS = attrgetter("params")
_QUBITS = attrgetter("qubits")

_INVERSE_SELF = frozenset({"x", "h", "cnot", "swap", "cswap", "toffoli"})
_INVERSE_PAIR = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}


#: A qubit is its int id in the circuit's alloc table; the name is kept for annotations.
QubitId = int


class Gate(NamedTuple):
    op: str
    params: tuple
    qubits: tuple

    def inverse(self) -> "Gate":
        if self.op in _INVERSE_SELF:
            return self
        if self.op in _INVERSE_PAIR:
            return Gate(_INVERSE_PAIR[self.op], (), self.qubits)
        return Gate(self.op, tuple(-p for p in self.params), self.qubits)


#: ``new_gate((op, params, qubits))`` is ``Gate(op, params, qubits)`` without a
#: Python frame per gate (``Gate.__new__`` makes the same ``tuple.__new__`` call);
#: for hot loops that build many gates
new_gate = partial(tuple.__new__, Gate)


def _angle(p) -> float:
    """A gate parameter as a finite float; booleans, strings, null and NaN/inf are rejected."""
    if isinstance(p, (bool, str)):
        raise MalformedCircuit(f"gate parameter {p!r} is not a number")
    try:
        x = float(p)
    except (TypeError, ValueError, OverflowError):
        raise MalformedCircuit(f"gate parameter {p!r} is not a finite number") from None
    if not math.isfinite(x):
        raise MalformedCircuit(f"gate parameter {p!r} is not finite")
    return x


def _gate_faults(g: Gate) -> Iterator[tuple[type[CircuitError], str]]:
    """The per-gate rules, each one ``g`` breaks as (error class, message): a known op
    with its operand and parameter counts, finite ``float`` parameters, and distinct
    int operands.  Operand types are checked before the operands are hashed."""
    op, params, qubits = g
    sig = GATE_SIGNATURES.get(op) if type(op) is str else None
    if sig is None:
        yield MalformedCircuit, f"unknown op {op!r}"
    elif (len(qubits), len(params)) != sig:
        yield (DuplicateOperand if len(qubits) != sig[0] else MalformedCircuit,
               f"{op} takes {sig[0]} qubits and {sig[1]} params, got {len(qubits)} and {len(params)}")
    for p in params:
        if type(p) is not float or not math.isfinite(p):
            yield MalformedCircuit, f"{op} parameter {p!r} is not a finite float"
    ids = []
    for i in qubits:
        if type(i) is int:
            ids.append(i)
        else:
            yield OperandNotLive, f"{op} operand {i!r} is not an int qubit id"
    if len(set(ids)) != len(ids):
        yield DuplicateOperand, f"{op} repeats an operand: {ids}"


def gate(op: str, qubits, *params) -> Gate:
    """A checked gate: the parameters become floats through :func:`_angle`, then the
    first per-gate rule the gate breaks is raised."""
    g = Gate(op, tuple(map(_angle, params)), tuple(qubits))
    for error, message in _gate_faults(g):
        raise error(message)
    return g


class Circuit:
    """Mutable layered circuit builder.

    Gates can be appended ASAP (earliest layer after every operand's latest
    prior use) or placed a layer's batch at a time at an explicit layer
    (``num_layers()`` for a fresh one); the subroutine emitters use
    explicit placement to realize their published schedules.  Qubits are the ints 0..n-1 that
    :meth:`alloc` and :meth:`alloc_many` hand out; their kinds are read
    through :meth:`kind`.
    """

    def __init__(self):
        self.layers: list[list[Gate]] = []
        self._kind: list[str] = []          # per qubit id
        self._alloc: list[int] = []
        self._dealloc: list[int | None] = []
        self._last_use: list[int] = []      # latest layer with a gate (or alloc) on the qubit
        self._persistent: set[int] = set()
        self.registers: dict[str, list[int]] = {}
        self.meta: dict = {}

    # -- lifecycle ------------------------------------------------------------

    def alloc(self, kind: str = CLEAN, at_layer: int | None = None) -> int:
        return self.alloc_many(1, kind, at_layer)[0]

    def alloc_many(self, count: int, kind: str = CLEAN, at_layer: int | None = None) -> range:
        """Allocate ``count`` fresh qubits of one kind at one layer; returns their ids."""
        if at_layer is None:
            at_layer = self.num_layers()
        first = len(self._alloc)
        self._kind += [kind] * count
        self._alloc += [at_layer] * count
        self._dealloc += [None] * count
        self._last_use += [at_layer - 1] * count
        return range(first, first + count)

    def dealloc(self, q: int, at_layer: int | None = None) -> None:
        if not 0 <= q < len(self._alloc):
            raise OperandNotLive(f"qubit {q} is not allocated")
        if self._dealloc[q] is not None:
            raise DoubleDealloc(f"qubit {q} deallocated twice")
        if at_layer is None:
            at_layer = max(self._last_use[q] + 1, self._alloc[q])
        if at_layer < self._alloc[q] or at_layer <= self._last_use[q]:
            raise UseAfterDealloc(f"qubit {q} has activity at or past layer {at_layer}")
        self._dealloc[q] = at_layer

    def dealloc_many(self, qubits: Iterable[int], at_layer: int) -> None:
        """Release qubits at one layer.

        The whole list is checked in one pass per rule; only a list that
        fails is released qubit by qubit through :meth:`dealloc`, which
        raises its typed error.  A qubit's latest layer is at least its
        alloc layer - 1, so ``last_use < at_layer`` also proves it allocated
        by then.
        """
        qs = list(qubits)
        if not qs:
            return
        dealloc = self._dealloc
        if (min(qs) >= 0 and max(qs) < len(dealloc) and len(set(qs)) == len(qs)
                and set(map(dealloc.__getitem__, qs)) == {None}
                and max(map(self._last_use.__getitem__, qs)) < at_layer):
            for q in qs:
                dealloc[q] = at_layer
        else:
            for q in qs:
                self.dealloc(q, at_layer)

    def mark_persistent(self, qubits: Iterable[int]) -> None:
        self._persistent.update(qubits)

    def persistent(self) -> set[int]:
        return set(self._persistent)

    def add_register(self, name: str, qubits: Iterable[int]) -> None:
        self.registers[name] = list(qubits)

    # -- gate placement ---------------------------------------------------------

    def num_layers(self) -> int:
        return len(self.layers)

    def _grow(self, layer: int) -> None:
        while len(self.layers) <= layer:
            self.layers.append([])

    def place(self, gates: list[Gate], layer: int) -> int:
        """Put a batch of gates at one explicit layer; every operand must be live there.

        Gates on one qubit must arrive in time order: a layer at or before
        the qubit's latest gate is a ``LayerCollision``, which also rejects a
        qubit in two gates of the batch.  One loop tests each operand against
        one combined condition; only a failing operand is examined for its
        typed error.  The gates' signatures are checked by :func:`gate` or
        :meth:`validate`.  A rejected batch adds no gate, but the qubits
        checked before the failing one keep their new latest layer.  An
        empty batch changes nothing.
        """
        if not gates:
            return layer
        if layer >= len(self.layers):
            self._grow(layer)
        dealloc, last_use = self._dealloc, self._last_use
        n = len(last_use)
        for g in gates:
            for i in g.qubits:
                # a qubit's latest layer is at least its alloc layer - 1, so
                # last_use < layer also proves it allocated by then
                if 0 <= i < n and last_use[i] < layer and (dealloc[i] is None or dealloc[i] > layer):
                    last_use[i] = layer
                else:
                    raise self._operand_error(i, layer)
        self.layers[layer] += gates
        return layer

    def _operand_error(self, i: int, layer: int) -> CircuitError:
        """Why qubit ``i`` cannot take a gate at ``layer``."""
        if not 0 <= i < len(self._alloc) or layer < self._alloc[i]:
            return OperandNotLive(f"qubit {i!r} not allocated at layer {layer}")
        d = self._dealloc[i]
        if d is not None and layer >= d:
            return UseAfterDealloc(f"qubit {i} deallocated at layer {d}, gate at {layer}")
        return LayerCollision(f"qubit {i} has a gate at layer {self._last_use[i]}, next gate at {layer}")

    def append(self, g: Gate) -> int:
        """Place one gate ASAP: at the earliest layer after each operand's latest layer."""
        layer = 0
        for q in g.qubits:
            if not 0 <= q < len(self._alloc):
                raise OperandNotLive(f"qubit {q} not allocated")
            layer = max(layer, self._last_use[q] + 1, self._alloc[q])
        return self.place([g], layer)

    # -- views ------------------------------------------------------------------

    def qubits(self) -> range:
        return range(len(self._alloc))

    def kind(self, q: int) -> str:
        return self._kind[q]

    def of_kind(self, kind: str) -> list[int]:
        """The qubits of one kind, in id order: one pass over the kind table."""
        return list(compress(range(len(self._kind)), map(kind.__eq__, self._kind)))

    def alloc_layer(self, q: int) -> int:
        return self._alloc[q]

    def dealloc_layer(self, q: int) -> int | None:
        return self._dealloc[q]

    def last_use_layer(self, q: int) -> int:
        """The latest layer with a gate on ``q``, or its alloc layer - 1 if none."""
        return self._last_use[q]

    def lifecycle(self) -> list[tuple[list[int], list[int]]]:
        """Per layer 0..num_layers(), the (allocated, deallocated) qubits there, in id order."""
        buckets = [([], []) for _ in range(self.num_layers() + 1)]
        for q, a in enumerate(self._alloc):
            buckets[a][0].append(q)
        for q, d in enumerate(self._dealloc):
            if d is not None:
                buckets[d][1].append(q)
        return buckets

    def depth(self) -> int:
        return sum(1 for layer in self.layers if layer)

    def size(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def live_profile(self, qubits: Iterable[int] | None = None) -> list[int]:
        """Live-qubit count per layer (allocated and not yet deallocated).

        Counts only the given qubits when ``qubits`` is passed, else all.
        """
        L = self.num_layers()
        alloc, dealloc = self._alloc, self._dealloc
        if qubits is not None:
            ids = list(qubits)
            alloc = list(map(alloc.__getitem__, ids))
            dealloc = list(map(dealloc.__getitem__, ids))
        delta = [0] * (L + 1)
        for a, d in zip(alloc, dealloc):
            if d is None or d > L:
                d = L
            if a < d:
                delta[a] += 1
                delta[d] -= 1
        del delta[L]
        return list(accumulate(delta))

    def embed(self, src: "Circuit", shift: Callable[[int], int],
              shared: dict[int, int] | None = None) -> list[int]:
        """Copy ``src`` into this circuit, its layer t at layer ``shift(t)``; returns the id map.

        ``shift`` must be strictly increasing.  Qubits in ``shared`` map onto
        the given qubits here and keep their lifecycle outside ``src``.  Every
        other qubit gets a fresh id (in order of its allocation layer) with
        the same kind, allocated at ``shift(alloc)``, released right after its
        shifted last layer, at ``shift(dealloc - 1) + 1``, and persistent here
        if it is persistent in ``src``.
        """
        shared = shared or {}
        mapping = [shared.get(q) for q in src.qubits()]
        fresh = [q for q in src.qubits() if q not in shared]
        for q in sorted(fresh, key=src._alloc.__getitem__):
            mapping[q] = self.alloc(src._kind[q], at_layer=shift(src._alloc[q]))
        self.mark_persistent(mapping[q] for q in fresh if q in src._persistent)
        for t, layer in enumerate(src.layers):
            self.place([Gate(g.op, g.params, tuple(map(mapping.__getitem__, g.qubits))) for g in layer], shift(t))
        for q in fresh:
            d = src._dealloc[q]
            if d is not None:
                self.dealloc(mapping[q], at_layer=shift(d - 1) + 1)
        return mapping

    def _copy_tables(self) -> "Circuit":
        """A new circuit with this one's kinds, persistent set, registers and meta, and no layers."""
        c = Circuit()
        c._kind = list(self._kind)
        c._persistent = set(self._persistent)
        c.registers = {k: list(v) for k, v in self.registers.items()}
        c.meta = dict(self.meta)
        return c

    def compact(self) -> "Circuit":
        """Drop empty layers, remapping gate and lifecycle layer indices."""
        if all(self.layers):
            return self
        new_index = []
        count = 0
        for layer in self.layers:
            new_index.append(count)
            if layer:
                count += 1
        new_index.append(count)
        c = self._copy_tables()
        c._alloc = [new_index[a] for a in self._alloc]
        c._dealloc = [None if d is None else new_index[d] for d in self._dealloc]
        c.layers = [list(layer) for layer in self.layers if layer]
        c._reset_last_use()
        return c

    def _reset_last_use(self) -> None:
        """Set each qubit's latest layer from the gates: its last gate's layer, else its alloc layer - 1."""
        last_use = self._last_use = [a - 1 for a in self._alloc]
        for t, layer in enumerate(self.layers):
            for q in chain.from_iterable(map(_QUBITS, layer)):
                last_use[q] = t

    def adjoint(self) -> "Circuit":
        """Time-reversed circuit with inverted gates and mirrored lifecycles."""
        T = self.num_layers()
        c = self._copy_tables()
        for qid, (a, d) in enumerate(zip(self._alloc, self._dealloc)):
            c._alloc.append(0 if d is None else T - d)
            # non-persistent qubits allocated at 0 still mirror to a dealloc at T
            c._dealloc.append(None if a == 0 and qid in self._persistent else T - a)
        c._last_use = [a - 1 for a in c._alloc]
        if T:
            c._grow(T - 1)
        for old in range(T - 1, -1, -1):
            c.place([g.inverse() for g in self.layers[old]], T - 1 - old)
        return c

    # -- validation ---------------------------------------------------------------

    def validate(self, expected_registers: dict[str, int] | None = None) -> list[str]:
        """The whole-circuit check: every gate and liveness fault of :meth:`_faults`,
        then every register whose size differs from the expected one."""
        violations = [message for _, message in self._faults()]
        expected = expected_registers or self.meta.get("expected_register_sizes")
        if expected:
            for name, size in expected.items():
                have = len(self.registers.get(name, []))
                if have != size:
                    violations.append(f"register {name}: size {have}, expected {size}")
        return violations

    def _faults(self) -> Iterator[tuple[type[CircuitError], str]]:
        """Every gate and liveness fault, layer by layer, as (error class, message).

        Each gate must keep the per-gate rules (:func:`_gate_faults`) and act
        on qubits live at its layer, one gate per qubit per layer.  A layer is
        checked as a whole, one pass per rule, and walked gate by gate only
        when it fails.
        """
        alloc, n = self._alloc, len(self._alloc)
        end = [math.inf if d is None else d for d in self._dealloc]
        for t, layer in enumerate(self.layers):
            qubits, params = list(map(_QUBITS, layer)), list(map(_PARAMS, layer))
            ids = list(chain.from_iterable(qubits))
            values = list(chain.from_iterable(params))
            try:
                if (set(zip(map(_OP, layer), map(len, qubits), map(len, params))) <= _SHAPES
                        and set(map(type, values)) <= _FLOAT and math.isfinite(sum(values))
                        and len(set(ids)) == len(ids)
                        and (not ids or (set(map(type, ids)) <= _INT and min(ids) >= 0
                                         and max(map(alloc.__getitem__, ids)) <= t
                                         < min(map(end.__getitem__, ids))))):
                    continue
            except (TypeError, IndexError):  # an unhashable op or id, or an id past the alloc table
                pass
            seen = set()
            for g in layer:
                for error, message in _gate_faults(g):
                    yield error, f"layer {t}: {message}"
                for i in dict.fromkeys(i for i in g.qubits if type(i) is int):
                    if i in seen:
                        yield LayerCollision, f"layer {t}: qubit {i} in two gates"
                    seen.add(i)
                    if not 0 <= i < n:
                        yield OperandNotLive, f"layer {t}: qubit {i} is not in the circuit"
                    elif t < alloc[i]:
                        yield OperandNotLive, f"layer {t}: qubit {i} used before allocation"
                    elif t >= end[i]:
                        yield UseAfterDealloc, f"layer {t}: qubit {i} used after deallocation"


class Block:
    """A recorded span of a circuit, undone by its layer mirror.

    A pass-through ``place``/``alloc_many``/``num_layers`` view of ``c``
    that records each gate batch and each allocation by its layer relative
    to ``start``.  This is the compute/uncompute pattern: fresh ancillae are
    allocated at their first use inside the block and released by
    :meth:`mirror` right after their mirrored last use.
    """

    def __init__(self, c: Circuit, start: int):
        self.c = c
        self.start = start
        self.batches: list[tuple[int, list[Gate]]] = []
        self.allocs: list[tuple[int, range]] = []

    def place(self, gates: list[Gate], layer: int) -> int:
        self.c.place(gates, layer)
        self.batches.append((layer - self.start, gates))
        return layer

    def alloc_many(self, count: int, kind: str = CLEAN, at_layer: int | None = None) -> range:
        if at_layer is None:
            at_layer = self.c.num_layers()
        qubits = self.c.alloc_many(count, kind, at_layer)
        self.allocs.append((at_layer - self.start, qubits))
        return qubits

    def num_layers(self) -> int:
        return self.c.num_layers()

    def mirror(self, at: int, span: int) -> int:
        """Undo the block in layers [at, at + span) and return ``at + span``.

        A gate recorded at relative layer ``rel`` is inverted at
        ``at + span - 1 - rel`` (gates sharing a layer keep their recorded
        order), and the qubits allocated at ``rel`` are released at
        ``at + span - rel``.  Each mirrored layer's gates are placed as one
        batch and its qubits released in one call.
        """
        by_rel: dict[int, list[Gate]] = {}
        for rel, gates in self.batches:
            by_rel.setdefault(rel, []).extend(gates)
        for rel in sorted(by_rel, reverse=True):
            self.c.place([g.inverse() for g in by_rel[rel]], at + span - 1 - rel)
        released: dict[int, list[int]] = {}
        for rel, qubits in self.allocs:
            released.setdefault(rel, []).extend(qubits)
        for rel, qubits in released.items():
            self.c.dealloc_many(qubits, at + span - rel)
        return at + span


# -- resource accounting ----------------------------------------------------------


#: a rotation synthesized to precision eps' in the discrete gate set takes
#: ``ceil(ROTATION_SLOPE * log2(1/eps')) + ROTATION_OFFSET`` layers
ROTATION_SLOPE = 4.0
ROTATION_OFFSET = 0.0


@dataclass(frozen=True)
class GateSetModel:
    """Cost model for the two gate sets.

    "exact" charges every gate one layer.  "approximate" widens each layer
    that contains a rotation to a rotation's synthesized depth (see
    ``ROTATION_SLOPE``) at the per-rotation budget ``eps / n_rot``.
    """

    mode: str = "exact"
    epsilon: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:  # NaN fails too
            raise BadEpsilon(f"epsilon {self.epsilon!r} outside (0, 1)")

    def rotation_cost(self, eps_prime: float) -> int:
        """Layers a rotation layer takes at the per-rotation budget ``eps_prime`` < 1."""
        inverse = 1.0 / eps_prime if eps_prime > 0.0 else math.inf
        if math.isinf(inverse):
            raise BadEpsilon(f"per-rotation budget {eps_prime!r} of epsilon {self.epsilon!r} underflows")
        return int(math.ceil(ROTATION_SLOPE * math.log2(inverse)) + ROTATION_OFFSET)


EXACT_MODEL = GateSetModel(mode="exact")


def approx_model(epsilon: float) -> GateSetModel:
    return GateSetModel(mode="approximate", epsilon=epsilon)


@dataclass(frozen=True)
class ResourceReport:
    depth: int
    size: int
    qubit_count: int
    sa_exact: int
    sa_approx: int
    clean_sa: int
    dirty_sa: int
    depth_approx: int
    rotation_gates: int
    rotation_layers: int
    lower_bound_refs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        d = self.__dict__.copy()
        return d


def spacetime_allocation(c: Circuit, model: GateSetModel = EXACT_MODEL,
                         profile: list[int] | None = None) -> ResourceReport:
    """Exact and approximate-model resource accounting.

    Computes the spacetime allocation both as a sum of per-qubit lifetimes
    (read off the lifecycle tables) and as a sum of per-layer live counts,
    and insists the two agree.  A caller that already holds
    ``c.compact().live_profile()`` passes it as ``profile``.
    """
    c = c.compact()
    L = c.num_layers()
    persistent = c._persistent
    ends = c._dealloc
    if None in ends:
        leaked = next((q for q, d in enumerate(ends) if d is None and q not in persistent), None)
        if leaked is not None:
            raise LeakedQubit(f"qubit {leaked} never deallocated and not persistent")
        ends = [L if d is None else d for d in ends]
    sa_q = sum(ends) - sum(c._alloc)
    dirty_sa = sum([d - a for k, a, d in zip(c._kind, c._alloc, ends) if k == DIRTY])
    clean_sa = sa_q - dirty_sa
    prof = c.live_profile() if profile is None else profile
    sa_t = sum(prof)
    if sa_q != sa_t:
        raise InternalInvariant(f"spacetime double-count mismatch: {sa_q} != {sa_t}")

    per_layer = [sum(map(ROTATION_OPS.__contains__, map(_OP, layer))) for layer in c.layers]
    rot_layers = [k > 0 for k in per_layer]
    n_rot = sum(per_layer)

    if model.mode == "approximate" and n_rot:
        width = model.rotation_cost(model.epsilon / n_rot)
        depth_approx = sum(width if r else 1 for layer, r in zip(c.layers, rot_layers) if layer)
        sa_approx = sum(q_t * (width if r else 1) for q_t, r in zip(prof, rot_layers))
    else:
        depth_approx = c.depth()
        sa_approx = sa_t

    n_data = len(c.registers.get("D", [])) or len(persistent)
    refs = {
        "size_lower_bound": "Omega(2^n) two-qubit gates for arbitrary targets",
        "depth_lower_bound": "Omega(n + log(1/eps)) in the discrete gate set",
        "n_data_qubits": n_data,
    }
    return ResourceReport(
        depth=c.depth(),
        size=c.size(),
        qubit_count=max(prof, default=0),
        sa_exact=sa_t,
        sa_approx=sa_approx,
        clean_sa=clean_sa,
        dirty_sa=dirty_sa,
        depth_approx=depth_approx,
        rotation_gates=n_rot,
        rotation_layers=sum(rot_layers),
        lower_bound_refs=refs,
    )


# -- gate-set expansion -------------------------------------------------------------

def _swap_rule(g: Gate):
    a, b = g.qubits
    return [gate("cnot", (a, b)), gate("cnot", (b, a)), gate("cnot", (a, b))]


def _toffoli_rule(g: Gate):
    a, b, t = g.qubits
    return [
        gate("h", (t,)),
        gate("cnot", (b, t)),
        gate("tdg", (t,)),
        gate("cnot", (a, t)),
        gate("t", (t,)),
        gate("cnot", (b, t)),
        gate("tdg", (t,)),
        gate("cnot", (a, t)),
        gate("t", (b,)),
        gate("t", (t,)),
        gate("cnot", (a, b)),
        gate("h", (t,)),
        gate("tdg", (b,)),
        gate("cnot", (a, b)),
        gate("t", (a,)),
    ]


def _cswap_rule(g: Gate):
    c_, a, b = g.qubits
    return [gate("cnot", (b, a)), gate("toffoli", (c_, a, b)), gate("cnot", (b, a))]


def _controlled_rot_rule(g: Gate):
    theta = g.params[0]
    axis = "ry" if g.op.endswith("ry") else "rz"
    if len(g.qubits) == 2:
        c_, t = g.qubits
        flip = [gate("cnot", (c_, t))]
    else:
        c1, c2, t = g.qubits
        flip = [gate("toffoli", (c1, c2, t))]
    t = g.qubits[-1]
    return flip + [gate(axis, (t,), -theta / 2)] + flip + [gate(axis, (t,), theta / 2)]


DECOMPOSITIONS = {
    "swap": _swap_rule,
    "toffoli": _toffoli_rule,
    "cswap": _cswap_rule,
    "cry": _controlled_rot_rule,
    "crz": _controlled_rot_rule,
    "ccry": _controlled_rot_rule,
    "ccrz": _controlled_rot_rule,
}

#: the expansion target keeps single-qubit rotations symbolic; the discrete-set
#: cost of a rotation is charged through GateSetModel instead of synthesized.
U2_CNOT = frozenset({"x", "h", "s", "sdg", "t", "tdg", "ry", "rz", "phase", "cnot"})


def expand_gate(g: Gate, allowed: frozenset) -> list[Gate]:
    if g.op in allowed:
        return [g]
    out = []
    for sub in DECOMPOSITIONS[g.op](g):
        out.extend(expand_gate(sub, allowed))
    return out


def expand(c: Circuit) -> Circuit:
    """Rewrite composite gates into U2_CNOT, repacking ASAP.

    Lifecycle events are carried over at the matching points of the new
    schedule so allocation stays just-in-time.  A layer's allocations are
    made before its deallocations, so a qubit with an empty lifetime is
    released at the layer it is allocated.
    """
    c = c.compact()
    out = Circuit()
    out.registers = {k: list(v) for k, v in c.registers.items()}
    out.meta = dict(c.meta)
    id_map: list[int] = [0] * len(c.qubits())
    L = c.num_layers()
    for t, (allocs, deallocs) in enumerate(c.lifecycle()):
        frontier = out.num_layers()
        for q in allocs:
            id_map[q] = out.alloc(c.kind(q), at_layer=frontier)
        for q in deallocs:
            out.dealloc(id_map[q])
        if t == L:
            break
        for g in c.layers[t]:
            for sub in expand_gate(g, U2_CNOT):
                out.append(Gate(sub.op, sub.params, tuple(map(id_map.__getitem__, sub.qubits))))
    out.mark_persistent(map(id_map.__getitem__, c.persistent()))
    out.registers = {k: list(map(id_map.__getitem__, v)) for k, v in c.registers.items()}
    return out


# -- serialization -------------------------------------------------------------------

def _layer_json(layer: list[Gate]) -> list[dict]:
    return [{"op": g.op, "params": list(g.params), "qubits": list(g.qubits)} for g in layer]


def to_json_dict(c: Circuit) -> dict:
    """The circuit JSON as a tree of lists and dicts: the reference :func:`json_chunks` matches."""
    c = c.compact()
    return {
        "layers": [_layer_json(layer) for layer in c.layers],
        "alloc": [[q, a, k] for q, (a, k) in enumerate(zip(c._alloc, c._kind))],
        "dealloc": [[i, d] for i, d in enumerate(c._dealloc) if d is not None],
        "persistent": sorted(c._persistent),
        "registers": {name: list(qs) for name, qs in c.registers.items()},
    }


#: What it encodes is fresh lists, dicts and strings, so the encoder's
#: reference-cycle bookkeeping (one id() entry per container) is skipped.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode

#: op -> the gate's JSON text with its parameters (``%r``) and qubit ids (``%d``) left open,
#: keys in sorted order as the encoder writes them
_GATE_TEXT = {
    op: '{"op":"%s","params":[%s],"qubits":[%s]}' % (op, ",".join(["%r"] * npar), ",".join(["%d"] * nq))
    for op, (nq, npar) in GATE_SIGNATURES.items()
}


def _layer_text(layer: list[Gate]) -> str:
    """A layer's JSON text: one ``%`` over the joined gate templates, fed each gate's
    parameters followed by its qubit ids."""
    template = "[%s]" % ",".join(map(_GATE_TEXT.__getitem__, map(_OP, layer)))
    return template % tuple(chain.from_iterable(map(add, map(_PARAMS, layer), map(_QUBITS, layer))))


#: lifecycle-table rows written per piece of text
_ROWS = 4096


def _rows_text(template: str, rows: Iterator[tuple]) -> Iterator[str]:
    """A JSON table's rows, ``_ROWS`` to a piece: each piece is one ``%`` over the row
    template repeated, and every piece after the first is led by a comma."""
    lead = ""
    while block := list(islice(rows, _ROWS)):
        yield lead + ",".join([template] * len(block)) % tuple(chain.from_iterable(block))
        lead = ","


def json_chunks(c: Circuit) -> Iterator[str]:
    """Canonical JSON text in pieces: the lifecycle tables a block of rows at a time,
    then each layer, then the persistent list and the registers.

    ``"".join(json_chunks(c))`` is ``json.dumps(to_json_dict(c),
    sort_keys=True, separators=(",", ":"))``, byte-identical across
    parse/re-emit round trips.  Rows and layers are written directly from
    text templates, with ``repr`` floats as the JSON encoder writes them, so
    neither passes through lists or dicts; that takes a circuit whose gates
    pass :meth:`Circuit.validate` (known ops, finite ``float`` parameters).
    No more than one layer's text exists at a time.
    """
    c = c.compact()
    kinds = {k: _encode(k) for k in set(c._kind)}
    dealloc = c._dealloc
    # keys in sorted order: alloc, dealloc, layers, persistent, registers
    yield '{"alloc":['
    yield from _rows_text("[%d,%d,%s]", zip(count(), c._alloc, map(kinds.__getitem__, c._kind)))
    yield '],"dealloc":['
    yield from _rows_text("[%d,%d]", compress(zip(count(), dealloc), map(is_not, dealloc, repeat(None))))
    yield '],"layers":['
    for t, layer in enumerate(c.layers):
        if t:
            yield ","
        yield _layer_text(layer)
    yield '],"persistent":%s,"registers":%s}' % (
        _encode(sorted(c._persistent)), _encode({name: list(qs) for name, qs in c.registers.items()}))


def dumps(c: Circuit) -> str:
    """The canonical JSON text of :func:`json_chunks` as one string."""
    return "".join(json_chunks(c))


#: Canonical op names: a gate keeps the interned name, not the string parsed from
#: JSON, so no parsed object outlives its layer and its memory can be reused.
_OP_NAMES = {op: op for op in GATE_SIGNATURES}


def _json_list(value, what: str) -> list:
    if type(value) is not list:
        raise MalformedCircuit(f"{what} must be a JSON list")
    return value


#: a parsed gate's fields
_FIELDS = itemgetter("op", "params", "qubits")


def _gates(layer, t: int) -> list[Gate]:
    """Layer ``t``'s parsed JSON as ``Gate`` tuples, checked for form only.

    Every gate must be an object with a string ``op`` and lists of
    ``params`` and ``qubits``; each check is one pass over the layer in C.
    Parameters that are not all floats go through :func:`_angle`, which
    turns ints into floats and rejects booleans, strings and null.  Op
    names are interned.  The gates' own rules and liveness are left to
    :meth:`Circuit._faults`.
    """
    if not _json_list(layer, f"layer {t}"):
        return []
    try:
        ops, params, qubits = zip(*map(_FIELDS, layer))
    except (TypeError, KeyError):
        raise MalformedCircuit(f"layer {t}: every gate needs op, params and qubits") from None
    if not (set(map(type, ops)) <= _STR and set(map(type, params)) | set(map(type, qubits)) <= _LIST):
        raise MalformedCircuit(f"layer {t}: a gate needs a string op and lists of params and qubits")
    if not set(map(type, chain.from_iterable(params))) <= _FLOAT:
        params = [list(map(_angle, p)) for p in params]
    return list(map(new_gate, zip(map(_OP_NAMES.get, ops, ops), map(tuple, params), map(tuple, qubits))))


_KIND_NAMES = {CLEAN: CLEAN, DIRTY: DIRTY}


def _read_alloc(entries: list) -> tuple[list[str], list[int]]:
    """(kinds, alloc layers) from the alloc table ``[[id, layer, kind], ...]``.

    A table listing ids 0..n-1 in order, as :func:`dumps` writes it, is
    checked in one pass per column; any other table entry by entry, which
    raises the first entry's typed error.  The layers' upper bound is
    checked by :func:`_check_bounds` once the layer count is known.
    """
    n = len(entries)
    try:
        if entries and set(map(type, entries)) <= _LIST and set(map(len, entries)) == {3}:
            ids, layers, kinds = zip(*entries)
            if (set(map(type, ids)) <= _INT and ids == tuple(range(n))
                    and set(map(type, layers)) <= _INT and min(layers) >= 0):
                return list(map(_KIND_NAMES.__getitem__, kinds)), list(layers)
    except (TypeError, KeyError):  # an unhashable or unknown kind
        pass
    kinds: list = [None] * n
    alloc = [0] * n
    for e in entries:
        if type(e) is not list or len(e) != 3:
            raise MalformedCircuit(f"alloc entry {e!r} is not [id, layer, kind]")
        qid, t, kind = e
        if type(qid) is not int or not 0 <= qid < n or kinds[qid] is not None:
            raise OperandNotLive("alloc list must cover dense qubit ids")
        if kind not in (CLEAN, DIRTY):
            raise MalformedCircuit(f"qubit {qid} has unknown kind {kind!r}")
        if type(t) is not int or t < 0:
            raise OperandNotLive(f"qubit {qid} allocated at {t!r}, not a layer index")
        kinds[qid] = _KIND_NAMES[kind]
        alloc[qid] = t
    return kinds, alloc


def _read_dealloc(entries: list, alloc: list[int]) -> list[int | None]:
    """Dealloc layers (None for never) from the dealloc table ``[[id, layer], ...]``.

    The whole table is checked in one pass per rule; a table that fails is
    read entry by entry, which raises the first entry's typed error.  The
    layers' upper bound is checked by :func:`_check_bounds`.
    """
    n = len(alloc)
    dealloc: list = [None] * n
    if entries and set(map(type, entries)) <= _LIST and set(map(len, entries)) == {2}:
        ids, layers = zip(*entries)
        if (set(map(type, ids)) <= _INT and set(map(type, layers)) <= _INT
                and min(ids) >= 0 and max(ids) < n and len(set(ids)) == len(ids)
                and all(map(le, map(alloc.__getitem__, ids), layers))):
            for qid, t in zip(ids, layers):
                dealloc[qid] = t
            return dealloc
    for e in entries:
        if type(e) is not list or len(e) != 2:
            raise MalformedCircuit(f"dealloc entry {e!r} is not [id, layer]")
        qid, t = e
        if type(qid) is not int or not 0 <= qid < n:
            raise OperandNotLive(f"qubit id {qid!r} is not allocated")
        if type(t) is not int:
            raise MalformedCircuit(f"qubit {qid} deallocated at {t!r}")
        if dealloc[qid] is not None:
            raise DoubleDealloc(f"qubit {qid} deallocated twice")
        if t < alloc[qid]:
            raise UseAfterDealloc(f"qubit {qid} has activity at or past layer {t}")
        dealloc[qid] = t
    return dealloc


def _read_tables(c: Circuit, fields: dict) -> None:
    """Fill ``c``'s lifecycle tables from the parsed ``alloc`` and ``dealloc`` fields and drop them."""
    c._kind, alloc = _read_alloc(_json_list(fields["alloc"], '"alloc"'))
    fields["alloc"] = None
    c._dealloc = _read_dealloc(_json_list(fields["dealloc"], '"dealloc"'), alloc)
    fields["dealloc"] = None
    c._alloc = alloc


def _check_bounds(c: Circuit) -> None:
    """Every lifetime lies within the layers: alloc and dealloc are at most ``num_layers()``."""
    L = c.num_layers()
    if max(c._alloc, default=0) > L:
        q = next(q for q, a in enumerate(c._alloc) if a > L)
        raise OperandNotLive(f"qubit {q} allocated at {c._alloc[q]}, outside layers 0..{L}")
    if max(filter(None, c._dealloc), default=0) > L:
        q = next(q for q, d in enumerate(c._dealloc) if d is not None and d > L)
        raise OperandNotLive(f"qubit {q} lifetime [{c._alloc[q]}, {c._dealloc[q]}] leaves layers 0..{L}")


_skip_ws = json.decoder.WHITESPACE.match
_decode_value = json.JSONDecoder().raw_decode


def json_text(data: str | bytes) -> str:
    """The text ``json.loads(data)`` parses: bytes decode through ``json.detect_encoding``
    (a BOM selects the encoding and is dropped); a str that starts with a BOM is a
    ``JSONDecodeError``."""
    if isinstance(data, str):
        if data.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", data, 0)
        return data
    return data.decode(json.detect_encoding(data), "surrogatepass")


class _Cursor:
    """A position in JSON text; values are decoded by the C scanner one at a time.

    Whitespace after every token is skipped, so the cursor always rests on
    the next token.  Syntax errors are ``JSONDecodeError``s as ``json.loads``
    raises them, and nesting deeper than the parser's recursion limit is
    ``MalformedInput``.
    """

    def __init__(self, text: str):
        self.s = text
        self.i = _skip_ws(text, 0).end()

    def peek(self) -> str:
        return self.s[self.i:self.i + 1]

    def value(self):
        """Decode the value at the cursor and step past it."""
        try:
            obj, end = _decode_value(self.s, self.i)
        except RecursionError:
            raise MalformedInput("input JSON is nested too deeply") from None
        self.i = _skip_ws(self.s, end).end()
        return obj

    def _step(self, token: str, expected: str) -> None:
        if self.peek() != token:
            raise json.JSONDecodeError(f"Expecting {expected}", self.s, self.i)
        self.i = _skip_ws(self.s, self.i + 1).end()

    def _members(self, opening: str, closing: str) -> Iterator[None]:
        """Step into the container at the cursor, yield once per member (which the
        caller reads), step over the commas between members and past the close."""
        self._step(opening, repr(opening))
        if self.peek() != closing:
            yield
            while self.peek() != closing:
                self._step(",", "',' delimiter")
                yield
        self._step(closing, repr(closing))

    def keys(self) -> Iterator[str]:
        """Yield each key of the object at the cursor; the caller steps past its value."""
        for _ in self._members("{", "}"):
            if self.peek() != '"':
                raise json.JSONDecodeError("Expecting property name enclosed in double quotes", self.s, self.i)
            key, end = json.decoder.scanstring(self.s, self.i + 1)
            self.i = _skip_ws(self.s, end).end()
            self._step(":", "':' delimiter")
            yield key

    def items(self) -> Iterator:
        """Yield each element of the array at the cursor, decoded one at a time."""
        for _ in self._members("[", "]"):
            yield self.value()

    def end(self) -> None:
        if self.i != len(self.s):
            raise json.JSONDecodeError("Extra data", self.s, self.i)


def loads(text: str | bytes) -> Circuit:
    """Parse and check circuit JSON, one layer at a time.

    Accepts what ``json.loads`` accepts (whitespace anywhere, bytes in any
    encoding ``json.detect_encoding`` names) and rejects what it rejects,
    except that a repeated top-level key is ``MalformedCircuit``.  Qubit ids
    are the ints 0..n-1 of the alloc table, kinds are "clean" or "dirty",
    and every lifetime satisfies 0 <= alloc <= dealloc <= len(layers).

    The top-level object is walked key by key, in any order.  Each element
    of ``layers`` is decoded, turned into gates (:func:`_gates`) and dropped
    before the next is decoded; the ``alloc`` and ``dealloc`` tables are
    read as soon as both are decoded, as they are before ``layers`` in
    canonical documents (whose keys come sorted).  The first
    ``CircuitError`` is held until the whole text has been scanned, so a
    syntax error anywhere comes first, as in ``json.loads``.  Then the
    lifetimes are checked against the layer count and the circuit passes
    :meth:`Circuit.validate`'s walk, which raises its first fault.
    """
    doc = _Cursor(json_text(text))
    if doc.peek() != "{":
        # decoded only so that text json.loads rejects fails as it did there
        doc.value()
        doc.end()
        raise MalformedCircuit("circuit JSON must be an object")
    c = Circuit()
    fields: dict = {}
    faults: list[CircuitError] = []

    def hold(read, *args):
        """``read(*args)`` with its CircuitError held; nothing is read once one is."""
        if not faults:
            try:
                return read(*args)
            except CircuitError as e:
                faults.append(e)

    for key in doc.keys():
        if key in fields:
            faults.append(MalformedCircuit(f"circuit JSON repeats the key {key!r}"))
        if key == "layers" and doc.peek() == "[":
            fields[key] = c.layers
            for t, layer in enumerate(doc.items()):
                c.layers.append(hold(_gates, layer, t))
        else:
            fields[key] = doc.value()
        if key in ("alloc", "dealloc") and "alloc" in fields and "dealloc" in fields:
            hold(_read_tables, c, fields)
    doc.end()
    if faults:
        raise faults[0]
    if "alloc" not in fields or "dealloc" not in fields:
        raise MalformedCircuit('circuit JSON needs "alloc" and "dealloc" lists')
    if fields.get("layers") is not c.layers:
        raise MalformedCircuit('"layers" must be a JSON list')
    _check_bounds(c)
    for error, message in c._faults():
        raise error(message)
    c._reset_last_use()

    n = len(c._alloc)

    def qubits(ids: list) -> list[int]:
        """A list of ids, checked at once; a bad id is ``OperandNotLive``."""
        if not (set(map(type, ids)) <= _INT and (not ids or (min(ids) >= 0 and max(ids) < n))):
            bad = next(i for i in ids if type(i) is not int or not 0 <= i < n)
            raise OperandNotLive(f"qubit id {bad!r} is not allocated")
        return ids

    registers = fields.get("registers", {})
    if type(registers) is not dict:
        raise MalformedCircuit('"registers" must be a JSON object')
    c.mark_persistent(qubits(_json_list(fields.get("persistent", []), '"persistent"')))
    for name, ids in registers.items():
        members = qubits(_json_list(ids, f"register {name}"))
        if len(set(ids)) != len(ids):
            raise DuplicateOperand(f"register {name} lists a qubit twice: {ids}")
        c.add_register(name, members)
    return c


def to_text(c: Circuit) -> str:
    """Gate-per-line dump for human inspection (the JSON form is canonical)."""
    lines = []
    for t, layer in enumerate(c.compact().layers):
        for g in layer:
            args = ", ".join(f"q{q}" for q in g.qubits)
            if g.params:
                lines.append(f"{g.op}({', '.join(f'{p:.12g}' for p in g.params)}) {args}")
            else:
                lines.append(f"{g.op} {args}")
        lines.append(f"# --- end layer {t}")
    return "\n".join(lines) + "\n"
