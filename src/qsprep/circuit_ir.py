"""Layered circuit IR with qubit lifecycle events and resource accounting.

A circuit is a list of layers plus, per qubit, an allocation layer, an
optional deallocation layer, and a clean/dirty kind.  A qubit is its int
id, an index into those per-qubit tables: the ids are 0..n-1 in
allocation order, the same ints the circuit JSON carries.  Lifetimes are
half-open: a qubit allocated at layer a and deallocated at layer d may
carry gates on layers a..d-1 and contributes d-a to the spacetime
allocation.  Qubits never deallocated must be marked persistent (data
registers); they accrue from allocation to the end of the circuit.

Storage is columnar, the layout of Stim's circuits (Gidney, "Stim: a fast
stabilizer circuit simulator", Quantum 2021): a layer is three flat
columns, a ``bytearray`` of op codes, an ``array('i')`` of qubit ids and
an ``array('d')`` of parameters, and each op's code fixes how many ids
and parameters it takes (``GATE_SIGNATURES``).  The per-qubit tables are
flat arrays as well, with ``NEVER`` as the release layer of a qubit that
is never released.  A gate costs about 12 bytes of columns and a qubit 13
bytes of tables.  Every check and whole-circuit pass reads the columns
and tables through numpy views that share their memory (:func:`_view`);
serialization takes the columns an id at a time in C,
:meth:`Circuit.gates` reads a layer back as ``Gate`` tuples and
:meth:`Circuit.groups` as one id and parameter matrix per op (the
simulator's input).

The check boundary: a valid circuit is one the walk :meth:`Circuit._faults`
finds no fault in (lifetimes within the layers, gates on live qubits, and
persistent and register ids that are qubits); :meth:`Circuit.validate`
reports its faults and :func:`loads` raises the first.  What the columns
and tables cannot hold is refused where it is put in: a gate that breaks
:func:`_form_faults` where a batch is packed, and ids that are not ints,
alloc layers outside ``_INDEX`` and unknown kinds at the builder's call.
The reader checks only that, and that the alloc ids are dense.  Placement
and release test a batch at once (:func:`_claim`), and a batch that fails
changes nothing; one per-id diagnosis, :meth:`Circuit._id_faults`, names
their faults and the walk's.

Emitters put each batch of one op through :meth:`Circuit.put` as flat
operands and parameters; :meth:`Circuit.embed` and :meth:`Block.mirror`
place column slices the same way.  ``Gate`` tuples are for hand-built
circuits: :func:`gate` is their checked constructor, :meth:`Circuit.place`
packs a mixed batch of them and :meth:`Circuit.append_layer` adds one as a
layer without the liveness test.  :func:`loads` reads circuit JSON (a
``str``, ``bytes``, or a binary file read in blocks) into the columns a
chunk of gates at a time, and the loaded circuit passes the walk;
:func:`checked` refuses an emitted circuit that does not.
"""

from __future__ import annotations

import codecs
import json
import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import itemgetter, ne, neg
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

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

#: the ops that take a parameter, an angle: each one's inverse negates it
ROTATION_OPS = frozenset(op for op, (_, npar) in GATE_SIGNATURES.items() if npar)

_FLOAT = frozenset({float})
_INT = frozenset({int})
_LIST = frozenset({list})
_STR = frozenset({str})

_INVERSE_PAIR = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}

#: op code -> op name; a code is the op's index in ``GATE_SIGNATURES``
_OPS = tuple(GATE_SIGNATURES)
_CODE = {op: code for code, op in enumerate(_OPS)}
#: op code -> (number of qubits, number of parameters)
_ARITY = tuple(GATE_SIGNATURES.values())
#: ``codes.translate(_QUBIT_COUNT)`` are the codes' numbers of qubits, and likewise of parameters
_QUBIT_COUNT = bytes(nq for nq, _ in _ARITY).ljust(256, b"\0")
_PARAM_COUNT = bytes(npar for _, npar in _ARITY).ljust(256, b"\0")
#: (op, number of qubits, number of parameters) of every well-formed gate -> its op code
_SHAPE_CODE = {(op, nq, npar): code for code, (op, (nq, npar)) in enumerate(GATE_SIGNATURES.items())}
#: ``codes.translate(_INVERSE)`` are the codes of the inverse ops; their parameters are negated
_INVERSE = bytes(_CODE[_INVERSE_PAIR.get(op, op)] for op in _OPS).ljust(256, b"\0")
_ROTATION_CODES = bytes(sorted(map(_CODE.__getitem__, ROTATION_OPS)))

#: kind code -> kind name
_KINDS = (CLEAN, DIRTY)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}

#: the release layer of a qubit that is never released: the largest ``array('i')`` value
NEVER = 2**31 - 1
#: the ints a qubit id or a layer index can be, and the ints a column can hold
_INDEX = range(NEVER)
_I32 = range(-2**31, NEVER)

#: ``_consume(iterator)`` runs an iterator of C calls, such as ``map(setitem, ...)``, to its end
_consume = deque(maxlen=0).extend


def _view(column: array) -> np.ndarray:
    """An ``array('i')`` column or table as a numpy array that shares its memory.  The
    array cannot be resized while a view of it exists (``BufferError``), so each
    whole-circuit pass drops its views when it returns."""
    return np.frombuffer(column, np.intc)


def _ids(ids: Sequence[int]) -> array:
    """A batch's qubit ids as an ``array('i')``: the batch itself if it is one, else a copy
    (``OverflowError`` for an id that does not fit, ``TypeError`` for one that is no int)."""
    return ids if isinstance(ids, array) and ids.typecode == "i" else array("i", ids)


def _sequence(values: Iterable) -> Sequence:
    """``values`` read once into something that can be read again: itself if it is an
    ``array``, ``range`` or ``list``, else a list of them."""
    return values if isinstance(values, (array, range, list)) else list(values)


def _all_ints(ids: Sequence) -> bool:
    """Whether every id is an int, not a bool: at once for an ``array('i')`` or a ``range``."""
    return type(ids) is range or isinstance(ids, array) and ids.typecode == "i" or set(map(type, ids)) <= _INT


def _int_ids(ids: Iterable[int], what: str) -> "Register":
    """The persistent or register ids ``ids`` as a :class:`Register` if each is an int it
    can hold, else ``OperandNotLive``; that each is a qubit is left to the walk."""
    ids = _sequence(ids)
    try:
        if _all_ints(ids):
            return Register(ids)
    except OverflowError:
        pass
    bad = next(i for i in ids if type(i) is not int or i not in _I32)
    raise OperandNotLive(f"{what} id {bad!r} is not an int qubit id")


def _distinct(ids: np.ndarray, top: int) -> bool:
    """Whether no id of ``ids`` (each in 0..top) repeats: a repeated id marks one flag twice."""
    marks = np.zeros(top + 1, np.bool_)
    marks[ids] = True
    return np.count_nonzero(marks) == len(ids)


def _first(faults: Iterable[tuple[type[CircuitError], str]], prefix: str = "") -> CircuitError:
    """The first of ``faults`` as its typed error led by ``prefix``, else an ``InternalInvariant``."""
    for error, message in faults:
        return error(prefix + message)
    return InternalInvariant(f"{prefix}a batch failed its test without a fault")


def _claim(ids: np.ndarray, t, last_use: np.ndarray, dealloc: np.ndarray, release: bool = False) -> bool:
    """The lifecycle rules, tested on a whole batch of qubit ids (numpy views, like the
    tables) at once: every id is a qubit, none repeats, and each is live at ``t`` after
    its latest gate, ``last_use[ids] < t < dealloc[ids]``.  A gate batch then writes
    ``last_use[ids] = t``; a release, whose ``t`` may be one layer per id, also needs the
    qubits not yet released (``dealloc[ids] == NEVER``) and writes ``dealloc[ids] = t``.
    A batch that fails changes nothing.  A qubit's latest layer is at least its alloc
    layer - 1, so ``last_use < t`` also proves it allocated by then."""
    if not len(ids):
        return True
    top = int(ids.view(np.uintc).max())  # a negative id reads as one past 2**31 - 1
    if top >= len(last_use):
        return False
    if release:  # t may be one layer per id; int32 indices, which numpy buffers, copy no ids
        live = np.max(t) < NEVER == dealloc[ids].min() and (last_use[ids] < t).all()
    else:  # numpy gathers and scatters fastest through intp indices
        ids = ids.astype(np.intp)
        live = np.take(last_use, ids).max() < t < np.take(dealloc, ids).min()
    if not (live and _distinct(ids, top)):
        return False
    (dealloc if release else last_use)[ids] = t
    return True


def _live_counts(alloc: np.ndarray, ends: np.ndarray, L: int) -> list[int]:
    """The live count per layer 0..L-1 of the lifetimes [alloc, ends) (``ends`` at most
    ``L``): a running sum of steps up at allocs and down at releases (``np.add.at``)."""
    steps = np.zeros(max(L, int(alloc.max(initial=0))) + 1, np.int64)
    np.add.at(steps, alloc, 1)
    np.subtract.at(steps, ends, 1)
    return np.cumsum(steps[:L]).tolist()


def _before(layers: array) -> array:
    """A copy of a table of layers, each one less: the latest layer of a qubit allocated
    there that has no gate yet."""
    out = layers[:]
    earlier = _view(out)
    earlier -= 1
    return out


class Register(array):
    """A register's qubit ids: an ``array('i')`` that, like a list, concatenates with any
    iterable of ids."""

    def __new__(cls, ids: Iterable[int] = ()):
        return super().__new__(cls, "i", ids)

    def __add__(self, other: Iterable[int]) -> "Register":
        return Register(chain(self, other))


class Gate(NamedTuple):
    op: str
    params: tuple
    qubits: tuple


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


def _form_faults(op, params, qubits, gates: int = 1) -> Iterator[tuple[type[CircuitError], str]]:
    """The per-gate rules the columns hold by construction, each one ``gates`` gates of
    one op, given as flat operands and parameters, break as (error class, message): a
    known op with its operand and parameter counts, ``float`` parameters (not
    ``np.float64``), and int operands (not ``bool``)."""
    sig = GATE_SIGNATURES.get(op) if type(op) is str else None
    if sig is None:
        yield MalformedCircuit, f"unknown op {op!r}"
    elif (len(qubits), len(params)) != (gates * sig[0], gates * sig[1]):
        yield (DuplicateOperand if len(qubits) != gates * sig[0] else MalformedCircuit,
               f"{op} takes {sig[0]} qubits and {sig[1]} params, got {len(qubits)} and {len(params)}")
    for p in params:
        if type(p) is not float:
            yield MalformedCircuit, f"{op} parameter {p!r} is not a finite float"
    for i in qubits:
        if type(i) is not int:
            yield OperandNotLive, f"{op} operand {i!r} is not an int qubit id"


def _value_faults(op, params, qubits) -> Iterator[tuple[type[CircuitError], str]]:
    """The per-gate rules left to the walk, for a gate that keeps :func:`_form_faults`:
    finite parameters and distinct operands."""
    for p in params:
        if not math.isfinite(p):
            yield MalformedCircuit, f"{op} parameter {p!r} is not a finite float"
    if len(set(qubits)) != len(qubits):
        yield DuplicateOperand, f"{op} repeats an operand: {list(qubits)}"


def gate(op: str, qubits, *params) -> Gate:
    """A checked gate: the parameters become floats through :func:`_angle`, then the
    first per-gate rule the gate breaks is raised."""
    g = Gate(op, tuple(map(_angle, params)), tuple(qubits))
    for error, message in chain(_form_faults(*g), _value_faults(*g)):
        raise error(message)
    return g


def _pack(ops, params, qubits, t: int) -> tuple[bytes, list[int], list[float]]:
    """A batch of gates, given as parallel sequences of ops, parameter lists and operand
    lists, as columns: (op codes, flat qubit ids, flat parameters).

    The batch is checked as a whole, one pass per rule; only a batch that fails is walked
    gate by gate, which raises its first :func:`_form_faults` fault as ``layer t: ...``.
    """
    try:
        codes = bytes(map(_SHAPE_CODE.__getitem__, zip(ops, map(len, qubits), map(len, params))))
        ids, values = list(chain.from_iterable(qubits)), list(chain.from_iterable(params))
        if set(map(type, ids)) <= _INT and set(map(type, values)) <= _FLOAT:
            return codes, ids, values
    except (KeyError, TypeError):  # an unknown shape, or an unhashable op
        pass
    raise _first(chain.from_iterable(map(_form_faults, ops, params, qubits)), f"layer {t}: ")


class Circuit:
    """Mutable layered circuit builder.

    Gates can be appended ASAP (earliest layer after every operand's latest
    prior use) or placed a layer's batch at a time at an explicit layer
    (``num_layers()`` for a fresh one); the subroutine emitters put batches
    of one op at explicit layers to realize their published schedules.
    Qubits are the ints 0..n-1 that :meth:`alloc` and :meth:`alloc_many`
    hand out; their kinds are read through :meth:`kind`.
    """

    def __init__(self):
        self._ops: list[bytearray] = []     # per layer: op codes
        self._qs: list[array] = []          # per layer: the operands, ``_ARITY`` of them per op
        self._ps: list[array] = []          # per layer: the parameters, ``_ARITY`` of them per op
        self._kind = bytearray()            # per qubit id: kind code
        self._alloc = array("i")
        self._dealloc = array("i")          # NEVER for a qubit never released
        self._last_use = array("i")         # latest layer with a gate (or alloc - 1) on the qubit
        self._persistent: set[int] = set()
        self.registers: dict[str, Register] = {}
        self.meta: dict = {}

    # -- lifecycle ------------------------------------------------------------

    def alloc(self, kind: str = CLEAN, at_layer: int | None = None) -> int:
        return self.alloc_many(1, kind, at_layer)[0]

    def alloc_many(self, count: int, kind: str = CLEAN, at_layer: int | Sequence[int] | None = None) -> range:
        """Allocate ``count`` fresh qubits of one kind at one layer ``at_layer`` (by default
        the next new one), or each at its own (``at_layer`` a sequence of ``count``
        layers); returns their ids.  A kind that is not clean or dirty, or a layer
        outside ``_INDEX``, is refused."""
        if kind not in _KINDS:
            raise MalformedCircuit(f"unknown kind {kind!r}")
        if at_layer is None:
            at_layer = self.num_layers()
        one = isinstance(at_layer, (int, np.integer))
        at_layer = at_layer if one else _sequence(at_layer)
        try:
            layers = array("i", (at_layer,)) * count if one else _ids(at_layer)
            fits = not layers or 0 <= _view(layers).min() and _view(layers).max() < NEVER
        except OverflowError:
            fits = False
        if not fits:
            bad = next(t for t in ((at_layer,) if one else at_layer) if t not in _INDEX)
            raise OperandNotLive(f"alloc layer {bad} is not a layer index")
        if len(layers) != count:
            raise MalformedCircuit(f"{count} qubits need {count} alloc layers, got {len(layers)}")
        return self._add_qubits(bytes((_KIND_CODE[kind],)) * count, layers)

    def _add_qubits(self, kinds: bytes, layers: array) -> range:
        """Allocate fresh qubits, one per kind code and alloc layer; returns their ids."""
        first = len(self._alloc)
        self._kind += kinds
        self._alloc += layers
        self._dealloc += array("i", (NEVER,)) * len(layers)
        self._last_use += _before(layers)
        return range(first, len(self._alloc))

    def dealloc(self, q: int, at_layer: int | None = None) -> None:
        """:meth:`dealloc_many` of one qubit, by default right after its latest gate."""
        if at_layer is None:  # a qubit not in the circuit is refused before its layer is read
            at_layer = self._last_use[q] + 1 if 0 <= q < len(self._last_use) else 0
        self.dealloc_many((q,), at_layer)

    def dealloc_many(self, qubits: Sequence[int], at) -> None:
        """Release qubits at one layer ``at``, or each at its own (``at`` a sequence as long
        as ``qubits``), if the batch passes :func:`_claim`; else release none and raise the
        first fault in batch order (:meth:`_id_faults`), a ``bool`` id included."""
        one = isinstance(at, (int, np.integer))
        qubits, at = _sequence(qubits), at if one else _sequence(at)
        try:
            if _all_ints(qubits) and _claim(_view(_ids(qubits)), at if one else _view(_ids(at)),
                                            _view(self._last_use), _view(self._dealloc), release=True):
                return
        except (TypeError, OverflowError):  # an id or a layer that is no int32
            pass
        raise _first(self._id_faults(qubits, at, self._last_use, release=True))

    def mark_persistent(self, qubits: Iterable[int]) -> None:
        """Keep qubits live to the end of the circuit, unreleased (:func:`_int_ids`)."""
        self._persistent.update(_int_ids(qubits, "persistent"))

    def persistent(self) -> set[int]:
        return set(self._persistent)

    def add_register(self, name: str, qubits: Iterable[int]) -> None:
        """Name a register of qubits (:func:`_int_ids`)."""
        self.registers[name] = _int_ids(qubits, f"register {name}")

    # -- gate placement ---------------------------------------------------------

    def num_layers(self) -> int:
        return len(self._ops)

    def _grow(self, layer: int) -> None:
        while len(self._ops) <= layer:
            self._ops.append(bytearray())
            self._qs.append(array("i"))
            self._ps.append(array("d"))

    def place(self, gates: list[Gate], layer: int) -> int:
        """Put a batch of gates at one explicit layer, packed into columns first
        (:func:`_pack`): every operand must be live there, after its latest gate
        (:meth:`_place`).  A rejected batch, like an empty one, changes nothing."""
        if not gates:
            return layer
        ops, params, qubits = zip(*gates)
        return self._place(*_pack(ops, params, qubits, layer), layer)

    def put(self, op: str, ids: Sequence[int], layer: int, params: Sequence[float] = ()) -> int:
        """:meth:`place` for a batch of one op given as its flat operands (the op's arity
        of them per gate) and flat parameters.  Its op, counts and types are checked as
        a whole, the types at once for an ``array('i')`` or ``range`` of operands and an
        ``array('d')`` of parameters; the first :func:`_form_faults` fault is raised."""
        sig = GATE_SIGNATURES.get(op) if type(op) is str else None
        n = len(ids) // sig[0] if sig else 0
        if not (sig and (len(ids), len(params)) == (n * sig[0], n * sig[1]) and _all_ints(ids)
                and (isinstance(params, array) and params.typecode == "d" or set(map(type, params)) <= _FLOAT)):
            raise _first(_form_faults(op, params, ids, n), f"layer {layer}: ")
        return self._place(bytes((_CODE[op],)) * n, ids, params, layer)

    def _place(self, codes, ids, values, layer: int) -> int:
        """:meth:`place` for a batch already in columns (``ids`` any sequence of ints, an
        ``array('i')`` read in place): written only if its ids pass :func:`_claim`, else
        its first fault (:meth:`_id_faults`) is raised."""
        if not codes:
            return layer
        try:
            qs = _ids(ids)
            placed = _claim(_view(qs), layer, _view(self._last_use), _view(self._dealloc))
        except OverflowError:  # an id that is no int32
            placed = False
        if not placed:
            raise _first(self._id_faults(ids, layer, self._last_use))
        if layer >= len(self._ops):
            self._grow(layer)
        self._ops[layer] += codes
        self._qs[layer] += qs
        self._ps[layer].extend(values)
        return layer

    def _id_faults(self, ids: Iterable, at, latest: Sequence[int] | None = None,
                   release: bool = False) -> Iterator[tuple[type[CircuitError], str]]:
        """For each id of a batch, in batch order, the first lifecycle rule it breaks, as
        (error class, message).  A gate at layer ``at`` takes a live qubit whose latest
        layer (``at`` if earlier in the batch, else ``latest``; the walk has none) comes
        before ``at``; a release (``at`` one layer or one per id) a qubit released
        neither yet nor earlier in the batch, past its ``latest`` layer.  Reads only."""
        n, seen = len(self._alloc), set()
        for i, t in zip(ids, repeat(at) if isinstance(at, (int, np.integer)) else at):
            if type(i) is not int or not 0 <= i < n:
                yield OperandNotLive, f"qubit {i!r} is not allocated" if release else \
                    f"layer {t}: qubit {i!r} is not in the circuit"
                continue
            if release:
                if self._dealloc[i] != NEVER or i in seen:
                    yield DoubleDealloc, f"qubit {i} deallocated twice"
                elif t <= latest[i]:
                    yield UseAfterDealloc, f"qubit {i} has activity at or past layer {t}"
                elif t >= NEVER:
                    yield OperandNotLive, f"qubit {i} deallocated at {t}, not a layer index"
            elif t < self._alloc[i]:
                yield OperandNotLive, f"layer {t}: qubit {i} used before allocation at layer {self._alloc[i]}"
            elif t >= self._dealloc[i]:
                yield UseAfterDealloc, f"layer {t}: qubit {i} used after deallocation at layer {self._dealloc[i]}"
            elif i in seen or latest is not None and latest[i] >= t:
                yield LayerCollision, f"layer {t}: qubit {i} in two gates, one already at layer " \
                    f"{t if i in seen else latest[i]}"
            seen.add(i)

    def append(self, g: Gate) -> int:
        """Place one gate ASAP: at the earliest layer after each operand's latest layer."""
        n = len(self._last_use)
        return self.place([g], max((self._last_use[q] + 1 for q in g.qubits if 0 <= q < n), default=0))

    def append_layer(self, gates: list[Gate]) -> int:
        """Add ``gates`` as a new last layer and return its index.

        Only what the columns cannot hold is checked (:func:`_pack`), so a
        hand-built layer may break liveness; :meth:`validate` reports that.
        Each operand that is a qubit of the circuit gets ``t`` as its latest
        layer, unless it has a later one, so :meth:`append` goes after it.
        """
        t = len(self._ops)
        self._extend(t, *_pack(*(zip(*gates) if gates else ((), (), ())), t))
        ids = _view(self._qs[t])
        np.maximum.at(_view(self._last_use), ids[(ids >= 0) & (ids < len(self._last_use))], t)
        return t

    def _extend(self, t: int, codes: bytes, ids: list[int], values: list[float]) -> None:
        """Append a packed batch to layer ``t``'s columns, unchecked, growing the
        circuit to that layer.  The id list goes straight into the id column
        (``fromlist`` leaves the column as it was if an id does not fit); an id
        outside the column's range is no qubit (:meth:`_id_faults`) and adds no layer."""
        layers = len(self._ops)
        self._grow(t)
        try:
            self._qs[t].fromlist(ids)
        except OverflowError:
            del self._ops[layers:], self._qs[layers:], self._ps[layers:]
            raise _first(self._id_faults([i for i in ids if i not in _I32], t)) from None
        self._ops[t] += codes
        self._ps[t].fromlist(values)

    def _ends(self, layer: int) -> tuple[int, int, int]:
        """The lengths of layer ``layer``'s columns; zeros past the last layer."""
        if layer >= len(self._ops):
            return 0, 0, 0
        return len(self._ops[layer]), len(self._qs[layer]), len(self._ps[layer])

    # -- views ------------------------------------------------------------------

    def gates(self, t: int) -> Iterator[Gate]:
        """Layer ``t``'s gates as ``Gate`` tuples, in the order they were placed."""
        ids, values = iter(self._qs[t]), iter(self._ps[t])
        for code in self._ops[t]:
            nq, npar = _ARITY[code]
            yield new_gate((_OPS[code], tuple(islice(values, npar)), tuple(islice(ids, nq))))

    def groups(self, t: int) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """Layer ``t``'s gates as one (op, ids, params) group per op in it, in op-code order:
        ``ids`` holds each of the op's n gates' operands as an (n, qubits) array and
        ``params`` its parameters as an (n, parameters) array, in the order they were
        placed.  Both are copies, so the circuit can change while a caller holds them."""
        ops = self._ops[t]
        codes = np.frombuffer(ops, np.uint8)  # the op of each id and of each parameter:
        id_op = codes.repeat(np.frombuffer(ops.translate(_QUBIT_COUNT), np.uint8))
        value_op = codes.repeat(np.frombuffer(ops.translate(_PARAM_COUNT), np.uint8))
        ids, values = _view(self._qs[t]), np.frombuffer(self._ps[t])
        out = []
        for code in sorted(set(ops)):
            nq, npar = _ARITY[code]
            op_ids = ids[id_op == code].reshape(-1, nq)
            out.append((_OPS[code], op_ids, values[value_op == code].reshape(len(op_ids), npar)))
        return out

    def params(self, t: int) -> np.ndarray:
        """Layer ``t``'s parameter column as a writable numpy array (see :func:`_view`)."""
        return np.frombuffer(self._ps[t])

    def qubits(self) -> range:
        return range(len(self._alloc))

    def kind(self, q: int) -> str:
        return _KINDS[self._kind[q]]

    def of_kind(self, kind: str) -> list[int]:
        """The qubits of one kind, in id order: one pass over the kind table."""
        return np.flatnonzero(np.frombuffer(self._kind, np.uint8) == _KIND_CODE[kind]).tolist()

    def alloc_layer(self, q: int) -> int:
        return self._alloc[q]

    def dealloc_layer(self, q: int) -> int | None:
        d = self._dealloc[q]
        return None if d == NEVER else d

    def last_use_layer(self, q: int) -> int:
        """The latest layer with a gate on ``q``, or its alloc layer - 1 if none."""
        return self._last_use[q]

    def lifecycle(self) -> list[tuple[list[int], list[int]]]:
        """Per layer 0..num_layers(), the (allocated, deallocated) qubits there, in id order."""
        buckets = [([], []) for _ in range(self.num_layers() + 1)]
        for q, a in enumerate(self._alloc):
            buckets[a][0].append(q)
        for q, d in enumerate(self._dealloc):
            if d != NEVER:
                buckets[d][1].append(q)
        return buckets

    def depth(self, stop: int | None = None) -> int:
        """The number of non-empty layers, among the first ``stop`` if given."""
        return sum(map(bool, self._ops[:stop]))

    def size(self) -> int:
        return sum(map(len, self._ops))

    def live_profile(self, qubits: Iterable[int] | None = None) -> list[int]:
        """Live-qubit count per layer (:func:`_live_counts`) of the given qubits, else of all."""
        L = self.num_layers()
        alloc, dealloc = _view(self._alloc), _view(self._dealloc)
        if qubits is not None:
            ids = np.fromiter(qubits, np.intc)
            alloc, dealloc = alloc[ids], dealloc[ids]
        return _live_counts(alloc, np.minimum(dealloc, L), L)

    def embed(self, src: "Circuit", shift: Callable[[int], int],
              shared: dict[int, int] | None = None) -> list[int]:
        """Copy ``src`` into this circuit, its layer t at layer ``shift(t)``; returns the id map.

        ``shift`` must be strictly increasing.  Qubits in ``shared`` map onto
        the given qubits here and keep their lifecycle outside ``src``.  Every
        other qubit gets a fresh id (in order of its allocation layer) with
        the same kind, allocated at ``shift(alloc)``, released right after its
        shifted last layer, at ``shift(dealloc - 1) + 1``, and persistent here
        if it is persistent in ``src``.  ``shift`` is called once per layer,
        each layer's ids are remapped by one numpy gather and placed as one
        batch, and every qubit released in ``src`` is released here in one call.
        """
        shared = shared or {}
        mapping = np.full(len(src._alloc), -1, np.intc)
        mapping[list(shared)] = list(shared.values())
        fresh = np.flatnonzero(mapping < 0)
        fresh = fresh[np.argsort(_view(src._alloc)[fresh], kind="stable")]
        alloc, dealloc = _view(src._alloc)[fresh].tolist(), _view(src._dealloc)[fresh]
        freed = dealloc != NEVER
        last = (dealloc[freed] - 1).tolist()
        at = {t: shift(t) for t in {*range(src.num_layers()), *alloc, *last}}
        mapping[fresh] = self._add_qubits(np.frombuffer(src._kind, np.uint8)[fresh].tobytes(),
                                          array("i", map(at.__getitem__, alloc)))
        self.mark_persistent(mapping[[q for q in src._persistent if q not in shared]].tolist())
        for t, (codes, qs, values) in enumerate(zip(src._ops, src._qs, src._ps)):
            if codes:
                self._place(codes, array("i", mapping[_view(qs)].tobytes()), values, at[t])
        self.dealloc_many(array("i", mapping[fresh[freed]].tobytes()),
                          array("i", (at[t] + 1 for t in last)))
        return mapping.tolist()

    def _copy_tables(self) -> "Circuit":
        """A new circuit with this one's kinds, persistent set, registers and meta, and no layers."""
        c = Circuit()
        c._kind = self._kind[:]
        c._persistent = set(self._persistent)
        c.registers = {k: Register(v) for k, v in self.registers.items()}
        c.meta = dict(self.meta)
        return c

    def copy(self) -> "Circuit":
        """An independent copy: its own columns, lifecycle tables, registers and meta."""
        c = self._copy_tables()
        c._alloc, c._dealloc, c._last_use = self._alloc[:], self._dealloc[:], self._last_use[:]
        c._ops, c._qs, c._ps = ([column[:] for column in columns] for columns in (self._ops, self._qs, self._ps))
        return c

    def compact(self) -> "Circuit":
        """Drop empty layers, remapping lifecycle layer indices."""
        if all(self._ops):
            return self
        kept = list(map(bool, self._ops))
        new_index = np.fromiter(accumulate(kept, initial=0), np.intc, len(kept) + 1)
        c = self.copy()
        alloc, dealloc = _view(c._alloc), _view(c._dealloc)
        alloc[:] = new_index[alloc]
        released = dealloc != NEVER
        dealloc[released] = new_index[dealloc[released]]
        c._ops, c._qs, c._ps = (list(compress(columns, kept)) for columns in (c._ops, c._qs, c._ps))
        c._reset_last_use()
        return c

    def _reset_last_use(self) -> None:
        """Set each qubit's latest layer from the gates: its last gate's layer, else its alloc layer - 1."""
        self._last_use = _before(self._alloc)
        last_use = _view(self._last_use)
        for t, ids in enumerate(self._qs):
            last_use[_view(ids)] = t

    def adjoint(self) -> "Circuit":
        """Time-reversed circuit with inverted gates and mirrored lifecycles.

        Layer t becomes layer T-1-t with each op code translated to its
        inverse's and every parameter negated (only rotations have one).
        """
        T = self.num_layers()
        c = self._copy_tables()
        c._alloc, c._dealloc = self._dealloc[:], self._alloc[:]
        alloc, dealloc = _view(c._alloc), _view(c._dealloc)
        never = alloc == NEVER
        np.subtract(T, alloc, out=alloc)
        alloc[never] = 0
        # non-persistent qubits allocated at 0 still mirror to a dealloc at T
        kept = np.fromiter(self._persistent, np.intc, len(self._persistent))
        kept = kept[dealloc[kept] == 0]
        np.subtract(T, dealloc, out=dealloc)
        dealloc[kept] = NEVER
        c._ops = [codes.translate(_INVERSE) for codes in reversed(self._ops)]
        c._qs = [ids[:] for ids in reversed(self._qs)]
        c._ps = [values[:] for values in reversed(self._ps)]
        for values in c._ps:
            negated = np.frombuffer(values)
            np.negative(negated, out=negated)
        c._reset_last_use()
        return c

    # -- validation ---------------------------------------------------------------

    def validate(self) -> list[str]:
        """The whole-circuit check: every fault of :meth:`_faults`, then every register
        whose size differs from ``meta["expected_register_sizes"]``."""
        expected = self.meta.get("expected_register_sizes") or {}
        have = {name: len(self.registers.get(name, ())) for name in expected}
        return [message for _, message in self._faults()] + [f"register {name}: size {have[name]}, expected {size}"
                                                             for name, size in expected.items() if have[name] != size]

    def _faults(self, last_use: np.ndarray | None = None) -> Iterator[tuple[type[CircuitError], str]]:
        """Every fault of the circuit, as (error class, message), in order: each lifetime
        outside 0 <= alloc <= dealloc <= ``num_layers()``; each gate that breaks
        :func:`_value_faults` or acts on a qubit not live at its layer or twice in it;
        each persistent or register id that is no qubit, or is repeated.

        A layer is tested as a whole (finite parameters, distinct ids with
        ``alloc <= t < dealloc``) and walked gate by gate (:meth:`_id_faults`) only if
        it fails.  A layer that passes sets ``last_use[ids] = t`` if ``last_use`` is
        given.  The walk copies no table and gathers through the int32 ids.
        """
        n, L = len(self._alloc), self.num_layers()
        alloc, dealloc = _view(self._alloc), _view(self._dealloc)
        if not (alloc.min(initial=0) >= 0 and alloc.max(initial=0) <= L and (alloc <= dealloc).all()
                and dealloc.max(initial=0, where=dealloc != NEVER) <= L):
            for q, (a, d) in enumerate(zip(self._alloc, self._dealloc)):
                if not 0 <= a <= L:
                    yield OperandNotLive, f"qubit {q} allocated at {a}, outside layers 0..{L}"
                elif d != NEVER and not a <= d <= L:
                    yield OperandNotLive, f"qubit {q} lifetime [{a}, {d}] leaves layers 0..{L}"
        for t, (ids, values) in enumerate(zip(self._qs, self._ps)):
            if not ids:
                continue
            q = _view(ids)
            top = int(q.view(np.uintc).max())  # a negative id reads as one past 2**31 - 1
            if not (top < n and alloc[q].max() <= t < dealloc[q].min() and _distinct(q, top)
                    and np.isfinite(np.frombuffer(values)).all()):
                gates = list(self.gates(t))
                yield from ((error, f"layer {t}: {message}") for g in gates for error, message in _value_faults(*g))
                yield from self._id_faults(chain.from_iterable(dict.fromkeys(g.qubits) for g in gates), t)
            elif last_use is not None:
                last_use[q] = t
        registers = ((f"register {name}", reg) for name, reg in self.registers.items())
        for what, reg in chain([("persistent", sorted(self._persistent))], registers):
            ids = _view(_ids(reg))
            top = int(ids.view(np.uintc).max(initial=0))
            if not (top < n and _distinct(ids, top)):
                seen = set()
                for i in reg:
                    if not 0 <= i < n:
                        yield OperandNotLive, f"{what} id {i} is not a qubit of the circuit"
                    elif i in seen:
                        yield DuplicateOperand, f"{what} lists qubit {i} twice"
                    seen.add(i)


def checked(c: Circuit) -> Circuit:
    """An emitted circuit after its one whole-circuit check; a violation is a bug
    (``InternalInvariant``, exit 3), caught before the circuit is accounted or written."""
    violations = c.validate()
    if violations:
        raise InternalInvariant(f"emitted circuit failed validation: {violations[:3]}")
    return c


class Block:
    """A recorded span of a circuit, undone by its layer mirror.

    A pass-through ``put``/``alloc_many``/``num_layers`` view of
    ``c`` that records where each gate batch landed in the columns (its
    layer and the start and stop of its op, id and parameter slices) and
    the ids of each qubit it allocated.  This is the compute/uncompute
    pattern: fresh ancillae are allocated at their first use inside the
    block and released by :meth:`mirror` right after their mirrored last use.
    """

    def __init__(self, c: Circuit, start: int):
        self.c = c
        self.start = start
        self.spans: list[tuple[int, tuple[int, int, int], tuple[int, int, int]]] = []
        self.qubits = array("i")

    def put(self, op: str, ids: Sequence[int], layer: int, params: Sequence[float] = ()) -> int:
        """``Circuit.put``, with the batch's column slices recorded."""
        before = self.c._ends(layer)
        self.c.put(op, ids, layer, params)
        if self.c._ends(layer) != before:
            self.spans.append((layer, before, self.c._ends(layer)))
        return layer

    def alloc_many(self, count: int, kind: str = CLEAN, at_layer: int | Sequence[int] | None = None) -> range:
        qubits = self.c.alloc_many(count, kind, at_layer)
        self.qubits.frombytes(np.arange(qubits.start, qubits.stop, dtype=np.intc).tobytes())
        return qubits

    def num_layers(self) -> int:
        return self.c.num_layers()

    def mirror(self, at: int, span: int) -> int:
        """Undo the block in layers [at, at + span) and return ``at + span``.

        A batch recorded at relative layer ``rel`` is inverted at
        ``at + span - 1 - rel``: its column slices are placed with the op
        codes translated to their inverses' and the parameters negated,
        latest recorded layer first and, within a layer, in recorded order,
        so each mirrored layer keeps its gates' order.  Every qubit allocated
        at ``start + rel`` is released at ``at + span - rel``, all in one call
        made first, while the circuit is smallest.
        """
        c = self.c
        ends = at + span + self.start - _view(c._alloc)[_view(self.qubits)]
        c.dealloc_many(self.qubits, array("i", ends.astype(np.intc).tobytes()))
        for layer, (o0, q0, p0), (o1, q1, p1) in sorted(self.spans, key=itemgetter(0), reverse=True):
            c._place(c._ops[layer][o0:o1].translate(_INVERSE), c._qs[layer][q0:q1],
                     array("d", map(neg, c._ps[layer][p0:p1])), at + span - 1 - (layer - self.start))
        return at + span


# -- resource accounting ----------------------------------------------------------


#: a rotation synthesized to precision eps' in the discrete gate set takes
#: ``ceil(ROTATION_SLOPE * log2(1/eps'))`` layers.  Ross and Selinger's
#: Clifford+T synthesis (arXiv:1403.2975) needs about 3*log2(1/eps') +
#: O(log log(1/eps')) T gates per z-rotation; 4 is this package's slope,
#: rounded up to cover the lower-order term.
ROTATION_SLOPE = 4.0


@dataclass(frozen=True)
class GateSetModel:
    """Cost model for the two gate sets, chosen by ``epsilon``.

    With no ``epsilon`` every gate costs one layer (the exact gate set).
    With one, in (0, 1), the gate set is discrete: each layer that contains
    a rotation widens to a rotation's synthesized depth (see
    ``ROTATION_SLOPE``) at the per-rotation budget ``epsilon / n_rot``.
    """

    epsilon: float | None = None

    def __post_init__(self):
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:  # NaN fails too
            raise BadEpsilon(f"epsilon {self.epsilon!r} outside (0, 1)")

    def rotation_cost(self, eps_prime: float) -> int:
        """Layers a rotation layer takes at the per-rotation budget ``eps_prime`` < 1."""
        inverse = 1.0 / eps_prime if eps_prime > 0.0 else math.inf
        if math.isinf(inverse):
            raise BadEpsilon(f"per-rotation budget {eps_prime!r} of epsilon {self.epsilon!r} underflows")
        return math.ceil(ROTATION_SLOPE * math.log2(inverse))


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


def spacetime_allocation(c: Circuit, model: GateSetModel = GateSetModel(),
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
    alloc, dealloc = _view(c._alloc), _view(c._dealloc)
    never = np.flatnonzero(dealloc == NEVER).tolist()
    leaked = next((q for q in never if q not in persistent), None)
    if leaked is not None:
        raise LeakedQubit(f"qubit {leaked} never deallocated and not persistent")
    # the one table-sized copy: release layers clipped to L, then the lifetimes
    lifetimes = np.minimum(dealloc, L)
    prof = _live_counts(alloc, lifetimes, L) if profile is None else profile
    lifetimes -= alloc
    sa_q = int(lifetimes.sum())
    # the kind codes viewed as booleans, True for DIRTY (code 1): a mask that copies nothing
    dirty_sa = int(lifetimes.sum(where=np.frombuffer(c._kind, np.bool_)))
    clean_sa = sa_q - dirty_sa
    sa_t = sum(prof)
    if sa_q != sa_t:
        raise InternalInvariant(f"spacetime double-count mismatch: {sa_q} != {sa_t}")

    per_layer = [len(codes) - len(codes.translate(None, _ROTATION_CODES)) for codes in c._ops]
    rot_layers = [k > 0 for k in per_layer]
    n_rot = sum(per_layer)

    if model.epsilon is not None and n_rot:
        width = model.rotation_cost(model.epsilon / n_rot)
        depth_approx = sum(width if r else 1 for codes, r in zip(c._ops, rot_layers) if codes)
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
        for g in c.gates(t):
            for sub in expand_gate(g, U2_CNOT):
                out.append(Gate(sub.op, sub.params, tuple(map(id_map.__getitem__, sub.qubits))))
    out.mark_persistent(map(id_map.__getitem__, c.persistent()))
    out.registers = {k: Register(map(id_map.__getitem__, v)) for k, v in c.registers.items()}
    return out


# -- serialization -------------------------------------------------------------------

#: What it encodes is fresh lists, dicts and strings, so the encoder's
#: reference-cycle bookkeeping (one id() entry per container) is skipped.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode

#: op code -> the gate's JSON text, keys in sorted order as the encoder writes them, with
#: its qubit ids left open as ``%d`` and its parameters as ``%%r``, which the ``%`` that
#: fills the ids turns into ``%r``
_GATE_TEXT = tuple(
    '{"op":"%s","params":[%s],"qubits":[%s]}' % (op, ",".join(["%%r"] * npar), ",".join(["%d"] * nq))
    for op, (nq, npar) in GATE_SIGNATURES.items())

#: the JSON text of each kind code
_KIND_TEXT = tuple(map(_encode, _KINDS))


#: lifecycle-table rows, or gates, written per piece of text
_ROWS = 4096


def _layer_text(codes: bytearray, ids: array, values: array) -> Iterator[str]:
    """A layer's JSON text straight from its columns, ``_ROWS`` gates to a piece: the
    piece's joined gate templates take its qubit ids in one ``%``, then its parameters
    (``repr``, as the encoder writes floats) in another."""
    ids, values = iter(ids), iter(values)
    for g in range(0, len(codes), _ROWS):
        template = ",".join(map(_GATE_TEXT.__getitem__, codes[g:g + _ROWS]))
        text = template % tuple(islice(ids, template.count("%d")))
        yield ("," if g else "[") + text % tuple(islice(values, template.count("%%r")))
    yield "]" if codes else "[]"


def _rows_text(template: str, rows: Iterator[tuple]) -> Iterator[str]:
    """A JSON table's rows, ``_ROWS`` to a piece: each piece is one ``%`` over the row
    template repeated, and every piece after the first is led by a comma."""
    lead = ""
    while block := list(islice(rows, _ROWS)):
        yield lead + ",".join([template] * len(block)) % tuple(chain.from_iterable(block))
        lead = ","


def json_chunks(c: Circuit) -> Iterator[str]:
    """Canonical JSON text in pieces: the lifecycle tables a block of rows at a time,
    then each layer a block of gates at a time, the persistent list, and each register.

    The text is ``json.dumps`` of the document, with sorted keys and no
    spaces: ``alloc`` rows ``[qubit, layer, kind]``, ``dealloc`` rows
    ``[qubit, layer]``, ``layers`` of gates ``{"op", "params", "qubits"}``,
    the sorted ``persistent`` ids and the ``registers``.  The tests build
    that document as lists and dicts (``tests/reference.py``) as the
    reference this text must match.  It is byte-identical across
    parse/re-emit round trips.  Rows, gates and registers are written
    directly from text templates, with ``repr`` floats as the JSON encoder
    writes them, so none passes through lists or dicts; that takes a circuit
    whose gates pass :meth:`Circuit.validate` (finite parameters).  No more
    than one piece's text exists at a time.
    """
    c = c.compact()
    dealloc = c._dealloc
    # keys in sorted order: alloc, dealloc, layers, persistent, registers
    yield '{"alloc":['
    yield from _rows_text("[%d,%d,%s]", zip(count(), c._alloc, map(_KIND_TEXT.__getitem__, c._kind)))
    yield '],"dealloc":['
    yield from _rows_text("[%d,%d]", compress(zip(count(), dealloc), map(ne, dealloc, repeat(NEVER))))
    yield '],"layers":['
    for t, columns in enumerate(zip(c._ops, c._qs, c._ps)):
        if t:
            yield ","
        yield from _layer_text(*columns)
    yield '],"persistent":%s,"registers":{' % _encode(sorted(c._persistent))
    for i, name in enumerate(sorted(c.registers)):
        qs = c.registers[name]
        yield "%s%s:[%s]" % ("," if i else "", _encode(name), ",".join(["%d"] * len(qs)) % tuple(qs))
    yield "}}"


def dumps(c: Circuit) -> str:
    """The canonical JSON text of :func:`json_chunks` as one string."""
    return "".join(json_chunks(c))


def _json_list(value, what: str) -> list:
    if type(value) is not list:
        raise MalformedCircuit(f"{what} must be a JSON list")
    return value


#: a parsed gate's fields
_FIELDS = itemgetter("op", "params", "qubits")


def _read_gates(c: Circuit, t: int, gates: list) -> None:
    """Append parsed gates of layer ``t`` to ``c``, packed into columns (:func:`_pack`).

    Every gate must be an object with a string ``op`` and lists of
    ``params`` and ``qubits``; each check is one pass over the gates in C.
    Only a batch that fails to pack while some parameter is not a float is
    packed again with every parameter through :func:`_angle`, which turns
    ints into floats and rejects booleans, strings and null.  The gates'
    other rules are left to :meth:`Circuit._faults`.
    """
    try:
        ops, params, qubits = zip(*map(_FIELDS, gates))
    except (TypeError, KeyError):
        raise MalformedCircuit(f"layer {t}: every gate needs op, params and qubits") from None
    if not (set(map(type, ops)) <= _STR and set(map(type, params)) | set(map(type, qubits)) <= _LIST):
        raise MalformedCircuit(f"layer {t}: a gate needs a string op and lists of params and qubits")
    try:
        columns = _pack(ops, params, qubits, t)
    except CircuitError:
        if set(map(type, chain.from_iterable(params))) <= _FLOAT:
            raise
        columns = _pack(ops, [list(map(_angle, p)) for p in params], qubits, t)
    c._extend(t, *columns)


def _alloc_entry(e) -> tuple[int, int, int]:
    """(id, layer, kind code) of one alloc table entry ``[id, layer, kind]``, or its typed error."""
    if type(e) is not list or len(e) != 3:
        raise MalformedCircuit(f"alloc entry {e!r} is not [id, layer, kind]")
    qid, t, kind = e
    if type(qid) is not int or qid not in _I32:
        raise OperandNotLive(f"alloc id {qid!r} is not an int32 qubit id")
    if kind not in _KINDS:
        raise MalformedCircuit(f"qubit {qid} has unknown kind {kind!r}")
    if type(t) is not int or t not in _INDEX:
        raise OperandNotLive(f"qubit {qid} allocated at {t!r}, not a layer index")
    return qid, t, _KIND_CODE[kind]


def _dealloc_entry(e) -> tuple[int, int]:
    """(id, layer) of one dealloc table entry ``[id, layer]``, or its typed error."""
    if type(e) is not list or len(e) != 2:
        raise MalformedCircuit(f"dealloc entry {e!r} is not [id, layer]")
    qid, t = e
    if type(qid) is not int or qid not in _I32:
        raise OperandNotLive(f"dealloc id {qid!r} is not an int32 qubit id")
    if type(t) is not int:
        raise MalformedCircuit(f"qubit {qid} deallocated at {t!r}")
    if t not in _I32:
        raise OperandNotLive(f"qubit {qid} deallocated at {t}, not a layer index")
    return qid, t


#: table name -> its entry reader and its number of columns: ids, layers (and kind codes)
_TABLES = {"alloc": (_alloc_entry, 3), "dealloc": (_dealloc_entry, 2)}


def _add_rows(columns: list, entry: Callable, rows: list) -> None:
    """Append a block of a lifecycle table's parsed entries to its columns: at once if
    they are lists of the right length with int ids and layers in ``_INDEX`` (and
    kinds "clean" or "dirty"), else entry by entry through ``entry``, which raises the
    first entry's typed error for what the columns cannot hold."""
    starts = list(map(len, columns))
    try:
        if set(map(type, rows)) <= _LIST and set(map(len, rows)) == {len(columns)}:
            ids, layers, *kinds = zip(*rows)
            if set(map(type, ids)) | set(map(type, layers)) <= _INT:
                kinds = [bytes(map(_KIND_CODE.__getitem__, k)) for k in kinds]
                for column, values in zip(columns, [array("i", ids), array("i", layers), *kinds]):
                    column += values
                if all(new.min() >= 0 and new.max() < NEVER  # each view is dropped before any cut
                       for new in (_view(column)[start:] for column, start in zip(columns, starts[:2]))):
                    return
    except (TypeError, KeyError, OverflowError):  # an unhashable or unknown kind, an id past 32 bits
        pass
    for column, start in zip(columns, starts):
        del column[start:]
    for e in rows:
        for column, value in zip(columns, entry(e)):
            column.append(value)


def _read_tables(c: Circuit, alloc_table: list | None, dealloc_table: list | None) -> None:
    """Fill ``c``'s lifecycle tables from the columns of the ``alloc`` and ``dealloc`` tables.

    A table given as anything but a list is passed as None.  The alloc ids
    must be 0..n-1 in some order.  The qubits have no gate yet, and the
    dealloc table is released through :meth:`Circuit.dealloc_many`, each
    qubit at its own layer, with its rules and errors.
    """
    for key, table in ("alloc", alloc_table), ("dealloc", dealloc_table):
        if table is None:
            raise MalformedCircuit(f'"{key}" must be a JSON list')
    (ids, alloc, kinds), (qs, ends) = alloc_table, dealloc_table
    n = len(ids)
    rows, dense = _view(ids), np.arange(n, dtype=np.intc)
    if not (rows == dense).all():
        if not (np.sort(rows) == dense).all():
            raise OperandNotLive("alloc list must cover dense qubit ids")
        alloc_by_id, kinds_by_id = alloc[:], kinds[:]
        _view(alloc_by_id)[rows] = _view(alloc)
        np.frombuffer(kinds_by_id, np.uint8)[rows] = np.frombuffer(kinds, np.uint8)
        alloc, kinds = alloc_by_id, kinds_by_id
    c._kind, c._alloc, c._dealloc, c._last_use = kinds, alloc, array("i", (NEVER,)) * n, _before(alloc)
    c.dealloc_many(qs, ends)


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


#: bytes read from a circuit file at a time
_BLOCK = 1 << 18
#: characters of lifecycle-table text decoded at a time
_CHUNK = 1 << 16


def _text_blocks(fp: BinaryIO) -> Iterator[str]:
    """The bytes of ``fp``, read ``_BLOCK`` at a time, as the text :func:`json_text`
    makes of them: the encoding is detected from the first block."""
    data = fp.read(_BLOCK)
    decode = codecs.getincrementaldecoder(json.detect_encoding(data))("surrogatepass").decode
    while data:
        yield decode(data)
        data = fp.read(_BLOCK)
    yield decode(b"", True)


class _Cursor:
    """A position in JSON text read block by block; values are decoded by the C scanner
    one at a time.

    The cursor holds a window of the text: what it has not yet stepped
    past, and at least what the value at the cursor needs.  A value or key
    that does not decode, or a number that ends at the window's end, reads
    on (at least as much again as the window holds) and is decoded again;
    text the cursor has passed is dropped then.  Whitespace after every
    token is skipped, so the cursor always rests on the next token or the
    end of the input.  Syntax errors are ``JSONDecodeError``s as
    ``json.loads`` raises them, positions counted from the start of the
    input, and nesting deeper than the parser's recursion limit is
    ``MalformedInput``; before either is raised the rest of the input is
    decoded, so undecodable bytes anywhere are a ``UnicodeDecodeError``
    first, as in ``json.loads``.
    """

    def __init__(self, blocks: Iterator[str]):
        self._blocks = blocks
        self.s = ""
        self.i = 0
        self._base = 0          # offset of s[0] in the text
        self._lines = 0         # newlines before s[0]
        self._last_nl = -1      # offset of the last newline before s[0]
        self._skip()

    def _more(self, want: int = 1) -> bool:
        """Drop the text before the cursor and read on, until the window holds ``want``
        characters past the cursor and at least as much new text as it kept; False, and
        nothing changed, at the end of the input."""
        rest = self.s[self.i:]
        parts, need = [rest], max(want - len(rest), len(rest), 1)
        for block in self._blocks:
            parts.append(block)
            need -= len(block)
            if need <= 0:
                break
        text = list(filter(None, parts))
        if len(text) == (1 if rest else 0):
            return False
        if self.s.find("\n", 0, self.i) >= 0:
            self._lines += self.s.count("\n", 0, self.i)
            self._last_nl = self._base + self.s.rfind("\n", 0, self.i)
        self._base += self.i
        self.s, self.i = text[0] if len(text) == 1 else "".join(text), 0
        return True

    def _skip(self) -> None:
        self.i = _skip_ws(self.s, self.i).end()
        while self.i == len(self.s) and self._more():
            self.i = _skip_ws(self.s, self.i).end()

    def _error(self, msg: str, pos: int) -> json.JSONDecodeError:
        """The ``JSONDecodeError`` for window position ``pos``, placed in the whole text,
        once the rest of the input has been decoded."""
        _consume(self._blocks)
        e = json.JSONDecodeError(msg, self.s, pos)
        nl = self.s.rfind("\n", 0, pos)
        e.pos = self._base + pos
        e.lineno = self._lines + self.s.count("\n", 0, pos) + 1
        e.colno = e.pos - (self._base + nl if nl >= 0 else self._last_nl)
        e.args = ("%s: line %d column %d (char %d)" % (msg, e.lineno, e.colno, e.pos),)
        return e

    def peek(self) -> str:
        return self.s[self.i:self.i + 1]

    def value(self):
        """Decode the value at the cursor and step past it."""
        while True:
            try:
                obj, end = _decode_value(self.s, self.i)
            except json.JSONDecodeError as e:
                if self._more():
                    continue
                raise self._error(e.msg, e.pos) from None
            except RecursionError:
                _consume(self._blocks)
                raise MalformedInput("input JSON is nested too deeply") from None
            if end == len(self.s) and self._more():  # a number may go on in the next block
                continue
            self.i = end
            self._skip()
            return obj

    def _step(self, token: str, expected: str) -> None:
        if self.peek() != token:
            raise self._error(f"Expecting {expected}", self.i)
        self.i += 1
        self._skip()

    def members(self, opening: str, closing: str) -> Iterator[None]:
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
        for _ in self.members("{", "}"):
            if self.peek() != '"':
                raise self._error("Expecting property name enclosed in double quotes", self.i)
            while True:
                try:
                    key, end = json.decoder.scanstring(self.s, self.i + 1)
                    break
                except json.JSONDecodeError as e:
                    if not self._more():
                        raise self._error(e.msg, e.pos) from None
            self.i = end
            self._skip()
            self._step(":", "':' delimiter")
            yield key

    def end(self) -> None:
        """Check that the input ends at the cursor, and drop the window."""
        if self.i != len(self.s):
            raise self._error("Extra data", self.i)
        self.s = ""

    def chunks(self, close: str) -> Iterator[list]:
        """Yield the elements of the array at the cursor, each a list or an object that
        ends in ``close``, in lists: as many at a time as one decode of up to ``_CHUNK``
        characters takes.

        A chunk ends at the last ``close`` + ``,`` in reach, and ``[`` +
        chunk + ``]`` decodes as a list of whole elements only if that
        ``close`` ends an element (a cut inside a string or a nested
        container does not decode); its decode may also end early, at the
        array's own ``]``.  Where no chunk decodes, one element is decoded on
        its own, and chunks are tried again past the failed cut.
        """
        retry = 0   # offset in the text where chunks are tried again
        for _ in self.members("[", "]"):
            while True:
                if len(self.s) - self.i < _CHUNK:
                    self._more(_CHUNK)
                cut = self.s.rfind(close + ",", self.i, self.i + _CHUNK) + 1
                if cut > self.i and self._base + self.i >= retry:
                    try:
                        rows, end = _decode_value("[%s]" % self.s[self.i:cut])
                    except (json.JSONDecodeError, RecursionError):
                        rows, retry = None, self._base + cut
                    if rows:  # not "[]": an empty chunk is a trailing comma, which value() reports
                        # on the comma after the last element, or on the array's ']'
                        self.i += end - 2
                        yield rows
                        if self.peek() != ",":
                            break
                        self._step(",", "',' delimiter")
                        continue
                yield [self.value()]
                break


def loads(source: str | bytes | BinaryIO) -> Circuit:
    """Parse and check circuit JSON from text, bytes, or a binary file read in blocks.

    Accepts what ``json.loads`` accepts (whitespace anywhere, bytes in any
    encoding ``json.detect_encoding`` names) and rejects what it rejects,
    except that a repeated top-level key is ``MalformedCircuit``.  The
    circuit it returns is valid: it has no fault of :meth:`Circuit._faults`.

    A file (anything with ``read``) is read ``_BLOCK`` bytes at a time and
    decoded as it is read (:func:`_text_blocks`), so neither its bytes nor
    its text are ever held whole; text and bytes are read from one block.
    The top-level object is walked key by key, in any order.  The gates of
    each layer and the entries of the ``alloc`` and ``dealloc`` tables are
    decoded a chunk at a time (:meth:`_Cursor.chunks`), packed into the
    circuit's columns (:func:`_read_gates`, :func:`_add_rows`) and dropped
    before the next chunk is decoded.  The two tables are checked against
    each other as soon as both are read, as they are before ``layers`` in
    canonical documents (whose keys come sorted).  The first
    ``CircuitError`` is held until the whole text has been scanned, so a
    syntax error anywhere comes first, as in ``json.loads``.  The reader
    checks only the JSON shapes and types, what the columns cannot hold and
    that the alloc ids are dense; then it sets the persistent set and the
    registers, and the circuit's walk raises its first fault.
    """
    doc = _Cursor(_text_blocks(source) if hasattr(source, "read") else iter([json_text(source)]))
    if doc.peek() != "{":
        # decoded only so that text json.loads rejects fails as it did there
        doc.value()
        doc.end()
        raise MalformedCircuit("circuit JSON must be an object")
    c = Circuit()
    seen: set[str] = set()
    values: dict = {}
    tables: dict = {}
    faults: list[CircuitError] = []

    def hold(read, *args):
        """``read(*args)`` with its CircuitError held; nothing is read once one is."""
        if not faults:
            try:
                read(*args)
            except CircuitError as e:
                faults.append(e)

    def each_chunk(close: str, read, *args) -> None:
        """``hold(read, *args, chunk)`` for each chunk of the array at the cursor
        (:meth:`_Cursor.chunks`); the last chunk is dropped on return."""
        for chunk in doc.chunks(close):
            hold(read, *args, chunk)

    for key in doc.keys():
        if key in seen:
            faults.append(MalformedCircuit(f"circuit JSON repeats the key {key!r}"))
        seen.add(key)
        if key == "layers" and doc.peek() == "[":
            for _ in doc.members("[", "]"):
                t = c.num_layers()
                c._grow(t)
                if doc.peek() == "[":
                    each_chunk("}", _read_gates, c, t)
                else:
                    hold(_json_list, doc.value(), f"layer {t}")
        elif key in _TABLES:
            tables[key] = None
            if doc.peek() == "[":
                entry, width = _TABLES[key]
                tables[key] = columns = [array("i"), array("i"), bytearray()][:width]
                each_chunk("]", _add_rows, columns, entry)
            else:
                doc.value()
            if len(tables) == 2:
                hold(_read_tables, c, tables.pop("alloc"), tables.pop("dealloc"))
        else:
            values[key] = doc.value()
    doc.end()
    if faults:
        raise faults[0]
    if not {"alloc", "dealloc"} <= seen:
        raise MalformedCircuit('circuit JSON needs "alloc" and "dealloc" lists')
    if "layers" not in seen or "layers" in values:
        raise MalformedCircuit('"layers" must be a JSON list')
    registers = values.get("registers", {})
    if type(registers) is not dict:
        raise MalformedCircuit('"registers" must be a JSON object')
    c.mark_persistent(_json_list(values.get("persistent", []), '"persistent"'))
    for name, ids in registers.items():
        c.add_register(name, _json_list(ids, f"register {name}"))
    for error, message in c._faults(_view(c._last_use)):
        raise error(message)
    return c


def to_text(c: Circuit) -> str:
    """Gate-per-line dump for human inspection (the JSON form is canonical)."""
    c = c.compact()
    lines = []
    for t in range(c.num_layers()):
        for g in c.gates(t):
            args = ", ".join(f"q{q}" for q in g.qubits)
            if g.params:
                lines.append(f"{g.op}({', '.join(f'{p:.12g}' for p in g.params)}) {args}")
            else:
                lines.append(f"{g.op} {args}")
        lines.append(f"# --- end layer {t}")
    return "\n".join(lines) + "\n"
