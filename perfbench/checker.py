"""Independent checks of qsprep outputs; imports nothing from qsprep.

Every count here is recomputed from the emitted JSON with the standard
library alone, so a defect in qsprep's own accounting cannot hide itself.
"""

from __future__ import annotations

import math

#: op name -> (qubits, parameters); restated from the circuit JSON format.
ARITY = {
    "x": (1, 0), "h": (1, 0), "s": (1, 0), "sdg": (1, 0), "t": (1, 0), "tdg": (1, 0),
    "ry": (1, 1), "rz": (1, 1), "phase": (1, 1),
    "cnot": (2, 0), "swap": (2, 0), "cswap": (3, 0), "toffoli": (3, 0),
    "cry": (2, 1), "crz": (2, 1), "ccry": (3, 1), "ccrz": (3, 1),
}
ROTATIONS = frozenset({"ry", "rz", "phase", "cry", "crz", "ccry", "ccrz"})

FIDELITY_MIN = 1.0 - 1e-9
RESIDUAL_MAX = 1e-10


class CheckFailed(Exception):
    """An output broke an invariant or disagreed with an independent count."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def circuit_counts(doc: dict) -> dict:
    """Recount a circuit JSON document and check its structural invariants.

    Checks that every gate is well formed, that no qubit appears twice in a
    layer or outside its lifetime [alloc, dealloc), that a qubit never
    released is persistent, and that the spacetime allocation summed over
    qubit lifetimes equals the sum of live qubits over layers.
    """
    layers = doc["layers"]
    L = len(layers)
    allocs = sorted(doc["alloc"])
    ids = [e[0] for e in allocs]
    require(ids == list(range(len(ids))), "alloc list does not cover dense qubit ids")
    persistent = set(doc["persistent"])
    start = [t for _, t, _ in allocs]
    kind = [k for _, _, k in allocs]
    require(set(kind) <= {"clean", "dirty"}, f"unknown qubit kinds {set(kind)}")
    end = [None] * len(ids)
    for qid, t in doc["dealloc"]:
        require(end[qid] is None, f"qubit {qid} deallocated twice")
        end[qid] = t
    for qid, e in enumerate(end):
        if e is None:
            require(qid in persistent, f"qubit {qid} never deallocated and not persistent")
            end[qid] = L
        require(0 <= start[qid] <= end[qid] <= L, f"qubit {qid} lifetime outside [0, {L}]")

    gates = rotation_layers = 0
    for t, layer in enumerate(layers):
        require(bool(layer), f"layer {t} is empty in canonical JSON")
        seen = set()
        rotation = False
        for g in layer:
            nq, npar = ARITY[g["op"]]
            qs = g["qubits"]
            require(len(qs) == nq and len(g["params"]) == npar, f"layer {t}: malformed {g['op']}")
            require(all(math.isfinite(p) for p in g["params"]), f"layer {t}: non-finite parameter")
            for q in qs:
                require(q not in seen, f"layer {t}: qubit {q} in two gates")
                seen.add(q)
                require(start[q] <= t < end[q], f"layer {t}: qubit {q} outside its lifetime")
            rotation = rotation or g["op"] in ROTATIONS
        gates += len(layer)
        rotation_layers += rotation

    delta = [0] * (L + 1)
    anc_delta = [0] * (L + 1)
    sa_qubits = clean_sa = dirty_sa = 0
    for qid in ids:
        span = end[qid] - start[qid]
        sa_qubits += span
        if kind[qid] == "dirty":
            dirty_sa += span
        else:
            clean_sa += span
        delta[start[qid]] += 1
        delta[end[qid]] -= 1
        if qid not in persistent:
            anc_delta[start[qid]] += 1
            anc_delta[end[qid]] -= 1
    live, anc, cur, cur_anc = [], [], 0, 0
    for t in range(L):
        cur += delta[t]
        cur_anc += anc_delta[t]
        live.append(cur)
        anc.append(cur_anc)
    require(sa_qubits == sum(live), f"SA double count: {sa_qubits} by qubit != {sum(live)} by layer")
    return {
        "depth": L,
        "gates": gates,
        "sa": sa_qubits,
        "clean_sa": clean_sa,
        "dirty_sa": dirty_sa,
        "width": max(live, default=0),
        "peak_ancillae": max(anc, default=0),
        "rotation_layers": rotation_layers,
        "live": live,
        "dirty_qubits": {qid for qid in ids if kind[qid] == "dirty"},
        "deallocs": len(doc["dealloc"]),
        "registers": {name: len(qs) for name, qs in doc["registers"].items()},
    }


def report_matches(report: dict, counts: dict) -> None:
    """A ResourceReport (as JSON) must agree with the independent counts."""
    pairs = [("depth", "depth"), ("size", "gates"), ("sa_exact", "sa"), ("qubit_count", "width"),
             ("clean_sa", "clean_sa"), ("dirty_sa", "dirty_sa"),
             ("rotation_layers", "rotation_layers")]
    for theirs, ours in pairs:
        require(report[theirs] == counts[ours],
                f"report {theirs}={report[theirs]} but recount gives {counts[ours]}")


def simulation_ok(report: dict, counts: dict) -> None:
    """Fidelity, per-ancilla residuals and dirty restoration of a simulate report."""
    require(report["fidelity"] is not None and report["fidelity"] >= FIDELITY_MIN,
            f"fidelity {report['fidelity']} below {FIDELITY_MIN}")
    verdicts = report["ancilla_verdicts"]
    require(len(verdicts) == counts["deallocs"],
            f"{len(verdicts)} ancilla verdicts for {counts['deallocs']} deallocations")
    worst = max((mass for _, _, mass in verdicts), default=0.0)
    require(worst <= RESIDUAL_MAX, f"ancilla residual {worst} above {RESIDUAL_MAX}")
    restored = {qid for qid, ok in report["dirty_restoration"] if ok}
    released_dirty = {qid for qid, _, _ in verdicts if qid in counts["dirty_qubits"]}
    require(restored == released_dirty, "a dirty qubit was not restored")
    require(report["peak_live_qubits"] <= counts["width"], "simulator saw more live qubits than allocated")


def profile_ok(csv_text: str, counts: dict) -> None:
    """The per-layer CSV of `qsprep profile` must match the recounted live profile."""
    lines = csv_text.strip().split("\n")
    require(lines[0] == "layer,live,clean,dirty", "unexpected profile CSV header")
    rows = [[int(x) for x in line.split(",")] for line in lines[1:]]
    require([r[0] for r in rows] == list(range(len(counts["live"]))), "profile CSV layer column")
    for t, live, clean, dirty in rows:
        require(live == clean + dirty == counts["live"][t], f"profile CSV row {t} disagrees")
