"""Run one qsprep CLI command in-process with spans around each layer's calls.

Usage: python3 perfbench/traced.py <qsprep arguments...>

The command itself is qsprep's own ``cli.main``; this script only wraps the
public functions it reaches (module attributes and ``Circuit`` methods) in
timing spans before calling it.  On exit it prints one JSON object as its
last line of standard output: per-span self time, layer counters, the
process's peak-RSS high-water mark after each layer's calls, and the wall
time not covered by any top-level span.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans: self time per name, top-level coverage, counters."""

    def __init__(self):
        self.stack: list[list] = []          # [name, time spent in child spans]
        self.self_s: dict[str, float] = {}
        self.top_level_s = 0.0
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.peaks[key] = max(self.peaks.get(key, value), value)

    def record(self, name: str, t0: float, t1: float, child_s: float) -> None:
        self.self_s[name] = self.self_s.get(name, 0.0) + (t1 - t0 - child_s)
        if self.stack:
            self.stack[-1][1] += t1 - t0
        else:
            self.top_level_s += t1 - t0
        self.peak(name.split(".")[0] + ".rss_hwm_mb", _rss_mb())

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.record(name, t0, t1, frame[1])
            if on_result is not None:
                on_result(result)
            return result
        return traced


def _replace_everywhere(modules, orig, new) -> None:
    """Rebind every module-level name that refers to ``orig``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def install(tr: Tracer):
    from qsprep import amplitudes, circuit_ir, cli, multicopy, protocols, sim, subroutines

    modules = (amplitudes, circuit_ir, cli, multicopy, protocols, sim, subroutines)

    def emitted(c):
        tr.add("protocols.gates", c.size())
        tr.add("protocols.qubits", len(c.qubits()))
        tr.add("protocols.layers", c.num_layers())

    def simulated(result):
        report, _ = result
        tr.peak("sim.peak_live_qubits", report.peak_live_qubits)
        tr.add("sim.dealloc_checks", len(report.ancilla_verdicts))

    first_k = []

    def stacked(result):
        tr.peak("multicopy.peak_ancillae", result.peak_ancillae)
        tr.peak("multicopy.physical_qubits", result.physical_qubits)
        if first_k:
            tr.add("multicopy.candidates_tried", result.indentation - first_k.pop() + 1)

    functions = [
        (amplitudes.target_from_json, "amplitudes.parse", None),
        (amplitudes.partition_norms, "amplitudes.angles", None),
        (amplitudes.csp_angles, "amplitudes.angles", None),
        (protocols.injection_angles, "amplitudes.angles", None),
        (protocols.injection_csp_angles, "amplitudes.angles", None),
        (protocols.spcsp, "protocols.emit", emitted),
        (circuit_ir.spacetime_allocation, "circuit_ir.account", None),
        (circuit_ir.dumps, "circuit_ir.dumps", lambda s: tr.add("circuit_ir.json_bytes", len(s))),
        (circuit_ir.loads, "circuit_ir.loads", None),
        (sim.run, "sim.run", simulated),
        (multicopy.min_indentation, "multicopy.min_indentation", first_k.append),
        (multicopy.stack, "multicopy.stack", stacked),
    ]
    for fn, name, on_result in functions:
        _replace_everywhere(modules, fn, tr.wrap(name, fn, on_result))
    Circuit = circuit_ir.Circuit
    Circuit.validate = tr.wrap("circuit_ir.validate", Circuit.validate)
    Circuit.compact = tr.wrap("circuit_ir.compact", Circuit.compact)
    Circuit.live_profile = tr.wrap("circuit_ir.live_profile", Circuit.live_profile)

    apply = sim.SimState.apply

    def counted_apply(self, g):
        tr.add("sim.gates_applied", 1)
        return apply(self, g)

    sim.SimState.apply = counted_apply


def main(argv: list[str]) -> int:
    tr = Tracer()
    cli = tr.wrap("cli.import", lambda: __import__("qsprep.cli").cli)()
    install(tr)
    rc = cli.main(argv)
    wall = time.perf_counter() - T_START
    print(json.dumps({
        "wall_s": wall,
        "unattributed_s": wall - tr.top_level_s,
        "self_s": tr.self_s,
        "counts": tr.counts,
        "peaks": tr.peaks,
    }, sort_keys=True))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
