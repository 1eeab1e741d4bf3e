"""End-to-end and per-layer benchmark of the qsprep CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload synth-profile-n14 --seed 1 --seconds 35 --trace 0

One client drives the CLI in a closed loop: each command starts only after
the previous one has exited, one process at a time.  Inputs are dense
uniform-random amplitude vectors drawn from ``--seed``; qsprep sees only
the generated JSON files.  Every output is checked by ``checker.py``, which
does not import qsprep.

``--trace 0`` times the CLI as subprocesses and reports the end-to-end
metrics.  ``--trace 1`` alternates the same CLI sequence untraced and
traced (fresh processes running ``traced.py``); it reports the per-layer
metrics and the tracing overhead, traced minus untraced wall time.
Values are medians over the iterations of a run.

The last line of standard output is the result object; the line before it
records the run's context (machine, versions, seed, input/output hashes).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import checker
from checker import CheckFailed, require

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"
WORK = ROOT / ".perfbench-work"

#: CPU seconds after which a child is killed, so a run always ends.
CHILD_CPU_LIMIT_S = 150
#: Set-up repeats up to this many times, but stops once it has used SETUP_BUDGET_S.
SETUP_REPEATS = 3
SETUP_BUDGET_S = 5.0
#: Reference size for the constant-rotation-layer check of the paper layout.
REF_N = 6

END_TO_END = ["wall_s", "peak_rss_mb", "setup_s", "out.depth", "out.gates", "out.sa", "out.width"]
UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "out.depth": "layers",
         "out.gates": "count", "out.sa": "qubit-layers", "out.width": "qubits"}

#: per-layer metric -> (unit, how one traced iteration combines its processes)
PER_LAYER = {
    "amplitudes.parse_s": ("s", sum), "amplitudes.angles_s": ("s", sum),
    "protocols.emit_s": ("s", sum), "protocols.gates": ("count", sum),
    "protocols.qubits": ("count", sum), "protocols.layers": ("count", sum),
    "circuit_ir.validate_s": ("s", sum), "circuit_ir.account_s": ("s", sum),
    "circuit_ir.dumps_s": ("s", sum), "circuit_ir.json_bytes": ("B", sum),
    "circuit_ir.loads_s": ("s", sum), "circuit_ir.compact_s": ("s", sum),
    "circuit_ir.live_profile_s": ("s", sum),
    "sim.run_s": ("s", sum), "sim.peak_live_qubits": ("count", max),
    "sim.state_mb": ("MiB-computed", max), "sim.gates_applied": ("count", sum),
    "sim.dealloc_checks": ("count", sum),
    "multicopy.stack_s": ("s", sum), "multicopy.min_indentation_s": ("s", sum),
    "multicopy.candidates_tried": ("count", sum), "multicopy.peak_ancillae": ("count", max),
    "multicopy.physical_qubits": ("count", max),
    "cli.import_s": ("s", sum), "unattributed_s": ("s", sum), "trace.overhead_s": ("s", sum),
    **{f"{layer}.rss_hwm_mb": ("MB", max)
       for layer in ("cli", "amplitudes", "protocols", "circuit_ir", "sim", "multicopy")},
}


# -- inputs --------------------------------------------------------------------------

def real_amplitudes(rng: random.Random, n: int) -> dict:
    """Dense real target: every entry uniform in [0.05, 1), none zero."""
    return {"amplitudes": [rng.uniform(0.05, 1.0) for _ in range(1 << n)]}


def complex_amplitudes(rng: random.Random, n: int) -> dict:
    """Dense complex target: magnitude uniform in [0.05, 1), phase uniform."""
    out = []
    for _ in range(1 << n):
        r, phi = rng.uniform(0.05, 1.0), rng.uniform(0.0, 2 * math.pi)
        out.append([r * math.cos(phi), r * math.sin(phi)])
    return {"amplitudes": out}


# -- workloads -----------------------------------------------------------------------

def synth_args(name: str, extra: tuple = ()) -> list[str]:
    return ["synth", "--in", f"{name}.json", *extra,
            "--out", f"{name}.circuit.json", "--report", f"{name}.report.json"]


class SynthProfile:
    """`qsprep synth` of one real target (default split, paper layout), then
    `qsprep profile` of the circuit JSON it wrote."""

    def __init__(self, n: int):
        self.n = n

    def inputs(self, rng):
        return {"target.json": real_amplitudes(rng, self.n), "ref.json": real_amplitudes(rng, REF_N)}

    def prebuild(self):
        return [synth_args("ref")]

    def steps(self):
        return [synth_args("target"),
                ["profile", "--in", "target.circuit.json", "--out", "profile.csv",
                 "--report", "profile.report.json"]]

    def check(self, run):
        counts = run.circuit("target")
        checker.report_matches(run.json("target.report.json")["report"], counts)
        ref = run.circuit("ref")
        require(counts["rotation_layers"] == ref["rotation_layers"],
                f"rotation layers {counts['rotation_layers']} at n={self.n} "
                f"but {ref['rotation_layers']} at n={REF_N}")
        checker.report_matches(run.json("profile.report.json")["report"], counts)
        checker.profile_ok((run.dir / "profile.csv").read_text(), counts)
        return counts


def combined(totals: list[dict]) -> dict:
    """Cost of circuits run one after another: depth, gates and SA add; width is the largest."""
    out = {key: sum(t[key] for t in totals) for key in ("depth", "gates", "sa")}
    out["width"] = max(t["width"] for t in totals)
    return out


class Verify:
    """`qsprep synth` then `qsprep simulate --target` for each (name, n, m, complex, flags)."""

    def __init__(self, cases):
        self.cases = cases

    def inputs(self, rng):
        return {f"{name}.json": (complex_amplitudes if cplx else real_amplitudes)(rng, n)
                for name, n, _, cplx, _ in self.cases}

    def prebuild(self):
        return []

    def steps(self):
        out = []
        for name, _, m, _, flags in self.cases:
            out.append(synth_args(name, ("--m", str(m), *flags)))
            out.append(["simulate", "--in", f"{name}.circuit.json", "--target", f"{name}.json",
                        "--report", f"{name}.sim.json"])
        return out

    def check(self, run):
        totals = []
        for name, *_ in self.cases:
            counts = run.circuit(name)
            checker.report_matches(run.json(f"{name}.report.json")["report"], counts)
            checker.simulation_ok(run.json(f"{name}.sim.json")["report"], counts)
            totals.append(counts)
        return combined(totals)


class Multicopy:
    """`qsprep multicopy` of w targets of size n under the default pool (8 * 2**n)."""

    def __init__(self, n: int, w: int):
        self.n, self.w = n, w

    def inputs(self, rng):
        return {"targets.json": {"targets": [real_amplitudes(rng, self.n)["amplitudes"]
                                             for _ in range(self.w)]}}

    def prebuild(self):
        return []

    def steps(self):
        return [["multicopy", "--in", "targets.json", "--out", "batch.circuit.json",
                 "--report", "batch.report.json"]]

    def check(self, run):
        counts = run.circuit("batch")
        doc = run.json("batch.report.json")
        checker.report_matches(doc["report"], counts)
        require(doc["peak_ancillae"] == counts["peak_ancillae"] <= 8 << self.n,
                f"peak ancillae {doc['peak_ancillae']} (recount {counts['peak_ancillae']})")
        require(doc["physical_qubits"] == counts["width"],
                f"{doc['physical_qubits']} physical qubits for width {counts['width']}")
        require(all(counts["registers"].get(f"D{d}") == self.n for d in range(self.w)),
                "a copy's data register is missing or mis-sized")
        return counts


class Chain:
    """Several workloads' CLI sequences run back to back in one iteration."""

    def __init__(self, *parts):
        self.parts = parts

    def inputs(self, rng):
        return {name: doc for part in self.parts for name, doc in part.inputs(rng).items()}

    def prebuild(self):
        return [args for part in self.parts for args in part.prebuild()]

    def steps(self):
        return [args for part in self.parts for args in part.steps()]

    def check(self, run):
        return combined([part.check(run) for part in self.parts])


WORKLOADS = {
    "synth-profile-n14": SynthProfile(14),
    "verify-multicopy": Chain(Verify([("n3", 3, 1, True, ("--dirty-b1",)),
                                      ("n5", 5, 3, False, ("--no-fanout",))]),
                              Multicopy(9, 16)),
}

#: the same workloads at sizes small enough for the harness self-test
TINY_WORKLOADS = {
    "synth-profile-n14": SynthProfile(4),
    "verify-multicopy": Chain(Verify([("n3", 3, 1, False, ("--no-fanout",))]), Multicopy(4, 2)),
}


# -- running -------------------------------------------------------------------------

def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


class Run:
    """One benchmark run of one workload in its own scratch directory."""

    def __init__(self, workload, directory: Path, seed: int):
        self.workload = workload
        self.dir = directory
        self.seed = seed
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.attempted = 0
        self.failed = 0
        self.input_hashes: dict[str, str] = {}
        self.output_hashes: dict[str, str] = {}
        self._verified: dict[tuple, dict] = {}

    # outputs, read back for checking

    def json(self, name: str):
        return json.loads((self.dir / name).read_text())

    def circuit(self, stem: str) -> dict:
        """Independent counts of ``<stem>.circuit.json``."""
        return checker.circuit_counts(self.json(f"{stem}.circuit.json"))

    # processes

    def spawn(self, argv: list[str], log: str) -> tuple[int, float, float]:
        """Run one child to completion: (exit code, wall seconds, its own peak RSS in MB)."""
        with open(self.dir / f"{log}.out", "wb") as out, open(self.dir / f"{log}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.dir, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, preexec_fn=_limit_cpu)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def cli(self, args: list[str], traced: bool = False):
        prefix = [sys.executable, str(TRACED)] if traced else [sys.executable, "-m", "qsprep.cli"]
        rc, wall, rss = self.spawn(prefix + args, "step")
        if rc != 0:
            err = (self.dir / "step.err").read_text()[-2000:]
            sys.stderr.write(f"qsprep {' '.join(args)} exited {rc}: {err}\n")
        return rc, wall, rss

    # phases

    def setup_once(self) -> float:
        t0 = time.perf_counter()
        inputs = self.workload.inputs(random.Random(self.seed))
        for name, doc in inputs.items():
            (self.dir / name).write_text(json.dumps(doc))
        for args in [["--version"], *self.workload.prebuild()]:
            rc, _, _ = self.cli(args)
            if rc != 0:
                raise SystemExit(f"set-up step failed: qsprep {' '.join(args)}")
        elapsed = time.perf_counter() - t0
        self.input_hashes = {name: sha256(self.dir / name) for name in inputs}
        return elapsed

    def setup(self) -> float:
        times = [self.setup_once()]
        while len(times) < SETUP_REPEATS and sum(times) < SETUP_BUDGET_S:
            times.append(self.setup_once())
        return statistics.median(times)

    def iteration(self, traced: bool) -> dict | None:
        """One pass over the workload's CLI sequence; None if any step failed."""
        steps = self.workload.steps()
        walls, rss, traces = [], [], []
        for i, args in enumerate(steps):
            self.attempted += 1
            rc, wall, peak = self.cli(args, traced)
            if rc != 0:
                self.failed += len(steps) - i
                self.attempted += len(steps) - i - 1
                return None
            walls.append(wall)
            rss.append(peak)
            if traced:
                last = (self.dir / "step.out").read_text().strip().split("\n")[-1]
                traces.append(json.loads(last))
        try:
            out = self.verify_outputs()
        except (CheckFailed, KeyError, TypeError, ValueError, OSError) as e:
            sys.stderr.write(f"output check failed: {type(e).__name__}: {e}\n")
            self.failed += len(steps)
            return None
        return {"wall_s": sum(walls), "peak_rss_mb": max(rss), "out": out, "traces": traces}

    def verify_outputs(self) -> dict:
        """Check this iteration's outputs; identical bytes are checked once.

        Every iteration of a run sees the same inputs, so any output that
        differs from the first iteration's breaks the byte-identity promise.
        """
        hashes = []
        for path in sorted(self.dir.iterdir()):
            if path.name in self.input_hashes or path.suffix not in (".json", ".csv"):
                continue
            digest = sha256(path)
            first = self.output_hashes.setdefault(path.name, digest)
            require(first == digest, f"{path.name} differs between identical runs")
            hashes.append((path.name, digest))
        key = tuple(hashes)
        if key not in self._verified:
            self._verified[key] = self.workload.check(self)
        return self._verified[key]


# -- metrics -------------------------------------------------------------------------

def per_layer(traces: list[dict]) -> dict:
    """Combine the traced processes of one iteration into per-layer values."""
    values = {}
    for name, (_, combine) in PER_LAYER.items():
        if name == "unattributed_s":
            parts = [t["unattributed_s"] for t in traces]
        elif name.endswith("_s"):
            parts = [t["self_s"].get(name[:-2], 0.0) for t in traces]
        else:
            parts = [t["counts"].get(name, t["peaks"].get(name, 0)) for t in traces]
        values[name] = combine(parts)
    peak = values["sim.peak_live_qubits"]
    values["sim.state_mb"] = 16 * 2.0 ** peak / 2**20 if peak else 0.0
    return values


def measure(run: Run, seconds: float, trace: bool) -> dict:
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        it = run.iteration(traced=False)
        if it is not None:
            plain.append(it)
        if trace:
            it = run.iteration(traced=True)
            if it is not None:
                traced.append(it)
        if time.perf_counter() - t0 >= seconds:
            break
    if not plain or (trace and not traced):
        raise SystemExit(f"no iteration succeeded: {run.failed} of {run.attempted} operations failed")
    med = statistics.median
    if not trace:
        out = plain[0]["out"]
        values = {"wall_s": med(i["wall_s"] for i in plain),
                  "peak_rss_mb": med(i["peak_rss_mb"] for i in plain),
                  "out.depth": out["depth"], "out.gates": out["gates"],
                  "out.sa": out["sa"], "out.width": out["width"]}
        samples = {"wall_s": [i["wall_s"] for i in plain],
                   "peak_rss_mb": [i["peak_rss_mb"] for i in plain]}
        return {"values": values, "samples": samples}
    layers = [per_layer(i["traces"]) for i in traced]
    values = {name: med(layer[name] for layer in layers) for name in PER_LAYER}
    values["trace.overhead_s"] = med(i["wall_s"] for i in traced) - med(i["wall_s"] for i in plain)
    samples = {"traced_wall_s": [i["wall_s"] for i in traced],
               "untraced_wall_s": [i["wall_s"] for i in plain]}
    return {"values": values, "samples": samples}


# -- context -------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def context(args, run: Run, measured: dict, setup_s: float) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "src_sha256": source_digest(),
        "cpu_model": cpu_model(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "setup_s": setup_s, "samples": measured["samples"],
        "inputs_sha256": run.input_hashes, "outputs_sha256": run.output_hashes,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def bench(args, workloads=WORKLOADS) -> dict:
    """Set up, measure and check one workload; returns context and result."""
    if not (SRC / "qsprep" / "cli.py").is_file():
        raise SystemExit(f"qsprep sources not found under {SRC}")
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        run = Run(workloads[args.workload], Path(tmp), args.seed)
        setup_s = run.setup()
        measured = measure(run, args.seconds, bool(args.trace))
        names = PER_LAYER if args.trace else END_TO_END
        units = {k: u for k, (u, _) in PER_LAYER.items()} if args.trace else UNITS
        values = {**measured["values"], "setup_s": setup_s}
        result = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in names},
        }
        return {"context": context(args, run, measured, setup_s), "result": result}


def main(argv=None) -> int:
    out = bench(parse_args(argv))
    print(json.dumps({"context": out["context"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
