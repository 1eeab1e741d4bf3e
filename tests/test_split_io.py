"""Circuit files read and written on two cores (``circuit_ir._forked``), run as CLI
subprocesses: pytest's own process carries an unpinned OpenBLAS thread, so it never
splits.  Each run goes through a driver that counts the forks and the adopted child
reads, and checks that no child process outlives the command."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsprep
from qsprep import circuit_ir as cir

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "memfd_create") and len(os.sched_getaffinity(0)) > 1),
    reason="the split needs os.fork, os.memfd_create and two CPUs")

#: flags, then ``--`` and the CLI's arguments; prints one JSON status line
DRIVER = r"""
import json, os, sys, threading
cut = sys.argv.index("--")
flags, argv = sys.argv[1:cut], sys.argv[cut + 1:]
if "one-cpu" in flags:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
if "thread" in flags:
    stop = threading.Event()
    threading.Thread(target=stop.wait).start()
forks, adopted = [], []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
from qsprep import circuit_ir as cir
from qsprep.cli import main
adopt = cir._adopt
cir._adopt = lambda *args: adopted.append(1) or adopt(*args)
if "whole" in flags:
    loads = cir.loads
    cir.loads = lambda fp: loads(fp.read(-1).decode("utf-8"))
for flag in flags:
    if flag.startswith("raise="):
        where, error = flag[len("raise="):].split(":")
        def planted(*args, error={"KeyboardInterrupt": KeyboardInterrupt, "RuntimeError": RuntimeError}[error]):
            raise error("planted")
        setattr(cir, where, planted)
try:
    code = main(argv)
except KeyboardInterrupt:
    code = "KeyboardInterrupt"
if "thread" in flags:
    stop.set()
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"code": code, "forks": len(forks), "adopted": len(adopted), "left": left}))
"""

#: OpenBLAS pinned before the driver loads numpy, as ``cli.main`` pins it before a command does
ENV = {"PYTHONPATH": str(Path(qsprep.__file__).parents[1]), "PATH": "", "OPENBLAS_NUM_THREADS": "1"}


def drive(cwd, *argv, flags=(), python=()) -> tuple[dict, str]:
    """Run the CLI with ``argv`` in ``cwd`` through the driver: (its status, its stderr).
    No child process may remain."""
    out = subprocess.run([sys.executable, *python, "-c", DRIVER, *flags, "--", *argv],
                         cwd=cwd, env=ENV, capture_output=True, text=True)
    status = json.loads(out.stdout.splitlines()[-1])
    assert status["left"] is False, out.stderr
    return status, out.stderr


def real_target(n: int, seed: int) -> dict:
    return {"amplitudes": np.random.default_rng(seed).uniform(0.05, 1.0, 1 << n).tolist()}


def complex_target(n: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"amplitudes": rng.standard_normal((1 << n, 2)).tolist()}


#: name -> (input document, CLI arguments up to ``--out``)
WRITES = {
    "r12": (real_target(12, 1), ["synth"]),
    "c12": (complex_target(12, 2), ["synth", "--complex"]),
    "r14": (real_target(14, 3), ["synth"]),
    "c14": (complex_target(14, 4), ["synth", "--complex"]),
    "b12": ({"amplitudes": [0.0] * 4095 + [1.0]}, ["synth", "--m", "8"]),
    "r10": (real_target(10, 5), ["synth"]),
    "mc16x9": ({"targets": [real_target(9, 6 + i)["amplitudes"] for i in range(16)]}, ["multicopy"]),
}


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """name -> the directory holding ``c.json``, the circuit the command wrote on two
    cores, after checking it and the report against the one-CPU run's, byte for byte."""
    dirs = {}
    for name, (doc, args) in WRITES.items():
        runs = []
        for flags in ((), ("one-cpu",)):
            d = tmp_path_factory.mktemp(name)
            (d / "in.json").write_text(json.dumps(doc))
            status, err = drive(d, *args, "--in", "in.json", "--out", "c.json", "--report", "r.json", flags=flags)
            assert status == {"code": 0, "forks": 0 if flags else 1, "adopted": 0, "left": False}, err
            runs.append(d)
        split, serial = runs
        for f in ("c.json", "r.json"):
            assert (split / f).read_bytes() == (serial / f).read_bytes(), (name, f)
        dirs[name] = split
    return dirs


@pytest.mark.parametrize("name", list(WRITES))
def test_written_file_is_the_serial_writers(written, name):
    """Each command wrote the bytes of ``dumps`` on two cores (the fixture compares them
    with the one-CPU run, which writes ``json_chunks``); they re-emit unchanged."""
    text = (written[name] / "c.json").read_text()
    assert cir.dumps(cir.loads(text)) == text


def read_both(d, *argv, flags=()) -> tuple[dict, str, dict, str]:
    """Run ``argv`` on ``d`` as it is, then with the circuit file passed to ``loads`` whole
    as a str, each in a directory of its own: (status, stderr) of each."""
    whole = d / "whole"
    whole.mkdir(exist_ok=True)
    for f in os.listdir(d):
        if f.endswith(".json") and not (whole / f).exists():
            (whole / f).symlink_to(d / f)
    split, split_err = drive(d, *argv, flags=flags)
    serial, serial_err = drive(whole, *argv, flags=("whole",))
    return split, split_err, serial, serial_err


@pytest.mark.parametrize("name", ["r12", "c12", "r14", "c14", "mc16x9"])
def test_profile_of_a_split_read_is_the_whole_reads(written, name):
    d = written[name]
    split, _, serial, _ = read_both(d, "profile", "--in", "c.json", "--out", "p.csv", "--report", "p.json")
    assert split == {"code": 0, "forks": 1, "adopted": 1, "left": False}
    assert serial["code"] == 0 and serial["forks"] == 0
    for f in ("p.csv", "p.json"):
        assert (d / f).read_bytes() == (d / "whole" / f).read_bytes()


def test_simulate_of_a_split_read_is_the_whole_reads(written):
    d = written["b12"]
    split, _, serial, _ = read_both(d, "simulate", "--in", "c.json", "--target", "in.json", "--report", "s.json")
    assert split == {"code": 0, "forks": 1, "adopted": 1, "left": False}
    assert serial["code"] == 0
    assert (d / "s.json").read_bytes() == (d / "whole" / "s.json").read_bytes()
    assert json.loads((d / "s.json").read_text())["report"]["fidelity"] > 1 - 1e-9


def gate_after_split(text: str) -> int:
    """The offset of a gate three quarters into ``text``, past the child's start."""
    return text.index('{"op":', 3 * len(text) // 4)


def released_qubit(doc: dict, t: int) -> int:
    """A qubit released at or before layer ``t``."""
    return next(q for q, end in doc["dealloc"] if end <= t)


def plant_use_after_release(text: str) -> str:
    at = gate_after_split(text)
    t = text.count("],[", text.index('"layers":'), at)  # the layer of the gate at ``at``
    q = released_qubit(json.loads(text), t)
    ids = text.index('"qubits":[', at) + len('"qubits":[')
    end = min(text.index(",", ids), text.index("]", ids))
    return text[:ids] + str(q) + text[end:]


def repeat_first_register(text: str) -> str:
    """``text`` with its first register written twice."""
    start = text.index('"registers":{') + len('"registers":{')
    end = text.index("]", start) + 1
    return text[:end] + "," + text[start:end] + text[end:]


def swap_first_persistent_ids(text: str) -> str:
    start = text.index('"persistent":[') + len('"persistent":[')
    first, second, rest = text[start:].split(",", 2)
    return text[:start] + ",".join([second, first, rest])


def repeat_op_after_split(text: str) -> str:
    """``text`` with a gate past the child's start led by a second ``op``."""
    at = gate_after_split(text) + 1
    return text[:at] + '"op":"x",' + text[at:]


#: name -> (how to plant the fault after the split point, the error class)
FAULTS = {
    "use_after_release": (plant_use_after_release, "UseAfterDealloc"),
    "unknown_op": (lambda text: text[:gate_after_split(text)] + '{"op":"nop"' + text[text.index(
        ",", gate_after_split(text)):], "MalformedCircuit"),
    "trailing_comma": (lambda text: text[:text.index("}]", gate_after_split(text)) + 1] + ","
                       + text[text.index("}]", gate_after_split(text)) + 1:], "MalformedCircuit"),
    "syntax_error": (lambda text: text[:gate_after_split(text) + 5] + ";"
                     + text[gate_after_split(text) + 6:], "MalformedCircuit"),
    "non_ascii_register_name": (lambda text: text.replace('"registers":{"', '"registers":{"\u00e9'),
                                "MalformedCircuit"),
    "repeated_register_name": (repeat_first_register, "MalformedCircuit"),
    "persistent_out_of_order": (swap_first_persistent_ids, "MalformedCircuit"),
    "repeated_gate_key": (repeat_op_after_split, "MalformedCircuit"),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_after_the_split_is_the_serial_readers(written, tmp_path, fault):
    plant, error = FAULTS[fault]
    (tmp_path / "c.json").write_text(plant((written["r10"] / "c.json").read_text()))
    split, split_err, serial, serial_err = read_both(tmp_path, "profile", "--in", "c.json", "--report", "p.json")
    assert split["forks"] == 1 and split["code"] == serial["code"] == 2
    assert split_err == serial_err
    assert json.loads(split_err)["error"] == error


def test_indented_file_is_read_serially(written, tmp_path):
    """No gate boundary of canonical JSON (``_GATE_BOUNDARY``) in an indented file: no fork,
    and the serial reader refuses the file at its first newline."""
    doc = json.loads((written["r10"] / "c.json").read_text())
    (tmp_path / "c.json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    split, split_err, serial, serial_err = read_both(tmp_path, "profile", "--in", "c.json", "--report", "p.json")
    assert split == {"code": 2, "forks": 0, "adopted": 0, "left": False}
    assert serial["code"] == 2 and split_err == serial_err
    assert json.loads(split_err) == {"error": "MalformedCircuit", "message": "circuit JSON byte 1: expected '\"alloc\":['"}


def test_non_ascii_text_before_the_layers_is_read_serially(written, tmp_path):
    """A register name of two UTF-8 bytes in the first block is refused as that block is
    read, before a child is forked."""
    doc = json.loads((written["r10"] / "c.json").read_text())
    registers = {"é": doc["registers"]["D"], **doc.pop("registers")}
    doc = {"registers": registers, **doc}
    (tmp_path / "c.json").write_text(json.dumps(doc, separators=(",", ":"), ensure_ascii=False), encoding="utf-8")
    split, split_err, serial, serial_err = read_both(tmp_path, "profile", "--in", "c.json", "--report", "p.json")
    assert split == {"code": 2, "forks": 0, "adopted": 0, "left": False}
    assert serial["code"] == 2 and split_err == serial_err
    assert json.loads(split_err) == {"error": "MalformedCircuit", "message": "circuit JSON byte 15: expected ASCII"}


@pytest.mark.parametrize("flag", ["one-cpu", "thread"])
def test_one_cpu_or_a_second_thread_takes_the_serial_path(written, tmp_path, flag):
    d = written["r12"]
    status, err = drive(d, "profile", "--in", "c.json", "--report", str(tmp_path / "p.json"), flags=(flag,))
    assert status == {"code": 0, "forks": 0, "adopted": 0, "left": False}, err
    status, err = drive(d, "synth", "--in", "in.json", "--out", str(tmp_path / "c.json"),
                        "--report", str(tmp_path / "r.json"), flags=(flag,))
    assert status == {"code": 0, "forks": 0, "adopted": 0, "left": False}, err
    assert (tmp_path / "c.json").read_bytes() == (d / "c.json").read_bytes()


@pytest.mark.parametrize("error, code", [("RuntimeError", 3), ("KeyboardInterrupt", "KeyboardInterrupt")])
@pytest.mark.parametrize("argv, where", [
    (["profile", "--in", "c.json", "--report", "w.report.json"], "_read_tables"),
    (["synth", "--in", "in.json", "--out", "w.json", "--report", "w.report.json"], "_head_text"),
])
def test_no_child_outlives_a_command_that_gives_up(written, argv, where, error, code):
    """An error raised in this process while the child runs (reading the tables, or
    rendering them) ends the command; the child is killed and reaped first."""
    status, _ = drive(written["r12"], *argv, flags=(f"raise={where}:{error}",))
    assert status == {"code": code, "forks": 1, "adopted": 0, "left": False}


def test_split_runs_leave_no_file_open(written, tmp_path):
    """Under ``-X dev`` with ``ResourceWarning`` an error, a split write and a split read
    report nothing on stderr: every file and anonymous file is closed."""
    d = written["r12"]
    python = ("-X", "dev", "-W", "error::ResourceWarning")
    for argv in (["synth", "--in", "in.json", "--out", str(tmp_path / "c.json"), "--report", str(tmp_path / "r.json")],
                 ["profile", "--in", "c.json", "--out", str(tmp_path / "p.csv"), "--report", str(tmp_path / "p.json")]):
        status, err = drive(d, *argv, python=python)
        assert status["code"] == 0 and status["forks"] == 1 and err == ""
