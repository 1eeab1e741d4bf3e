import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qsprep
from qsprep import amplitudes as amp
from qsprep import circuit_ir as cir
from qsprep import multicopy as mc
from qsprep import protocols as proto
from qsprep import sim, subroutines
from qsprep.circuit_ir import Circuit
from qsprep.cli import main
from reference import Gate, circuit_json, expand, flag_oracle, pair_index, place
from test_circuit_ir import INT_FIELDS, released_doc

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:   # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__
AVX512 = any(on and name.startswith("AVX512") for name, on in __cpu_features__.items())


@pytest.fixture
def pixels(tmp_path):
    path = tmp_path / "pixels.json"
    path.write_text(json.dumps({"amplitudes": [232, 31, 62, 137]}))
    return str(path)


@pytest.fixture
def rand_n4(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "r4.json"
    path.write_text(json.dumps({"amplitudes": list(rng.random(16) + 0.02)}))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_on(capsys, cmd, path, tmp_path):
    """Run ``cmd`` on one input file, with an ``--out`` path for every command but ``simulate``."""
    out = [] if cmd == "simulate" else ["--out", str(tmp_path / "out")]
    return run_cli(capsys, cmd, "--in", str(path), *out)


class TestSynth:
    def test_report_fields(self, capsys, tmp_path, pixels):
        circ = tmp_path / "c.json"
        code, out, _ = run_cli(capsys, "synth", "--in", pixels, "--m", "1",
                               "--out", str(circ))
        assert code == 0
        doc = json.loads(out)
        for key in ("depth", "size", "sa_exact", "sa_approx", "qubit_count"):
            assert key in doc["report"]
        assert doc["tool"].startswith("qsprep")
        assert len(doc["input_digest"]) == 64
        assert json.loads(circ.read_text())["layers"]

    def test_basis_input_zero_rotations(self, capsys, tmp_path):
        path = tmp_path / "e0.json"
        path.write_text(json.dumps({"amplitudes": [1, 0, 0, 0]}))
        circ = tmp_path / "c.json"
        code, out, _ = run_cli(capsys, "synth", "--in", str(path), "--out", str(circ))
        assert code == 0
        doc = json.loads(circ.read_text())
        params = [g["params"][0] for layer in doc["layers"] for g in layer if g["params"]]
        assert params and all(p == 0.0 for p in params)

    def test_epsilon_widens_sa(self, capsys, tmp_path, rand_n4):
        code, out, _ = run_cli(capsys, "synth", "--in", rand_n4, "--epsilon", "1e-6",
                               "--out", str(tmp_path / "c.json"))
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["sa_approx"] > rep["sa_exact"]

    def test_angles_out(self, capsys, tmp_path):
        """The angle file holds the circuit's own parameters: the layer-0 ``ry`` on register
        A, in register order, and the first LOADF rotation layer, pair by pair and within
        a pair control value by control value.  Without a valid split (n=3) the circuit
        is SP alone, and so is the file."""
        rng = np.random.default_rng(31)
        for n, m, complex_ in (6, 2, False), (6, 2, True), (8, 5, False), (8, 5, True), (3, None, False):
            amps = rng.random(1 << n) + 0.05
            if complex_:
                amps = amps * np.exp(2j * np.pi * rng.random(1 << n))
            path, circ, angles = (tmp_path / name for name in ("t.json", "c.json", "a.json"))
            path.write_text(json.dumps({"amplitudes": [[a.real, a.imag] for a in amps.tolist()]}))
            split = [] if m is None else ["--m", str(m)]
            code, _, _ = run_cli(capsys, "synth", "--in", str(path), *split,
                                 "--out", str(circ), "--angles-out", str(angles))
            assert code == 0
            doc, c = json.loads(angles.read_text()), json.loads(circ.read_text())
            ry = {g["qubits"][0]: g["params"][0] for g in c["layers"][0] if g["op"] == "ry"}
            assert [ry[q] for q in c["registers"]["A"]] == doc["sp_angles"]
            if m is None:
                assert list(doc) == ["sp_angles"]
                continue
            ccry = next(layer for layer in c["layers"] if any(g["op"] == "ccry" for g in layer))
            params = [g["params"][0] for g in ccry if g["op"] == "ccry"]
            assert params == np.asarray(doc["csp_angles"]).T.ravel().tolist()
            assert np.shape(doc["csp_angles"]) == (1 << m, (1 << (n - m)) - 1)
            assert ("phases" in doc) == complex_
            if complex_:
                target = amp.target_from_json(path.read_bytes())
                assert doc["phases"] == amp.csp_angles(target, m, with_phases=True).phases.tolist()

    def test_bad_input_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"amplitudes": [1, 1, 1]}))
        code, _, err = run_cli(capsys, "synth", "--in", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "LengthNotPowerOfTwo"

    @pytest.mark.parametrize("amplitudes", [
        [1, float("inf"), 1, 1],
        [1, float("nan"), 1, 1],
        [[1, 0], [float("nan"), 0], [1, 0], [1, 0]],
        [None, 1],
        [True, False],
        ["1", "1j"],
        [[1, True], [0, 0]],
        [10**400, 1],
    ], ids=["inf", "nan", "complex_nan", "null", "bool", "string", "complex_bool", "int_overflow"])
    def test_non_finite_amplitude_is_exit_2(self, capsys, tmp_path, amplitudes):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"amplitudes": amplitudes}))
        code, _, err = run_cli(capsys, "synth", "--in", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "NonFiniteAmplitude"

    @pytest.mark.parametrize("amplitudes", ["0101", {"0": 1, "1": 1}, 4], ids=["string", "object", "number"])
    def test_non_array_amplitudes_is_exit_2(self, capsys, tmp_path, amplitudes):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"amplitudes": amplitudes}))
        code, _, err = run_cli(capsys, "synth", "--in", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "MalformedInput"

    @pytest.mark.parametrize("amplitudes", [[1e300, 1e300, 1, 1], [1e-170] * 4, [3e-160, 4e-160]],
                             ids=["norm_overflow", "tiny", "subnormal_squares"])
    def test_extreme_magnitudes_compile(self, capsys, tmp_path, amplitudes):
        """A vector whose squares overflow or underflow is scaled before it is normalized."""
        path, circ = tmp_path / "t.json", tmp_path / "c.json"
        path.write_text(json.dumps({"amplitudes": amplitudes}))
        code, _, _ = run_cli(capsys, "synth", "--in", str(path), "--out", str(circ))
        assert code == 0
        code, out, _ = run_cli(capsys, "simulate", "--in", str(circ), "--target", str(path))
        assert code == 0
        assert json.loads(out)["report"]["fidelity"] > 1 - 1e-12

    def test_validation_violation_is_exit_3(self, capsys, monkeypatch, pixels):
        monkeypatch.setattr(Circuit, "validate", lambda self: ["layer 0: forced"])
        code, _, err = run_cli(capsys, "synth", "--in", pixels, "--m", "1")
        assert code == 3
        assert json.loads(err)["error"] == "InternalInvariant"

    @pytest.mark.parametrize("fault", ["nan_angle", "repeated_operand", "unknown_op"])
    def test_faulty_emitter_is_exit_3(self, capsys, monkeypatch, tmp_path, rand_n4, fault):
        # emitters build gates without per-gate checks; the one validate() must catch them
        if fault == "nan_angle":
            sp_angles = proto.sp_angles

            def nan_angles(values):
                # angles are written into the float columns as they are: a NaN stays one
                aset = sp_angles(values)
                return amp.AngleSet(m=aset.m, angles=np.full_like(aset.angles, np.nan))

            monkeypatch.setattr(proto, "sp_angles", nan_angles)
        elif fault == "repeated_operand":
            cs_layer = subroutines.cs_layer
            monkeypatch.setattr(subroutines, "cs_layer", lambda c, t, controls, targets, at_layer=None:
                                cs_layer(c, t, controls, [targets[0]] * len(targets), at_layer))
        else:
            monkeypatch.setattr(proto, "_flip", lambda c, qubits, layer:
                                place(c, [Gate("not", (), (q,)) for q in qubits], layer))
        circ = tmp_path / "c.json"
        code, _, err = run_cli(capsys, "synth", "--in", rand_n4, "--out", str(circ))
        assert code == 3
        assert json.loads(err)["error"] == "InternalInvariant"
        assert not circ.exists()

    @pytest.mark.parametrize("fault, error", [
        ("unknown_op", "MalformedCircuit"), ("operand_count", "DuplicateOperand"),
        ("param_count", "MalformedCircuit"), ("id_past_int32", "OperandNotLive")])
    def test_faulty_put_batch_is_exit_3(self, capsys, monkeypatch, tmp_path, fault, error):
        # a batch Circuit.put rejects is an emitter bug, reported through cli._emitting
        put = {"unknown_op": lambda c, qs, layer: c.put("not", qs, layer),
               "operand_count": lambda c, qs, layer: c.put("cnot", qs[:3], layer),
               "param_count": lambda c, qs, layer: c.put("ry", qs, layer, (0.5,)),
               "id_past_int32": lambda c, qs, layer: c.put("x", [*qs, 2**40], layer)}[fault]
        monkeypatch.setattr(proto, "_flip", lambda c, qubits, layer: put(c, list(qubits), layer))
        out = tmp_path / "f.json"
        code, _, err = run_cli(capsys, "fragment", "flag", "--m", "3", "--out", str(out))
        assert code == 3
        doc = json.loads(err)
        assert doc["error"] == "InternalInvariant"
        assert doc["message"].startswith(f"emitter broke the circuit IR: {error}: ")
        assert not out.exists()

    def test_internal_key_error_is_exit_3(self, capsys, monkeypatch, pixels):
        def broken(*args, **kwargs):
            raise KeyError("internal")
        monkeypatch.setattr(proto, "spcsp", broken)
        code, _, err = run_cli(capsys, "synth", "--in", pixels, "--m", "1")
        assert code == 3
        doc = json.loads(err)
        assert doc["error"] == "KeyError"
        assert "broken" in doc["traceback"]

    def test_missing_amplitudes_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"amps": [1, 0]}))
        code, _, err = run_cli(capsys, "synth", "--in", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "MalformedInput"


#: --epsilon values that must end in exit 2 ``BadEpsilon``; 1e-400 parses as 0.0, and
#: 1e-310 is in (0, 1) but its per-rotation share of the budget underflows
BAD_EPSILONS = ["0", "1e-400", "-1", "nan", "inf", "1", "1e-310"]


class TestEpsilon:
    def argv(self, cmd, tmp_path, pixels, capsys):
        out = str(tmp_path / "out")
        if cmd == "synth":
            return ["synth", "--in", pixels, "--m", "1", "--out", out]
        if cmd == "profile":
            circ = str(tmp_path / "c.json")
            assert run_cli(capsys, "synth", "--in", pixels, "--m", "1", "--out", circ)[0] == 0
            return ["profile", "--in", circ, "--out", out]
        return ["fragment", "loadf", "--m", "1", "--in", pixels, "--out", out]

    @pytest.mark.parametrize("cmd", ["synth", "profile", "fragment_loadf"])
    @pytest.mark.parametrize("value", BAD_EPSILONS)
    def test_bad_epsilon_is_exit_2(self, capsys, tmp_path, pixels, cmd, value):
        argv = self.argv(cmd, tmp_path, pixels, capsys)
        code, _, err = run_cli(capsys, *argv, "--epsilon", value)
        assert code == 2
        assert json.loads(err)["error"] == "BadEpsilon"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cmd", ["synth", "profile", "fragment_loadf"])
    def test_tiny_epsilon_is_priced(self, capsys, tmp_path, pixels, cmd):
        argv = self.argv(cmd, tmp_path, pixels, capsys)
        code, out, _ = run_cli(capsys, *argv, "--epsilon", "1e-300")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["depth_approx"] > rep["depth"]

    @pytest.mark.parametrize("cmd", ["simulate", "multicopy"])
    @pytest.mark.parametrize("flag", [("--epsilon", "1e-6"), ("--gateset", "hstcnot")])
    def test_uncosted_commands_take_no_cost_flags(self, capsys, pixels, cmd, flag):
        code, out, err = run_cli(capsys, cmd, "--in", pixels, *flag)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "BadFlag"

    def test_simulate_takes_no_out_flag(self, capsys, pixels):
        """`simulate` writes only its report: an `--out` path would be silently ignored."""
        code, out, err = run_cli(capsys, "simulate", "--in", pixels, "--out", "x")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "BadFlag"


class TestBadFlags:
    @pytest.mark.parametrize("argv, named", [
        (["synth", "--in", "a.json", "--bogus"], "--bogus"),
        (["synth", "--m", "1"], "--in"),
        (["synth", "--in", "a.json", "--m", "x"], "--m"),
        (["fragment", "nope", "--m", "1"], "nope"),
    ], ids=["unknown_flag", "missing_in", "bad_int", "unknown_fragment"])
    def test_usage_error_is_one_json_error(self, capsys, argv, named):
        """A usage error is exit 2 with one JSON object naming the flag, not argparse's usage text."""
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        doc = json.loads(err)
        assert doc["error"] == "BadFlag"
        assert named in doc["message"]

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_still_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestSimulate:
    @pytest.mark.parametrize("n, flags", [(2, ("--m", "1", "--no-fanout")), (4, ()), (6, ())],
                             ids=["no_fanout_n2", "default_n4", "default_n6"])
    def test_fidelity_round_trip(self, capsys, tmp_path, pixels, n, flags):
        """The default paper layout verifies with no flag, as the lean --no-fanout one does."""
        target = pixels
        if n > 2:
            target = str(tmp_path / f"dense{n}.json")
            rng = np.random.default_rng(n)
            Path(target).write_text(json.dumps({"amplitudes": list(rng.random(1 << n) + 0.02)}))
        circ = tmp_path / "c.json"
        code, _, _ = run_cli(capsys, "synth", "--in", target, "--out", str(circ), *flags)
        assert code == 0
        code, out, _ = run_cli(capsys, "simulate", "--in", str(circ),
                               "--target", target)
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["fidelity"] >= 1 - 1e-9
        assert all(mass <= 1e-10 for _, _, mass in rep["ancilla_verdicts"])

    def test_enumerate_basis_matches_flag_oracle(self, capsys, tmp_path):
        circ = tmp_path / "flag.json"
        code, _, _ = run_cli(capsys, "fragment", "flag", "--m", "3", "--out", str(circ))
        assert code == 0
        code, out, _ = run_cli(capsys, "simulate", "--in", str(circ), "--enumerate-basis")
        assert code == 0
        cases = json.loads(out)["cases"]
        assert len(cases) == 8
        for case in cases:
            j = case["input"]
            f = flag_oracle(j, 3)
            want = sum((1 - f[(s, p)]) << pair_index(s, p)
                       for s in range(3) for p in range(1 << s))
            assert case["registers"]["D"] == j
            assert case["registers"]["F"] == want


    def test_target_size_mismatch_is_exit_2(self, capsys, tmp_path, pixels, rand_n4):
        circ = tmp_path / "c.json"
        run_cli(capsys, "synth", "--in", pixels, "--m", "1", "--out", str(circ))
        code, _, err = run_cli(capsys, "simulate", "--in", str(circ), "--target", rand_n4)
        assert code == 2
        assert json.loads(err)["error"] == "MalformedInput"

    @pytest.mark.parametrize("with_target", [False, True], ids=["enumerate_basis", "target"])
    def test_enumerate_basis_without_d_register_is_exit_2(self, capsys, tmp_path, pixels, with_target):
        path = one_qubit_circuit(tmp_path / "noreg.json", [True], 0, 1)
        flags = ["--target", pixels] if with_target else ["--enumerate-basis"]
        code, _, err = run_cli(capsys, "simulate", "--in", path, *flags)
        assert code == 2
        assert json.loads(err)["error"] == "MalformedInput"


class TestProfile:
    def test_copy8_histogram(self, capsys, tmp_path):
        circ = tmp_path / "copy.json"
        run_cli(capsys, "fragment", "copy", "--m", "3", "--out", str(circ))
        csv_path = tmp_path / "prof.csv"
        code, out, _ = run_cli(capsys, "profile", "--in", str(circ), "--out", str(csv_path))
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["sa_exact"] == 14
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "layer,live,clean,dirty"
        live = [int(r.split(",")[1]) for r in rows[1:]]
        assert sum(live) == 14

    def test_dirty_column(self, capsys, tmp_path, rand_n4):
        circ = tmp_path / "loadf.json"
        code, _, _ = run_cli(capsys, "fragment", "loadf", "--m", "2", "--dirty-b1",
                             "--in", rand_n4, "--out", str(circ))
        assert code == 0
        csv_path = tmp_path / "prof.csv"
        code, out, _ = run_cli(capsys, "profile", "--in", str(circ), "--out", str(csv_path))
        assert code == 0
        rep = json.loads(out)["report"]
        rows = [[int(x) for x in r.split(",")] for r in csv_path.read_text().splitlines()[1:]]
        assert all(clean + dirty == live for _, live, clean, dirty in rows)
        assert sum(r[3] for r in rows) == rep["dirty_sa"] > 0
        assert sum(r[2] for r in rows) == rep["clean_sa"]


class TestLazyImports:
    def test_version_never_loads_numpy(self):
        """A bare ``import qsprep.cli`` and ``--version`` leave numpy unloaded: every
        command but these imports the modules it uses, all of which load numpy."""
        script = "\n".join([
            "import sys",
            "from qsprep.cli import main",
            "imported = 'numpy' in sys.modules",
            "try:",
            "    main(['--version'])",
            "except SystemExit as e:",
            "    print(e.code, imported, 'numpy' in sys.modules)",
        ])
        env = {"PYTHONPATH": str(Path(qsprep.__file__).parents[1]), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out.splitlines()[-1] == "0 False False"

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads the thread list in /proc")
    def test_a_command_runs_one_thread(self, tmp_path):
        """``main`` pins OpenBLAS to one thread before a command loads numpy, so the
        process runs no BLAS thread pool (OpenBLAS starts one thread per core by default)."""
        (tmp_path / "t.json").write_text(json.dumps({"amplitudes": [1.0] * 64}))
        script = "\n".join([
            "import os",
            "from qsprep.cli import main",
            "code = main(['synth', '--in', 't.json', '--out', 'c.json', '--report', 'r.json'])",
            "print(code, len(os.listdir('/proc/self/task')))",
        ])
        env = {"PYTHONPATH": str(Path(qsprep.__file__).parents[1]), "PATH": "", "PYTHONDONTWRITEBYTECODE": "1"}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, cwd=tmp_path, check=True).stdout
        assert out.splitlines()[-1] == "0 1"

    def test_public_api_is_pinned(self):
        """The package exports exactly these names; the fragment oracles are test references
        (``tests/reference.py``), not API."""
        assert qsprep.__all__ == [
            "AngleSet", "CSPAngleSet", "PartitionNorms", "TargetState", "csp_angles",
            "make_target", "partition_norms", "sp_angles",
            "Circuit", "GateSetModel", "ResourceReport", "spacetime_allocation",
            "ProtocolConfig", "choose_m", "csp_circuit", "reflection", "sp_circuit", "spcsp",
            "SimReport", "SimState", "run",
        ]

    def test_circuit_methods_are_pinned(self):
        """``Circuit``'s public methods: gates enter through ``put`` alone, so no tuple
        builder (``place``, ``append``, ``append_layer``) or tuple reader (``gates``) is one."""
        assert sorted(name for name in dir(Circuit) if not name.startswith("_")) == [
            "add_register", "adjoint", "alloc", "alloc_layer", "alloc_many", "compact", "copy",
            "dealloc", "dealloc_layer", "dealloc_many", "depth", "embed", "groups", "kind",
            "last_use_layer", "lifecycle", "live_profile", "mark_persistent", "num_layers",
            "of_kind", "params", "persistent", "put", "qubits", "size", "validate",
        ]

    def test_package_exports_resolve_on_first_access(self):
        from qsprep import run, spcsp

        assert spcsp is proto.spcsp and run is sim.run
        assert set(qsprep.__all__) <= set(dir(qsprep))
        with pytest.raises(AttributeError):
            qsprep.no_such_name


class TestDeepNesting:
    @pytest.mark.parametrize("cmd", ["synth", "simulate", "profile", "multicopy"])
    def test_deeply_nested_json_is_exit_2(self, capsys, tmp_path, cmd):
        """Amplitude and batch documents are decoded whole, which is ``MalformedInput`` at the
        parser's recursion limit; a circuit document is refused at its first byte, where it
        leaves the layout the writer writes."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, _, err = run_on(capsys, cmd, path, tmp_path)
        assert code == 2
        assert json.loads(err)["error"] == ("MalformedCircuit" if cmd in ("simulate", "profile") else "MalformedInput")

    def test_internal_recursion_error_is_exit_3(self, capsys, monkeypatch, pixels):
        def runaway(*args, **kwargs):
            raise RecursionError("internal")
        monkeypatch.setattr(cir, "spacetime_allocation", runaway)
        code, _, err = run_cli(capsys, "synth", "--in", pixels, "--m", "1")
        assert code == 3
        assert json.loads(err)["error"] == "RecursionError"


def one_qubit_circuit(path, layers, alloc, dealloc):
    x = {"op": "x", "params": [], "qubits": [0]}
    path.write_text(circuit_json({
        "layers": [[x] if busy else [] for busy in layers],
        "alloc": [[0, alloc, "clean"]],
        "dealloc": [[0, dealloc]],
    }))
    return str(path)


class TestLifecycleBounds:
    @pytest.mark.parametrize("cmd", ["simulate", "profile"])
    @pytest.mark.parametrize("alloc,dealloc", [(0, 7), (-1, 1)], ids=["dealloc_past_end", "negative_alloc"])
    def test_out_of_range_is_exit_2(self, capsys, tmp_path, cmd, alloc, dealloc):
        path = one_qubit_circuit(tmp_path / "bad.json", [True], alloc, dealloc)
        code, _, err = run_cli(capsys, cmd, "--in", path)
        assert code == 2
        assert json.loads(err)["error"] == "OperandNotLive"

    @pytest.mark.parametrize("cmd", ["simulate", "profile"])
    def test_trailing_empty_layer_is_exit_2(self, capsys, tmp_path, cmd):
        """``write`` writes no empty layer, so a file with one is refused where it stands."""
        path = one_qubit_circuit(tmp_path / "bad.json", [True, True, False], 0, 3)
        code, _, err = run_on(capsys, cmd, path, tmp_path)
        assert code == 2
        assert json.loads(err)["error"] == "MalformedCircuit" and "empty" in json.loads(err)["message"]


def empty_lifetime_doc() -> dict:
    """Qubit 1 is allocated and released at layer 1: an empty lifetime."""
    return {
        "layers": [[{"op": "ry", "params": [0.5], "qubits": [0]}],
                   [{"op": "x", "params": [], "qubits": [0]}]],
        "alloc": [[0, 0, "clean"], [1, 1, "clean"]],
        "dealloc": [[1, 1]],
        "persistent": [0],
        "registers": {"D": [0]},
    }


class TestEmptyLifetime:
    @pytest.mark.parametrize("cmd", ["simulate", "profile"])
    def test_accepted(self, capsys, tmp_path, cmd):
        path = tmp_path / "empty.json"
        path.write_text(circuit_json(empty_lifetime_doc()))
        code, out, err = run_on(capsys, cmd, path, tmp_path)
        assert (code, err) == (0, "")
        rep = json.loads(out)["report"]
        assert rep["peak_live_qubits" if cmd == "simulate" else "qubit_count"] == 1

    def test_never_live_in_the_simulator(self):
        report, state = sim.run(cir.loads(circuit_json(empty_lifetime_doc())))
        assert report.peak_live_qubits == 1
        assert report.ancilla_verdicts == []
        assert list(state._pos) == [0]

    def test_expand_keeps_it_empty(self):
        c = cir.loads(circuit_json(empty_lifetime_doc()))
        out = expand(c)
        assert out.alloc_layer(1) == out.dealloc_layer(1)
        assert out.kind(1) == cir.CLEAN
        assert sim.run(out)[0].peak_live_qubits == 1
        assert cir.spacetime_allocation(out).sa_exact == cir.spacetime_allocation(c).sa_exact == 2


def two_qubit_doc() -> dict:
    return {
        "layers": [[{"op": "ry", "params": [0.5], "qubits": [0]}],
                   [{"op": "cnot", "params": [], "qubits": [0, 1]}]],
        "alloc": [[0, 0, "clean"], [1, 0, "clean"]],
        "dealloc": [],
        "persistent": [0, 1],
        "registers": {"D": [0, 1]},
    }


def malformed(edit):
    doc = two_qubit_doc()
    edit(doc)
    return doc


#: name -> (error the CLI reports, circuit document)
MALFORMED = {
    "param_null": ("MalformedCircuit", malformed(lambda d: d["layers"][0][0].update(params=[None]))),
    "param_nan": ("MalformedCircuit",
                  malformed(lambda d: d["layers"][0][0].update(params=[float("nan")]))),
    "top_level_list": ("MalformedCircuit", [two_qubit_doc()]),
    "qubit_id_true": ("OperandNotLive",
                      malformed(lambda d: d["layers"][1][0].update(qubits=[0, True]))),
    "unknown_kind": ("MalformedCircuit", malformed(lambda d: d["alloc"][1].__setitem__(2, "weird"))),
    "duplicate_register_member": ("DuplicateOperand",
                                  malformed(lambda d: d["registers"].update(D=[0, 0]))),
    "leaked_qubit": ("LeakedQubit", malformed(lambda d: d.update(persistent=[0]))),
}


class TestMalformedCircuit:
    @pytest.mark.parametrize("cmd", ["simulate", "profile"])
    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_exit_2_with_json_error(self, capsys, tmp_path, cmd, name):
        error, doc = MALFORMED[name]
        path = tmp_path / "bad.json"
        path.write_text(circuit_json(doc) if isinstance(doc, dict) else json.dumps(doc, separators=(",", ":")))
        code, _, err = run_on(capsys, cmd, path, tmp_path)
        assert code == 2
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("cmd", ["simulate", "profile"])
    def test_well_formed_base_is_accepted(self, capsys, tmp_path, cmd):
        path = tmp_path / "ok.json"
        path.write_text(circuit_json(two_qubit_doc()))
        code, _, _ = run_on(capsys, cmd, path, tmp_path)
        assert code == 0

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_circuit_exits_0_or_2(self, capsys, tmp_path, data):
        doc = two_qubit_doc()
        for _ in range(data.draw(st.integers(1, 2))):
            *parent, key = data.draw(st.sampled_from(list(json_paths(doc))))
            node = doc
            for k in parent:
                node = node[k]
            node[key] = data.draw(JSON_VALUES)
        path = tmp_path / "fuzz.json"
        path.write_text(circuit_json(doc))
        for cmd in ("simulate", "profile"):
            code, _, err = run_on(capsys, cmd, path, tmp_path)
            assert code in (0, 2)
            if code == 2:
                assert "error" in json.loads(err)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.sampled_from(["x", "clean"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["op", "D"]), inner),
    max_leaves=4,
)


def json_paths(node, prefix=()):
    """Key paths of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from json_paths(v, prefix + (k,))


class TestColumnRange:
    @pytest.mark.parametrize("cmd", ["simulate", "profile"])
    @pytest.mark.parametrize("value", [2**40, -2**40])
    @pytest.mark.parametrize("field", list(INT_FIELDS))
    def test_out_of_range_int_is_exit_2(self, capsys, tmp_path, cmd, field, value):
        doc = released_doc()
        INT_FIELDS[field](doc, value)
        path = tmp_path / "bad.json"
        path.write_text(circuit_json(doc))
        code, _, err = run_on(capsys, cmd, path, tmp_path)
        assert code == 2
        assert json.loads(err)["error"] in ("OperandNotLive", "MalformedCircuit")


class TestGarbageCollector:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_main_restores_gc_state(self, capsys, tmp_path, pixels, enabled):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"amplitudes": [1, 1, 1]}))
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            ok = run_cli(capsys, "synth", "--in", pixels, "--out", str(tmp_path / "c.json"))[0]
            after_ok = gc.isenabled()
            failed = run_cli(capsys, "synth", "--in", str(bad))[0]
            after_failed = gc.isenabled()
        finally:
            (gc.enable if was else gc.disable)()
        assert (ok, failed) == (0, 2)
        assert after_ok is enabled and after_failed is enabled


class TestMulticopyCmd:
    def test_batch_report(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(
            {"targets": [list(rng.random(8) + 0.02) for _ in range(4)]}))
        code, out, _ = run_cli(capsys, "multicopy", "--in", str(path),
                               "--out", str(tmp_path / "b.json"))
        assert code == 0
        doc = json.loads(out)
        assert doc["peak_ancillae"] <= 64
        assert doc["report"]["depth"] > 0

    @pytest.mark.parametrize("doc", [{"vectors": [[1, 2]]}, {"targets": 3}, 7, {"targets": ["0101"]}])
    def test_malformed_batch_is_exit_2(self, capsys, tmp_path, doc):
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "multicopy", "--in", str(path))
        assert code == 2
        assert json.loads(err)["error"] == "MalformedInput"

    def test_w_replicates_single_vector(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"targets": [[1, 2, 3, 4, 5, 6, 7, 8]]}))
        code, out, _ = run_cli(capsys, "multicopy", "--in", str(path), "--w", "3",
                               "--out", str(tmp_path / "b.json"))
        assert code == 0
        assert "D2" in json.loads((tmp_path / "b.json").read_text())["registers"]

    def test_w_disagreeing_with_targets_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({"targets": [[1, 2, 3, 4], [4, 3, 2, 1]]}))
        code, _, err = run_cli(capsys, "multicopy", "--in", str(path), "--w", "3")
        assert code == 2
        assert json.loads(err)["error"] == "MalformedInput"

    @pytest.mark.parametrize("flag, value", [("--w", "0"), ("--w", "-2"), ("--pool", "-1"), ("--indent", "0")])
    def test_bad_batch_flag_is_named_up_front(self, capsys, tmp_path, flag, value):
        """A batch of no copies, a negative pool or an indentation of 0 is refused before
        any target is read."""
        code, _, err = run_cli(capsys, "multicopy", "--in", str(tmp_path / "absent.json"), flag, value)
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "BadFlag"
        assert doc["message"].startswith(flag)

    def test_no_fitting_k_is_worded_without_none(self, capsys, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"targets": [[1, 2, 3, 4, 5, 6, 7, 8]]}))
        code, _, err = run_cli(capsys, "multicopy", "--in", str(path), "--w", "2", "--pool", "1")
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "PoolExceeded"
        assert "none fits" in doc["message"] and "None" not in doc["message"]

    def test_indent_past_instance_depth_is_exit_2(self, capsys, tmp_path):
        """A k past the instance's depth only adds layers that compaction drops; k = depth still runs."""
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"targets": [[1, 2, 3, 4, 5, 6, 7, 8]]}))
        depth = mc._instances([amp.make_target([1, 2, 3, 4, 5, 6, 7, 8])], True)[0][0][0].depth()
        code, out, _ = run_cli(capsys, "multicopy", "--in", str(path), "--w", "2",
                               "--indent", str(depth), "--out", str(tmp_path / "b.json"))
        assert code == 0
        assert json.loads(out)["indentation"] == depth
        code, _, err = run_cli(capsys, "multicopy", "--in", str(path), "--w", "2",
                               "--indent", str(depth + 1), "--out", str(tmp_path / "c.json"))
        assert code == 2
        assert json.loads(err)["error"] == "NoValidSplit"
        assert not (tmp_path / "c.json").exists()


class TestFragmentCmd:
    def test_loadf_requires_input(self, capsys):
        code, _, err = run_cli(capsys, "fragment", "loadf", "--m", "1")
        assert code == 2
        assert json.loads(err)["error"] == "MalformedInput"

    def test_spf_emits(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "fragment", "spf", "--m", "3",
                             "--out", str(tmp_path / "s.json"))
        assert code == 0

    def test_loadf_emits_and_simulates(self, capsys, tmp_path, pixels):
        rng = np.random.default_rng(4)
        path = tmp_path / "n3.json"
        path.write_text(json.dumps({"amplitudes": list(rng.random(8) + 0.02)}))
        circ = tmp_path / "lf.json"
        code, out, _ = run_cli(capsys, "fragment", "loadf", "--m", "1",
                               "--in", str(path), "--basis", "1", "--no-fanout",
                               "--out", str(circ))
        assert code == 0
        doc = json.loads(circ.read_text())
        assert set(doc["registers"]) >= {"D0", "B0", "F0"}
        code, out, _ = run_cli(capsys, "simulate", "--in", str(circ))
        assert code == 0
        rep = json.loads(out)["report"]
        assert all(mass <= 1e-10 for _, _, mass in rep["ancilla_verdicts"])

    def test_loadf_keeps_the_phases_of_a_signed_target(self, capsys, tmp_path):
        """A target that is not real non-negative gets its phases without ``--complex``,
        as in ``synth``: the fragment is the one ``--complex`` writes (51 gates at n=3,
        m=1, where dropping the phases left 39)."""
        path = tmp_path / "n3.json"
        path.write_text(json.dumps({"amplitudes": [0.5, -0.5, 0.5, 0.5, [0.1, 0.2], -0.3, 0.4, [0, 0.4]]}))
        texts = []
        for flags in ((), ("--complex",)):
            circ = tmp_path / f"lf{len(flags)}.json"
            code, out, _ = run_cli(capsys, "fragment", "loadf", "--m", "1", "--in", str(path), *flags,
                                   "--out", str(circ))
            assert code == 0 and json.loads(out)["report"]["size"] == 51
            texts.append(circ.read_text())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("argv, flag", [
        (("copy", "--m", "3", "--in", "/nonexistent.json"), "--in"),
        (("copyswap", "--m", "2", "--t", "1"), "--t"),
        (("cs", "--m", "1", "--basis", "0"), "--basis"),
    ])
    def test_unread_flag_is_bad_flag(self, capsys, tmp_path, argv, flag):
        """A flag the fragment does not read is refused, by name, before any input is read."""
        out = tmp_path / "f.json"
        code, _, err = run_cli(capsys, "fragment", *argv, "--out", str(out))
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "BadFlag"
        assert doc["message"].endswith(f"does not read {flag}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, error", [
        (("flag", "--m", "40"), "BadSplit"),
        (("copy", "--m", "-1"), "BadSplit"),
        (("spf", "--m", "0"), "BadSplit"),
        (("cs", "--m", "1", "--t", "21"), "BadSplit"),
        (("cs", "--m", "1", "--t", "-1"), "BadSplit"),
        (("flag", "--m", "3", "--basis", "8"), "IndexOutOfRange"),
        (("copyswap", "--m", "3", "--basis", "-1"), "IndexOutOfRange"),
    ])
    def test_out_of_range_is_exit_2(self, capsys, tmp_path, argv, error):
        out = tmp_path / "f.json"
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "fragment", *argv, "--out", str(out))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert json.loads(err)["error"] == error
        assert peak < 1 << 20  # refused before any qubit is allocated
        assert not out.exists()


class TestSupportCap:
    def test_cap_is_exit_2(self, capsys, tmp_path, monkeypatch):
        rng = np.random.default_rng(2)
        vec = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        path = tmp_path / "c4.json"
        path.write_text(json.dumps({"amplitudes": [[v.real, v.imag] for v in vec]}))
        circ = str(tmp_path / "c.json")
        code, _, _ = run_cli(capsys, "synth", "--in", str(path), "--m", "2", "--complex",
                             "--dirty-b1", "--out", circ)
        assert code == 0
        # the CLI seeds dirty qubits with |0>, so this run peaks at 32 keys
        code, _, _ = run_cli(capsys, "simulate", "--in", circ)
        assert code == 0
        monkeypatch.setattr(sim, "MAX_SUPPORT", 1 << 4)
        code, _, err = run_cli(capsys, "simulate", "--in", circ)
        assert code == 2
        doc = json.loads(err)
        assert doc["error"] == "PeakQubitsExceeded"
        assert "support" in doc["message"]

    def test_over_bound_state_is_refused_while_it_is_built(self, capsys, tmp_path):
        """The n=5 default (the SP-only fallback) grows a product state over its 31 angle
        qubits; the ry that would take it from 2**22 keys, the bound, to 2**23 is refused
        once its new amplitudes are counted, before a key of the new state is built.  A
        state at the bound takes 96 MB (a key word and an amplitude per branch), and the
        refused gate's pairing and new amplitudes take the run to about 430 MB."""
        rng = np.random.default_rng(3)
        target = tmp_path / "t5.json"
        target.write_text(json.dumps({"amplitudes": list(rng.uniform(0.05, 1.0, 32))}))
        circ = str(tmp_path / "c.json")
        assert run_cli(capsys, "synth", "--in", str(target), "--out", circ)[0] == 0
        env = {**os.environ, "PYTHONPATH": str(Path(qsprep.__file__).parents[1])}
        proc = subprocess.Popen([sys.executable, "-m", "qsprep.cli", "simulate", "--in", circ,
                                 "--target", str(target)], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        assert os.waitstatus_to_exitcode(status) == 2
        assert json.loads(err)["error"] == "PeakQubitsExceeded"
        assert usage.ru_maxrss < 1100 * 1024  # kB


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, capsys, tmp_path, pixels):
        circ = tmp_path / "c.json"
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "synth", "--in", pixels, "--m", "1",
                                   "--out", str(circ))
            outs.append((out, circ.read_text()))
        assert outs[0] == outs[1]

    def test_target_norm_does_not_depend_on_blas_threads(self):
        """A target of 2**14 entries, past the size from which OpenBLAS splits a dot product
        across threads, normalizes to the same bytes on one thread and on two."""
        script = "\n".join([
            "import hashlib",
            "import numpy as np",
            "from qsprep.amplitudes import make_target",
            "x = np.random.default_rng(3).uniform(0.05, 1.0, 1 << 14)",
            "print(hashlib.sha256(make_target(x).amplitudes.tobytes()).hexdigest())",
        ])
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": str(Path(qsprep.__file__).parents[1]),
                   "OPENBLAS_NUM_THREADS": threads}
            digests.add(subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                       env=env, check=True).stdout)
        assert len(digests) == 1

    @pytest.mark.skipif(not AVX512, reason="numpy reports no AVX-512 features")
    def test_circuit_does_not_depend_on_numpy_simd_dispatch(self, tmp_path):
        """numpy's AVX-512 arccos differs from libm's in the last bit on some inputs; the
        angles come from math.acos, so a complex n=10 target compiles to the same bytes
        with numpy's AVX-512 dispatch turned off."""
        rng = np.random.default_rng(10)
        amps = [[re, im] for re, im in zip(rng.standard_normal(1 << 10).tolist(),
                                           rng.standard_normal(1 << 10).tolist())]
        target = tmp_path / "target.json"
        target.write_text(json.dumps({"amplitudes": amps}))
        script = "import sys; from qsprep.cli import main; sys.exit(main(sys.argv[1:]))"
        digests = set()
        for i, disabled in enumerate(("", "X86_V4 AVX512_ICL AVX512_SPR")):
            env = {**os.environ, "PYTHONPATH": str(Path(qsprep.__file__).parents[1]),
                   "NPY_DISABLE_CPU_FEATURES": disabled}
            out = tmp_path / f"circuit{i}.json"
            subprocess.run([sys.executable, "-c", script, "synth", "--in", str(target), "--out", str(out)],
                           capture_output=True, env=env, check=True)
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        assert len(digests) == 1

    def test_circuit_json_round_trip_bytes(self, capsys, tmp_path, pixels):
        from qsprep.circuit_ir import dumps, loads

        circ = tmp_path / "c.json"
        run_cli(capsys, "synth", "--in", pixels, "--m", "1", "--out", str(circ))
        text = circ.read_text()
        assert dumps(loads(text)) == text


class TestCircuitStreams:
    def test_out_dash_prints_the_file_bytes(self, capsys, tmp_path, rand_n4):
        circ, report = tmp_path / "c.json", tmp_path / "r.json"
        assert run_cli(capsys, "synth", "--in", rand_n4, "--out", str(circ), "--report", str(report))[0] == 0
        code, out, err = run_cli(capsys, "synth", "--in", rand_n4, "--out", "-", "--report", str(report))
        assert (code, err) == (0, "")
        assert out == circ.read_text() + "\n"

    @pytest.mark.parametrize("cmd", ["simulate", "profile"])
    @pytest.mark.parametrize("trailing", ["x", "{}", ",[]"])
    def test_trailing_garbage_is_exit_2(self, capsys, tmp_path, cmd, trailing):
        text = circuit_json(two_qubit_doc())
        path = tmp_path / "bad.json"
        path.write_text(text + trailing)
        code, _, err = run_on(capsys, cmd, path, tmp_path)
        assert code == 2
        assert json.loads(err) == {"error": "MalformedCircuit",
                                   "message": f"circuit JSON byte {len(text)}: expected the end of the text"}

    @pytest.mark.parametrize("cmd", ["simulate", "profile"])
    def test_repeated_top_level_key_is_exit_2(self, capsys, tmp_path, cmd):
        path = tmp_path / "bad.json"
        path.write_text(circuit_json(two_qubit_doc())[:-1] + ',"persistent":[0,1]}')
        code, _, err = run_on(capsys, cmd, path, tmp_path)
        assert code == 2
        assert json.loads(err)["error"] == "MalformedCircuit"

    @pytest.mark.parametrize("cmd", ["simulate", "profile"])
    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
    def test_encoded_input_reads_as_utf8(self, capsys, tmp_path, cmd, encoding):
        """Circuit bytes are read as the ASCII text the writer writes, with no encoding
        detected: the UTF-8 file reads, and its BOM or UTF-16 twin is refused at byte 0."""
        text = circuit_json(two_qubit_doc())
        path = tmp_path / "plain.json"
        path.write_bytes(text.encode("utf-8"))
        code, out, err = run_on(capsys, cmd, path, tmp_path)
        assert (code, err) == (0, "")
        assert json.loads(out)["input_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()
        path = tmp_path / "encoded.json"
        path.write_bytes(text.encode(encoding))
        code, _, err = run_on(capsys, cmd, path, tmp_path)
        assert code == 2
        assert json.loads(err) == {"error": "MalformedCircuit", "message": "circuit JSON byte 0: expected ASCII"}

    def test_synth_piped_into_simulate(self, capsys, tmp_path, rand_n4):
        """``synth --out -`` ends the circuit text with a newline, which the reader takes after
        the closing brace: piped into ``simulate --in -``, it gives the report that the file
        gives, and only the input digest differs, by the newline."""
        env = {**os.environ, "PYTHONPATH": str(Path(qsprep.__file__).parents[1])}
        cli = [sys.executable, "-m", "qsprep.cli"]
        synth = subprocess.Popen([*cli, "synth", "--in", rand_n4, "--out", "-", "--report", str(tmp_path / "r.json")],
                                 env=env, stdout=subprocess.PIPE)
        piped = subprocess.run([*cli, "simulate", "--in", "-"], env=env, stdin=synth.stdout, capture_output=True)
        synth.stdout.close()
        assert (synth.wait(), piped.returncode, piped.stderr) == (0, 0, b"")
        circ = tmp_path / "c.json"
        assert run_cli(capsys, "synth", "--in", rand_n4, "--out", str(circ))[0] == 0
        code, out, err = run_cli(capsys, "simulate", "--in", str(circ))
        assert (code, err) == (0, "")
        piped, filed = json.loads(piped.stdout), json.loads(out)
        assert piped["report"] == filed["report"]
        assert filed["input_digest"] == hashlib.sha256(circ.read_bytes()).hexdigest()
        assert piped["input_digest"] == hashlib.sha256(circ.read_bytes() + b"\n").hexdigest()

    def test_readme_line_makes_another_tools_circuit_readable(self, capsys, tmp_path, rand_n4):
        """README's converter (its ``python`` block) rewrites a circuit file that another tool
        wrote (here indented, its keys in another order, its rows, persistent ids and
        registers in reverse and its parameters ints) as ``write`` writes it: the text of
        the same document, which ``profile`` reads with the report of the file ``synth``
        wrote (the parameters do not enter it)."""
        circ, other, fixed = tmp_path / "c.json", tmp_path / "other.json", tmp_path / "fixed.json"
        assert run_cli(capsys, "synth", "--in", rand_n4, "--out", str(circ))[0] == 0
        doc = json.loads(circ.read_text())
        for g in (g for layer in doc["layers"] for g in layer):
            g["params"] = [round(p) for p in g["params"]]
        foreign = {"layers": doc["layers"], **{key: doc[key][::-1] for key in ("alloc", "dealloc", "persistent")},
                   "registers": dict(reversed(doc["registers"].items()))}
        assert any(type(p) is int for g in doc["layers"][0] for p in g["params"])
        other.write_text(json.dumps(foreign, indent=2))
        code, _, err = run_on(capsys, "profile", other, tmp_path)
        assert (code, json.loads(err)["error"]) == (2, "MalformedCircuit")
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        snippet = next(block.split("```")[0] for block in readme.split("```python\n") if "def canonical(" in block)
        namespace = {}
        exec(snippet, namespace)
        namespace["canonical"](other, fixed)
        for g in (g for layer in doc["layers"] for g in layer):
            g["params"] = list(map(float, g["params"]))
        assert fixed.read_text() == circuit_json(doc)
        reports = []
        for path in (circ, fixed):
            code, out, err = run_on(capsys, "profile", path, tmp_path)
            assert (code, err) == (0, "")
            reports.append(json.loads(out)["report"])
        assert reports[0] == reports[1]


class TestAmplitudeEncodings:
    """Amplitude and batch documents decode as ``json.loads`` decodes bytes: a BOM or a
    UTF-16 file gives the same output and report as its UTF-8 original.  (A circuit
    document is read only as the ASCII text the writer writes.)"""

    AMPLITUDES = [0.05 + 0.1 * i for i in range(8)]
    ARGV = {
        "synth": ["synth", "--in", "{amps}", "--out", "{out}"],
        "simulate": ["simulate", "--in", "{circuit}", "--target", "{amps}"],
        "multicopy": ["multicopy", "--in", "{amps}", "--out", "{out}"],
        "fragment": ["fragment", "loadf", "--m", "1", "--in", "{amps}", "--out", "{out}"],
    }

    @pytest.mark.parametrize("cmd", list(ARGV))
    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
    def test_encoded_input_reads_as_utf8(self, capsys, tmp_path, cmd, encoding):
        amps = self.AMPLITUDES
        circuit = tmp_path / "circuit.json"
        (tmp_path / "circuit_amps.json").write_text(json.dumps({"amplitudes": amps}))
        assert main(["synth", "--in", str(tmp_path / "circuit_amps.json"), "--out", str(circuit)]) == 0
        text = json.dumps({"targets": [amps, amps[::-1]]} if cmd == "multicopy" else {"amplitudes": amps})
        results = []
        for name, enc in (("plain", "utf-8"), ("encoded", encoding)):
            path, out_path = tmp_path / f"{name}.json", tmp_path / f"{name}.out"
            path.write_bytes(text.encode(enc))
            capsys.readouterr()
            code, out, err = run_cli(capsys, *(a.format(amps=path, out=out_path, circuit=circuit)
                                               for a in self.ARGV[cmd]))
            assert (code, err) == (0, "")
            results.append((json.loads(out)["report"], out_path.exists() and out_path.read_bytes()))
        assert results[0] == results[1]
