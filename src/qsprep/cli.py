"""Command-line surface: synth, simulate, profile, multicopy, fragment.

Every package module but ``errors`` loads numpy, the IR's whole-circuit
passes included, so each is imported by the commands that use it:
``--version``, a usage error and a bare ``import qsprep.cli`` never load
numpy.  A command imports ``circuit_ir`` before the other modules: when
Python runs without a bytecode cache, compiling the package's largest
module before numpy is loaded keeps the compiler's transient memory below
the process's later peak.  No command gains from BLAS threads, so
:func:`main` pins OpenBLAS to one before any command loads numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import sys
import traceback
from typing import TYPE_CHECKING, Iterable

from . import __version__
from .errors import BadFlag, CircuitError, InternalInvariant, MalformedInput, QsprepError, parse_json

if TYPE_CHECKING:
    from .circuit_ir import Circuit


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str | None, chunks: Iterable[str]) -> None:
    """Write text, piece by piece, to ``path``; to stdout, ending in a newline, for None or "-"."""
    if path is None or path == "-":
        last = ""
        for last in chunks:
            sys.stdout.write(last)
        if not last.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.writelines(chunks)


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _digest(raw_input: bytes) -> str:
    return hashlib.sha256(raw_input).hexdigest()


def envelope(args_echo: list[str], input_digest: str, payload: dict) -> dict:
    return {
        "tool": f"qsprep {__version__}",
        "command": args_echo,
        "input_digest": input_digest,
        **payload,
    }


class _Hashed:
    """A binary file whose bytes are hashed as they are read."""

    def __init__(self, fh):
        self.fh = fh
        self.sha = hashlib.sha256()

    def read(self, size: int) -> bytes:
        data = self.fh.read(size)
        self.sha.update(data)
        return data


def _load_circuit(path: str) -> tuple[Circuit, str]:
    """The circuit JSON at ``path`` (stdin for "-") and the digest of its bytes.

    The file is read a block at a time and each block is hashed and
    decoded in the same pass (:func:`circuit_ir.loads`), so neither its
    bytes nor its text are ever held whole.
    """
    from . import circuit_ir as cir

    with contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as fh:
        source = _Hashed(fh)
        circuit = cir.loads(source)
    return circuit, source.sha.hexdigest()


@contextlib.contextmanager
def _emitting():
    """An IR error raised while emitting is a bug, not bad input: the emitter chose every layer."""
    try:
        yield
    except CircuitError as e:
        raise InternalInvariant(f"emitter broke the circuit IR: {type(e).__name__}: {e}") from e


def cmd_synth(args, argv) -> int:
    from . import circuit_ir as cir
    from . import amplitudes as amp
    from . import protocols as proto

    model = cir.GateSetModel(args.epsilon)
    raw = _read(args.infile)
    target = amp.target_from_json(raw)
    cfg = proto.ProtocolConfig(
        n=target.n,
        m=args.m,
        complex_mode=args.complex_amps,
        dirty_b1=args.dirty_b1,
        loadf_first_optimized=args.loadf_first_optimized,
        fanout=not args.no_fanout,
    )
    with _emitting():
        circuit = cir.checked(proto.spcsp(target, cfg))
        report = cir.spacetime_allocation(circuit, model)
    _write(args.out, cir.json_chunks(circuit))
    doc = envelope(argv, _digest(raw), {"report": report.to_json()})
    if args.angles_out:
        _write(args.angles_out, [_dump(amp.angles_to_json(*proto.stage_angles(target, cfg)))])
    _write(args.report, [_dump(doc)])
    return 0


def cmd_simulate(args, argv) -> int:
    circuit, digest = _load_circuit(args.infile)
    from . import amplitudes as amp
    from . import sim

    if args.enumerate_basis:
        data = circuit.registers.get("D") or circuit.registers.get("D0")
        if not data:
            raise MalformedInput("circuit carries no D register to enumerate")
        cases = []
        for j in range(1 << len(data)):
            seeds = {q: (0.0, 1.0) for bit, q in enumerate(data) if (j >> bit) & 1}
            _, state = sim.run(circuit, seeds=seeds)
            value, prob = state.dominant_basis()
            regs = {
                name: sum(((value >> state._pos[q]) & 1) << i for i, q in enumerate(qs))
                for name, qs in circuit.registers.items()
                if qs and all(q in state._pos for q in qs)
            }
            cases.append({"input": j, "registers": regs, "probability": prob})
        doc = envelope(argv, digest, {"cases": cases})
        _write(args.report, [_dump(doc)])
        return 0
    target = amp.target_from_json(_read(args.target)).amplitudes if args.target else None
    report, _ = sim.run(circuit, target=target, target_order=circuit.registers.get("D"))
    doc = envelope(argv, digest, {"report": report.to_json()})
    _write(args.report, [_dump(doc)])
    return 0


def cmd_profile(args, argv) -> int:
    from . import circuit_ir as cir

    model = cir.GateSetModel(args.epsilon)
    circuit, digest = _load_circuit(args.infile)
    circuit = circuit.compact()
    live = circuit.live_profile()
    dirty = circuit.live_profile(circuit.of_kind(cir.DIRTY))
    report = cir.spacetime_allocation(circuit, model, profile=live)
    lines = ["layer,live,clean,dirty"]
    lines += [f"{t},{n},{n - d},{d}" for t, (n, d) in enumerate(zip(live, dirty))]
    _write(args.out, ["\n".join(lines) + "\n"])
    doc = envelope(argv, digest, {"report": report.to_json()})
    _write(args.report, [_dump(doc)])
    return 0


def cmd_multicopy(args, argv) -> int:
    from . import circuit_ir as cir
    from . import amplitudes as amp
    from . import multicopy as mc

    for flag, value, least in (("--w", args.w, 1), ("--pool", args.pool, 0), ("--indent", args.indent, 1)):
        if value is not None and value < least:
            raise BadFlag(f"{flag} must be at least {least}, got {value}")
    raw = _read(args.infile)
    doc_in = parse_json(raw)
    vectors = doc_in.get("targets") if type(doc_in) is dict else doc_in
    if type(vectors) is not list:
        raise MalformedInput('multicopy input must be a list of amplitude vectors or {"targets": [...]}')
    targets = [amp.target_from_json({"amplitudes": v}) for v in vectors]
    if args.w is not None:
        if len(targets) == 1:
            targets = targets * args.w
        elif len(targets) != args.w:
            raise MalformedInput(f"--w {args.w} disagrees with {len(targets)} targets")
    plan = mc.BatchPlan(targets, indentation=args.indent, pool_cap=args.pool,
                        fanout=not args.no_fanout)
    with _emitting():
        result = mc.stack(plan)
    _write(args.out, cir.json_chunks(result.circuit))
    doc = envelope(argv, _digest(raw), {
        "report": result.report.to_json(),
        "peak_ancillae": result.peak_ancillae,
        "indentation": result.indentation,
        "physical_qubits": result.physical_qubits,
    })
    _write(args.report, [_dump(doc)])
    return 0


#: fragment -> the flags it reads besides --m, the output flags and --epsilon
_FRAGMENT_FLAGS = {"copy": (), "cs": ("--t",), "copyswap": ("--basis",), "spf": ("--basis",), "flag": ("--basis",),
                  "loadf": ("--in", "--basis", "--complex", "--dirty-b1", "--no-fanout")}


def cmd_fragment(args, argv) -> int:
    from . import circuit_ir as cir
    from . import amplitudes as amp
    from . import protocols as proto

    given = {"--in": args.infile is not None, "--t": args.t is not None, "--basis": args.basis is not None,
             "--complex": args.complex_amps, "--dirty-b1": args.dirty_b1, "--no-fanout": args.no_fanout}
    unread = [flag for flag, on in given.items() if on and flag not in _FRAGMENT_FLAGS[args.name]]
    if unread:
        raise BadFlag(f"fragment {args.name} does not read {', '.join(unread)}")
    model = cir.GateSetModel(args.epsilon)
    raw = b""
    kwargs = {}
    angles = None
    if args.name == "loadf":
        if not args.infile:
            raise MalformedInput("loadf fragment needs --in with amplitudes")
        raw = _read(args.infile)
        target = amp.target_from_json(raw)
        angles = amp.csp_angles(target, args.m, with_phases=target.phased(args.complex_amps))
        kwargs["fanout"] = not args.no_fanout
        kwargs["dirty_b1"] = args.dirty_b1
    with _emitting():
        circuit = cir.checked(proto.fragment_circuit(args.name, m=args.m, angles=angles,
                                                     t=args.t or 0, basis=args.basis, **kwargs))
        report = cir.spacetime_allocation(circuit, model)
    _write(args.out, cir.json_chunks(circuit))
    doc = envelope(argv, _digest(raw), {"report": report.to_json()})
    _write(args.report, [_dump(doc)])
    return 0


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` (its subcommands' too) whose usage errors raise ``BadFlag``,
    exit 2 with one JSON error; ``--help`` and ``--version`` still print and exit 0."""

    def error(self, message):
        raise BadFlag(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="qsprep", description="low-depth state preparation compiler")
    p.add_argument("--version", action="version", version=f"qsprep {__version__}")
    subs = p.add_subparsers(dest="cmd", required=True)

    def common(sp, infile=True, costed=False, out=True):
        if infile:
            sp.add_argument("--in", dest="infile", required=True)
        if out:
            sp.add_argument("--out", default=None, help="circuit/CSV output path")
        sp.add_argument("--report", default=None, help="report JSON path (default stdout)")
        if costed:  # the commands whose report is priced by a gate-set cost model
            sp.add_argument("--epsilon", type=float, default=None)

    sp = subs.add_parser("synth", help="compile an amplitude vector")
    common(sp, costed=True)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--complex", dest="complex_amps", action="store_true")
    sp.add_argument("--dirty-b1", dest="dirty_b1", action="store_true")
    sp.add_argument("--loadf-first-optimized", action="store_true",
                    dest="loadf_first_optimized")
    sp.add_argument("--no-fanout", action="store_true")
    sp.add_argument("--angles-out", default=None)
    sp.set_defaults(fn=cmd_synth)

    sp = subs.add_parser("simulate", help="run a circuit JSON on the sparse-state simulator")
    common(sp, out=False)
    sp.add_argument("--target", default=None, help="amplitude JSON to compare against")
    sp.add_argument("--enumerate-basis", action="store_true")
    sp.set_defaults(fn=cmd_simulate)

    sp = subs.add_parser("profile", help="per-layer live-qubit histogram as CSV")
    common(sp, costed=True)
    sp.set_defaults(fn=cmd_profile)

    sp = subs.add_parser("multicopy", help="stack many preparations with ancilla reuse")
    common(sp)
    sp.add_argument("--w", type=int, default=None)
    sp.add_argument("--pool", type=int, default=None)
    sp.add_argument("--indent", type=int, default=None)
    sp.add_argument("--no-fanout", action="store_true")
    sp.set_defaults(fn=cmd_multicopy)

    sp = subs.add_parser("fragment", help="emit one subroutine as a standalone circuit")
    sp.add_argument("name", choices=["copy", "cs", "copyswap", "spf", "flag", "loadf"])
    common(sp, infile=False, costed=True)
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--basis", type=int, default=None)
    sp.add_argument("--complex", dest="complex_amps", action="store_true")
    sp.add_argument("--dirty-b1", dest="dirty_b1", action="store_true")
    sp.add_argument("--no-fanout", action="store_true")
    sp.set_defaults(fn=cmd_fragment)
    return p


def main(argv: list[str] | None = None) -> int:
    """Run one command with the cyclic garbage collector off.

    Exit 0 on success; 2 for bad input: a typed ``QsprepError`` (a bad
    flag is ``BadFlag``), an unreadable file, or input that does not decode
    as JSON text; 3 for anything else, which is a bug: ``InternalInvariant``
    or any other exception, whose traceback the error object carries.
    Either failure writes one JSON error object to stderr.

    Nothing a command builds holds a reference cycle, so reference
    counting frees it.  The columnar IR is a few arrays per layer, but
    reading circuit JSON makes a dict and two lists per gate, and the
    emitters make flat operand lists, young objects that collector passes
    would only rescan.  The caller's collector state is restored on return.
    OpenBLAS reads its thread count once, as numpy loads it.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        argv = list(sys.argv[1:] if argv is None else argv)
        args = build_parser().parse_args(argv)
        return args.fn(args, argv)
    except InternalInvariant as e:
        sys.stderr.write(_dump({"error": "InternalInvariant", "message": str(e)}) + "\n")
        return 3
    except (QsprepError, OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        sys.stderr.write(_dump({"error": type(e).__name__, "message": str(e)}) + "\n")
        return 2
    except Exception as e:
        sys.stderr.write(_dump({"error": type(e).__name__, "message": str(e),
                                "traceback": traceback.format_exc()}) + "\n")
        return 3
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
