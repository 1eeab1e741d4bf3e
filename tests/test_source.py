"""Source-level rules for the qsprep package."""

import ast
from pathlib import Path

from qsprep import errors

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qsprep"


def package_nodes():
    """(module path relative to the package, AST node) for every node of every module."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.relative_to(PACKAGE), node


def test_no_assert_statements():
    """Invariants raise typed errors: `assert` statements vanish under `python -O`."""
    found = [f"{path}:{node.lineno}" for path, node in package_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_bare_base_error():
    """Every raise names its case: a class it raises is a `QsprepError` subclass, never the
    base (which would report only that) nor a builtin (which the CLI would report as a bug).

    The one exception follows a protocol: PEP 562's `AttributeError` in the package's
    `__getattr__`.  A raise of a computed value (a fault a helper built or collected)
    names no class and is not checked here.
    """
    allowed = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, errors.QsprepError)}
    allowed.discard("QsprepError")
    exempt = {("__init__.py", "AttributeError")}
    found = []
    for path, node in package_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "")
            if name[:1].isupper() and name not in allowed and (str(path), name) not in exempt:
                found.append(f"{path}:{node.lineno} {name}")
    assert found == []


def _pins_environ(node) -> bool:
    """Whether ``node`` is ``<...>.environ[<constant>] = <constant>``: a write of a constant."""
    if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
        return False
    target = node.targets[0]
    return (isinstance(target, ast.Subscript) and isinstance(target.value, ast.Attribute)
            and target.value.attr == "environ" and isinstance(target.slice, ast.Constant)
            and isinstance(node.value, ast.Constant))


def test_no_environment_knobs():
    """Every setting is a flag or an argument: no module reads the process environment.
    The one write allowed is the CLI's pin of OpenBLAS to one thread, a constant that
    nothing reads back, which numpy's OpenBLAS takes as it loads."""
    found, pins, pinned = [], [], set()
    for path, node in package_nodes():  # an assignment is walked before its target
        if _pins_environ(node):
            pins.append(f"{path}: {ast.unparse(node)}")
            pinned.add(node.targets[0].value)
        elif isinstance(node, ast.Attribute) and node.attr in ("environ", "environb", "getenv", "getenvb"):
            if node not in pinned:
                found.append(f"{path}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            names = {alias.name for alias in node.names}
            if names & {"environ", "environb", "getenv", "getenvb", "*"}:
                found.append(f"{path}:{node.lineno}")
    assert found == []
    assert pins == ["cli.py: os.environ['OPENBLAS_NUM_THREADS'] = '1'"]


def test_circuit_reader_never_parses_the_whole_document():
    """`circuit_ir.loads` decodes one value at a time: the module calls neither
    `json.loads` nor `parse_json`, so no circuit is ever parsed whole.  It reads only the
    ASCII layout the writer writes, so it detects no encoding (`json.detect_encoding`,
    `codecs`) and skips no whitespace (`json.decoder.WHITESPACE`)."""
    banned = {"parse_json", "codecs", "detect_encoding", "WHITESPACE"}
    found = []
    for path, node in package_nodes():
        if path.name != "circuit_ir.py":
            continue
        if isinstance(node, ast.Attribute) and (
                node.attr in banned or node.attr == "loads" and getattr(node.value, "id", None) in ("json", "errors")):
            found.append(f"{path}:{node.lineno}")
        elif isinstance(node, ast.Name) and node.id in banned:
            found.append(f"{path}:{node.lineno}")
        elif isinstance(node, ast.alias) and node.name.split(".")[0] in banned | {"loads"}:
            found.append(f"{path}:{node.lineno}")
    assert found == []


def test_circuit_reader_has_no_per_gate_path_of_its_own():
    """`circuit_ir.loads` and every module function it reaches by name never call
    `gate(...)` or `.place(...)`: the reader turns JSON into gates one way and leaves
    their rules to the circuit's one walk, so it cannot grow a second per-gate path."""
    path = PACKAGE / "circuit_ir.py"
    functions = {node.name: node for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}
    reader, todo = set(), ["loads"]
    while todo:
        name = todo.pop()
        if name not in reader:
            reader.add(name)
            todo += [n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name) and n.id in functions]
    assert {"loads", "_read_tables"} <= reader
    found = []
    for name in sorted(reader):
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call):
                callee = node.func
                if (getattr(callee, "id", None) == "gate"
                        or isinstance(callee, ast.Attribute) and callee.attr == "place"):
                    found.append(f"{name}:{node.lineno}")
    assert found == []


def test_simulator_has_no_per_gate_or_per_key_path():
    """`sim.py` reads a layer as op groups (`Circuit.groups`), never through `.gates(...)`,
    and no `for` loop or comprehension walks the branches: none iterates over anything
    that names the amplitudes or the keys, or over a dict's `.items()` or `.values()`."""
    branchy = {"_amp", "amp", "_keys", "keys", "items", "values"}
    found = []
    for path, node in package_nodes():
        if str(path) != "sim.py":
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "gates":
            found.append(f"{path}:{node.lineno} {ast.unparse(node)}")
        if isinstance(node, (ast.For, ast.comprehension)):
            named = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(node.iter)}
            if named & branchy:
                found.append(f"{path}:{getattr(node.iter, 'lineno', '?')} for ... in {ast.unparse(node.iter)}")
    assert found == []


def test_emitters_build_no_gate_tuples():
    """Gates enter a circuit one way, as column batches (`Circuit.put`, `Circuit._place`):
    no package module defines, imports or names a gate tuple or its builders (`Gate`,
    `new_gate`, `gate`, `place`, `append_layer`) or the gate-set expansion (`expand`,
    `expand_gate`, `DECOMPOSITIONS`), which live in `tests/reference.py`."""
    names = {"Gate", "new_gate", "gate", "place", "append_layer", "expand", "expand_gate", "DECOMPOSITIONS"}
    found = []
    for path, node in package_nodes():
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names
                or isinstance(node, ast.alias) and {node.name, node.asname} & names
                or isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.arg) and node.arg in names
                or isinstance(node, ast.Constant) and node.value in names):
            found.append(f"{path}:{getattr(node, 'lineno', '?')} {ast.unparse(node)}")
    assert found == []


def test_every_parameter_is_read():
    """No function takes a parameter its body never reads: a caller could pass it and
    change nothing.  Lambdas are exempt, because ``FRAGMENTS`` fixes their ``(m, n)``
    signature whether or not a budget uses both."""
    found = []
    for path, node in package_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{path}:{node.lineno} {node.name}({name})" for name in params if name not in read]
    assert found == []


def test_no_private_imports_across_modules():
    """No module imports another package module's underscore name: each private helper
    (the angle rule `_class_split` and `_split_angle` among them) stays in the module
    that owns it, so the package computes its angles in one place."""
    found = []
    for path, node in package_nodes():
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("qsprep")):
            found += [f"{path}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.startswith("__")]
    assert found == []


def test_every_private_name_is_read():
    """Every module-level private name of the package (a function, class, constant or
    import whose name starts with one ``_``) is read by another statement of the package:
    a helper that only its own body or the tests read is deleted."""
    modules = {path.relative_to(PACKAGE): ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}
    statements = [(path, stmt) for path, tree in modules.items() for stmt in tree.body]
    reads = [{n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)}
             for _, stmt in statements]
    found = []
    for k, (path, stmt) in enumerate(statements):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names = [alias.asname or alias.name for alias in stmt.names]
        else:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        found += [f"{path}:{stmt.lineno} {name}" for name in names if name.startswith("_") and not name.startswith("__")
                  and not any(name in read for j, read in enumerate(reads) if j != k)]
    assert found == []


#: lifecycle condition -> (the error class that names it, a phrase of its message)
ONE_SITE = {
    "release of no qubit": ("OperandNotLive", "is not allocated"),
    "second release": ("DoubleDealloc", "deallocated twice"),
    "release at or before a gate": ("UseAfterDealloc", "has activity at or past layer"),
    "gate on no qubit": ("OperandNotLive", "is not in the circuit"),
    "gate before allocation": ("OperandNotLive", "used before allocation"),
    "gate after release": ("UseAfterDealloc", "used after deallocation"),
    "second gate at or before a layer": ("LayerCollision", "in two gates"),
    "allocation outside the layers": ("OperandNotLive", "outside layers"),
    "lifetime leaving the layers": ("OperandNotLive", "leaves layers"),
    "alloc ids not dense": ("OperandNotLive", "dense qubit ids"),
    "unknown op": ("MalformedCircuit", "unknown op"),
    "operand or parameter count": ("MalformedCircuit", "qubits and"),
}


def fault_sites():
    """(place, error classes named, message text) of every site in the package that builds
    a typed fault: a call of an error class, or an (error class, message) pair."""
    classes = {name for name, value in vars(errors).items() if isinstance(value, type)}
    for path, node in package_nodes():
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in classes:
            yield f"{path}:{node.lineno}", {node.func.id}, ast.unparse(node)
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            named = {n.id for n in ast.walk(node.elts[0]) if isinstance(n, ast.Name)} & classes
            if named:
                yield f"{path}:{node.lineno}", named, ast.unparse(node.elts[1])


def test_each_release_fault_is_worded_at_one_site():
    """Each condition is worded once: every condition of ``ONE_SITE`` (a release's
    faults, a gate on a qubit not live at its layer, a lifetime outside the layers,
    sparse alloc ids, and a gate's op and counts) is built at exactly one site in the
    package, and every ``DoubleDealloc``, ``UseAfterDealloc`` and ``LayerCollision`` is
    one of them.  Placement, release and the walk name a gate's or a release's fault
    through one diagnosis, ``Circuit._id_faults``; placement and the walk reach it
    through one per-layer one, ``Circuit._layer_faults``."""
    sites = {condition: [] for condition in ONE_SITE}
    stray = []
    for place, named, text in fault_sites():
        found = [condition for condition, (error, phrase) in ONE_SITE.items() if error in named and phrase in text]
        for condition in found:
            sites[condition].append(place)
        if not found and named & {"DoubleDealloc", "UseAfterDealloc", "LayerCollision"}:
            stray.append(f"{place} {text}")
    assert {condition: len(found) for condition, found in sites.items()} == dict.fromkeys(ONE_SITE, 1), sites
    assert stray == []


def _os_calls(tree, name: str) -> list:
    """The calls ``os.<name>(...)`` under ``tree``."""
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == name and getattr(n.func.value, "id", None) == "os"]


def test_one_fork_whose_child_exits_and_is_reaped():
    """The package forks at one site, in one function: the branch the child takes
    (``if not pid:``) ends in ``os._exit``, so a child never returns into its caller,
    flushes a buffer it inherited or runs an exit handler, and every ``os.waitpid`` of
    the package sits in that function's ``finally``, so no path leaves the child unreaped."""
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}
    forks = [(path, call) for path, tree in modules.items() for call in _os_calls(tree, "fork")]
    assert len(forks) == 1, forks
    path, call = forks[0]
    site = max((f for f in ast.walk(modules[path]) if isinstance(f, ast.FunctionDef) and call in ast.walk(f)),
               key=lambda f: f.lineno)  # the innermost function around the call
    pid, = (n.targets[0].id for n in ast.walk(site) if isinstance(n, ast.Assign) and n.value is call)

    def exits(stmt) -> bool:
        if isinstance(stmt, ast.Try):
            return bool(stmt.finalbody) and exits(stmt.finalbody[-1])
        return isinstance(stmt, ast.Expr) and stmt.value in _os_calls(stmt, "_exit")

    child = [n for n in ast.walk(site) if isinstance(n, ast.If) and isinstance(n.test, ast.UnaryOp)
             and isinstance(n.test.op, ast.Not) and getattr(n.test.operand, "id", None) == pid]
    assert len(child) == 1 and exits(child[0].body[-1]), ast.unparse(site)
    reaped = [c for t in ast.walk(site) if isinstance(t, ast.Try) for s in t.finalbody for c in _os_calls(s, "waitpid")]
    waits = [c for tree in modules.values() for c in _os_calls(tree, "waitpid")]
    assert reaped and sorted(map(id, waits)) == sorted(map(id, reaped))
