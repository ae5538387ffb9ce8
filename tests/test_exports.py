"""Every exported name resolves, in each module and in the package, and so
does every name the bench imports; every imported name is used or exported."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lacunary
from lacunary import jsonio
from lacunary.sequences import Record

MODULES = ("cli", "corpus", "engine", "jsonio", "linalg", "operators", "sequences")


@pytest.mark.parametrize("name", ("lacunary",) + tuple(f"lacunary.{m}" for m in MODULES))
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            # `import *` binds only the names its module exports
            names |= {a.asname or a.name for a in node.names if a.name != "*"}
    return names


def _used(tree: ast.Module) -> set[str]:
    nodes = list(ast.walk(tree))
    annotations = [n.annotation for n in nodes if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in nodes if isinstance(n, ast.FunctionDef)]
    quoted = [  # forward references such as Optional["FiniteSolution"]
        ast.parse(c.value, mode="eval")
        for a in annotations if a is not None
        for c in ast.walk(a) if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]
    return {n.id for t in [tree, *quoted] for n in ast.walk(t) if isinstance(n, ast.Name)}


def _exported(path: Path) -> set[str]:
    """What the module at path exports, read from the module itself."""
    name = "lacunary" if path.stem == "__init__" else f"lacunary.{path.stem}"
    return set(importlib.import_module(name).__all__)


SOURCES = sorted(Path(lacunary.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not sorted(_imported(tree) - _used(tree) - _exported(path))


# json.dumps builds the whole text before it is written: seven times the size
# of a dense kernel basis at the peak
BUILT_TEXT = re.compile(r"\bjson\.dumps\b|\bimport\b[^\n]*\bdumps\b")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_outputs_stream_through_dump_canonical(path):
    assert not BUILT_TEXT.findall(path.read_text(encoding="utf-8"))


# json.load builds a tree of dicts before anything reads it: every file is
# read through jsonio's loaders, whose certificate loader decodes finite
# solutions while the file is parsed
PARSED_TREE = re.compile(r"\bjson\.loads?\b|\bimport\b[^\n]*\bloads?\b")


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.stem != "jsonio"], ids=lambda p: p.stem,
)
def test_inputs_are_read_through_jsonio(path):
    assert not PARSED_TREE.findall(path.read_text(encoding="utf-8"))


# what turns a command-line argument's text into its value
ARGUMENT_READERS = {
    "_load_json", "_load_certificate", "operator_from_json", "sequence_from_json", "_parse_window",
}


def test_cli_handlers_take_values_not_argument_text():
    """main reads every input, once and in one order, so no `_cmd_*` handler
    calls a reader of its own and each error keeps its precedence."""
    tree = ast.parse(Path(lacunary.__file__).with_name("cli.py").read_text(encoding="utf-8"))
    handlers = [n for n in tree.body if getattr(n, "name", "").startswith("_cmd_")]
    assert len(handlers) == 7
    reads = [
        f"{handler.name} calls {name}:{node.lineno}"
        for handler in handlers for node in ast.walk(handler) if isinstance(node, ast.Call)
        for name in [getattr(node.func, "id", getattr(node.func, "attr", None))]
        if name in ARGUMENT_READERS
    ]
    assert not reads


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _library_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def _attributes(trees: dict[str, ast.Module]) -> set[str]:
    """Every name the library reads or calls as an attribute, `x.name`."""
    return {n.attr for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.Attribute)}


def test_no_unreferenced_private_functions_classes_or_methods():
    """A private def nothing in the library refers to is dead code, such as a
    routine left behind where it used to live; so is one that its own module
    also imports, since one binding shadows the other."""
    trees = _library_trees()
    defs = (ast.FunctionDef, ast.ClassDef)
    loaded = {m: {n.id for n in ast.walk(t) if isinstance(n, ast.Name)} for m, t in trees.items()}
    imported = {  # (module, name) pairs that `from .module import name` reaches
        (node.module, a.name)
        for t in trees.values()
        for node in ast.walk(t)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
    }
    attrs = _attributes(trees)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, defs) and _private(node.name):
                name = node.name
                if (module, name) not in imported and name not in loaded[module]:
                    dead.append(f"{module}.{name}")
                if name in _imported(tree):
                    dead.append(f"{module}.{name} (also imported)")
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(method, defs) and _private(method.name) and method.name not in attrs:
                    dead.append(f"{module}.{node.name}.{method.name}")
    assert not sorted(dead)


def test_no_unreferenced_public_methods_or_properties():
    """A public method or property of a library class that no library code
    reads as an attribute serves only tests and demos, so it does not belong
    in the library: a view such as the sum of a partial solution's blocks
    lives in tests/oracles.py instead."""
    trees = _library_trees()
    attrs = _attributes(trees)
    dead = [
        f"{module}.{node.name}.{method.name}"
        for module, tree in trees.items()
        for node in tree.body if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("_")
        and method.name not in attrs
    ]
    assert not sorted(dead)


def _referred(tree: ast.AST) -> set[str]:
    """Every name a syntax tree loads, reads as an attribute or imports."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names |= {a.name for a in n.names}
    return names


def test_no_unreferenced_public_functions_or_classes():
    """A public function or class that no library module but `__init__` refers
    to, that the package does not export and that the bench does not import
    serves only tests and demos, so it does not belong in the library: the
    runner of the corpus facts lives in tests/test_corpus.py instead.  A
    definition's references to itself do not count."""
    trees = _library_trees()
    del trees["__init__"]
    exported = set(lacunary.__all__)
    bench = _bench_imports()
    refs = {module: _referred(tree) for module, tree in trees.items()}
    dead = []
    for module, tree in trees.items():
        elsewhere = set().union(*(r for m, r in refs.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            name = node.name
            rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
            used = name in elsewhere or name in _referred(rest)
            if not used and name not in exported and (f"lacunary.{module}", name) not in bench:
                dead.append(f"{module}.{name}")
    assert not sorted(dead)


LAYERS = ("engine", "linalg", "operators", "sequences")


def test_package_exports_what_the_layer_modules_export():
    """Each public name is listed once, in its layer module's __all__, and the
    package exports exactly those lists, so the two cannot drift apart."""
    layers = [name for m in LAYERS for name in importlib.import_module(f"lacunary.{m}").__all__]
    assert len(set(layers)) == len(layers)
    assert sorted(lacunary.__all__) == sorted(layers)


def test_corpus_imports_only_operators_and_sequences():
    """The corpus is data, operator builders and their known facts: it imports
    no engine, linear algebra or wire format, and tests/test_corpus.py runs the
    facts."""
    imported = set()
    for node in ast.walk(_library_trees()["corpus"]):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported |= {node.module} if node.module else {a.name for a in node.names}
    assert imported <= {"operators", "sequences"}


def test_each_kind_tag_is_written_once():
    """A tagged kind's "kind" string is written in `jsonio._KINDS` and nowhere
    else in jsonio or cli: no other string constant equals one, and no string
    is written under a "kind" key or compared with a `kind`, so the codec, not
    a reader or writer of its own, handles every tagged kind."""
    tags = set(jsonio._KINDS.values())
    trees = _library_trees()
    table = next(
        node.value for node in trees["jsonio"].body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_KINDS"
    )
    skip = set(map(id, ast.walk(table)))
    strings = []
    for module in ("jsonio", "cli"):
        for node in ast.walk(trees[module]):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Dict):
                strings += [
                    v for k, v in zip(node.keys, node.values)
                    if isinstance(k, ast.Constant) and k.value == "kind"
                ]
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                if any(getattr(n, "id", None) == "kind" for n in sides):
                    strings += sides
            elif isinstance(node, ast.Constant) and node.value in tags:
                strings.append(node)
    written = [
        f"{n.value!r} at line {n.lineno}"
        for n in strings if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]
    assert not written


# value types built some other way than by Record's binding
OTHER_VALUE_TYPES = {"NamedTuple", "namedtuple", "dataclass", "dataclasses"}


def test_every_value_class_is_a_record_built_by_its_binding():
    """Every class that declares fields is a Record, no Record subclass has an
    `__init__` of its own (`__post_init__` checks and normalizes), and no
    NamedTuple, namedtuple or dataclass is named: a value is built one way."""
    found = []
    for module, tree in _library_trees().items():
        live = importlib.import_module("lacunary" if module == "__init__" else f"lacunary.{module}")
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            cls = getattr(live, node.name)
            if any(isinstance(n, ast.AnnAssign) for n in node.body) and not issubclass(cls, Record):
                found.append(f"{module}.{node.name} is not a Record")
            if issubclass(cls, Record) and cls.__init__ is not Record.__init__:
                found.append(f"{module}.{node.name} defines __init__")
        for n in ast.walk(tree):
            names = {getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "module", None)}
            if isinstance(n, (ast.Import, ast.ImportFrom)):
                names |= {a.name for a in n.names}
            if names & OTHER_VALUE_TYPES:
                found.append(f"{module}.py:{n.lineno} names {sorted(names & OTHER_VALUE_TYPES)}")
    assert not found


def test_only_the_certificate_decoder_builds_past_the_binding():
    """`__new__` builds an object without its `__init__`, so a Record built
    that way skips `__post_init__`'s checks.  Only `jsonio._decode` may: it
    runs no Python call per solution of a certificate file, and the binding
    would be one."""
    trees = _library_trees()
    found = [
        (module, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if "__new__" in {getattr(node, key, None) for key in ("attr", "id", "name")}
    ]
    decode = next(f for f in trees["jsonio"].body if getattr(f, "name", None) == "_decode")
    assert [(m, decode.lineno <= line <= decode.end_lineno) for m, line in found] == [
        ("jsonio", True)
    ], found


REQUIRES_PYTHON = re.search(
    r'^requires-python = ">=(\d+)\.(\d+)"$',
    (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8"),
    re.MULTILINE,
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_sources_parse_at_the_declared_python_floor(path):
    # the tests run on one interpreter, which also accepts syntax newer than the floor
    floor = tuple(map(int, REQUIRES_PYTHON.groups()))
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)


KINDS = {"FiniteTable", "Periodic", "ResiduePolynomial", "GeometricSupport"}
KIND_FIELDS = {"scale", "shift", "allow_negative_m", "per_class"}


def test_only_sequences_dispatches_on_the_sequence_kinds():
    """Each kind answers for itself (its period, support walk, mask points and
    natural mask), so no other module asks `isinstance` of a kind or reads a
    kind's own fields.  A Periodic's `period` is not checked here, since
    `OperatorSpec.period` has the same name."""
    ladders = []
    for module, tree in _library_trees().items():
        if module == "sequences":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                classes = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                if classes & KINDS:
                    ladders.append(f"{module}.py:{node.lineno} isinstance")
            elif isinstance(node, ast.Attribute) and node.attr in KIND_FIELDS:
                ladders.append(f"{module}.py:{node.lineno} .{node.attr}")
    assert not sorted(ladders)


def test_star_import():
    namespace: dict = {}
    exec("from lacunary import *", namespace)
    assert set(lacunary.__all__) <= set(namespace)


# Every command is a fresh interpreter, so what `import lacunary.cli` loads is
# paid on each one: neither `dataclasses` (which loads `inspect`), nor the
# corpus, which only `lacunary corpus` reads, nor `argparse` (which loads
# `gettext` and `locale`).
STARTUP_PROBE = """
import json, sys
import lacunary.cli
skipped = ("dataclasses", "inspect", "lacunary.corpus", "argparse", "gettext", "locale")
print(json.dumps([m for m in skipped if m in sys.modules]))
"""


def test_cli_import_skips_dataclasses_and_corpus():
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}

    def python(*args):
        proc = subprocess.run(
            [sys.executable, *args], cwd=root, env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert json.loads(python("-c", STARTUP_PROBE)) == []
    entry = json.loads(python("-m", "lacunary.cli", "corpus", "vanish_on_multiples_r2"))
    assert entry["name"] == "vanish_on_multiples_r2"


# `from lacunary... import ...` anywhere in the text, so also in the source
# strings the bench runs in a subprocess, which no syntax tree shows as imports
BENCH_IMPORT = re.compile(r"from\s+(lacunary(?:\.\w+)*)\s+import\s+(\([^)]*\)|[^\n]+)")


def _bench_imports() -> set[tuple[str, str]]:
    """Each (module, name) that a `from lacunary... import name` in bench/ names."""
    bench = Path(__file__).resolve().parent.parent / "bench"
    found = set()
    for path in sorted(bench.glob("*.py")):
        for module, names in BENCH_IMPORT.findall(path.read_text(encoding="utf-8")):
            for name in names.strip("()").split(","):
                if name.strip():
                    found.add((module, name.split(" as ")[0].strip()))
    return found


def test_every_name_the_bench_imports_resolves():
    found = _bench_imports()
    assert ("lacunary.jsonio", "operator_to_json") in found
    missing = [
        f"{module}.{name}"
        for module, name in sorted(found)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
