"""Design ratchets over the package source.

A settable value is a parameter with a default or an annotated field of a
``@dataclass`` class, counted over the AST of ``src/affinebv/*.py``.  Each
one doubles a configuration that tests and benchmarks could have to cover,
so the count may fall but not rise; lower ``MAX_SETTABLE`` when it falls.
Every public function and method has a caller in the package or the
benchmark, and every private one a caller in the package.  At most one
function forks worker processes, and only ``forkmap.py`` imports
``multiprocessing``, ``pickle`` or ``threading``.  The verification
report's schema lists
exactly ``VerifyConfig``'s fields.
"""

import ast
import dataclasses
import json
import re
from pathlib import Path

from affinebv.verify import VerifyConfig

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "affinebv"
PERFBENCH = ROOT / "perfbench"
MAX_SETTABLE = 76


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def settable_values(source):
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            count += len(args.defaults)
            count += sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                _is_dataclass(d) for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return count


def test_counter_follows_the_rule():
    source = '''
from dataclasses import dataclass, field

def f(a, b=1, *, c, d=2):
    g = lambda x=0: x

@dataclass(frozen=True)
class C:
    x: int
    y: int = 0
    z: list = field(default_factory=list)
    K = 3

class Plain:
    w: int = 0
'''
    assert settable_values(source) == 3 + 3


def test_settable_values_do_not_grow():
    total = sum(settable_values(p.read_text()) for p in sorted(SRC.glob("*.py")))
    assert total <= MAX_SETTABLE, (
        f"{total} settable values in src/affinebv, more than {MAX_SETTABLE}")


def fork_callers(source):
    """Names of the functions in ``source`` that call ``get_context("fork")``,
    the innermost one for a call in a nested function."""
    tree = ast.parse(source)
    defs = [n for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    callers = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None))
                == "get_context"
                and [getattr(a, "value", None) for a in node.args] == ["fork"]):
            around = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
            callers.add(max(around, key=lambda d: d.lineno).name
                        if around else "<module>")
    return callers


def test_fork_finder_follows_the_rule():
    source = '''
import multiprocessing
from multiprocessing import get_context

def outer():
    def inner():
        return multiprocessing.get_context("fork")
    return inner

class Pool:
    def start(self):
        return get_context("fork")

def spawned():
    return multiprocessing.get_context("spawn")

CTX = multiprocessing.get_context("fork")
'''
    assert fork_callers(source) == {"inner", "start", "<module>"}


def test_one_fork_mechanism():
    # a further caller of forked workers reuses forkmap.fork_map
    callers = sorted(f"{p.stem}.{name}" for p in sorted(SRC.glob("*.py"))
                     for name in fork_callers(p.read_text()))
    assert len(callers) <= 1, f"more than one function forks workers: {callers}"


FORK_MODULES = {"multiprocessing", "pickle", "threading"}


def fork_imports(source):
    """The modules of ``FORK_MODULES`` that ``source`` imports, at any depth
    and under any name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found & FORK_MODULES


def test_fork_import_finder_follows_the_rule():
    source = '''
import os, pickle as pk
from multiprocessing.connection import Pipe
from .threading import x

def late():
    import threading
    from collections import deque
'''
    assert fork_imports(source) == {"pickle", "multiprocessing", "threading"}
    assert fork_imports("from . import threading\nimport os\n") == set()


def test_fork_layer_stays_in_forkmap():
    # process, pickling and thread machinery stays behind forkmap.fork_map
    leaks = {p.stem: sorted(found) for p in sorted(SRC.glob("*.py"))
             if p.name != "forkmap.py" and (found := fork_imports(p.read_text()))}
    assert not leaks, f"modules besides forkmap import the fork layer: {leaks}"


def test_report_schema_config_matches_verify_config():
    # the schema describes exactly the settings a report's config carries
    schema = json.loads((SRC / "report_schema.json").read_text())
    config = schema["properties"]["config"]
    assert set(config["properties"]) == {
        f.name for f in dataclasses.fields(VerifyConfig)}
    assert set(config["required"]) <= set(config["properties"])


def _docstrings(tree):
    """Docstring nodes of the module, classes and functions in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                out.add(id(body[0].value))
    return out


def references(source):
    """``(name, line)`` for every name a module uses: a variable, an
    attribute, or an identifier inside a string constant (the benchmark
    tracer names what it wraps in strings).  Imports and docstrings are not
    uses."""
    tree = ast.parse(source)
    docs = _docstrings(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in docs):
            out += [(w, node.lineno)
                    for w in re.findall(r"[A-Za-z_]\w*", node.value)]
    return out


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def functions(source, private=False):
    """``(qualname, name, first line, last line)`` of each public top-level
    function and each public method of a public top-level class; with
    ``private``, of each private top-level function and each private method
    of a top-level class instead (dunders are neither)."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members = [(node.name, node)]
        elif isinstance(node, ast.ClassDef) and (private or not _is_private(node.name)):
            members = [(f"{node.name}.{m.name}", m) for m in node.body
                       if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
        else:
            continue
        out += [(q, f.name, f.lineno, f.end_lineno) for q, f in members
                if _is_private(f.name) == private and not f.name.endswith("__")]
    return out


def functions_without_caller(src, perfbench, private=False):
    """Public (or, with ``private``, private) functions and methods of the
    ``*.py`` files in ``src`` that no module of ``src`` (``__init__.py``
    aside) uses outside the function's own definition, nor, for public
    ones, a module of ``perfbench``."""
    modules = {p: p.read_text() for p in sorted(src.glob("*.py"))
               if p.name != "__init__.py"}
    refs = {p: references(s) for p, s in modules.items()}
    bench = set() if private else {name for p in sorted(perfbench.glob("*.py"))
                                   for name, _ in references(p.read_text())}
    missing = []
    for path, source in modules.items():
        for qualname, name, first, last in functions(source, private):
            used = name in bench or any(
                name == ref and (p != path or not first <= line <= last)
                for p, rs in refs.items() for ref, line in rs)
            if not used:
                missing.append(f"{path.stem}.{qualname}")
    return missing


def test_caller_finder_follows_the_rule(tmp_path):
    src = tmp_path / "src"
    bench = tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from .a import only_exported\n")
    (src / "a.py").write_text('''
"""Mentions only_documented."""

def only_exported():
    pass

def only_documented():
    """Calls itself: only_documented()."""
    return only_documented()

def called():
    pass

def benched():
    pass

def named():
    pass

def _private():
    pass

class Thing:
    def used(self):
        called()

    def unused(self):
        pass

    def _hidden(self):
        pass
''')
    (src / "b.py").write_text("from .a import Thing\nThing().used()\nLAYERS = ('a.named',)\n")
    (bench / "run.py").write_text("import a\na.benched()\n")
    assert functions_without_caller(src, bench) == [
        "a.only_exported", "a.only_documented", "a.Thing.unused"]


def test_private_caller_finder_follows_the_rule(tmp_path):
    src = tmp_path / "src"
    bench = tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "__init__.py").write_text("from .a import _exported\n")
    (src / "a.py").write_text('''
def _exported():
    pass

def _recursive():
    return _recursive()

def _called():
    pass

def _benched():
    pass

class Thing:
    def __init__(self):
        self._used()

    def _used(self):
        _called()

    def _unused(self):
        pass

class _Hidden:
    def _unused(self):
        pass
''')
    (bench / "run.py").write_text("import a\na._benched()\n")
    assert functions_without_caller(src, bench, private=True) == [
        "a._exported", "a._recursive", "a._benched", "a.Thing._unused",
        "a._Hidden._unused"]


def test_every_public_function_has_a_caller():
    missing = functions_without_caller(SRC, PERFBENCH)
    assert not missing, f"public functions with no caller: {missing}"


def test_every_private_function_has_a_caller():
    # reference code that only tests run lives in the tests
    missing = functions_without_caller(SRC, PERFBENCH, private=True)
    assert not missing, f"private functions with no caller in src: {missing}"
