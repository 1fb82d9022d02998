"""Design ratchets over the package source.

A settable value is a parameter with a default or an annotated field of a
``@dataclass`` class, counted over the AST of ``src/affinebv/*.py``.  Each
one doubles a configuration that tests and benchmarks could have to cover,
so the count may fall but not rise; lower ``MAX_SETTABLE`` when it falls.
The verification report's schema lists exactly ``VerifyConfig``'s fields.
"""

import ast
import dataclasses
import json
from pathlib import Path

from affinebv.verify import VerifyConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "affinebv"
MAX_SETTABLE = 104


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


def test_report_schema_config_matches_verify_config():
    # the schema describes exactly the settings a report's config carries
    schema = json.loads((SRC / "report_schema.json").read_text())
    config = schema["properties"]["config"]
    assert set(config["properties"]) == {
        f.name for f in dataclasses.fields(VerifyConfig)}
    assert set(config["required"]) <= set(config["properties"])
