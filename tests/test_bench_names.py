"""The benchmark tracer wraps package functions by name; every name it lists
must still exist, or ``perfbench/run.py --trace 1`` fails with no other test
failing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer,name", [
    (layer, name) for layer, names in _tracing().LAYERS.items() for name in names])
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"affinebv.{layer}")
    if "." in name:
        cls_name, meth = name.split(".")
        assert callable(getattr(module, cls_name).__dict__[meth])
    else:
        assert callable(getattr(module, name))


def test_benchmark_minimize_config_constructs():
    from affinebv.minimize import MinimizeConfig

    config = MinimizeConfig(seed=0, max_iters=300, n_starts=2)
    assert (config.seed, config.max_iters, config.n_starts) == (0, 300, 2)
