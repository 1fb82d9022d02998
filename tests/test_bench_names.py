"""The benchmark tracer wraps package functions by name; every name it lists
must still exist, or ``perfbench/run.py --trace 1`` fails with no other test
failing.  One pass of the energy workload runs with its own checks, so an
energy the benchmark would reject fails here first."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("tracing")


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


def test_traced_counts_read_real_calls(monkeypatch):
    """Each ``COUNTS`` function reads fields of a real call's arguments and
    result; a renamed field would break only ``run.py --trace 1``."""
    import numpy as np

    import affinebv as ab
    from affinebv import functionals

    tracing = _tracing()
    layer_of = {q: layer for layer, names in tracing.LAYERS.items() for q in names}
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "affinebv" or n.startswith("affinebv."))]
    calls = {name: [] for name in tracing.COUNTS}
    for name in tracing.COUNTS:
        orig = getattr(importlib.import_module(f"affinebv.{layer_of[name]}"), name)

        def recorded(*args, _name=name, _orig=orig, **kwargs):
            out = _orig(*args, **kwargs)
            calls[_name].append((args, kwargs, out))
            return out

        # rebind wherever a module binds it, as Tracer.install does
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, recorded)

    spec = ab.GridSpec(dim=2, shape=(16, 16), spacing=2.6 / 16, origin=(-1.3, -1.3))
    mask = ab.make_mask(spec, {"shape": "ball", "center": [0.0, 0.0], "radius": 0.9})
    quad = ab.make_quadrature(2, 16)
    x = spec.cell_centers()
    u = ab.GridFunction(spec, np.where(mask.inside, 1.0 + x[..., 0] - x[..., 1] ** 2, 0.0))
    cspec = ab.ConstraintSpec(q=1.5, kind="Y", r=2.0)
    ab.affine_energy_extended(u, mask, "face-atoms", quad)
    functionals.project_constraint(u, cspec, mask)
    ab.minimize_level(mask, ab.Weights(0.0, 0.0), cspec,
                      ab.MinimizeConfig(max_iters=3, n_starts=1), quad, "cell-gradient")

    for name, counters in tracing.COUNTS.items():
        assert calls[name], f"{name} was not called"
        for args, kwargs, out in calls[name]:
            for key, count in counters:
                value = count(args, kwargs, out)
                assert int(value) == value >= 0, (key, value)


def test_energy_sweep_pass_checks():
    """Every operation of one ``energy_sweep`` pass (seed 1, pass 0) passes
    the benchmark's own check: each energy against its dense evaluation
    over the full atom array, and the indicators against the oracle."""
    workload = _load("workloads").EnergySweep(1)
    ops = workload.pass_ops(0)
    assert {op.cls for op in ops} == {"energy2d", "energy2d_hires", "energy3d",
                                      "indicator2d", "indicator3d"}
    for op in ops:
        assert op.check(op.run()) is None, op.cls
