"""Spans around calls into affinebv's public functions, installed from outside.

``Tracer.install`` rebinds every listed function wherever an ``affinebv``
module binds it by name (the package re-exports and each ``from .x import
y``), and replaces the listed class methods on their classes.  Each call
made while the tracer is enabled records a span: name, start, end, parent
span and operation id.  Spans stay in memory until ``write``.  Self time is
a span's duration minus the durations of its direct children; spans nest
strictly because the package runs in one thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# layer -> functions (or Class.method) whose calls become spans
LAYERS = {
    "grid": ("make_mask", "extract_trace", "mollify", "resample_affine", "lq_norm"),
    "variation": ("compute_atoms", "psi_samples", "covariance_eigen_ratio",
                  "total_variation", "atoms_from_trace", "VariationAtoms.transformed"),
    "energy": ("energy_from_psi", "make_quadrature", "affine_energy_interior",
               "affine_energy_boundary", "affine_energy_extended", "energy_of_atoms"),
    "functionals": ("project_constraint", "m_r_solve", "phi_affine", "truncate",
                    "clamp_rim"),
    "minimize": ("SmoothedProblem.__init__", "SmoothedProblem.value",
                 "SmoothedProblem.value_and_gradient", "SmoothedProblem.atom_matrix",
                 "initial_guesses", "sl_n_minimize_tv", "minimize_level"),
    "verify": ("check_sobolev_zhang", "check_comparisons", "check_superadditivity",
               "check_affine_invariance", "check_wirtinger_gap", "check_huang_li",
               "random_bumps", "run_suite"),
}

# counts taken from a call's arguments and result: function -> (counter, fn)
COUNTS = {
    "compute_atoms": (("variation.compute_atoms.atoms", lambda a, k, out: len(out)),),
    "psi_samples": (("variation.psi_samples.pairs",
                     lambda a, k, out: len(a[0]) * len(a[1])),),
    "project_constraint": (("functionals.project_constraint.rounds",
                            lambda a, k, out: out.rounds),
                           ("functionals.project_constraint.converged",
                            lambda a, k, out: int(out.converged))),
    "minimize_level": (("minimize.accepted_steps",
                        lambda a, k, out: sum(max(len(h) - 2, 0) for h in out.histories)),),
}


def metric_label(qualname):
    """Metric stem of a traced function: the constructor is the class name."""
    return qualname.removesuffix(".__init__")


def per_layer_names():
    """Every per-layer metric name with its unit and direction, in order."""
    out = []
    for layer, names in LAYERS.items():
        for q in names:
            stem = f"{layer}.{metric_label(q)}"
            out += [(f"{stem}.calls", "count", "lower"), (f"{stem}.self_s", "s", "lower")]
        out.append((f"{layer}.self_s", "s", "lower"))
    out += [
        ("variation.compute_atoms.atoms", "count", "lower"),
        ("variation.psi_samples.pairs", "count", "lower"),
        ("variation.psi_samples.pairs_per_s", "1/s", "higher"),
        ("functionals.project_constraint.rounds", "count", "lower"),
        ("functionals.project_constraint.converged_ratio", "ratio", "higher"),
        ("minimize.accepted_steps", "count", "lower"),
        ("minimize.accept_ratio", "ratio", "higher"),
        ("minimize.evals_per_step", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = None
        self.names = []     # per span
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.stack = []
        self.counts = {}

    # -- installation ------------------------------------------------------
    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "affinebv" or n.startswith("affinebv."))]
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"affinebv.{layer}")
            for q in names:
                if "." in q:
                    cls_name, meth = q.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._wrap(q, cls.__dict__[meth]))
                    continue
                orig = getattr(module, q)
                wrapped = self._wrap(q, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)

    def _wrap(self, name, fn):
        counts = COUNTS.get(name, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.ops.append(self.op)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.stack.append(sid)
            self.starts[sid] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[sid] = perf_counter()
                self.stack.pop()
            for key, count in counts:
                self.counts[key] = self.counts.get(key, 0) + count(args, kwargs, out)
            return out

        return wrapper

    # -- results -------------------------------------------------------------
    def root_seconds(self):
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents) if p < 0)

    def metrics(self, n_passes, traced_total, traced_pass, untraced_pass):
        """Per-layer metrics per traced pass.  ``traced_total`` is the timed
        wall time of all traced passes; the overhead compares the median
        traced and untraced pass times."""
        child = [0.0] * len(self.names)
        for s, e, p in zip(self.starts, self.ends, self.parents):
            if p >= 0:
                child[p] += e - s
        calls, self_s = {}, {}
        for i, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (self.ends[i] - self.starts[i] - child[i])
        out = {}
        for layer, names in LAYERS.items():
            total = 0.0
            for q in names:
                stem = f"{layer}.{metric_label(q)}"
                out[f"{stem}.calls"] = calls.get(q, 0) / n_passes
                out[f"{stem}.self_s"] = self_s.get(q, 0.0) / n_passes
                total += self_s.get(q, 0.0)
            out[f"{layer}.self_s"] = total / n_passes
        c = self.counts
        psi_self = self_s.get("psi_samples", 0.0)
        value_calls = calls.get("SmoothedProblem.value", 0)
        evals = value_calls + calls.get("SmoothedProblem.value_and_gradient", 0)
        accepted = c.get("minimize.accepted_steps", 0)
        rounds_calls = calls.get("project_constraint", 0)
        out.update({
            "variation.compute_atoms.atoms": c.get("variation.compute_atoms.atoms", 0) / n_passes,
            "variation.psi_samples.pairs": c.get("variation.psi_samples.pairs", 0) / n_passes,
            "variation.psi_samples.pairs_per_s":
                c.get("variation.psi_samples.pairs", 0) / psi_self if psi_self > 0 else 0.0,
            "functionals.project_constraint.rounds":
                c.get("functionals.project_constraint.rounds", 0) / n_passes,
            "functionals.project_constraint.converged_ratio":
                c.get("functionals.project_constraint.converged", 0) / rounds_calls
                if rounds_calls else 0.0,
            "minimize.accepted_steps": accepted / n_passes,
            "minimize.accept_ratio": accepted / value_calls if value_calls else 0.0,
            "minimize.evals_per_step": evals / accepted if accepted else 0.0,
            "trace.coverage": self.root_seconds() / traced_total,
            "trace.overhead_frac": traced_pass / untraced_pass - 1.0,
        })
        return out

    def write(self, path):
        spans = [{"name": n, "start": s, "end": e, "parent": p if p >= 0 else None, "op": o}
                 for n, s, e, p, o in zip(self.names, self.starts, self.ends,
                                          self.parents, self.ops)]
        with open(path, "w") as f:
            json.dump({"spans": spans}, f)
