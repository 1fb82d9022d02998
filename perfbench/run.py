"""affinebv benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload energy_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
The run builds its inputs from the seed, then runs whole passes of the
workload until ``--seconds`` would be exceeded (at least the workload's
minimum number of passes), checking every operation outside the timed
region.  ``--trace 1`` runs half the time untraced, then as many passes
again with spans around the package's public functions, and writes the
spans to ``perfbench/out/``.

Standard output: a detail line (every metric under the names in
``perfbench/METRICS.md``, sample counts, environment, failures), then as
the last line ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("energy_sweep", "minimize_levels", "verify_default")
# set-up is measured in this many fresh processes; the median is reported
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the monotonic clock and exit")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def import_package():
    """Import affinebv from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import affinebv

    if not Path(affinebv.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: affinebv imported from {affinebv.__file__}, not {SRC}")
    import workloads

    return workloads


def setup_seconds(args):
    """Process start to inputs built, in a fresh interpreter (the monotonic
    clock is shared by all processes of the machine)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          check=True)
    return float(proc.stdout.split()[-1]) - t0


# -- environment ------------------------------------------------------------------

def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


# -- passes ---------------------------------------------------------------------------

class Tally:
    """Samples, checks and failures of every operation in the run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.samples = {}
        self.last = {}
        self.self_test = None    # True once a perturbed result was caught

    def add(self, cls, seconds, failure, result):
        self.attempted += 1
        self.samples.setdefault(cls, []).append(seconds)
        if failure is not None:
            self.failures.append(f"{cls} #{self.attempted}: {failure}")
        else:
            self.last[cls] = result


def checked(check, result):
    """A check's verdict; an exception raised by the check is a failure."""
    try:
        return check(result)
    except Exception:
        return "check raised: " + traceback.format_exc(limit=3)


def run_pass(workload, p, tally, tracer=None):
    """Run pass p; return the summed timed seconds of its operations."""
    timed = 0.0
    for op in workload.pass_ops(p):
        if tracer is not None:
            tracer.op = tally.attempted
            tracer.enabled = True
        t0 = perf_counter()
        try:
            result, failure = op.run(), None
        except Exception:
            result, failure = None, "raised: " + traceback.format_exc(limit=3)
        seconds = perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        timed += seconds
        if failure is None:
            failure = checked(op.check, result)
            if failure is None and tally.self_test is None:
                tally.self_test = checked(op.check, op.perturb(result)) is not None
        tally.add(op.cls, seconds, failure, result)
    return timed


def run_passes(workload, first, seconds, min_passes, tally, tracer=None):
    """Run passes from index ``first`` until the next one would end after
    ``seconds``, but at least ``min_passes``; return their timed seconds."""
    start = perf_counter()
    walls = []
    while True:
        t0 = perf_counter()
        walls.append(run_pass(workload, first + len(walls), tally, tracer))
        now = perf_counter()
        if len(walls) >= min_passes and now - start + (now - t0) > seconds:
            return walls


def percentile(values, q):
    import numpy

    return float(numpy.percentile(values, q))


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(workload, args, setups, tally):
    """Untraced passes; returns (gated metrics, detail)."""
    walls = run_passes(workload, 0, args.seconds, workload.min_passes, tally)
    primary = [s for cls in workload.primary for s in tally.samples.get(cls, [])]
    gated = {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "wall_s": metric(statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB", 1),
        "op_p50_ms": metric(percentile(primary, 50) * 1000, "ms", len(primary)),
    }
    named = {"failed_frac": metric(len(tally.failures) / tally.attempted, "1",
                                   tally.attempted)}
    for name, cls, q, unit in workload.latencies:
        samples = tally.samples.get(cls, [])
        value = percentile(samples, q)
        named[name] = metric(value * (1000 if unit == "ms" else 1), unit, len(samples))
        if q != 50:
            named[name]["samples_beyond"] = sum(s > value for s in samples)
    named.update(workload.report(tally.last))
    detail = {"passes": len(walls), "metrics": {**gated, **named}}
    return {k: {"value": v["value"], "unit": v["unit"]} for k, v in gated.items()}, detail


def per_layer(workload, args, tally):
    """Untraced passes for half the time, then as many traced passes;
    returns (per-layer metrics, detail) and writes the spans."""
    import tracing

    untraced = run_passes(workload, 0, args.seconds / 2, 1, tally)
    tracer = tracing.Tracer()
    tracer.install()
    traced = run_passes(workload, len(untraced), 0, len(untraced), tally, tracer)
    values = tracer.metrics(len(traced), sum(traced), statistics.median(traced),
                            statistics.median(untraced))
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans_{args.workload}_seed{args.seed}.json"
    tracer.write(spans)
    detail = {"passes_untraced": len(untraced), "passes_traced": len(traced),
              "spans": len(tracer.names), "spans_file": str(spans.relative_to(ROOT))}
    return ({name: {"value": values[name], "unit": unit}
             for name, unit, _ in tracing.per_layer_names()}, detail)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "affinebv" / "__init__.py").is_file():
        print(f"error: no affinebv package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads = import_package()
        workloads.WORKLOADS[args.workload](args.seed)
        print(repr(perf_counter()))
        return 0
    setups = [setup_seconds(args) for _ in range(SETUP_SAMPLES)]
    workloads = import_package()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    tally = Tally()
    if args.trace:
        metrics, detail = per_layer(workload, args, tally)
    else:
        metrics, detail = end_to_end(workload, args, setups, tally)
    failed = len(tally.failures)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, **detail,
                      "self_test_caught": bool(tally.self_test),
                      "failures": tally.failures[:10], "env": environment(args.seed)}))
    print(json.dumps({"correct": failed == 0 and bool(tally.self_test),
                      "attempted": tally.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
