"""Command-line entry point: energy, minimize, verify, constants, oracle.

Configs are JSON, fields travel as AFG1 binaries, reports as JSON.  Exit
codes: 0 success / all checks pass, 1 verification failure, 2 bad
configuration.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .energy import (
    affine_energy_extended,
    constants,
    make_quadrature,
)
from .errors import AffineBVError, ConfigError, GridError, ShapeError
from .functionals import ConstraintSpec, Weights
from .grid import SHAPE_KEYS, GridFunction, GridSpec, make_mask, mollify, parse_shape
from .minimize import MinimizeConfig, minimize_level
from .oracle import EllipsoidBody, PolygonBody, energy_body, psi_body
from .serialize import read_afg, write_afg
from .variation import CELL_GRADIENT, FACE_ATOMS
from .verify import SUITES, VerifyConfig, run_suite


def _load_domain(path):
    """A shape descriptor that :func:`parse_shape` accepts, holding no key
    beyond its shape's own and ``grid_extent``, ``a_const``, ``b_const``."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read domain config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError(f"domain config {path} must be a JSON object")
    parse_shape(cfg)
    unknown = set(cfg) - {"shape", *SHAPE_KEYS[cfg["shape"]], "grid_extent",
                          "a_const", "b_const"}
    if unknown:
        raise ConfigError(f"unknown keys for a {cfg['shape']} in {path}: "
                          f"{sorted(unknown)}")
    return cfg


def _grid_for(cfg, grid):
    """Build the grid around the shape with ~30% margin unless the config
    pins the extent."""
    if "grid_extent" in cfg:
        try:
            ext = np.asarray(cfg["grid_extent"], dtype=float)
        except (TypeError, ValueError):
            ext = np.empty(0)
        if not (ext.ndim == 2 and ext.shape[0] in (2, 3) and ext.shape[1] == 2
                and np.all(np.isfinite(ext)) and np.all(ext[:, 1] > ext[:, 0])):
            raise ConfigError("grid_extent must be [[lo, hi], ...] with finite "
                              f"lo < hi per axis, got {cfg['grid_extent']!r}")
    else:
        bbox, _, _ = parse_shape(cfg)
        span = bbox[:, 1] - bbox[:, 0]
        ext = np.stack([bbox[:, 0] - 0.3 * span, bbox[:, 1] + 0.3 * span],
                       axis=1)
    dim = len(ext)
    spacing = float((ext[:, 1] - ext[:, 0]).max()) / grid
    shape = tuple(max(4, int(round((hi - lo) / spacing)))
                  for lo, hi in ext)
    return GridSpec(dim=dim, shape=shape, spacing=spacing,
                    origin=tuple(ext[:, 0]))


def _weights_from(cfg, args):
    """Scalar weights from the flags, else the descriptor, else 0: finite
    real numbers, with ``b_const >= 0``.  The magnitude test also rejects
    NaN and a JSON integer too large for a float."""
    w = {}
    for key, flag in (("a_const", args.a_const), ("b_const", args.b_const)):
        v = flag if flag is not None else cfg.get(key, 0.0)
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or not abs(v) <= sys.float_info.max):
            raise ConfigError(f"{key} must be a finite number, got {v!r}")
        w[key] = v
    if w["b_const"] < 0:
        raise ConfigError(f"b_const must be >= 0, got {w['b_const']!r}")
    return Weights(a=w["a_const"], b=w["b_const"])


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def cmd_constants(args):
    if args.dim < 2:
        raise ConfigError(f"--dim must be >= 2, got {args.dim}")
    c = constants(args.dim)
    payload = {k: (f"{v:.17g}" if isinstance(v, float) else v)
               for k, v in c.as_dict().items()}
    _emit(payload, args.out)
    return 0


def cmd_energy(args):
    cfg = _load_domain(args.domain)
    spec = _grid_for(cfg, args.grid)
    mask = make_mask(spec, cfg)
    if args.field:
        u = read_afg(args.field)
        if u.spec != spec:
            raise ConfigError("field grid does not match the domain grid")
    else:
        u = GridFunction(spec, mask.inside.astype(float))
    if not args.sigma >= 0:
        raise ConfigError(f"--sigma must be >= 0, got {args.sigma}")
    u = mollify(u, args.sigma * spec.spacing)
    quad = make_quadrature(spec.dim, args.dirs)
    e = affine_energy_extended(u, mask, args.backend, quad)
    _emit({"energy": e.as_dict(), "grid": list(spec.shape),
           "spacing": spec.spacing}, args.out)
    return 0


def cmd_minimize(args):
    cfg = _load_domain(args.domain)
    spec = _grid_for(cfg, args.grid)
    mask = make_mask(spec, cfg)
    weights = _weights_from(cfg, args)
    level_map = {
        "cA": ("X", False), "dA": ("Y", False),
        "cA0": ("X", True), "dA0": ("Y", True),
    }
    kind, zero_trace = level_map[args.level]
    cspec = ConstraintSpec(q=args.q, kind=kind, r=args.r,
                           zero_trace=zero_trace)
    mc = MinimizeConfig(seed=args.seed, max_iters=args.max_iters,
                        n_starts=args.starts)
    quad = make_quadrature(spec.dim, args.dirs)
    result = minimize_level(mask, weights, cspec, config=mc, quadrature=quad,
                            backend=args.backend)
    _emit(result.as_dict(), args.out)
    if args.field_out:
        write_afg(args.field_out, result.extremal)
    return 0


def cmd_verify(args):
    cfg = VerifyConfig(grid=args.grid, dirs=args.dirs, seed=args.seed,
                       n_fields=args.fields,
                       suites=SUITES if args.suite == "all" else (args.suite,))
    report = run_suite(cfg)
    _emit(report.as_dict(), args.out)
    for r in report.records:
        status = "PASS" if r.passed else "FAIL"
        note = ", vacuous: nothing tested" if r.details.get("vacuous") else ""
        print(f"{status} {r.name}: slack {r.details['slack']:.3e} "
              f"(tol {r.tolerance:.3e}{note})", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_oracle(args):
    if args.body == "square":
        body = PolygonBody(np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]]))
    elif args.body == "disk":
        body = EllipsoidBody(dim=2, matrix=np.eye(2))
    elif args.body == "ellipse":
        if not args.matrix:
            raise ConfigError("--matrix is required for --body ellipse")
        try:   # a JSONDecodeError is a ValueError
            M = np.asarray(json.loads(args.matrix), dtype=float)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"--matrix is not a JSON number array: {e}") from e
        if M.ndim != 2 or not np.isfinite(M).all():
            raise ConfigError(f"--matrix must be a finite matrix, got {args.matrix}")
        body = EllipsoidBody(dim=len(M), matrix=M)
    else:
        raise ConfigError(f"unknown body {args.body!r}")
    quad = make_quadrature(body.dim, args.dirs)
    psi = [psi_body(body, xi) for xi in quad.directions]
    _emit({"body": args.body, "dirs": args.dirs, "psi": psi,
           "energy": energy_body(body)}, args.out)
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="affinebv",
        description="Affine BV energies, inequality verification, and "
                    "constrained minimization on uniform grids.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="print closed-form constants")
    c.add_argument("--dim", type=int, required=True)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_constants)

    e = sub.add_parser("energy", help="affine energy of a field on a domain")
    e.add_argument("--domain", required=True, help="JSON shape descriptor")
    e.add_argument("--grid", type=int, default=256)
    e.add_argument("--dirs", type=int, default=512)
    e.add_argument("--backend", choices=[FACE_ATOMS, CELL_GRADIENT],
                   default=FACE_ATOMS)
    e.add_argument("--sigma", type=float, default=0.0,
                   help="mollification width in cells")
    e.add_argument("--field", help="AFG1 field (default: domain indicator)")
    e.add_argument("--out")
    e.set_defaults(fn=cmd_energy)

    m = sub.add_parser("minimize", help="minimize the affine functional")
    m.add_argument("--level", choices=["cA", "dA", "cA0", "dA0"],
                   required=True)
    m.add_argument("--q", type=float, required=True)
    m.add_argument("--r", type=float, default=1.0)
    m.add_argument("--domain", required=True)
    m.add_argument("--grid", type=int, default=128)
    m.add_argument("--dirs", type=int, default=256)
    m.add_argument("--backend", choices=[FACE_ATOMS, CELL_GRADIENT],
                   default=CELL_GRADIENT)
    m.add_argument("--a-const", type=float, default=None)
    m.add_argument("--b-const", type=float, default=None)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--max-iters", type=int, default=500)
    m.add_argument("--starts", type=int, default=4)
    m.add_argument("--out")
    m.add_argument("--field-out", help="AFG1 dump of the extremal field")
    m.set_defaults(fn=cmd_minimize)

    v = sub.add_parser("verify", help="run the inequality test suite")
    v.add_argument("--suite", default="all",
                   help=f"one of {', '.join(SUITES)}, or 'all'")
    v.add_argument("--grid", type=int, default=128)
    v.add_argument("--dirs", type=int, default=256)
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--fields", type=int, default=100, help="at least 1; scales "
                   "only the sobolev_zhang, comparisons and superadditivity "
                   "corpora")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    o = sub.add_parser("oracle", help="closed-form body oracles")
    o.add_argument("--body", choices=["square", "disk", "ellipse"],
                   required=True)
    o.add_argument("--matrix", help="JSON matrix for --body ellipse")
    o.add_argument("--dirs", type=int, default=64)
    o.add_argument("--out")
    o.set_defaults(fn=cmd_oracle)
    return p


def main(argv=None):
    # argparse exits 2 on bad usage, matching the config-error contract
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "grid", 1) < 1:
            raise ConfigError(f"--grid must be >= 1, got {args.grid}")
        return args.fn(args)
    except (ConfigError, ShapeError, GridError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except AffineBVError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
