"""Command-line front-end.

Subcommands: bench (metric suites -> CSV/JSON/markdown), convert (one-off
representation conversion), interp (print an interpolated path), register
(Horn/ICP on XYZ point files), and sample (Haar-uniform quaternions).

Exit codes: 0 success, 1 internal/degeneracy error, 2 bad flags or bad
input values. Data goes to stdout (or --out); diagnostics to stderr.
Component orders: quat w,x,y,z; euler alpha,beta,gamma; axis-angle
ux,uy,uz,theta; rotvec vx,vy,vz; matrix 9 row-major; sixd a1 then a2.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import math
import platform
import sys
from dataclasses import asdict

import numpy as np

from .bench import ALL_SUITES, BenchConfig, BenchSuiteError, full_table
from .core import canonicalize, relative_angle, sample_uniform
from .rng import Rng
from .convert import (_BY_TAG, _BY_TYPE, REPRESENTATION_TAGS, convert as convert_value,
                      matrix_to_quat)
from .errors import DegenerateInputError, RotationError
from .interp import (
    _METHODS,
    FISHER_BLEND,
    INTERPOLATION_METHODS,
    Interpolator,
    make_interpolator,
)
from .probdist import MatrixFisher
from .registration import PointSet, horn_align, icp
from .report import FORMATS, ReportDocument, fmt17


class CliInputError(RotationError):
    """Bad user input: maps to exit code 2."""


# ---------------------------------------------------------------------------
# value parsing / printing


def _parse_scalars(text: str, n: int, what: str) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise CliInputError(f"{what} needs {n} comma-separated scalars, "
                            f"got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise CliInputError(f"{what}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise CliInputError(f"{what} must be finite")
    return values


def build_value(tag: str, values: list[float]):
    """Construct and validate a representation from CLI scalars, by the
    tag's registry entry."""
    try:
        return _BY_TAG[tag].from_components(values)
    except RotationError as exc:
        raise CliInputError(str(exc)) from exc


def components(value) -> list[float]:
    """The value's scalars in the documented component order."""
    if isinstance(value, MatrixFisher):
        return [float(x) for x in value.f.reshape(-1)]
    rep = _BY_TYPE.get(type(value))
    if rep is None:
        raise RotationError(f"cannot print {type(value).__name__}")
    return list(rep.components(value))


def _format_row(values) -> str:
    return ",".join(fmt17(v) for v in values)


# ---------------------------------------------------------------------------
# commands


def cmd_bench(args) -> int:
    cfg = BenchConfig(seed=args.seed, trials=args.trials, batch=args.batch,
                      n_edge=args.edge_cases)
    suites = ALL_SUITES if args.suite == "all" else (args.suite,)
    try:  # before the suites run, so a bad --out path costs no table
        out = open(args.out, "w", encoding="utf-8") if args.out \
            else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise CliInputError(f"cannot write {args.out}: {exc}") from exc
    with out as fh:
        try:
            rows, failures = full_table(cfg, suites), []
        except BenchSuiteError as exc:
            rows, failures = exc.reports, exc.failures
        meta = {
            "seed": cfg.seed,
            "suite": args.suite,
            "config": asdict(cfg),
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "machine": f"{platform.platform()} / {platform.python_implementation()} "
                       f"{platform.python_version()}",
        }
        fh.write(ReportDocument(args.format, rows, meta).render())
    for tag, suite, err in failures:
        print(f"error: row {tag}/{suite} failed (cells NA): {err}", file=sys.stderr)
    return 1 if failures else 0


def cmd_convert(args) -> int:
    values = _parse_scalars(args.value, _BY_TAG[args.src].arity,
                            f"--from {args.src}")
    src_value = build_value(args.src, values)
    dst_value = convert_value(src_value, args.dst)
    print(_format_row(components(dst_value)))
    return 0


def _interp_endpoints(args) -> Interpolator:
    if args.method == FISHER_BLEND:
        fa = _parse_scalars(args.a, 9, "--a (fisher F, row-major)")
        fb = _parse_scalars(args.b, 9, "--b (fisher F, row-major)")
        return make_interpolator(FISHER_BLEND,
                                 MatrixFisher(np.array(fa).reshape(3, 3)),
                                 MatrixFisher(np.array(fb).reshape(3, 3)))
    tag = _METHODS[args.method][0]
    arity = _BY_TAG[tag].arity
    a = build_value(tag, _parse_scalars(args.a, arity, f"--a ({tag})"))
    b = build_value(tag, _parse_scalars(args.b, arity, f"--b ({tag})"))
    ra = convert_value(a, "matrix")
    rb = convert_value(b, "matrix")
    return make_interpolator(args.method, ra, rb)


def cmd_interp(args) -> int:
    interp = _interp_endpoints(args)
    if args.t is not None:
        if not math.isfinite(args.t):
            raise CliInputError(f"--t must be finite, got {args.t}")
        ts = [args.t]
    else:
        k = args.samples
        ts = [i / (k - 1) for i in range(k)] if k > 1 else [0.0]
    prev = None
    cumulative = 0.0
    for t in ts:
        native = interp.eval_native(t)
        r = interp.eval(t)
        if prev is not None:
            cumulative += relative_angle(prev, r)
        prev = r
        print(_format_row([t] + components(native) + [cumulative]))
    return 0


def _parse_xyz(path: str) -> PointSet:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    points = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise CliInputError(
                f"{path}:{lineno}: expected 3 whitespace-separated scalars, "
                f"got {len(parts)}")
        try:
            points.append([float(p) for p in parts])
        except ValueError as exc:
            raise CliInputError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, points[-1])):
            raise CliInputError(f"{path}:{lineno}: coordinates must be finite")
    if not points:
        raise CliInputError(f"{path}: no points found")
    return PointSet(np.array(points))


def cmd_register(args) -> int:
    if args.max_iter < 0:
        raise CliInputError(f"--max-iter must be >= 0, got {args.max_iter}")
    if not args.tol > 0.0:
        raise CliInputError(f"--tol must be > 0, got {args.tol}")
    source = _parse_xyz(args.source)
    target = _parse_xyz(args.target)
    try:
        if args.method == "horn":
            (transform, rms), iterations = horn_align(source, target), None
        else:
            transform, iterations, rms = icp(source, target, args.max_iter, args.tol)
    except DegenerateInputError as exc:  # a translation or rms beyond the float range
        raise CliInputError(str(exc)) from exc
    quat = matrix_to_quat(transform.rotation)
    print(f"method: {args.method}")
    print(f"quaternion: {_format_row(quat.as_tuple())}")
    print(f"matrix: {_format_row(transform.rotation.as_flat())}")
    print(f"translation: {_format_row(transform.translation)}")
    print(f"rms: {fmt17(rms)}")
    if iterations is not None:
        print(f"iterations: {iterations}")
    return 0


def cmd_sample(args) -> int:
    rng = Rng(args.seed)
    for _ in range(args.n):
        q = canonicalize(sample_uniform(rng))
        print(_format_row(q.as_tuple()))
    return 0


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotrepr",
        description="SO(3) rotation representation toolkit and benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run metric suites")
    p_bench.add_argument("--suite", default="all",
                         choices=("all",) + ALL_SUITES)
    p_bench.add_argument("--seed", type=int, default=42)
    p_bench.add_argument("--trials", type=_positive_int, default=BenchConfig.trials)
    p_bench.add_argument("--batch", type=_positive_int, default=BenchConfig.batch)
    p_bench.add_argument("--edge-cases", type=_positive_int, default=BenchConfig.n_edge)
    p_bench.add_argument("--format", default="csv", choices=FORMATS)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_convert = sub.add_parser("convert", help="convert one rotation value")
    p_convert.add_argument("--from", dest="src", required=True,
                           choices=REPRESENTATION_TAGS)
    p_convert.add_argument("--to", dest="dst", required=True,
                           choices=REPRESENTATION_TAGS)
    p_convert.add_argument("--value", required=True,
                           help="comma-separated scalars in documented order")
    p_convert.set_defaults(func=cmd_convert)

    p_interp = sub.add_parser("interp", help="print an interpolated path")
    p_interp.add_argument("--method", required=True, choices=INTERPOLATION_METHODS)
    p_interp.add_argument("--a", required=True, help="start, native components")
    p_interp.add_argument("--b", required=True, help="end, native components")
    group = p_interp.add_mutually_exclusive_group()
    group.add_argument("--samples", type=_positive_int, default=11)
    group.add_argument("--t", type=float, default=None)
    p_interp.set_defaults(func=cmd_interp)

    p_reg = sub.add_parser("register", help="rigid registration on XYZ files")
    p_reg.add_argument("--source", required=True)
    p_reg.add_argument("--target", required=True)
    p_reg.add_argument("--method", default="horn", choices=("horn", "icp"))
    p_reg.add_argument("--max-iter", type=int, default=100)
    p_reg.add_argument("--tol", type=float, default=1e-10)
    p_reg.set_defaults(func=cmd_register)

    p_sample = sub.add_parser("sample", help="print Haar-uniform quaternions")
    p_sample.add_argument("--n", type=_positive_int, required=True)
    p_sample.add_argument("--seed", type=int, default=42)
    p_sample.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RotationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
