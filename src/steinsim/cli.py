"""Command-line reports: assessment tables and figure scatter data.

Each subcommand reproduces one batch report (MSE table, power table,
information table, or paired semi-tail points) as CSV or JSON with a run
manifest, under full determinism control (--seed, --samples, --workers).
Progress goes to stderr; data streams stay clean.

Exit codes: 0 success, 1 usage error, 2 numerical failure.

Validity domain: k >= 3 for the James-Stein risk claims (smaller k is
accepted for tests); finite theta with |theta| < 2**43 (``mc.THETA_LIMIT``;
beyond it a numerical failure before any draw); N >= 2 for table3 and all,
and N >= 100 / alpha for table2 (else a numerical failure); alpha strictly
in (0, 1); points >= 1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, hyptest, mc
from .assess import SingularCovarianceError, assess_moments
from .estimators import EstimatorKind, ShrinkageDomainError
from .hyptest import NullResolutionError

TABLE1_THETAS = (0.0, 0.5, 1.25, 2.0, 2.5)
TABLE2_THETAS = (0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5)
TABLE3_THETAS = TABLE1_THETAS
ALL_FIGURE_THETAS = (0.5, 2.0)
KINDS = (EstimatorKind.JS, EstimatorKind.ML)

REFERENCE_LINES = {
    "equality": {"slope": 1.0, "intercept": 0.0},
    "one_unit_shift": {"slope": 1.0, "intercept": 1.0},
}

NUMERICAL_ERRORS = (NullResolutionError, SingularCovarianceError,
                    ShrinkageDomainError, mc.ThetaResolutionError)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _progress(message: str) -> None:
    print(f"[steinsim] {message}", file=sys.stderr, flush=True)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=14, help="dimension (default 14)")
    p.add_argument("--samples", type=int, default=mc.DEFAULT_SAMPLES,
                   help="Monte Carlo samples per cell (default 1000000)")
    p.add_argument("--seed", type=int, default=mc.DEFAULT_SEED,
                   help=f"base RNG seed (default {mc.DEFAULT_SEED})")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers (default 1; results identical)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default csv)")
    p.add_argument("--output", default="-",
                   help="output file, or - for stdout (default -)")


def _add_theta_list(p: argparse.ArgumentParser, defaults) -> None:
    p.add_argument("--theta", type=float, action="append", default=None,
                   help=f"theta value, repeatable (default {list(defaults)})")


def _add_alphas(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, action="append", default=None,
                   help="significance level, repeatable (default .01 .05)")


def build_parser() -> _Parser:
    parser = _Parser(prog="steinsim",
                     description="Estimator-assessment reports for the "
                                 "k-dimensional normal-means model.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="MSE of the JS and ML estimators")
    _add_common(p1)
    _add_theta_list(p1, TABLE1_THETAS)
    p1.set_defaults(handler=cmd_table1)

    p2 = sub.add_parser("table2", help="power of the JS and ML tests")
    _add_common(p2)
    _add_theta_list(p2, TABLE2_THETAS)
    _add_alphas(p2)
    p2.set_defaults(handler=cmd_table2)

    p3 = sub.add_parser("table3", help="scalar information and efficiency")
    _add_common(p3)
    _add_theta_list(p3, TABLE3_THETAS)
    p3.set_defaults(handler=cmd_table3)

    pf = sub.add_parser("figure", help="paired semi-tail scatter points")
    _add_common(pf)
    pf.add_argument("--theta", type=float, required=True,
                    help="alternative theta for the sample draws")
    pf.add_argument("--points", type=int, default=100,
                    help="number of paired samples (default 100)")
    pf.set_defaults(handler=cmd_figure)

    pa = sub.add_parser("all", help="run every report into a directory")
    _add_common(pa)
    _add_alphas(pa)
    pa.add_argument("--points", type=int, default=100,
                    help="paired samples per figure (default 100)")
    pa.set_defaults(handler=cmd_all)
    # for `all`, --output names a directory
    pa.set_defaults(output="out")

    return parser


def _validate(args) -> None:
    try:
        _config(args)  # checks --k, --samples, --seed and --workers
    except ValueError as exc:
        raise UsageError(f"invalid settings: {exc}") from None
    if args.command in ("table3", "all") and args.samples < 2:
        raise UsageError("--samples must be at least 2 for table3's covariances")
    thetas = getattr(args, "theta", None)
    if isinstance(thetas, list):
        if any(not np.isfinite(t) for t in thetas):
            raise UsageError("--theta values must be finite")
    elif isinstance(thetas, float) and not np.isfinite(thetas):
        raise UsageError("--theta must be finite")
    alphas = getattr(args, "alpha", None)
    if alphas is not None and any(not 0 < a < 1 for a in alphas):
        raise UsageError("--alpha values must lie strictly in (0, 1)")
    points = getattr(args, "points", None)
    if points is not None and points < 1:
        raise UsageError("--points must be a positive integer")
    for theta in np.atleast_1d(thetas if thetas is not None else []):
        if abs(theta) >= mc.THETA_LIMIT:  # before any draw, the figure's null pass too
            raise mc.ThetaResolutionError(float(theta))


def _config(args) -> mc.SimulationConfig:
    return mc.SimulationConfig(k=args.k, theta=0.0, n_samples=args.samples,
                               seed=args.seed, n_workers=args.workers)


def _manifest(args, command: str, thetas, alphas, t0: float, **extra) -> dict:
    manifest = {
        "command": command,
        "k": args.k,
        "thetas": [float(t) for t in thetas],
        "samples": args.samples,
        "seed": args.seed,
        "workers": args.workers,
        "alphas": [float(a) for a in alphas] if alphas else None,
        "version": __version__,
        "duration_seconds": round(time.perf_counter() - t0, 3),
    }
    manifest.update(extra)
    return manifest


class _Report(NamedTuple):
    """A finished report: its rows, the manifest of the run that produced
    them, and any extra top-level keys of its JSON payload."""

    command: str
    columns: tuple
    rows: list
    manifest: dict
    extra: dict | None = None


def _render(fmt: str, report: _Report) -> str:
    if fmt == "json":
        payload = {"command": report.command, "columns": list(report.columns),
                   "rows": report.rows, "manifest": report.manifest}
        payload.update(report.extra or {})
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    for row in report.rows:
        writer.writerow([_fmt(row[c]) for c in report.columns])
    return buf.getvalue()


def _emit(args, report: _Report) -> None:
    """Write one report to stdout or to a file plus manifest sidecar."""
    if args.output == "-":
        sys.stdout.write(_render(args.format, report))
    else:
        _write(Path(args.output), args.format, report)


def _write(path: Path, fmt: str, report: _Report) -> None:
    """Write one report to a file; a CSV gets a JSON manifest sidecar."""
    path.write_text(_render(fmt, report))
    if fmt == "csv":
        sidecar = dict(report.manifest)
        sidecar.update(report.extra or {})
        Path(str(path) + ".manifest.json").write_text(
            json.dumps(sidecar, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Shared passes: each stream is swept once however many reports read it
# ---------------------------------------------------------------------------


def _cells(args, thetas) -> dict:
    """Moments of every (estimator, theta) cell from one pass over stream 0."""
    keys = list(dict.fromkeys((kind, float(t)) for kind in KINDS for t in thetas))
    _progress(f"sweeping {len(keys)} estimator cells")
    return dict(zip(keys, mc.collect_cells(keys, _config(args))))


def _calibrations(args) -> dict:
    """JS and ML null calibrations at mu0 from one pass over stream 1."""
    _progress("simulating the js and ml nulls")
    return hyptest.null_calibrations(KINDS, hyptest.DEFAULT_MU0, _config(args))


# ---------------------------------------------------------------------------
# Reports, each built from the shared passes it reads
# ---------------------------------------------------------------------------


def _table1(args, thetas, cells: dict, t0: float) -> _Report:
    _progress("table1 mse from the shared cells")
    columns = ("estimator", "theta", "mse", "stderr")
    rows = []
    for kind in KINDS:
        for theta in thetas:
            cell = cells[kind, float(theta)]
            rows.append({"estimator": kind.value.upper(), "theta": float(theta),
                         "mse": cell.mse, "stderr": cell.mse_stderr})
    return _Report("table1", columns, rows,
                   _manifest(args, "table1", thetas, None, t0))


def _table2(args, thetas, alphas, calibrations: dict, t0: float) -> _Report:
    columns = ("test", "alpha", "theta", "power", "stderr")
    keys = list(dict.fromkeys((kind, float(t)) for kind in KINDS for t in thetas))
    _progress(f"table2 power of {len(keys)} cells")
    results = hyptest.power_table(keys, calibrations, alphas, _config(args))
    n = args.samples
    rows = []
    for alpha in alphas:
        for kind in KINDS:
            for theta in thetas:
                p = results[kind, float(theta)][alpha]
                rows.append({
                    "test": kind.value.upper(),
                    "alpha": float(alpha),
                    "theta": float(theta),
                    "power": p,
                    "stderr": float(np.sqrt(p * (1.0 - p) / n)),
                })
    return _Report("table2", columns, rows,
                   _manifest(args, "table2", thetas, alphas, t0))


def _table3(args, thetas, cells: dict, t0: float) -> _Report:
    _progress("table3 information from the shared cells")
    columns = ("estimator", "theta", "scalar_lambda", "mean_efficiency",
               "eigen_min", "eigen_max")
    rows = []
    eigen_rows = []
    for kind in KINDS:
        for theta in thetas:
            report = assess_moments(kind, theta, cells[kind, float(theta)])
            rows.append({
                "estimator": kind.value.upper(),
                "theta": float(theta),
                "scalar_lambda": report.scalar_lambda,
                "mean_efficiency": report.mean_efficiency,
                "eigen_min": report.eigen_min,
                "eigen_max": report.eigen_max,
            })
            stderr = report.lambda_stderr
            eigen_rows.append({
                "estimator": kind.value.upper(),
                "theta": float(theta),
                "lambda_stderr": float(stderr) if np.isfinite(stderr) else None,
                "eigenvalues": [float(v) for v in report.eigenvalues],
            })
    return _Report("table3", columns, rows,
                   _manifest(args, "table3", thetas, None, t0),
                   extra={"eigenvalue_report": eigen_rows})


def _figure(args, theta: float, points: int, calibrations: dict, t0: float) -> _Report:
    columns = ("index", "s_js", "s_ml", "shrinkage")
    _progress(f"figure drawing {points} pairs at theta={theta:g}")
    pairs = hyptest.paired_semitail(theta, points, calibrations, _config(args))
    rows = [{"index": p.sample_index, "s_js": p.s_js, "s_ml": p.s_ml,
             "shrinkage": p.shrinkage} for p in pairs]
    manifest = _manifest(args, "figure", [theta], None, t0, points=points,
                         reference_lines=REFERENCE_LINES)
    return _Report("figure", columns, rows, manifest,
                   extra={"reference_lines": REFERENCE_LINES})


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_table1(args, t0: float) -> int:
    thetas = args.theta if args.theta else TABLE1_THETAS
    _emit(args, _table1(args, thetas, _cells(args, thetas), t0))
    return 0


def cmd_table2(args, t0: float) -> int:
    thetas = args.theta if args.theta else TABLE2_THETAS
    alphas = args.alpha if args.alpha else list(hyptest.DEFAULT_ALPHAS)
    _emit(args, _table2(args, thetas, alphas, _calibrations(args), t0))
    return 0


def cmd_table3(args, t0: float) -> int:
    thetas = args.theta if args.theta else TABLE3_THETAS
    _emit(args, _table3(args, thetas, _cells(args, thetas), t0))
    return 0


def cmd_figure(args, t0: float) -> int:
    _emit(args, _figure(args, args.theta, args.points, _calibrations(args), t0))
    return 0


def cmd_all(args, t0: float) -> int:
    out_dir = Path(args.output if args.output != "-" else "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    alphas = args.alpha if args.alpha else list(hyptest.DEFAULT_ALPHAS)
    # Each stream is swept at most once; a report that fails fails alone.
    cells = functools.cache(
        lambda: _cells(args, TABLE1_THETAS + TABLE3_THETAS))
    calibrations = functools.cache(lambda: _calibrations(args))
    steps = [
        ("table1", lambda t: _table1(args, TABLE1_THETAS, cells(), t)),
        ("table2", lambda t: _table2(args, TABLE2_THETAS, alphas, calibrations(), t)),
        ("table3", lambda t: _table3(args, TABLE3_THETAS, cells(), t)),
    ] + [
        (f"figure_theta_{theta:g}",
         lambda t, theta=theta: _figure(args, theta, args.points, calibrations(), t))
        for theta in ALL_FIGURE_THETAS
    ]
    failures: list[str] = []
    outputs: list[str] = []
    for name, build in steps:
        try:
            report = build(time.perf_counter())
        except NUMERICAL_ERRORS as exc:  # retain partial outputs, mark the failure
            failures.append(name)
            (out_dir / f"{name}.FAILED").write_text(f"{type(exc).__name__}: {exc}\n")
            _progress(f"{name} FAILED: {exc}")
            continue
        _write(out_dir / f"{name}.{args.format}", args.format, report)
        if report.command == "table3":
            (out_dir / "table3_eigenvalues.json").write_text(
                json.dumps(report.extra["eigenvalue_report"], indent=2) + "\n")
        outputs.append(name)

    manifest = _manifest(
        args, "all",
        sorted(set(TABLE1_THETAS) | set(TABLE2_THETAS) | set(ALL_FIGURE_THETAS)),
        alphas, t0,
        points=args.points,
        outputs=outputs,
        failures=failures,
        reference_lines=REFERENCE_LINES,
    )
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if failures:
        _progress(f"completed with failures: {', '.join(failures)}")
        return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    t0 = time.perf_counter()
    try:
        _validate(args)
        return args.handler(args, t0)
    except UsageError as exc:
        print(f"steinsim: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"steinsim: error: {exc}", file=sys.stderr)
        return 1
    except NUMERICAL_ERRORS as exc:
        print(f"steinsim: numerical failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
