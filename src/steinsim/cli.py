"""Command-line reports: assessment tables and figure scatter data.

Each subcommand reproduces one batch report (MSE table, power table,
information table, or paired semi-tail points) as CSV or JSON with a run
manifest, under full determinism control (--seed, --samples, --workers).
``all`` writes every report; any other subcommand is ``all`` restricted to
its own report, at its --theta and --alpha or the defaults, and reads the
same shared passes, so its bytes are those of the same report in ``all``.
Progress goes to stderr; data streams stay clean.  JSON is strict (RFC
8259): a value that is not finite, such as one sample's stderr, is null.
Every float of a report's data (its rows, and extra keys such as the
eigenvalue report) is written at the CSVs' six significant digits, in JSON
as well; manifests keep their thetas and alphas at full precision.

Exit codes: 0 success; 1 usage error (any ``ValueError`` of the library's
argument checks, or an unwritable output); 2 numerical failure, any
``steinsim.NumericalError``, after which ``all`` still writes the others.
One sweep of stream 0 takes table1's and table3's cells and the nulls of
table2 and the figures, so a numerical failure in it fails all five: only
an ``estimators.ShrinkageDomainError``, which needs a theta for which
theta·1 + z lies within 1e-150 of the origin.

Validity domain: k >= 3 for the James-Stein risk claims (smaller k is
accepted for tests); finite theta, alpha strictly in (0, 1), points >= 1,
N >= 2 for table3 and all; |theta| < 2**43 (``mc.THETA_LIMIT``) and
N >= 100 / alpha for table2, else a numerical failure before any draw.

BLAS threads: importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless
it is already set, before numpy loads.  Every BLAS call here is small (k x k
products over one chunk, k x k solves), too small for OpenBLAS's threads to
help, and ``--workers`` already runs chunks in parallel; the variable keeps
numpy's and scipy's bundled OpenBLAS from starting thread pools that spend
CPU beside them.  The data files are the same bytes either way (see "Scope"
in the ``mc`` contract).  To override it, set the variable, e.g.
``OPENBLAS_NUM_THREADS=4 steinsim all``.  Importing the library without
this module (``steinsim.mc`` and the rest) leaves the environment alone, and
numpy loaded before this module keeps the threads it started with; every
manifest records the count OpenBLAS runs as ``provenance.blas.threads``.

Start-up: importing this module loads numpy, ``steinsim`` and scipy's
``ndtri`` ufunc module, but not the ``scipy.special`` package (see the
``mc`` contract) nor ``scipy.stats``, which no library module imports.
On a 2-core x86-64 host (numpy 2.4.6, scipy 1.17.1), ``import steinsim.cli``
took 0.11 s in the median of 24 fresh interpreters (quartiles 0.11-0.14 s),
read as the cumulative time of its line in ``python -X importtime -c
"import steinsim.cli"``; importing the ``scipy.special`` package after it
added 0.19 s in the median of 10 such probes.
"""

from __future__ import annotations

import argparse
import ctypes
import csv
import functools
import hashlib
import io
import json
import os
import re
import sys
import time
from pathlib import Path
from typing import NamedTuple

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy loads

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from . import NumericalError, __version__, hyptest, mc  # noqa: E402
from .assess import assess_moments  # noqa: E402
from .estimators import EstimatorKind  # noqa: E402

# The defaults that the parser's help, the reports and `all`'s manifest
# read: each report's thetas here, and the alphas ``hyptest.DEFAULT_ALPHAS``.
TABLE1_THETAS = (0.0, 0.5, 1.25, 2.0, 2.5)
TABLE2_THETAS = (0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5)
TABLE3_THETAS = TABLE1_THETAS
ALL_FIGURE_THETAS = (0.5, 2.0)
DEFAULT_THETAS = {"table1": TABLE1_THETAS, "table2": TABLE2_THETAS,
                  "table3": TABLE3_THETAS, "figure": ALL_FIGURE_THETAS}
KINDS = (EstimatorKind.JS, EstimatorKind.ML)

REFERENCE_LINES = {
    "equality": {"slope": 1.0, "intercept": 0.0},
    "one_unit_shift": {"slope": 1.0, "intercept": 1.0},
}


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e5" as an option: its own pattern knows only
        # plain decimals.  Negative numbers in exponent form are values too.
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

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


def _rounded(value):
    """``value`` with every float in it, in nested lists and dicts too, as
    the float that ``_fmt`` prints, which ``_fmt`` then prints the same."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_rounded(item) for item in value]
    return value


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


def _add_alphas(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, action="append", default=None,
                   help="significance level, repeatable "
                        f"(default {list(hyptest.DEFAULT_ALPHAS)})")


def build_parser() -> _Parser:
    parser = _Parser(prog="steinsim",
                     description="Estimator-assessment reports for the "
                                 "k-dimensional normal-means model.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, summary in (("table1", "MSE of the JS and ML estimators"),
                          ("table2", "power of the JS and ML tests"),
                          ("table3", "scalar information and efficiency"),
                          ("figure", "paired semi-tail scatter points")):
        pt = sub.add_parser(name, help=summary)
        _add_common(pt)
        figure = name == "figure"
        pt.add_argument("--theta", type=float, action="append", required=figure,
                        help="alternative theta for the sample draws" if figure else
                             "theta value, repeatable "
                             f"(default {list(DEFAULT_THETAS[name])})")
        if figure:
            pt.add_argument("--points", type=int, default=100,
                            help="number of paired samples (default 100)")
        if name == "table2":
            _add_alphas(pt)

    pa = sub.add_parser("all", help="run every report into a directory")
    _add_common(pa)
    _add_alphas(pa)
    pa.add_argument("--points", type=int, default=100,
                    help="paired samples per figure, one figure at each theta "
                         f"of {list(ALL_FIGURE_THETAS)} (default 100)")
    # for `all`, --output names a directory
    pa.set_defaults(output="out")

    return parser


def _usage(label: str, check, value):
    """``check(value)``, whose ``ValueError`` is a usage error of ``label``."""
    try:
        return check(value)
    except ValueError as exc:
        raise UsageError(f"{label}: {exc}") from None


def _validate(args) -> None:
    """Check the settings, and resolve a single command's thetas and any
    alphas: unset, they take the defaults; a repeated value is one row, and
    -0 is 0.  No file that the command writes, or that ``all`` first
    removes, may be a directory, and a single command's output file must
    lie in one.  A theta too large to resolve fails numerically, before any
    draw."""
    _usage("invalid settings", _config, args)  # --k, --samples, --seed, --workers
    if args.command == "all" and args.output == "-":
        raise UsageError("--output -: all writes a directory, not stdout")
    for path in _files(args):
        if path.is_dir():
            raise UsageError(f"--output {args.output}: {path} is a directory, not a file")
    if args.command != "all" and args.output != "-":
        parent = Path(args.output).parent
        if not parent.is_dir():
            raise UsageError(f"--output {args.output}: {parent} is not a directory")
    if args.command in ("table3", "all") and args.samples < 2:
        raise UsageError("--samples must be at least 2 for table3's covariances")
    if args.command != "all":
        args.theta = list(dict.fromkeys(
            t + 0.0 for t in args.theta or DEFAULT_THETAS[args.command]))
    if args.command == "figure" and len(args.theta) > 1:
        raise UsageError("figure takes one --theta, got "
                         + ", ".join(f"{t:g}" for t in args.theta))
    if "alpha" in vars(args):
        args.alpha = _usage("--alpha", hyptest.check_alphas,
                            args.alpha or hyptest.DEFAULT_ALPHAS)
    if getattr(args, "points", 1) < 1:  # figure and all only
        raise UsageError("--points must be a positive integer")
    _usage("--theta", mc.check_thetas, getattr(args, "theta", []))


def _config(args) -> mc.SimulationConfig:
    return mc.SimulationConfig(k=args.k, n_samples=args.samples, seed=args.seed,
                               n_workers=args.workers)


def _blas() -> tuple[str | None, int | None]:
    """The CPU kernel that numpy's bundled ``libscipy_openblas64_`` picked at
    load and the threads it runs, as the library reports them, or
    ``(None, None)`` if numpy bundles no OpenBLAS (see "Scope" in the ``mc``
    contract and "BLAS threads" in the module docstring)."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    if not libs:
        return None, None
    lib = ctypes.CDLL(str(libs[0]))
    kernel = lib.scipy_openblas_get_corename64_
    kernel.argtypes, kernel.restype = [], ctypes.c_char_p
    threads = lib.scipy_openblas_get_num_threads64_
    threads.argtypes, threads.restype = [], ctypes.c_int
    return kernel().decode(), threads()


def _provenance(k: int) -> dict:
    """The libraries, BLAS, thread settings, chunk size, error-bar batch
    count, RNG contract (see the ``mc`` contract) and source files a run used."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    kernel, threads = _blas()
    sources = sorted(Path(__file__).parent.glob("*.py"))  # the package, in name order
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "kernel": kernel, "threads": threads},
        "threads_env": {name: value for name, value in sorted(os.environ.items())
                        if name.endswith("_NUM_THREADS")},
        "chunk_samples": mc.CHUNK_SAMPLES,
        "stderr_batches": mc.STDERR_BATCHES,
        "rng": {"bit_generator": "Philox", "key": ["seed", "stream"],
                "words_per_sample": mc.words_per_sample(k), "normal_map": "ndtri"},
        "source_sha256": hashlib.sha256(b"".join(map(Path.read_bytes, sources))).hexdigest(),
    }


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
        "provenance": _provenance(args.k),
    }
    manifest.update(extra)
    return manifest


class _Report(NamedTuple):
    """A finished report: its rows, the manifest of the run that produced
    them (whose ``command`` names the report), and any extra top-level keys
    of its JSON payload.  The rows and extra are the report's data."""

    columns: tuple
    rows: list
    manifest: dict
    extra: dict | None = None


def _finished(report: _Report) -> _Report:
    """``report`` with its data ``_rounded``, so that every data file a run
    writes holds no more digits than its CSV."""
    return report._replace(rows=_rounded(report.rows), extra=_rounded(report.extra))


def _json(value) -> str:
    """``value`` as RFC 8259 JSON, every non-finite float written as null."""
    finite = json.loads(json.dumps(value), parse_constant=lambda _: None)
    return json.dumps(finite, indent=2, allow_nan=False) + "\n"


def _render(fmt: str, report: _Report) -> str:
    if fmt == "json":
        payload = {"command": report.manifest["command"],
                   "columns": list(report.columns), "rows": report.rows,
                   "manifest": report.manifest}
        payload.update(report.extra or {})
        return _json(payload)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    for row in report.rows:
        writer.writerow([_fmt(row[c]) for c in report.columns])
    return buf.getvalue()


def _sidecar(path: Path) -> Path:
    """The JSON manifest sidecar of a CSV report file."""
    return Path(f"{path}.manifest.json")


def _write(path: Path, fmt: str, report: _Report) -> None:
    """Write one report to a file; a CSV gets a JSON manifest sidecar."""
    path.write_text(_render(fmt, report))
    if fmt == "csv":
        _sidecar(path).write_text(_json({**report.manifest, **(report.extra or {})}))


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
    return _Report(columns, rows, _manifest(args, "table1", thetas, None, t0))


def _table2(args, thetas, calibrations, t0: float) -> _Report:
    # takes the nulls lazily, so that an alpha that --samples null draws
    # cannot resolve fails before any draw
    hyptest.check_null_resolution(args.samples, args.alpha)
    shared = calibrations()
    columns = ("test", "alpha", "theta", "power", "stderr")
    keys = [(kind, float(t)) for kind in KINDS for t in thetas]
    _progress(f"table2 power of {len(keys)} cells")
    results = hyptest.power_table(keys, shared, args.alpha, _config(args))
    n = args.samples
    rows = []
    for alpha in args.alpha:
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
    return _Report(columns, rows, _manifest(args, "table2", thetas, args.alpha, t0,
                                            mu0=hyptest.MU0))


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
            eigen_rows.append({
                "estimator": kind.value.upper(),
                "theta": float(theta),
                "lambda_stderr": report.lambda_stderr,
                "eigenvalues": [float(v) for v in report.eigenvalues],
            })
    return _Report(columns, rows, _manifest(args, "table3", thetas, None, t0),
                   extra={"eigenvalue_report": eigen_rows})


def _figure(args, theta: float, calibrations: dict, t0: float) -> _Report:
    columns = ("index", "s_js", "s_ml", "shrinkage")
    _progress(f"figure drawing {args.points} pairs at theta={theta:g}")
    s_js, s_ml, shrinkage = hyptest.paired_semitail(theta, args.points, calibrations,
                                                    _config(args))
    rows = [{"index": i, "s_js": a, "s_ml": b, "shrinkage": c} for i, (a, b, c)
            in enumerate(zip(s_js.tolist(), s_ml.tolist(), shrinkage.tolist()))]
    manifest = _manifest(args, "figure", [theta], None, t0, mu0=hyptest.MU0,
                         points=args.points, reference_lines=REFERENCE_LINES)
    return _Report(columns, rows, manifest, extra={"reference_lines": REFERENCE_LINES})


# ---------------------------------------------------------------------------
# The one report pipeline of every command
# ---------------------------------------------------------------------------


def _reports(args) -> list:
    """The ``(name, build)`` reports that ``args.command`` writes, in order:
    every report for ``all``, else the command's own, at the thetas and
    alphas that ``_validate`` resolved.  ``build(t0)`` returns the report
    ``_finished``.  The reports share one cached sweep of stream 0, run
    when a report first reads it, and only for the parts the command
    writes: the cells if table1 or table3 is written, the nulls if table2 or
    a figure is.  So each stream is swept at most once, and only if read."""
    thetas = dict(DEFAULT_THETAS)
    if args.command != "all":
        thetas[args.command] = args.theta
    writes = [name for name in thetas if args.command in ("all", name)]

    @functools.cache
    def shared() -> dict:  # stream 0: table1's and table3's cells, the nulls at hyptest.MU0
        wanted = [t for name in ("table1", "table3") if name in writes
                  for t in thetas[name]]
        keys = list(dict.fromkeys((kind, float(t)) for kind in KINDS for t in wanted))
        config = _config(args)
        passes = {"cells": mc.collect_cells(keys, config)} if keys else {}
        if "table2" in writes or "figure" in writes:
            passes["nulls"] = hyptest.null_calibrations(config)
        _progress(f"sweeping stream 0 for the {' and '.join(passes)}")
        results = dict(zip(passes, mc.sweep(config, list(passes.values()))))
        return {**results, "cells": dict(zip(keys, results.get("cells", ())))}

    reports = [
        ("table1", lambda t: _table1(args, thetas["table1"], shared()["cells"], t)),
        ("table2", lambda t: _table2(args, thetas["table2"], lambda: shared()["nulls"], t)),
        ("table3", lambda t: _table3(args, thetas["table3"], shared()["cells"], t)),
    ] + [
        (f"figure_theta_{theta:g}",
         lambda t, theta=theta: _figure(args, theta, shared()["nulls"], t))
        for theta in thetas["figure"]
    ]
    return [(name, lambda t, build=build: _finished(build(t)))
            for name, build in reports if name.split("_")[0] in writes]


# the files of a report in `all`'s directory, by suffix of the report's name
# (table3's eigenvalue file is "table3" + "_eigenvalues.json"): `all` removes
# them all before it builds the report, then writes those of its format
_REPORT_FILES = (".FAILED", ".csv", ".csv.manifest.json", ".json", "_eigenvalues.json")


def _files(args) -> list[Path]:
    """Every file that ``args.command`` writes, or that ``all`` first
    removes; none for stdout."""
    if args.command == "all":
        out_dir = Path(args.output)
        return [out_dir / f"{name}{suffix}" for name, _ in _reports(args)
                for suffix in _REPORT_FILES] + [out_dir / "manifest.json"]
    if args.output == "-":
        return []
    target = Path(args.output)
    return [target, _sidecar(target)] if args.format == "csv" else [target]


def _run(args, t0: float) -> int:
    """Write the reports of ``args.command``.  A single report goes to
    stdout, or to a file with its manifest sidecar, and its numerical
    failure propagates.  ``all`` writes every report into its directory,
    first removing any file of that report's names; a report that fails
    numerically leaves a ``.FAILED`` file and the rest still run."""
    reports = _reports(args)
    if args.command != "all":
        (_, build), = reports
        report = build(t0)
        if args.output == "-":
            sys.stdout.write(_render(args.format, report))
        else:
            _write(Path(args.output), args.format, report)
        return 0

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    outputs: list[str] = []
    for name, build in reports:
        for suffix in _REPORT_FILES:
            (out_dir / f"{name}{suffix}").unlink(missing_ok=True)
        try:
            report = build(time.perf_counter())
        except NumericalError as exc:  # retain partial outputs, mark the failure
            failures.append(name)
            (out_dir / f"{name}.FAILED").write_text(f"{type(exc).__name__}: {exc}\n")
            _progress(f"{name} FAILED: {exc}")
            continue
        _write(out_dir / f"{name}.{args.format}", args.format, report)
        if name == "table3":
            (out_dir / "table3_eigenvalues.json").write_text(
                _json(report.extra["eigenvalue_report"]))
        outputs.append(name)

    manifest = _manifest(
        args, "all", sorted(set().union(*DEFAULT_THETAS.values())), args.alpha, t0,
        mu0=hyptest.MU0,
        points=args.points,
        outputs=outputs,
        failures=failures,
        reference_lines=REFERENCE_LINES,
    )
    (out_dir / "manifest.json").write_text(_json(manifest))
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
        return _run(args, t0)
    except (UsageError, OSError) as exc:
        print(f"steinsim: error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"steinsim: numerical failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
