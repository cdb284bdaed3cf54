"""steinsim benchmark: the paper's reports at 1 and 2 workers, and a k = 64
mean-function table.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload paper-all-1w --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Each workload runs in fresh child processes, one at a time (a closed loop),
repeated until ``--seconds`` is spent (at least three times), and reports
medians. Wall time, CPU time and peak RSS come from each child's own
rusage. ``setup_s`` is measured in separate fresh interpreters that import
the package and build the inputs. Every output is checked (see checks.py);
the CSVs of the two ``paper-all`` workloads must be byte-identical at the
same seed. With ``--trace 1`` one more child runs under the outside-in
tracer (layertrace.py) and the per-layer metrics are reported instead.

The last line of standard output is the JSON result; the line before it
is the run record (versions, environment, digests, failures). Scratch files
live under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import meanfn  # noqa: E402
import layertrace  # noqa: E402

# Samples per cell: two full 65,536-sample chunks per stream, so every
# stream still splits across both workers, while a run fits enough
# repetitions of the whole report set for a steady median on a noisy host.
# The paper's N = 10^6 takes 35 s per repetition at one worker.
PAPER_SAMPLES = 131_072
PAPER_K = 14
PAPER_POINTS = 100
MEANFN_SAMPLES = 131_072

MIN_REPS = 3
SETUP_REPS = 3
CHILD_TIMEOUT_S = 150.0
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

CLI_SETUP = ("import sys, steinsim.cli as cli; "
             "cli.build_parser().parse_args(sys.argv[1:])")


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int  # 0 marks the library (mean-function) workload


WORKLOADS = {w.name: w for w in (
    Workload("paper-all-1w", 1),
    Workload("paper-all-2w", 2),
    Workload("meanfn-k64", 0),
)}


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int


def run_child(argv, env, log: Path, timeout: float) -> Child:
    """Run one child to completion; account it from its own rusage."""
    with log.open("wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=fh)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code)


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout's own .git, if it has one; never looks above it."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def platform_record(root: Path, source: str) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(root),
        "source_digest": source,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
    }


def metric_units(root: Path) -> dict[str, str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def import_times(log: Path) -> dict[str, float]:
    """Cumulative seconds per module from a ``-X importtime`` log."""
    out = {}
    for line in log.read_text(errors="replace").splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, module = line[12:].split("|")
            if cumulative.strip().isdigit():
                out[module.strip()] = int(cumulative) / 1e6
    return out


class Bench:
    """One benchmark invocation in a checkout rooted at ``root``."""

    def __init__(self, root: Path, state: Path, samples: int | None = None,
                 min_reps: int = MIN_REPS, setup_reps: int = SETUP_REPS,
                 corrupt=None):
        self.root = root
        self.state = state
        self.samples = samples
        self.min_reps = min_reps
        self.setup_reps = setup_reps
        self.corrupt = corrupt  # test hook: corrupt(out_dir) before checking
        self.env = dict(os.environ)
        paths = [str(root / "src")] + [p for p in [self.env.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.worst_band = 0.0
        self.digests: dict[str, str] | None = None
        self.source = source_digest(root)
        self.units = metric_units(root)

    # -- inputs ------------------------------------------------------------

    def n_samples(self, w: Workload) -> int:
        if self.samples:
            return self.samples
        return MEANFN_SAMPLES if w.workers == 0 else PAPER_SAMPLES

    def cli_args(self, w: Workload, seed: int, out: Path) -> list[str]:
        return ["all", "--workers", str(w.workers), "--seed", str(seed),
                "--samples", str(self.n_samples(w)), "--points", str(PAPER_POINTS),
                "--k", str(PAPER_K), "--output", str(out)]

    def meanfn_args(self, w: Workload, seed: int, out: Path) -> list[str]:
        return ["--seed", str(seed), "--samples", str(self.n_samples(w)),
                "--output", str(out / "rows.json")]

    def work(self, w: Workload) -> int:
        """Requested (cell x sample) evaluations of one run of the workload."""
        n = self.n_samples(w)
        if w.workers == 0:
            return len(meanfn.GRID) * n
        # 10 + (2 + 14) + 10 cells, plus 2 nulls and the points per figure
        return 40 * n + 2 * PAPER_POINTS

    # -- measurement -------------------------------------------------------

    def setup(self, w: Workload, seed: int, tmp: Path) -> tuple[list[float], list[dict]]:
        py = [sys.executable, "-X", "importtime"]
        if w.workers == 0:
            argv = py + [str(HERE / "meanfn.py"), "--seed", str(seed),
                         "--samples", str(self.n_samples(w)), "--setup-only"]
        else:
            argv = py + ["-c", CLI_SETUP] + self.cli_args(w, seed, tmp / "unused")
        walls, imports = [], []
        for i in range(self.setup_reps + 1):
            log = tmp / f"setup{i}.log"
            child = run_child(argv, self.env, log, CHILD_TIMEOUT_S)
            if child.code != 0:
                raise RuntimeError(f"setup probe failed ({child.code}): "
                                   + log.read_text(errors="replace")[-2000:])
            if i > 0:  # the first probe only warms bytecode and page caches
                walls.append(child.wall_s)
                imports.append(import_times(log))
        return walls, imports

    def run_once(self, w: Workload, seed: int, tmp: Path, tag: str,
                 traced: bool = False) -> tuple[Child, Path]:
        out = tmp / tag
        out.mkdir()
        if w.workers == 0:
            mode, args = "meanfn", self.meanfn_args(w, seed, out)
            argv = [sys.executable, str(HERE / "meanfn.py")] + args
        else:
            mode, args = "cli", self.cli_args(w, seed, out)
            argv = [sys.executable, "-m", "steinsim.cli"] + args
        spans = out / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "layertrace.py"), "--spans", str(spans),
                    mode] + args
        child = run_child(argv, self.env, tmp / f"{tag}.log", CHILD_TIMEOUT_S)
        self.check(w, seed, out, child.code)
        return child, spans

    def check(self, w: Workload, seed: int, out: Path, code: int) -> None:
        if self.corrupt is not None:
            self.corrupt(out)
        n = self.n_samples(w)
        if w.workers == 0:
            per_op, worst = checks.check_meanfn_rows(out / "rows.json", meanfn.GRID,
                                                     meanfn.K, n)
            ops = {f"row{i}": f for i, f in enumerate(per_op)}
        else:
            ops, worst = checks.check_paper_outputs(out, PAPER_K, n, PAPER_POINTS)
            self.check_digests(w, seed, out, ops)
        self.worst_band = max(self.worst_band, worst)
        for name, problems in ops.items():
            if code != 0:
                problems = [f"exit code {code}"] + problems
            self.attempted += 1
            if problems:
                self.failed += 1
                self.failures.extend(f"{w.name} {name}: {p}" for p in problems[:3])

    def check_digests(self, w: Workload, seed: int, out: Path, ops: dict) -> None:
        """Byte-determinism: every rep, and the other worker count, must agree."""
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.glob("*.csv"))}
        if self.digests is None:
            self.digests = digests
        store_path = self.state / "digests.json"
        try:
            store = json.loads(store_path.read_text())
        except (OSError, ValueError):
            store = {}
        key = ":".join(map(str, (self.source, seed, self.n_samples(w),
                                 PAPER_K, PAPER_POINTS)))
        entry = store.setdefault(key, {})
        references = [("an earlier repetition", self.digests)] + [
            (f"workers={workers}", ref) for workers, ref in entry.items()
            if workers != str(w.workers)]
        for report in checks.REPORTS:
            csv_name = f"{report}.csv"
            for label, ref in references:
                if csv_name in ref and ref.get(csv_name) != digests.get(csv_name):
                    ops[report].append(f"bytes differ from {label} at the same seed")
        if self.corrupt is None:
            entry[str(w.workers)] = digests
            tmp_path = store_path.with_suffix(".tmp")
            tmp_path.write_text(json.dumps(store, indent=1))
            os.replace(tmp_path, store_path)

    def run(self, name: str, seed: int, seconds: float, traced: bool) -> dict:
        w = WORKLOADS[name]
        self.state.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.state))
        try:
            setup_walls, imports = self.setup(w, seed, tmp)
            reps: list[Child] = []
            start = time.perf_counter()
            while True:
                child, _ = self.run_once(w, seed, tmp, f"rep{len(reps)}")
                reps.append(child)
                elapsed = time.perf_counter() - start
                typical = statistics.median(c.wall_s for c in reps)
                if len(reps) >= self.min_reps and elapsed + typical > seconds:
                    break
            wall = statistics.median(c.wall_s for c in reps)
            record = {
                "workload": name, "seed": seed, "seconds": seconds,
                "trace": int(traced), "samples": self.n_samples(w),
                "work": self.work(w),
                "reps": [vars(c) for c in reps],
                "setup_s": setup_walls,
            }
            if traced:
                child, spans_path = self.run_once(w, seed, tmp, "traced", traced=True)
                metrics, record["trace_info"] = self.layer_metrics(
                    spans_path, child, wall, imports)
            else:
                metrics = {
                    "wall_s": wall,
                    "cell_samples_per_s": self.work(w) / wall,
                    "setup_s": statistics.median(setup_walls),
                    "cpu_s": statistics.median(c.cpu_s for c in reps),
                    "peak_rss_mib": statistics.median(c.rss_mib for c in reps),
                }
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        record.update({
            "csv_digests": self.digests,
            "worst_band_usage": self.worst_band,
            "failures": self.failures[:50],
            **platform_record(self.root, self.source),
        })
        result = {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": self.units[k]} for k, v in metrics.items()},
        }
        return {"record": record, "result": result}

    def layer_metrics(self, spans_path: Path, child: Child, untraced_wall: float,
                      imports: list[dict]):
        try:
            data = json.loads(spans_path.read_text())
        except (OSError, ValueError):
            data = {"spans": [], "installed": [], "missing": ["<no spans written>"]}
        metrics, not_run = layertrace.summarize(data["spans"])
        metrics["setup.import.steinsim_s"] = statistics.median(
            i.get("steinsim", 0.0) for i in imports)
        metrics["setup.import.scipy_stats_s"] = statistics.median(
            i.get("scipy.stats", 0.0) for i in imports)
        metrics["trace.overhead_s"] = child.wall_s - untraced_wall
        metrics["check.failed_frac"] = self.failed / max(self.attempted, 1)
        info = {"wall_s": child.wall_s, "installed": data["installed"],
                "missing": data["missing"], "not_applicable": not_run}
        return metrics, info


def emit(outcome: dict) -> None:
    print("perfbench-record " + json.dumps(outcome["record"], sort_keys=True))
    print(json.dumps(outcome["result"]), flush=True)


def self_test(root: Path) -> int:
    """Every workload at a tiny N: all metrics present, a corrupted output fails."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    end_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    problems = []
    state = Path(tempfile.mkdtemp(prefix="selftest-", dir=root / ".perfbench"))

    def corrupt(out: Path) -> None:
        rows = out / "rows.json"
        if rows.exists():
            data = json.loads(rows.read_text())
            data["rows"][1][0] += 1.0
            rows.write_text(json.dumps(data))
        else:
            table = out / "table1.csv"
            table.write_text(table.read_text().replace("\nJS,0,", "\nJS,0,1", 1))

    try:
        digests = {}
        for name in WORKLOADS:
            for traced in (False, True):
                bench = Bench(root, state, samples=20_000, min_reps=1, setup_reps=1)
                result = bench.run(name, 7, 0.0, traced)["result"]
                want = layer_names if traced else end_names
                missing = [m for m in want if m not in result["metrics"]]
                if missing or result["failed"] or not result["correct"]:
                    problems.append(f"{name} trace={int(traced)}: missing={missing} "
                                    f"failed={result['failed']} {bench.failures[:3]}")
                if not traced and bench.digests is not None:
                    digests[name] = bench.digests
            bench = Bench(root, state, samples=20_000, min_reps=1, setup_reps=1,
                          corrupt=corrupt)
            result = bench.run(name, 7, 0.0, False)["result"]
            if not result["failed"] > 0:
                problems.append(f"{name}: corrupted output was not detected")
        if digests.get("paper-all-1w") != digests.get("paper-all-2w"):
            problems.append("paper-all CSVs differ between 1 and 2 workers")
    finally:
        shutil.rmtree(state, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="steinsim benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at a tiny N and check the harness")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "steinsim" / "cli.py").is_file():
        print("perfbench: no steinsim sources under ./src; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    if args.self_test:
        (root / ".perfbench").mkdir(exist_ok=True)
        return self_test(root)
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    bench = Bench(root, root / ".perfbench")
    emit(bench.run(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
