"""The benchmark's library workload and tracer run against this tree's sources.

``perfbench/meanfn.py`` builds ``SimulationConfig(k=K, theta=0.0, ...)``,
the last caller of the ``theta`` init-only parameter, which a config accepts
only as 0.0 and keeps in no field, and calls ``mc.tabulate_mean_function``
with ``EstimatorKind.JS``;
``perfbench/layertrace.py`` wraps ``mc._map_ordered(fn, ranges, n_workers)``,
``mc.draw_block`` and ``mc.StreamingMoments.from_batch`` by name. A change to
that API must come with a change to the benchmark.
"""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from steinsim import mc

ROOT = Path(__file__).resolve().parents[1]


def test_meanfn_workload_runs_against_the_sources(tmp_path):
    rows_path = tmp_path / "rows.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "meanfn.py"), "--seed", "1",
         "--samples", "20000", "--output", str(rows_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    rows = np.array(json.loads(rows_path.read_text())["rows"])
    assert rows.shape == (4, 64)
    assert np.isfinite(rows).all()


def test_tracer_installs_its_hooks_and_sees_every_chunk(tmp_path):
    spans_path = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "layertrace.py"), "--spans",
         str(spans_path), "cli", "all", "--samples", "140000", "--seed", "7",
         "--workers", "2", "--output", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    trace = json.loads(spans_path.read_text())
    assert {"mc._map_ordered", "mc.draw_block",
            "mc.StreamingMoments.from_batch"} <= set(trace["installed"])
    # every chunk of the two full streams, 0 (the cells and the nulls) and 2
    # (the power cells), and of the two 100-point figure passes on stream 3:
    # every chunk the pool runs draws its block once, through the wrapper
    spans = collections.Counter(span[2] for span in trace["spans"])
    chunks = 2 * len(mc._chunk_ranges(140_000)) + 2 * len(mc._chunk_ranges(100))
    assert spans["mc.chunk"] == spans["mc.draw_block"] == chunks
