"""The benchmark's library workload runs against this tree's sources.

``perfbench/meanfn.py`` builds ``SimulationConfig(theta=0.0, ...)`` and calls
``mc.tabulate_mean_function`` with ``EstimatorKind.JS``; a change to that
API must come with a change to the benchmark.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

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
