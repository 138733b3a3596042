"""The benchmark still runs against the library it measures."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["walk", "oracle"])
def test_benchmark_runs_against_the_library(workload, tmp_path):
    # perfbench/run.py builds what it runs from the src/ of its own checkout,
    # so a change to a name it calls shows here and not first in a benchmark
    # run; the copy keeps the run's records out of the repository
    unbuilt = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=unbuilt)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=unbuilt)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, str(Path("perfbench", "run.py")), "--workload", workload,
            "--scale", "tiny", "--seconds", "1", "--trace", "0", "--seed", "7"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
