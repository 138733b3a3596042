"""Regenerate the CLI golden files in tests/golden/.

Run `python tests/regen_golden.py` from the repository root after an
intentional output-format change, then review the diff before committing.
It takes no arguments; given any, it prints its usage and writes nothing.
"""

import sys
from pathlib import Path

# a checkout runs without an install
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from walklab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("spectrum_torus4.json",
     ["spectrum", "--family", "torus", "--side", "4", "--dims", "2",
      "--shift", "flip-flop"]),
    ("predict_torus16.json",
     ["predict", "--family", "torus", "--side", "16", "--dims", "2"]),
    ("predict_complete64.json",
     ["predict", "--family", "complete", "--n", "64"]),
    ("sweep_2d.json",
     ["sweep", "--family", "torus", "--dims", "2", "--sides", "8,16,32"]),
    ("two_marked8.json",
     ["two-marked", "--side", "8", "--v1", "0,0", "--v2", "3,5",
      "--t-max", "50"]),
    ("amplify8.json",
     ["amplify", "--family", "torus", "--side", "8", "--dims", "2",
      "--marked", "0,0", "--rounds", "2"]),
    ("analyze_moving8.json",
     ["analyze-moving", "--side", "8"]),
]

# one small `run` trace per arena family besides the 2D flip-flop torus
# (run_torus8.csv), each marked off the origin
RUN_CASES = [
    ("run_dirac8.csv",
     ["run", "--side", "8", "--shift", "dirac", "--marked", "3,5", "--t-max", "30"]),
    ("run_torus3d4.csv",
     ["run", "--side", "4", "--dims", "3", "--marked", "1,2,3", "--t-max", "20"]),
    ("run_hypercube5.csv",
     ["run", "--family", "hypercube", "--degree", "5", "--marked", "9", "--t-max", "20"]),
    ("run_moving8.csv",
     ["run", "--side", "8", "--shift", "moving", "--marked", "2,5", "--t-max", "30"]),
    ("run_complete16.csv",
     ["run", "--family", "complete", "--n", "16", "--marked", "7", "--t-max", "20"]),
]


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, args in CASES + RUN_CASES:
        code = main(args + ["--out", str(GOLDEN / name)])
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
    code = main(["run", "--family", "torus", "--side", "8", "--dims", "2",
                 "--shift", "flip-flop", "--marked", "0,0", "--t-max", "40",
                 "--out", str(GOLDEN / "run_torus8.csv"),
                 "--summary", str(GOLDEN / "run_torus8_summary.json")])
    if code != 0:
        raise SystemExit(f"run_torus8: exit code {code}")
    print(f"regenerated {len(CASES) + len(RUN_CASES) + 1} golden outputs in {GOLDEN}")


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit("usage: python tests/regen_golden.py (no arguments): "
                 "rewrite every file in tests/golden/")
    regenerate()
