"""End-to-end CLI checks: golden files, determinism, exit codes, config."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from walklab.cli import main

from helpers import json_numbers_close
from regen_golden import CASES as GOLDEN_JSON_CASES

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args: list[str]) -> int:
    return main(args)


def _read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "t,p_marked,p_nbhd,norm"
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def _csv_close(a, b, atol=1e-9):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert len(ra) == len(rb)
        for x, y in zip(ra, rb):
            assert abs(x - y) <= atol * max(1.0, abs(x), abs(y))


@pytest.mark.parametrize("golden_name,args", GOLDEN_JSON_CASES,
                         ids=[c[0] for c in GOLDEN_JSON_CASES])
def test_json_commands_match_golden(tmp_path, golden_name, args):
    out = tmp_path / golden_name
    assert run_cli(args + ["--out", str(out)]) == 0
    json_numbers_close(_read_json(out), _read_json(GOLDEN / golden_name))


def test_regen_golden_with_arguments_writes_nothing():
    before = {f.name: f.stat().st_mtime_ns for f in GOLDEN.iterdir()}
    result = subprocess.run([sys.executable, str(Path(__file__).parent / "regen_golden.py"),
                             "--help"], capture_output=True, text=True)
    assert result.returncode != 0
    assert result.stderr.startswith("usage:")
    assert {f.name: f.stat().st_mtime_ns for f in GOLDEN.iterdir()} == before


def test_two_marked_reports_tiny_symmetry_residual(tmp_path):
    out = tmp_path / "pair.json"
    assert run_cli(["two-marked", "--side", "8", "--v1", "0,0", "--v2", "3,5",
                    "--t-max", "50", "--out", str(out)]) == 0
    assert _read_json(out)["symmetry_residual"] < 1e-10


def test_run_trace_matches_golden(tmp_path):
    out = tmp_path / "trace.csv"
    summary = tmp_path / "summary.json"
    code = run_cli(["run", "--family", "torus", "--side", "8", "--dims", "2",
                    "--shift", "flip-flop", "--marked", "0,0", "--t-max", "40",
                    "--out", str(out), "--summary", str(summary)])
    assert code == 0
    rows = _csv_rows(out)
    assert len(rows) == 41  # one row per step plus t = 0
    _csv_close(rows, _csv_rows(GOLDEN / "run_torus8.csv"))
    json_numbers_close(_read_json(summary), _read_json(GOLDEN / "run_torus8_summary.json"))


def test_csv_output_is_deterministic(tmp_path):
    args = ["run", "--family", "torus", "--side", "8", "--dims", "2",
            "--marked", "0,0", "--t-max", "25"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


_THREADS_CHILD = """
import sys
from walklab.cli import main

for i, argv in enumerate(sys.argv[2:]):
    assert main([*argv.split(), "--out", f"{sys.argv[1]}{i}"]) == 0, argv
"""


def test_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    commands = [
        # large enough that a BLAS reduction would split across threads
        "run --family torus --side 256 --marked 0,0 --t-max 60",
        # the complete graph's coin sums along the contiguous axis on odd steps
        "run --family complete --n 256 --marked 7 --t-max 40",
        "run --family hypercube --degree 12 --marked 37 --t-max 120",
        # arenas outside the small-angle regime, 1D tori too; 441 and 493 are
        # sides whose overlaps once came from the dense eigenvectors and
        # followed the thread count
        "predict --family torus --side 2 --shift flip-flop",
        "predict --family torus --side 2 --shift dirac",
        "predict --family hypercube --degree 2",
        "predict --family torus --dims 1 --side 100",
        "predict --family torus --dims 1 --side 441",
        "predict --family torus --dims 1 --side 493",
    ]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        prefix = tmp_path / f"threads{threads}-"
        subprocess.run([sys.executable, "-c", _THREADS_CHILD, str(prefix), *commands],
                       check=True, env=env)
        outputs.append([Path(f"{prefix}{i}").read_bytes() for i in range(len(commands))])
    assert outputs[0] == outputs[1]


def test_predict_moving_exit_code():
    assert run_cli(["predict", "--family", "torus", "--side", "8",
                    "--shift", "moving", "--out", os.devnull]) == 3


def test_invalid_configuration_exit_code(capsys):
    code = run_cli(["predict", "--family", "torus", "--side", "4", "--dims", "3",
                    "--shift", "dirac"])
    assert code == 2
    assert "2D torus" in capsys.readouterr().err


@pytest.mark.parametrize("degree", [110, 500, 1022])
def test_predict_reaches_large_hypercubes(tmp_path, degree):
    out = tmp_path / "predict.json"
    assert run_cli(["predict", "--family", "hypercube", "--degree", str(degree),
                    "--out", str(out)]) == 0
    prediction = _read_json(out)["prediction"]
    assert 0 < prediction["alpha"] < prediction["theta_min"]


@pytest.mark.parametrize("command", ["predict", "spectrum"])
@pytest.mark.parametrize("degree", [1023, 1100])
def test_hypercube_beyond_float_range_exit_code(command, degree, capsys):
    code = run_cli([command, "--family", "hypercube", "--degree", str(degree),
                    "--out", os.devnull])
    assert code == 2
    assert "degree 1022" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--family", "hypercube", "--degree", "60"],
    ["--family", "hypercube", "--degree", "100"],
    ["--family", "torus", "--side", "4194304", "--dims", "3"],  # N = 2^66
    ["--family", "torus", "--side", "10000000", "--dims", "3"],
])
def test_arena_too_large_for_one_array_exit_code(args, capsys):
    assert run_cli(["run", *args, "--t-max", "1", "--out", os.devnull]) == 2
    assert "more than one float64 array can hold" in capsys.readouterr().err


_OUT_OF_MEMORY_CHILD = """
import resource
import sys
from walklab.cli import main

resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
sys.exit(main(["amplify", "--family", "torus", "--side", "60000", "--walk-length", "1",
               "--out", sys.argv[1]]))
"""


def test_state_too_large_for_memory_exit_code(tmp_path):
    # the address-space limit makes the 115 GB state fail to allocate wherever it runs
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _OUT_OF_MEMORY_CHILD, str(tmp_path / "out")],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 2, result.stderr
    assert "out of memory" in result.stderr
    assert not (tmp_path / "out").exists()


def test_complete_graph_summary_peak_is_not_rounding_noise(tmp_path):
    summary = tmp_path / "summary.json"
    assert run_cli(["run", "--family", "complete", "--n", "1024", "--marked", "0",
                    "--t-max", "50", "--out", os.devnull, "--summary", str(summary)]) == 0
    assert _read_json(summary)["peak"]["t_star"] == 0


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as info:
        run_cli(["predict", "--family", "torus", "--side", "4", "--frobnicate"])
    assert info.value.code == 2


def test_io_failure_exit_code(tmp_path):
    missing_dir = tmp_path / "not" / "here" / "out.json"
    assert run_cli(["predict", "--family", "torus", "--side", "8",
                    "--out", str(missing_dir)]) == 4


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "walk.toml"
    cfg.write_text('family = "torus"\nside = 4\ndims = 2\n'
                   'shift = "flip_flop"  # comment\n', encoding="utf-8")
    out = tmp_path / "out.json"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    json_numbers_close(_read_json(out), _read_json(GOLDEN / "spectrum_torus4.json"))


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "walk.toml"
    cfg.write_text('side = 4\n', encoding="utf-8")
    out = tmp_path / "out.json"
    assert run_cli(["spectrum", "--family", "torus", "--dims", "2", "--side", "6",
                    "--config", str(cfg), "--out", str(out)]) == 0
    assert _read_json(out)["spectrum"]["n_vertices"] == 36


def test_console_entry_point():
    env = dict(os.environ)  # a checkout runs without an install
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "walklab.cli", "spectrum", "--family", "complete",
         "--n", "8"],
        capture_output=True, text=True, check=True, env=env)
    doc = json.loads(result.stdout)
    assert doc["schema"] == 1
    assert doc["spectrum"]["retained_dim"] == 2


_NO_SCIPY_CHILD = """
import sys
from walklab import build_graph, default_coin, torus_spec
from walklab.cli import main
from walklab.oracle import dense_principal_pair, dense_unitary

out = sys.argv[1]
for argv in (
    ["run", "--family", "torus", "--side", "8", "--marked", "0,0", "--t-max", "10"],
    ["sweep", "--family", "torus", "--dims", "2", "--sides", "4,8"],
    ["predict", "--family", "torus", "--side", "2", "--dims", "2"],  # outside the regime
    ["predict", "--family", "hypercube", "--degree", "40"],
    ["amplify", "--family", "torus", "--side", "8", "--marked", "0,0", "--rounds", "1"],
    ["two-marked", "--side", "8", "--v1", "0,0", "--v2", "3,5", "--t-max", "10"],
):
    assert main([*argv, "--out", out]) == 0, argv
graph = build_graph(torus_spec(4))
dense_principal_pair(dense_unitary(graph, default_coin(graph, marked=(0,))), 0)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_command_and_no_oracle_call_loads_scipy(tmp_path):
    # one BLAS per process: scipy would load a second OpenBLAS thread pool
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD, str(tmp_path / "out")],
                            capture_output=True, text=True, check=True, env=env)
    assert result.stdout.strip() == "[]"


_PREDICT_IMPORTS_CHILD = """
import sys
from walklab.cli import main

for argv in (["--family", "torus", "--side", "2", "--dims", "2"],
             ["--family", "hypercube", "--degree", "2"],
             ["--family", "complete", "--n", "16"]):
    assert main(["predict", *argv, "--out", sys.argv[1]]) == 0, argv
print(sorted(name for name in sys.modules
             if name == "walklab.oracle" or name.split(".")[0] == "scipy"))
"""


def test_predict_imports_neither_the_oracle_nor_scipy(tmp_path):
    # predict is a function of its input alone: no dense eigenvectors, whose
    # bits follow the BLAS thread count, can reach its output
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _PREDICT_IMPORTS_CHILD, str(tmp_path / "out")],
                            capture_output=True, text=True, check=True, env=env)
    assert result.stdout.strip() == "[]"


_NO_NUMPY_MA_CHILD = """
import sys
from walklab.cli import main

for argv in (["run", "--family", "torus", "--side", "8", "--marked", "0,0", "--t-max", "4"],
             ["sweep", "--family", "torus", "--dims", "2", "--sides", "4,8"],
             ["amplify", "--family", "hypercube", "--degree", "4", "--marked", "3",
              "--rounds", "1"]):
    assert main([*argv, "--out", sys.argv[1]]) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""


def test_walk_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, about 12 ms and 1.3 MiB
    # in every process; the walk drivers dedupe through sets instead
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", _NO_NUMPY_MA_CHILD, str(tmp_path / "out")],
                            capture_output=True, text=True, check=True, env=env)
    assert result.stdout.strip() == "[]"


def test_config_can_supply_t_max(tmp_path):
    cfg = tmp_path / "run.toml"
    cfg.write_text('family = "torus"\nside = 4\ndims = 2\nt_max = 5\n',
                   encoding="utf-8")
    out = tmp_path / "trace.csv"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(_csv_rows(out)) == 6
    assert run_cli(["run", "--family", "torus", "--side", "4", "--dims", "2",
                    "--out", str(out)]) == 2  # t-max missing entirely


def test_parse_vertex_errors():
    from walklab.cli import parse_vertex
    from walklab import ConfigurationError, torus_spec
    with pytest.raises(ConfigurationError):
        parse_vertex("1,2,3", torus_spec(4))
    with pytest.raises(ConfigurationError):
        parse_vertex("a,b", torus_spec(4))
    with pytest.raises(ConfigurationError):
        parse_vertex("99", torus_spec(4))
    assert parse_vertex("3,1", torus_spec(4)) == 7


def test_flat_toml_errors(tmp_path):
    from walklab.cli import load_flat_toml
    from walklab import ConfigurationError
    bad = tmp_path / "bad.toml"
    bad.write_text("just words\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="key = value"):
        load_flat_toml(bad)
    bad.write_text("key = {nested}\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="cannot parse"):
        load_flat_toml(bad)


def test_flat_toml_values(tmp_path):
    from walklab.cli import load_flat_toml
    cfg = tmp_path / "c.toml"
    cfg.write_text('a = 1\nb = 2.5\nc = "x"\nd = true\ne = [1, 2]\n'
                   'hy-phen = 3\n# comment only\n', encoding="utf-8")
    assert load_flat_toml(cfg) == {"a": 1, "b": 2.5, "c": "x", "d": True,
                                   "e": [1, 2], "hy_phen": 3}


def test_sweep_hypercube_and_moving(tmp_path):
    out = tmp_path / "hc.json"
    assert run_cli(["sweep", "--family", "hypercube", "--sides", "5,6,7",
                    "--out", str(out)]) == 0
    doc = _read_json(out)
    assert [row["n_vertices"] for row in doc["sweep"]["rows"]] == [32, 64, 128]

    out = tmp_path / "mv.json"
    assert run_cli(["sweep", "--family", "torus", "--dims", "2",
                    "--shift", "moving", "--sides", "8,12,16",
                    "--out", str(out)]) == 0
    doc = _read_json(out)
    assert all("prediction" not in row for row in doc["sweep"]["rows"])


def test_sweep_document_names_the_shift_that_ran(tmp_path):
    out = tmp_path / "complete.json"
    assert run_cli(["sweep", "--family", "complete", "--sides", "16,32,64",
                    "--out", str(out)]) == 0
    doc = _read_json(out)
    assert (doc["family"], doc["shift"]) == ("complete", "swap")


def test_config_can_choose_family(tmp_path):
    cfg = tmp_path / "hc.toml"
    cfg.write_text('family = "hypercube"\ndegree = 4\n', encoding="utf-8")
    out = tmp_path / "out.json"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    assert _read_json(out)["spectrum"]["family"] == "hypercube"


@pytest.mark.parametrize("args", [
    ["predict", "--family", "hypercube", "--degree", "4", "--shift", "moving"],
    ["predict", "--family", "complete", "--n", "8", "--shift", "flip-flop"],
    ["sweep", "--family", "hypercube", "--shift", "dirac", "--sides", "4,5"],
], ids=["predict-hypercube-moving", "predict-complete-flip-flop", "sweep-hypercube-dirac"])
def test_explicit_shift_is_validated_off_the_torus(args, capsys):
    assert run_cli(args + ["--out", os.devnull]) == 2
    assert "shift" in capsys.readouterr().err


@pytest.mark.parametrize("args,name", [
    (["run", "--side", "4", "--t-max", "-1"], "t_max"),
    (["run", "--side", "4", "--t-max", "-1", "--summary", os.devnull], "t_max"),
    (["amplify", "--side", "4", "--walk-length", "-3"], "walk_length"),
    (["amplify", "--side", "4", "--rounds", "-2"], "rounds"),
    (["two-marked", "--side", "4", "--v1", "0", "--v2", "5", "--t-max", "-5"], "t_max"),
], ids=["run", "run-summary", "amplify-walk-length", "amplify-rounds", "two-marked"])
def test_negative_counts_rejected(args, name, capsys):
    assert run_cli(args + ["--out", os.devnull]) == 2
    assert name in capsys.readouterr().err


def _config_exit(tmp_path, capsys, command: str, text: str) -> tuple[int, str]:
    cfg = tmp_path / "c.toml"
    cfg.write_text(text, encoding="utf-8")
    code = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_config_unknown_family_rejected(tmp_path, capsys):
    code, err = _config_exit(tmp_path, capsys, "sweep", 'family = "foo"\nsides = [4, 6]\n')
    assert code == 2 and "'foo'" in err


def test_config_sides_drive_a_sweep(tmp_path):
    cfg = tmp_path / "sweep.toml"
    cfg.write_text('family = "torus"\nsides = [8, 16]\n', encoding="utf-8")
    out = tmp_path / "sweep.json"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert [row["n_vertices"] for row in _read_json(out)["sweep"]["rows"]] == [64, 256]


def test_config_unknown_key_rejected(tmp_path, capsys):
    code, err = _config_exit(tmp_path, capsys, "spectrum", "side = 4\nsise = 32\n")
    assert code == 2 and "'sise'" in err
    # a flag of another subcommand is unknown here too
    code, err = _config_exit(tmp_path, capsys, "spectrum", "side = 4\nt_max = 5\n")
    assert code == 2 and "'t_max'" in err


@pytest.mark.parametrize("command,text", [
    ("spectrum", "side = 4.7\n"),
    ("spectrum", 'side = "4"\n'),
    ("spectrum", "side = 4\ndims = true\n"),
    ("run", "side = 4\nt_max = 5.5\n"),
    ("sweep", "sides = [8, 16.5]\n"),
    ("sweep", "sides = 8\n"),
], ids=["side-float", "side-string", "dims-bool", "t_max-float", "sides-float", "sides-scalar"])
def test_config_non_integer_values_rejected(tmp_path, capsys, command, text):
    code, err = _config_exit(tmp_path, capsys, command, text)
    assert code == 2 and "integer" in err


@pytest.mark.parametrize("command,text,key", [
    ("spectrum", "side = 4\nshift = 3\n", "shift"),
    ("spectrum", "side = 4\nfamily = true\n", "family"),
    ("run", "side = 4\nt_max = 2\nmarked = 5\n", "marked"),
    ("run", "side = 4\nt_max = 2\nmarked = [1, 2]\n", "marked"),
], ids=["shift-int", "family-bool", "marked-int", "marked-list"])
def test_config_non_string_values_rejected(tmp_path, capsys, command, text, key):
    code, err = _config_exit(tmp_path, capsys, command, text)
    assert code == 2 and f"{key} takes a string" in err


def test_config_marked_is_one_vertex(tmp_path):
    cfg = tmp_path / "run.toml"
    cfg.write_text('side = 4\nt_max = 3\nmarked = "1,2"\n', encoding="utf-8")
    from_config, from_flags = tmp_path / "config.csv", tmp_path / "flags.csv"
    assert run_cli(["run", "--config", str(cfg), "--out", str(from_config)]) == 0
    assert run_cli(["run", "--side", "4", "--t-max", "3", "--marked", "1,2",
                    "--out", str(from_flags)]) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()


def test_config_hash_inside_string_is_not_a_comment(tmp_path):
    out = tmp_path / "trace#1.csv"
    cfg = tmp_path / "run.toml"
    cfg.write_text(f'side = 4\nt_max = 3\nout = "{out}"  # the trace\n', encoding="utf-8")
    assert run_cli(["run", "--config", str(cfg)]) == 0
    assert len(_csv_rows(out)) == 4


def test_config_string_in_array_rejected(tmp_path, capsys):
    code, err = _config_exit(tmp_path, capsys, "sweep", 'sides = [8, "16"]\n')
    assert code == 2 and "numbers only" in err


@pytest.mark.parametrize("args,config", [
    (["run", "--side", "4", "--t-max", "3", "--marked", "5,0"], None),
    (["run", "--side", "4", "--t-max", "3", "--marked=-1,0"], None),
    (["two-marked", "--side", "4", "--v1", "0,0", "--v2", "4,0"], None),
    (["run", "--side", "4", "--t-max", "3"], 'marked = "9,9"\n'),
], ids=["run-too-large", "run-negative", "two-marked", "run-config"])
def test_torus_coordinates_outside_the_side_rejected(tmp_path, capsys, args, config):
    if config is not None:
        cfg = tmp_path / "c.toml"
        cfg.write_text(config, encoding="utf-8")
        args = args + ["--config", str(cfg)]
    assert run_cli(args + ["--out", os.devnull]) == 2
    assert "outside 0..3" in capsys.readouterr().err


@pytest.mark.parametrize("command,text,flags", [
    ("two-marked", 'side = 8\nv1 = "0,0"\nv2 = "3,5"\nt_max = 20\n',
     ["--side", "8", "--v1", "0,0", "--v2", "3,5", "--t-max", "20"]),
    ("analyze-moving", "side = 4\n", ["--side", "4"]),
], ids=["two-marked", "analyze-moving"])
def test_config_supplies_required_flags(tmp_path, command, text, flags):
    cfg = tmp_path / "c.toml"
    cfg.write_text(text, encoding="utf-8")
    from_config, from_flags = tmp_path / "config.json", tmp_path / "flags.json"
    assert run_cli([command, "--config", str(cfg), "--out", str(from_config)]) == 0
    assert run_cli([command] + flags + ["--out", str(from_flags)]) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()


@pytest.mark.parametrize("args,message", [
    (["two-marked", "--v1", "0", "--v2", "5"], "two-marked needs --side (flag or config)"),
    (["two-marked", "--side", "4", "--v1", "0"], "two-marked needs --v2 (flag or config)"),
    (["analyze-moving"], "analyze-moving needs --side (flag or config)"),
    (["run", "--side", "4"], "run needs --t-max (flag or config)"),
], ids=["two-marked-side", "two-marked-v2", "analyze-moving-side", "run-t-max"])
def test_missing_required_flag_is_named(capsys, args, message):
    assert run_cli(args + ["--out", os.devnull]) == 2
    assert message in capsys.readouterr().err
