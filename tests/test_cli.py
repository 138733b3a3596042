"""End-to-end CLI checks: golden files, determinism, exit codes, config."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from walklab import ConfigurationError, build_graph, torus_spec
from walklab.cli import load_config, main, parse_vertex

from helpers import json_numbers_close
from regen_golden import CASES as GOLDEN_JSON_CASES
from regen_golden import RUN_CASES as GOLDEN_RUN_CASES

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(args: list[str]) -> int:
    return main(args)


def _python(*args, check=True, **env) -> subprocess.CompletedProcess:
    """A child python on `args`, with src/ on its path (a checkout runs
    without an install) and `env` added to its environment."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=check,
                          env=_child_env(**env))


def _child_env(**env) -> dict:
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _config(tmp_path, text: str) -> Path:
    cfg = tmp_path / "c.toml"
    cfg.write_text(text, encoding="utf-8")
    return cfg


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


@pytest.mark.parametrize("out", [[], ["--out", "-"]], ids=["no-out", "out-dash"])
def test_stdout_gets_the_bytes_of_the_out_file(tmp_path, capsys, out):
    path = tmp_path / "predict.json"
    assert run_cli(["predict", "--side", "8", "--out", str(path)]) == 0
    capsys.readouterr()
    assert run_cli(["predict", "--side", "8", *out]) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes()


def test_two_marked_trace_is_the_run_trace(tmp_path):
    trace, run = tmp_path / "pair.csv", tmp_path / "run.csv"
    assert run_cli(["two-marked", "--side", "8", "--v1", "0,0", "--v2", "3,5", "--t-max", "50",
                    "--out", os.devnull, "--trace", str(trace)]) == 0
    assert run_cli(["run", "--side", "8", "--marked", "0,0", "--marked", "3,5", "--t-max", "50",
                    "--out", str(run)]) == 0
    assert trace.read_bytes() == run.read_bytes()


@pytest.mark.parametrize("args", [
    ["run", "--side", "4", "--t-max", "3", "--marked", "0", "--marked", "0"],
    ["two-marked", "--side", "4", "--v1", "0,0", "--v2", "0"],
], ids=["run", "two-marked"])
def test_repeated_marked_vertex_rejected(args, capsys):
    assert run_cli(args + ["--out", os.devnull]) == 2
    assert "marked vertices must be distinct" in capsys.readouterr().err


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


@pytest.mark.parametrize("golden_name,args", GOLDEN_RUN_CASES,
                         ids=[c[0] for c in GOLDEN_RUN_CASES])
def test_run_trace_of_each_family_matches_golden(tmp_path, golden_name, args):
    out = tmp_path / golden_name
    assert run_cli(args + ["--out", str(out)]) == 0
    _csv_close(_csv_rows(out), _csv_rows(GOLDEN / golden_name))


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
        # spectra of hundreds of levels, whose sums a reduction could split
        "spectrum --family torus --side 64",
        "spectrum --family torus --side 12 --dims 3",
    ]
    prefixes = [tmp_path / f"threads{threads}-" for threads in ("1", "2")]
    children = [subprocess.Popen([sys.executable, "-c", _THREADS_CHILD, str(prefix), *commands],
                                 env=_child_env(OPENBLAS_NUM_THREADS=threads))
                for threads, prefix in zip(("1", "2"), prefixes)]  # side by side
    assert [child.wait() for child in children] == [0, 0]
    outputs = [[Path(f"{prefix}{i}").read_bytes() for i in range(len(commands))]
               for prefix in prefixes]
    assert outputs[0] == outputs[1]


def test_predict_moving_exit_code():
    assert run_cli(["predict", "--family", "torus", "--side", "8",
                    "--shift", "moving", "--out", os.devnull]) == 3


@pytest.mark.parametrize("command", ["spectrum", "amplify"])
def test_no_search_structure_exit_code(command, capsys):
    # amplify without --walk-length takes its walk length from predict
    assert run_cli([command, "--side", "8", "--shift", "moving", "--out", os.devnull]) == 3
    assert "analyze-moving" in capsys.readouterr().err


def test_invalid_configuration_exit_code(capsys):
    code = run_cli(["predict", "--family", "torus", "--side", "4", "--dims", "3",
                    "--shift", "dirac"])
    assert code == 2
    assert "2D torus" in capsys.readouterr().err


def test_zero_torus_dimensions_exit_code(capsys):
    assert run_cli(["predict", "--side", "4", "--dims", "0"]) == 2
    assert "dims must be positive integers" in capsys.readouterr().err


def test_out_of_memory_in_a_handler_exit_code(monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("cannot allocate")

    monkeypatch.setattr("walklab.cli.cmd_spectrum", exhausted)
    assert run_cli(["spectrum", "--side", "4"]) == 2
    assert "out of memory" in capsys.readouterr().err


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
    result = _python("-c", _OUT_OF_MEMORY_CHILD, str(tmp_path / "out"), check=False,
                     OPENBLAS_NUM_THREADS="1")
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


def test_failed_write_names_the_path_given(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    errors = []
    for _ in range(2):
        assert run_cli(["run", "--side", "4", "--t-max", "3", "--out", "nodir/o.csv"]) == 4
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "nodir/o.csv" in errors[0] and ".walklab-" not in errors[0]
    # a directory as --out: the temporary file is made beside it, then removed
    (tmp_path / "taken").mkdir()
    assert run_cli(["run", "--side", "4", "--t-max", "3", "--out", "taken"]) == 4
    err = capsys.readouterr().err
    assert "'taken'" in err and ".walklab-" not in err
    assert sorted(os.listdir(tmp_path)) == ["taken"]
    assert os.listdir(tmp_path / "taken") == []


def test_failed_summary_write_keeps_the_trace(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["run", "--side", "4", "--t-max", "3", "--out", "o.csv",
                    "--summary", "nodir/s.json"]) == 4
    err = capsys.readouterr().err
    assert "nodir/s.json" in err and ".walklab-" not in err
    assert sorted(os.listdir(tmp_path)) == ["o.csv"]
    assert len(_csv_rows(tmp_path / "o.csv")) == 4


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask-022", "umask-027"])
def test_written_files_take_their_mode_from_the_umask(tmp_path, monkeypatch, umask, mode):
    monkeypatch.chdir(tmp_path)
    Path("o.csv").write_text("", encoding="utf-8")
    os.chmod("o.csv", 0o644)  # an existing file is replaced at the umask's mode too
    old = os.umask(umask)
    try:
        assert run_cli(["run", "--side", "4", "--t-max", "3", "--out", "o.csv",
                        "--summary", "s.json"]) == 0
    finally:
        os.umask(old)
    modes = {name: oct(os.stat(name).st_mode & 0o777) for name in ("o.csv", "s.json")}
    assert modes == {"o.csv": oct(mode), "s.json": oct(mode)}


def test_config_file_supplies_defaults(tmp_path):
    cfg = _config(tmp_path, 'family = "torus"\nside = 4\ndims = 2\n'
                            'shift = "flip_flop"  # comment\n')
    out = tmp_path / "out.json"
    assert run_cli(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    json_numbers_close(_read_json(out), _read_json(GOLDEN / "spectrum_torus4.json"))


def test_flags_override_config(tmp_path):
    cfg = _config(tmp_path, 'side = 4\n')
    out = tmp_path / "out.json"
    assert run_cli(["spectrum", "--family", "torus", "--dims", "2", "--side", "6",
                    "--config", str(cfg), "--out", str(out)]) == 0
    assert _read_json(out)["spectrum"]["n_vertices"] == 36


def test_console_entry_point():
    result = _python("-m", "walklab.cli", "spectrum", "--family", "complete", "--n", "8")
    doc = json.loads(result.stdout)
    assert doc["schema"] == 1
    assert doc["spectrum"]["retained_dim"] == 2


_NO_SCIPY_CHILD = """
import sys
from walklab import build_graph, default_coin, torus_spec
from walklab.cli import main
from walklab.oracle import dense_eigens, dense_unitary, evolve_dense

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
op = dense_unitary(graph, default_coin(graph, marked=(0,)))
op.unitarity_defect()
phases, vectors = dense_eigens(op)
evolve_dense(op, vectors[:, 0], 3)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_no_command_and_no_oracle_call_loads_scipy(tmp_path):
    # one BLAS per process: scipy would load a second OpenBLAS thread pool
    result = _python("-c", _NO_SCIPY_CHILD, str(tmp_path / "out"))
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
    result = _python("-c", _PREDICT_IMPORTS_CHILD, str(tmp_path / "out"))
    assert result.stdout.strip() == "[]"


_NO_NUMPY_MA_CHILD = """
import sys
from walklab.cli import main

for argv in (["run", "--family", "torus", "--side", "8", "--marked", "0,0", "--t-max", "4"],
             ["run", "--family", "torus", "--side", "8", "--dims", "3", "--marked", "0,0,0",
              "--t-max", "4"],
             ["run", "--family", "torus", "--side", "8", "--shift", "moving", "--marked", "0,0",
              "--t-max", "4"],
             ["run", "--family", "torus", "--side", "8", "--shift", "dirac", "--marked", "0,0",
              "--t-max", "4"],
             ["sweep", "--family", "torus", "--dims", "2", "--sides", "4,8"],
             ["amplify", "--family", "hypercube", "--degree", "4", "--marked", "3",
              "--rounds", "1"]):
    assert main([*argv, "--out", sys.argv[1]]) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""


def test_walk_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, about 12 ms and 1.3 MiB
    # in every process; the walk drivers dedupe through sets instead
    result = _python("-c", _NO_NUMPY_MA_CHILD, str(tmp_path / "out"))
    assert result.stdout.strip() == "[]"


def test_config_can_supply_t_max(tmp_path):
    cfg = _config(tmp_path, 'family = "torus"\nside = 4\ndims = 2\nt_max = 5\n')
    out = tmp_path / "trace.csv"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(_csv_rows(out)) == 6
    assert run_cli(["run", "--family", "torus", "--side", "4", "--dims", "2",
                    "--out", str(out)]) == 2  # t-max missing entirely


def test_parse_vertex_errors():
    graph = build_graph(torus_spec(4))
    with pytest.raises(ConfigurationError):
        parse_vertex("1,2,3", graph)
    with pytest.raises(ConfigurationError):
        parse_vertex("a,b", graph)
    with pytest.raises(ConfigurationError):
        parse_vertex("99", graph)
    assert parse_vertex("3,1", graph) == 7


@pytest.mark.parametrize("args,config,flag", [
    (["predict", "--family", "hypercube", "--degree", "5", "--dims", "3"], None, "--dims"),
    (["predict", "--family", "torus", "--side", "8", "--degree", "5"], None, "--degree"),
    (["predict", "--family", "complete", "--n", "16", "--side", "4"], None, "--side"),
    (["spectrum", "--side", "4", "--n", "16"], None, "--n"),
    (["sweep", "--family", "hypercube", "--degree", "5", "--sides", "4,5"], None, "--degree"),
    (["run"], 'family = "complete"\nn = 8\ndims = 2\nt_max = 3\n', "--dims"),
    (["sweep"], "side = 8\nsides = [8, 16]\n", "--side"),
], ids=["dims-off-torus", "degree-off-hypercube", "side-off-torus", "n-off-complete",
        "size-next-to-sides", "config-dims-off-torus", "config-size-next-to-sides"])
def test_a_shape_flag_the_family_does_not_read_exits_2(tmp_path, capsys, args, config, flag):
    if config is not None:
        args = [*args, "--config", str(_config(tmp_path, config))]
    assert run_cli(args + ["--out", os.devnull]) == 2
    assert f"{flag} does not apply" in capsys.readouterr().err


def test_flat_toml_errors(tmp_path):
    for text, column in [("just words\n", 6), ("key = {nested}\n", 14)]:
        bad = _config(tmp_path, text)
        expected = f"{bad}: Expected '=' after a key in a key/value pair (at line 1, column {column})"
        with pytest.raises(ConfigurationError, match=re.escape(expected)):
            load_config(bad)
        assert run_cli(["spectrum", "--config", str(bad), "--out", os.devnull]) == 2


def test_flat_toml_values(tmp_path):
    cfg = _config(tmp_path, 'a = 1\nb = 2.5\nc = "x"\nd = true\ne = [1, 2]\n'
                            'hy-phen = 3\n# comment only\n')
    assert load_config(cfg) == {"a": 1, "b": 2.5, "c": "x", "d": True,
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
    cfg = _config(tmp_path, 'family = "hypercube"\ndegree = 4\n')
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
    cfg = _config(tmp_path, text)
    code = run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_config_unknown_family_rejected(tmp_path, capsys):
    code, err = _config_exit(tmp_path, capsys, "sweep", 'family = "foo"\nsides = [4, 6]\n')
    assert code == 2 and "'foo'" in err


def test_config_sides_drive_a_sweep(tmp_path):
    cfg = _config(tmp_path, 'family = "torus"\nsides = [8, 16]\n')
    out = tmp_path / "sweep.json"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert [row["n_vertices"] for row in _read_json(out)["sweep"]["rows"]] == [64, 256]


def test_config_unknown_key_rejected(tmp_path, capsys):
    code, err = _config_exit(tmp_path, capsys, "spectrum", "side = 4\nsise = 32\n")
    assert code == 2 and "'sise'" in err
    # a flag of another subcommand is unknown here too
    code, err = _config_exit(tmp_path, capsys, "spectrum", "side = 4\nt_max = 5\n")
    assert code == 2 and "'t_max'" in err
    code, err = _config_exit(tmp_path, capsys, "spectrum", "side = 4\n[run]\nt_max = 5\n")
    assert code == 2 and "'run'" in err


@pytest.mark.parametrize("command,text", [
    ("spectrum", "side = 4.7\n"),
    ("spectrum", 'side = "4"\n'),
    ("spectrum", "side = 4\ndims = true\n"),
    ("run", "side = 4\nt_max = 5.5\n"),
    ("sweep", "sides = [8, 16.5]\n"),
    ("sweep", "sides = 8\n"),
    ("run", "side = 4\nt_max = 1979-05-27\n"),
    ("run", "[side]\nt_max = 4\n"),
], ids=["side-float", "side-string", "dims-bool", "t_max-float", "sides-float", "sides-scalar",
        "t_max-date", "side-table"])
def test_config_non_integer_values_rejected(tmp_path, capsys, command, text):
    # matched past the file name, which holds the test's name
    code, err = _config_exit(tmp_path, capsys, command, text)
    assert code == 2 and re.search(r"c\.toml: \w+ takes (an integer|a list of integers), got", err)


def test_a_vertex_out_of_range_and_a_config_bool_exit_2(tmp_path, capsys):
    assert run_cli(["run", "--side", "4", "--t-max", "2", "--marked", "99",
                    "--out", os.devnull]) == 2
    assert "vertex 99 out of range for N=16" in capsys.readouterr().err
    code, err = _config_exit(tmp_path, capsys, "run", "side = 4\nt_max = true\n")
    assert code == 2 and "t_max takes an integer, got True" in err
    code, err = _config_exit(tmp_path, capsys, "sweep", "sides = [8, true]\n")
    assert code == 2 and "sides takes a list of integers, got [8, True]" in err


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
    cfg = _config(tmp_path, 'side = 4\nt_max = 3\nmarked = "1,2"\n')
    from_config, from_flags = tmp_path / "config.csv", tmp_path / "flags.csv"
    assert run_cli(["run", "--config", str(cfg), "--out", str(from_config)]) == 0
    assert run_cli(["run", "--side", "4", "--t-max", "3", "--marked", "1,2",
                    "--out", str(from_flags)]) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()


def test_config_hash_inside_string_is_not_a_comment(tmp_path):
    out = tmp_path / "trace#1.csv"
    cfg = _config(tmp_path, f'side = 4\nt_max = 3\nout = "{out}"  # the trace\n')
    assert run_cli(["run", "--config", str(cfg)]) == 0
    assert len(_csv_rows(out)) == 4


def test_config_string_in_array_rejected(tmp_path, capsys):
    code, err = _config_exit(tmp_path, capsys, "sweep", 'sides = [8, "16"]\n')
    assert code == 2 and "sides takes a list of integers, got [8, '16']" in err


@pytest.mark.parametrize("args,config", [
    (["run", "--side", "4", "--t-max", "3", "--marked", "5,0"], None),
    (["run", "--side", "4", "--t-max", "3", "--marked=-1,0"], None),
    (["two-marked", "--side", "4", "--v1", "0,0", "--v2", "4,0"], None),
    (["run", "--side", "4", "--t-max", "3"], 'marked = "9,9"\n'),
], ids=["run-too-large", "run-negative", "two-marked", "run-config"])
def test_torus_coordinates_outside_the_side_rejected(tmp_path, capsys, args, config):
    if config is not None:
        args = args + ["--config", str(_config(tmp_path, config))]
    assert run_cli(args + ["--out", os.devnull]) == 2
    assert "outside 0..3" in capsys.readouterr().err


@pytest.mark.parametrize("command,text,flags", [
    ("two-marked", 'side = 8\nv1 = "0,0"\nv2 = "3,5"\nt_max = 20\n',
     ["--side", "8", "--v1", "0,0", "--v2", "3,5", "--t-max", "20"]),
    ("analyze-moving", "side = 4\n", ["--side", "4"]),
], ids=["two-marked", "analyze-moving"])
def test_config_supplies_required_flags(tmp_path, command, text, flags):
    cfg = _config(tmp_path, text)
    from_config, from_flags = tmp_path / "config.json", tmp_path / "flags.json"
    assert run_cli([command, "--config", str(cfg), "--out", str(from_config)]) == 0
    assert run_cli([command] + flags + ["--out", str(from_flags)]) == 0
    assert from_config.read_bytes() == from_flags.read_bytes()


@pytest.mark.parametrize("args,message", [
    (["two-marked", "--v1", "0", "--v2", "5"], "two-marked needs --side (flag or config)"),
    (["two-marked", "--side", "4", "--v1", "0"], "two-marked needs --v2 (flag or config)"),
    (["analyze-moving"], "analyze-moving needs --side (flag or config)"),
    (["run", "--side", "4"], "run needs --t-max (flag or config)"),
    (["predict", "--family", "hypercube"], "hypercube needs --degree"),
    (["sweep"], "sweep needs --sides"),
], ids=["two-marked-side", "two-marked-v2", "analyze-moving-side", "run-t-max",
        "predict-hypercube-degree", "sweep-sides"])
def test_missing_required_flag_is_named(capsys, args, message):
    assert run_cli(args + ["--out", os.devnull]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args,text", [
    (["run", "--side", "8", "--t-max", "3", "--marked", "3,"], "3,"),
    (["run", "--side", "8", "--t-max", "3", "--marked", ",,5"], ",,5"),
    (["two-marked", "--side", "8", "--v1", "3,", "--v2", "3,5", "--t-max", "3"], "3,"),
], ids=["marked-trailing", "marked-leading", "two-marked-v1"])
def test_a_vertex_with_an_empty_item_is_refused(capsys, args, text):
    # an empty item between commas is no coordinate: "3," is not vertex 3
    assert run_cli(args + ["--out", os.devnull]) == 2
    assert f"cannot parse vertex {text!r}" in capsys.readouterr().err


@pytest.mark.parametrize("sides", ["4,,6,", ",4", "4,"])
def test_sides_with_an_empty_item_are_refused(capsys, sides):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["sweep", "--sides", sides, "--out", os.devnull])
    assert exit_info.value.code == 2
    assert f"expected comma-separated integers, got {sides!r}" in capsys.readouterr().err


@pytest.mark.parametrize("sides", ["8,8,8", "8,16,8"])
def test_a_repeated_sweep_size_is_refused(capsys, sides):
    # a size given twice would fit the exponent to one N twice over
    assert run_cli(["sweep", "--sides", sides, "--out", os.devnull]) == 2
    assert "sweep sizes must be distinct, and 8 is given twice" in capsys.readouterr().err
