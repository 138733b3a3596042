"""Command-line front end.

Subcommands: spectrum, predict, run, sweep, two-marked, amplify,
analyze-moving.  Flags override an optional flat TOML-style config file
(--config).  Exit codes: 0 success, 2 configuration violation, 3 no
abstract-search structure (predict on the moving shift), 4 I/O failure.
CSV traces always carry the columns (t, p_marked, p_nbhd, norm); JSON
documents carry "schema": 1.  Identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace

from .engine import default_coin
from .graphs import (FAMILIES, ConfigurationError, GraphSpec, build_graph, complete_spec,
                     hypercube_spec, torus_spec)
from .runner import amplify, find_peak, run_two_marked, run_walk, scaling_sweep
from .search import predict
from .spectral import mode_spectrum, moving_shift_stationary_overlap, spectral_sums

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_STRUCTURE = 3
EXIT_IO = 4


# -- config file -------------------------------------------------------------


def load_flat_toml(path: str) -> dict:
    """Parse the supported config subset: `key = value` lines with strings,
    numbers, booleans, or flat numeric arrays; # outside a string starts a
    comment."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = _strip_comment(raw).strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key.replace("-", "_")] = _parse_toml_value(value, f"{path}:{lineno}")
    return out


def _strip_comment(line: str) -> str:
    in_string = False
    for i, char in enumerate(line):
        if char == '"':
            in_string = not in_string
        elif char == "#" and not in_string:
            return line[:i]
    return line


def _parse_toml_value(text: str, where: str):
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        items = [_parse_toml_value(part.strip(), where) for part in inner.split(",")]
        if any(isinstance(item, (str, bool, list)) for item in items):
            raise ConfigurationError(f"{where}: arrays hold numbers only, got {text}")
        return items
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(f"{where}: cannot parse value {text!r}") from None


# -- output ------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".walklab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        _atomic_write(path, text)


def _json_doc(payload: dict) -> str:
    return json.dumps({"schema": SCHEMA_VERSION, **payload}, indent=2) + "\n"


def _trace_csv(trace) -> str:
    return "\n".join(trace.csv_rows()) + "\n"


# -- spec assembly -------------------------------------------------------------


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill the flags left unset from --config.  Every key must be a flag of
    the subcommand being run, an integer flag takes integers only and a
    string flag strings only; a repeatable flag takes one value."""
    if not getattr(args, "config", None):
        return args
    flags = {action.dest: action for action in args.command_parser._actions
             if action.option_strings and action.dest not in ("help", "config")}
    for key, value in load_flat_toml(args.config).items():
        action = flags.get(key)
        if action is None:
            raise ConfigurationError(
                f"{args.config}: unknown key {key!r}; {args.command} takes {sorted(flags)}")
        if action.type is int and not _is_int(value):
            raise ConfigurationError(f"{args.config}: {key} takes an integer, got {value!r}")
        if action.type is _int_list and not (isinstance(value, list)
                                             and all(map(_is_int, value))):
            raise ConfigurationError(
                f"{args.config}: {key} takes a list of integers, got {value!r}")
        if action.type is None and not isinstance(value, str):
            raise ConfigurationError(f"{args.config}: {key} takes a string, got {value!r}")
        if isinstance(action, argparse._AppendAction):
            value = [value]
        if getattr(args, key) in (None, [], ()):
            setattr(args, key, value)
    return args


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_SIZE_FLAGS = {"torus": "side", "hypercube": "degree", "complete": "n"}


def build_spec(args: argparse.Namespace, size: int | None = None) -> GraphSpec:
    """The arena the graph flags describe; `size` stands in for the
    family's own size flag (sweep).  An explicit --shift replaces the
    family's shift and is validated by GraphSpec."""
    family = args.family or "torus"
    if family not in _SIZE_FLAGS:
        raise ConfigurationError(f"unknown family {family!r}; choose from {FAMILIES}")
    if size is None:
        size = getattr(args, _SIZE_FLAGS[family])
        if size is None:
            raise ConfigurationError(f"{family} needs --{_SIZE_FLAGS[family]}")
    if family == "torus":
        spec = torus_spec(size, args.dims if args.dims is not None else 2)
    elif family == "hypercube":
        spec = hypercube_spec(size)
    else:
        spec = complete_spec(size)
    return replace(spec, shift=args.shift.replace("-", "_")) if args.shift else spec


def parse_vertex(text: str, spec: GraphSpec) -> int:
    graph = build_graph(spec)
    parts = [part for part in str(text).split(",") if part != ""]
    try:
        coords = [int(part) for part in parts]
    except ValueError:
        raise ConfigurationError(f"cannot parse vertex {text!r}") from None
    if len(coords) == 1:
        vertex = coords[0]
        if not 0 <= vertex < graph.n:
            raise ConfigurationError(f"vertex {vertex} out of range for N={graph.n}")
        return vertex
    if spec.family == "torus" and len(coords) == len(spec.dims):
        return graph.vertex_index(coords)
    raise ConfigurationError(
        f"vertex {text!r} does not match the {spec.family} coordinate form"
    )


# -- subcommands ----------------------------------------------------------------


def cmd_spectrum(args) -> int:
    spec = build_spec(args)
    ms = mode_spectrum(spec)
    s1, s2, scot = spectral_sums(ms)
    payload = {
        "spec": spec.label(),
        "spectrum": ms.to_json_dict(),
        "sums": {"s1": s1, "s2": s2, "scot": scot},
    }
    _emit(_json_doc(payload), args.out)
    return EXIT_OK


def cmd_predict(args) -> int:
    spec = build_spec(args)
    if spec.shift == "moving":
        print("predict: the moving shift has no abstract-search structure; "
              "use analyze-moving", file=sys.stderr)
        return EXIT_NO_STRUCTURE
    report = predict(spec)
    payload = {"spec": spec.label(), "prediction": report.to_json_dict()}
    _emit(_json_doc(payload), args.out)
    return EXIT_OK


def cmd_run(args) -> int:
    spec = build_spec(args)
    if args.t_max is None:
        raise ConfigurationError("run needs --t-max (flag or config)")
    graph = build_graph(spec)
    marked = tuple(parse_vertex(m, spec) for m in (args.marked or ["0"]))
    coin = default_coin(graph, marked=marked)
    trace = run_walk(graph, coin, args.t_max)
    _emit(_trace_csv(trace), args.out)
    if args.summary:
        peak = find_peak(trace)
        payload = {
            "config": trace.config,
            "peak": {
                "t_star": peak.t_star,
                "p_star": peak.p_star,
                "t_star_marked": peak.t_star_marked,
                "p_star_marked": peak.p_star_marked,
            },
        }
        if spec.shift != "moving" and len(marked) == 1:
            payload["prediction"] = predict(spec).to_json_dict()
        _emit(_json_doc(payload), args.summary)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if not args.sides:
        raise ConfigurationError("sweep needs --sides (torus sides, hypercube degrees "
                                 "or complete-graph orders)")
    specs = [build_spec(args, size) for size in args.sides]
    result = scaling_sweep(specs)
    payload = {"family": specs[0].family, "shift": specs[0].shift,
               "sweep": result.to_json_dict()}
    _emit(_json_doc(payload), args.out)
    return EXIT_OK


def cmd_two_marked(args) -> int:
    spec = torus_spec(args.side)
    v1 = parse_vertex(args.v1, spec)
    v2 = parse_vertex(args.v2, spec)
    t_max = args.t_max if args.t_max is not None else 1000
    result = run_two_marked(spec, v1, v2, t_max)
    peak = find_peak(result.trace)
    payload = {
        "config": result.trace.config,
        "symmetry_residual": result.symmetry_residual,
        "reflection_form_deviation": result.reflection_form_deviation,
        "peak": {
            "t_star": peak.t_star,
            "p_star": peak.p_star,
            "t_star_marked": peak.t_star_marked,
            "p_star_marked": peak.p_star_marked,
        },
    }
    _emit(_json_doc(payload), args.out)
    if args.trace:
        _emit(_trace_csv(result.trace), args.trace)
    return EXIT_OK


def cmd_amplify(args) -> int:
    spec = build_spec(args)
    graph = build_graph(spec)
    marked = tuple(parse_vertex(m, spec) for m in (args.marked or ["0"]))
    coin = default_coin(graph, marked=marked)
    walk_length = args.walk_length
    if walk_length is None:
        walk_length = predict(spec).peak_steps
    rounds = args.rounds if args.rounds is not None else 1
    result = amplify(graph, coin, walk_length, rounds)
    payload = {
        "config": result.config,
        "success": [float(x) for x in result.success],
        "overshoot": result.overshoot,
        "ledger": result.ledger.to_json_dict(),
    }
    _emit(_json_doc(payload), args.out)
    return EXIT_OK


def cmd_analyze_moving(args) -> int:
    spec = torus_spec(args.side, shift="moving")
    overlap_sq = moving_shift_stationary_overlap(spec)
    payload = {
        "spec": spec.label(),
        "stationary_overlap_sq": overlap_sq,
        "alpha00_sq": 1.0 / spec.n_vertices,
        "n_vertices": spec.n_vertices,
    }
    _emit(_json_doc(payload), args.out)
    return EXIT_OK


# -- parser ---------------------------------------------------------------------


def _add_graph_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", default=None,
                     choices=["torus", "hypercube", "complete"],
                     help="arena family (default torus)")
    sub.add_argument("--side", type=int, default=None, help="torus side length")
    sub.add_argument("--dims", type=int, default=None, help="torus dimension count")
    sub.add_argument("--degree", type=int, default=None, help="hypercube dimension")
    sub.add_argument("--n", type=int, default=None, help="complete graph size")
    sub.add_argument("--shift", default=None,
                     choices=["flip-flop", "flip_flop", "moving", "dirac", "swap"])
    sub.add_argument("--config", default=None, help="flat TOML-style config file")
    sub.add_argument("--out", default=None, help="output path (default stdout)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walklab",
        description="Coined quantum walk search: simulate, predict, sweep.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("spectrum", help="mode spectrum and spectral sums")
    _add_graph_flags(sub)
    sub.set_defaults(handler=cmd_spectrum)

    sub = commands.add_parser("predict", help="eigenphase, overlaps, run time")
    _add_graph_flags(sub)
    sub.set_defaults(handler=cmd_predict)

    sub = commands.add_parser("run", help="evolve and write the CSV trace")
    _add_graph_flags(sub)
    sub.add_argument("--marked", action="append", default=None,
                     help="marked vertex (index or comma coordinates); repeatable")
    sub.add_argument("--t-max", type=int, default=None,
                     help="number of steps (may come from --config)")
    sub.add_argument("--summary", default=None, help="also write a JSON peak summary")
    sub.set_defaults(handler=cmd_run)

    sub = commands.add_parser("sweep", help="scaling sweep with exponent fit")
    _add_graph_flags(sub)
    sub.add_argument("--sides", type=_int_list, default=None,
                     help="comma-separated sizes (sides/degrees/orders)")
    sub.set_defaults(handler=cmd_sweep)

    sub = commands.add_parser("two-marked", help="two marked vertices diagnostics")
    sub.add_argument("--side", type=int, required=True)
    sub.add_argument("--v1", required=True)
    sub.add_argument("--v2", required=True)
    sub.add_argument("--t-max", type=int, default=None,
                     help="number of steps (default 1000)")
    sub.add_argument("--config", default=None)
    sub.add_argument("--out", default=None)
    sub.add_argument("--trace", default=None, help="also write the CSV trace here")
    sub.set_defaults(handler=cmd_two_marked)

    sub = commands.add_parser("amplify", help="amplitude amplification schedule")
    _add_graph_flags(sub)
    sub.add_argument("--marked", action="append", default=None)
    sub.add_argument("--walk-length", type=int, default=None,
                     help="inner walk length (default: predicted peak)")
    sub.add_argument("--rounds", type=int, default=None,
                     help="amplification rounds (default 1)")
    sub.set_defaults(handler=cmd_amplify)

    sub = commands.add_parser("analyze-moving",
                              help="stationary overlap of the moving-shift walk")
    sub.add_argument("--side", type=int, required=True)
    sub.add_argument("--config", default=None)
    sub.add_argument("--out", default=None)
    sub.set_defaults(handler=cmd_analyze_moving)

    for sub in commands.choices.values():
        sub.set_defaults(command_parser=sub)
    return parser


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        return args.handler(args)
    except ConfigurationError as exc:
        print(f"walklab: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"walklab: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
