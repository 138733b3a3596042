"""Command-line front end, and the one module that shapes output documents.

Subcommands: spectrum, predict, run, sweep, two-marked, amplify,
analyze-moving.  Each handler yields its (document, path) pairs in the
order they are written, and `main` writes each as it comes, so a document
stays written if a later step fails.  The library returns plain results;
the CSV rows, each "config" object and every JSON key order are set here.
Flags override an optional TOML config file (--config) whose top-level
keys are flags of the subcommand.
Exit codes: 0 success, 2 configuration violation (an arena too large to
hold and a malformed config included), 3 no abstract-search structure
(spectrum, predict, and amplify without --walk-length, on the moving
shift), 4 I/O failure.
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
from contextlib import suppress
from dataclasses import asdict, replace

from .graphs import (FAMILIES, SHIFTS, ConfigurationError, Graph, GraphSpec, build_graph,
                     complete_spec, hypercube_spec, is_integer, torus_spec)
from .runner import (RunTrace, amplify, find_peak, fit_exponent, run_two_marked, run_walk,
                     sweep_point)
from .search import predict
from .spectral import NoSearchStructure, mode_spectrum, moving_shift_stationary_overlap

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_STRUCTURE = 3
EXIT_IO = 4


# -- config file -------------------------------------------------------------


def load_config(path: str) -> dict:
    """The --config file, read as TOML, with `-` in a key read as `_`.
    `_merge_config` checks each value against the subcommand's flags."""
    import tomllib  # only a command given --config reads one

    with open(path, "rb") as fh:
        try:
            document = tomllib.load(fh)
        except tomllib.TOMLDecodeError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None
    return {key.replace("-", "_"): value for key, value in document.items()}


# -- output ------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    """Write through a temporary file beside `path`, with the mode open()
    would give a new file (0o666 less the umask, not mkstemp's 0o600); a
    failure names `path` as given, not the temporary file, and leaves no
    temporary file."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)  # the umask can only be read by setting it
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".walklab-", suffix=".tmp")
        try:
            os.chmod(tmp, 0o666 & ~umask)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _emit(document: str | dict, path: str | None) -> None:
    """Write a CSV text, or a payload as a JSON document, to `path` (stdout
    for none or `-`)."""
    if isinstance(document, dict):
        document = json.dumps({"schema": SCHEMA_VERSION, **document}, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(document)
    else:
        _atomic_write(path, document)


def _trace_csv(trace: RunTrace) -> str:
    rows = zip(range(len(trace.norm)), trace.p_marked.tolist(), trace.p_nbhd.tolist(),
               trace.norm.tolist())
    return "\n".join(["t,p_marked,p_nbhd,norm", *(",".join(map(repr, row)) for row in rows)]) + "\n"


def _walk_config(spec: GraphSpec, marked, **fields) -> dict:
    """The "config" object of a walk's document: arena, marked vertices, then
    `fields` in the order given."""
    return {"graph": spec.label(), "marked": list(marked), **fields}


def _attributes(result, *names: str) -> dict:
    return {name: getattr(result, name) for name in names}


# -- spec assembly -------------------------------------------------------------


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill the flags left unset from --config.  Every key must be a flag of
    the subcommand being run, an integer flag takes integers only and a
    string flag strings only (a TOML table, date or float is neither); a
    repeatable flag takes one value."""
    if not getattr(args, "config", None):
        return args
    flags = {action.dest: action for action in args.command_parser._actions
             if action.option_strings and action.dest not in ("help", "config")}
    for key, value in load_config(args.config).items():
        action = flags.get(key)
        if action is None:
            raise ConfigurationError(
                f"{args.config}: unknown key {key!r}; {args.command} takes {sorted(flags)}")
        if action.type is int and not is_integer(value):
            raise ConfigurationError(f"{args.config}: {key} takes an integer, got {value!r}")
        if action.type is _int_list and not (isinstance(value, list)
                                             and all(map(is_integer, value))):
            raise ConfigurationError(
                f"{args.config}: {key} takes a list of integers, got {value!r}")
        if action.type is None and not isinstance(value, str):
            raise ConfigurationError(f"{args.config}: {key} takes a string, got {value!r}")
        if isinstance(action, argparse._AppendAction):
            value = [value]
        if getattr(args, key) in (None, [], ()):
            setattr(args, key, value)
    return args


def _require(args: argparse.Namespace, *dests: str) -> None:
    """Fail unless each named flag was given, on the command line or in --config."""
    for dest in dests:
        if getattr(args, dest) is None:
            raise ConfigurationError(
                f"{args.command} needs --{dest.replace('_', '-')} (flag or config)")


# the shape flags each family reads, its size flag first
_SHAPE_FLAGS = {"torus": ("side", "dims"), "hypercube": ("degree",), "complete": ("n",)}


def build_spec(args: argparse.Namespace, size: int | None = None) -> GraphSpec:
    """The arena the graph flags describe; `size` stands in for the
    family's own size flag (sweep), which may then not be given.  A shape
    flag of another family is refused.  An explicit --shift replaces the
    family's shift and is validated by GraphSpec."""
    family = args.family or "torus"
    if family not in _SHAPE_FLAGS:
        raise ConfigurationError(f"unknown family {family!r}; choose from {FAMILIES}")
    own = _SHAPE_FLAGS[family]
    reads = own if size is None else own[1:]  # sweep's --sides gives the size
    for flag in ("side", "dims", "degree", "n"):
        if flag not in reads and getattr(args, flag) is not None:
            raise ConfigurationError(f"--{flag} does not apply to {args.command} on the {family}")
    if size is None:
        size = getattr(args, own[0])
        if size is None:
            raise ConfigurationError(f"{family} needs --{own[0]}")
    if family == "torus":
        spec = torus_spec(size, args.dims if args.dims is not None else 2)
    elif family == "hypercube":
        spec = hypercube_spec(size)
    else:
        spec = complete_spec(size)
    return replace(spec, shift=args.shift.replace("-", "_")) if args.shift else spec


def parse_vertex(text: str, graph: Graph) -> int:
    spec = graph.spec
    try:
        coords = _int_list(str(text))
    except argparse.ArgumentTypeError:
        raise ConfigurationError(f"cannot parse vertex {text!r}") from None
    if len(coords) == 1:
        return graph.marked_set(coords)[0]
    if spec.family == "torus" and len(coords) == len(spec.dims):
        for c in coords:  # vertex_index would wrap a coordinate outside the side
            if not 0 <= c < spec.dims[0]:
                raise ConfigurationError(
                    f"vertex {text!r}: coordinate {c} is outside 0..{spec.dims[0] - 1}")
        return graph.vertex_index(coords)
    raise ConfigurationError(f"vertex {text!r} does not match the {spec.family} coordinate form")


# -- subcommands ----------------------------------------------------------------


def _marked_walk(spec: GraphSpec, marked: list[str] | None) -> tuple[Graph, tuple[int, ...]]:
    """The arena and its marked set, each --marked vertex (vertex 0 if none)."""
    graph = build_graph(spec)
    return graph, graph.marked_set([parse_vertex(m, graph) for m in marked or ["0"]])


def cmd_spectrum(args):
    spec = build_spec(args)
    ms = mode_spectrum(spec)
    s1, s2, scot = ms.sums
    levels = [dict(zip(ms.entries.dtype.names, row)) for row in ms.entries.tolist()]
    yield {
        "spec": spec.label(),
        "spectrum": {**_attributes(ms, "a0_sq", "frozen_weight", "theta_min", "retained_dim",
                                   "n_vertices", "family"), "entries": levels},
        "sums": {"s1": s1, "s2": s2, "scot": scot},
    }, args.out


def cmd_predict(args):
    spec = build_spec(args)
    yield {"spec": spec.label(), "prediction": asdict(predict(spec))}, args.out


def cmd_run(args):
    spec = build_spec(args)
    _require(args, "t_max")
    graph, marked = _marked_walk(spec, args.marked)
    trace = run_walk(graph, marked, args.t_max)
    yield _trace_csv(trace), args.out
    if args.summary:
        payload = {"config": _walk_config(spec, marked, marking=spec.marking, t_max=args.t_max),
                   "peak": asdict(find_peak(trace))}
        if len(marked) == 1:
            with suppress(NoSearchStructure):
                payload["prediction"] = asdict(predict(spec))
        yield payload, args.summary


def cmd_sweep(args):
    if not args.sides:
        raise ConfigurationError("sweep needs --sides (torus sides, hypercube degrees "
                                 "or complete-graph orders)")
    specs = [build_spec(args, size) for size in args.sides]
    for i, size in enumerate(args.sides):
        if size in args.sides[:i]:
            raise ConfigurationError(f"sweep sizes must be distinct, and {size} is given twice")
    points = sorted(map(sweep_point, specs), key=lambda r: r.n_vertices)
    # a row without a prediction (the moving shift) leaves the key out
    rows = [{key: value for key, value in asdict(row).items() if value is not None}
            for row in points]
    yield {"family": specs[0].family, "shift": specs[0].shift,
           "sweep": {"rows": rows, "fitted_exponent": fit_exponent(points)}}, args.out


def cmd_two_marked(args):
    _require(args, "side", "v1", "v2")
    spec = torus_spec(args.side)
    graph = build_graph(spec)
    v1, v2 = parse_vertex(args.v1, graph), parse_vertex(args.v2, graph)
    t_max = args.t_max if args.t_max is not None else 1000
    result = run_two_marked(graph, v1, v2, t_max)
    yield {
        "config": _walk_config(spec, (v1, v2), marking=spec.marking, t_max=t_max),
        "symmetry_residual": result.symmetry_residual,
        "reflection_form_deviation": result.reflection_form_deviation,
        "peak": asdict(find_peak(result.trace)),
    }, args.out
    if args.trace:
        yield _trace_csv(result.trace), args.trace


def cmd_amplify(args):
    spec = build_spec(args)
    graph, marked = _marked_walk(spec, args.marked)
    walk_length = args.walk_length
    if walk_length is None:
        walk_length = predict(spec).peak_steps
    rounds = args.rounds if args.rounds is not None else 1
    result = amplify(graph, marked, walk_length, rounds)
    yield {
        "config": _walk_config(spec, marked, walk_length=walk_length, rounds=rounds),
        "success": [float(x) for x in result.success],
        "overshoot": result.overshoot,
        "ledger": _attributes(result.ledger, "prep_cost", "step_count", "amplification_rounds",
                              "reflection_cost", "total"),
    }, args.out


def cmd_analyze_moving(args):
    _require(args, "side")
    spec = torus_spec(args.side, shift="moving")
    yield {
        "spec": spec.label(),
        "stationary_overlap_sq": moving_shift_stationary_overlap(spec),
        "alpha00_sq": 1.0 / spec.n_vertices,
        "n_vertices": spec.n_vertices,
    }, args.out


# -- parser ---------------------------------------------------------------------


def _add_graph_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", default=None, choices=FAMILIES,
                     help="arena family (default torus)")
    sub.add_argument("--side", type=int, default=None, help="torus side length")
    sub.add_argument("--dims", type=int, default=None, help="torus dimension count")
    sub.add_argument("--degree", type=int, default=None, help="hypercube dimension")
    sub.add_argument("--n", type=int, default=None, help="complete graph size")
    sub.add_argument("--shift", default=None, choices=["flip-flop", *SHIFTS])


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
    sub.add_argument("--side", type=int, default=None)
    sub.add_argument("--v1", default=None)
    sub.add_argument("--v2", default=None)
    sub.add_argument("--t-max", type=int, default=None,
                     help="number of steps (default 1000)")
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
    sub.add_argument("--side", type=int, default=None)
    sub.set_defaults(handler=cmd_analyze_moving)

    for sub in commands.choices.values():
        sub.add_argument("--config", default=None, help="TOML config file")
        sub.add_argument("--out", default=None, help="output path (default stdout)")
        sub.set_defaults(command_parser=sub)
    return parser


def _int_list(text: str) -> list[int]:
    """The integers of a comma-separated list; an empty item (a leading,
    trailing or doubled comma) is no integer."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        for document, path in args.handler(args):
            _emit(document, path)
        return EXIT_OK
    except NoSearchStructure as exc:
        print(f"walklab: {exc}", file=sys.stderr)
        return EXIT_NO_STRUCTURE
    except ConfigurationError as exc:
        print(f"walklab: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"walklab: configuration error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"walklab: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
