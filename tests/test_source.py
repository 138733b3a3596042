"""Checks on the package's own source text."""

import ast
from pathlib import Path

import pytest

import walklab
from walklab import WalkState

MODULES = sorted(Path(walklab.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("test_*.py"))
BENCHMARK_MODULES = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


def _unread_private_names(source):
    """The private names (_x, not dunders) that a module binds at its top
    level (functions, classes, assignments, imports) and never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {name for name in bound - read if name.startswith("_") and not name.startswith("__")}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_private_module_name_is_read_in_its_module(path):
    # a private helper serves its own module: one that nothing there reads is dead
    unread = sorted(_unread_private_names(path.read_text(encoding="utf-8")))
    assert not unread, f"{path.name} binds private names it never reads: {unread}"


def test_the_private_name_check_sees_a_dead_helper():
    source = "import os as _os\n_USED = 1\n\n\ndef _dead():\n    return _USED\n\n\ndef public():\n    pass\n"
    assert _unread_private_names(source) == {"_os", "_dead"}


def _public_definitions(source):
    """The public functions and classes that `source` defines at its top level."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _names_read(source):
    """The names `source` reads: loaded identifiers, attributes and imported names."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_every_public_name_has_a_reader():
    # a public function or class that no package module (the re-exports of
    # __init__ aside) and no benchmark op reads serves only its own tests:
    # it belongs in tests/helpers.py as a test reference
    readers = [p for p in MODULES if p.name != "__init__.py"] + BENCHMARK_MODULES
    read = set().union(*(_names_read(p.read_text(encoding="utf-8")) for p in readers))
    unread = {path.name: sorted(names) for path in MODULES
              if (names := _public_definitions(path.read_text(encoding="utf-8")) - read)}
    assert not unread, f"public names that no module reads: {unread}"


def test_the_reader_check_sees_an_unread_function():
    source = ("from .engine import step as _step\n\n\n"
              "class Result:\n    pass\n\n\n"
              "def helper():\n    return Result()\n\n\n"
              "def _private():\n    return walklab.grover_coin(2)\n\n\n"
              "def unread():\n    return helper()\n")
    assert _public_definitions(source) == {"Result", "helper", "unread"}
    assert _public_definitions(source) - _names_read(source) == {"unread"}


# slots only the engine may read: a state's array order, its owed shift and
# its scratch
_STATE_PRIVATE = frozenset(slot for slot in WalkState.__slots__ if slot.startswith("_"))


def _engine_internals_named(source):
    """The identifiers and attributes in `source` that name an owed shift,
    and the private `WalkState` slots it reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
            if node.attr in _STATE_PRIVATE:
                found.add(node.attr)
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname]
        elif isinstance(node, (ast.arg, ast.keyword)):
            names = [node.arg]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        found.update(name for name in names if name and "owed" in name)
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "engine.py"],
                         ids=lambda path: path.stem)
def test_only_the_engine_knows_a_state_owes_its_shift(path):
    # whether a state owes its shift, and the order its array stands in,
    # is the engine's decision; other modules read states through its API
    named = sorted(_engine_internals_named(path.read_text(encoding="utf-8")))
    assert not named, f"{path.name} names the engine's internals: {named}"


def test_the_engine_internals_check_sees_an_owed_read():
    source = ("from .engine import owed_index\n\n\n"
              "def watch(state, at, owed_at=None):\n"
              "    return state._amps[at], vertex_probabilities(state, at, owed_at=at)\n")
    assert _engine_internals_named(source) == {"owed_index", "owed_at", "_amps"}


def _hypercube_choosers(source):
    """The functions in `source` that compare anything with "hypercube"."""
    return {func.name for func in ast.walk(ast.parse(source))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(node, ast.Compare)
                    and any(isinstance(leaf, ast.Constant) and leaf.value == "hypercube"
                            for leaf in ast.walk(node))
                    for node in ast.walk(func))}


def test_one_engine_function_chooses_a_hypercube_view():
    # a row is read through a torus move plan or a hypercube bit-flip view;
    # `_through` alone chooses, so every shift and coin kernel reads through it
    source = (Path(walklab.__file__).parent / "engine.py").read_text(encoding="utf-8")
    assert _hypercube_choosers(source) == {"_through"}


def test_the_hypercube_chooser_check_sees_a_second_chooser():
    source = ("def _through(spec):\n    return spec.family != 'hypercube'\n\n\n"
              "def _settle(spec):\n    if spec.family in ('torus', 'hypercube'):\n"
              "        pass\n\n\n"
              "def label(spec):\n    return 'hypercube' if spec.d else spec.family == 'torus'\n")
    assert _hypercube_choosers(source) == {"_through", "_settle"}


# what shapes an output document: only the CLI defines or imports these
_DOCUMENT_SHAPERS = frozenset({"to_json_dict", "csv_rows", "json"})


def _document_shaping_named(source):
    """The document shapers that `source` defines or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.add(node.name)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found & _DOCUMENT_SHAPERS


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "cli.py"],
                         ids=lambda path: path.stem)
def test_only_the_cli_shapes_documents(path):
    # the library returns plain results; the CSV rows, the JSON objects and
    # their key order are the CLI's decision
    named = sorted(_document_shaping_named(path.read_text(encoding="utf-8")))
    assert not named, f"{path.name} shapes output documents: {named}"


def test_the_document_check_sees_a_shaper():
    source = ("from json import dumps\n\n\n"
              "class Result:\n    def to_json_dict(self):\n        return {}\n\n"
              "    def csv_rows(self):\n        yield ''\n\n    def rows(self):\n        pass\n")
    assert _document_shaping_named(source) == {"json", "to_json_dict", "csv_rows"}
    assert _document_shaping_named("import json.decoder\n") == {"json"}
    assert _document_shaping_named("from .json import x\n") == set()  # a sibling module


_SPEC_CONSTRUCTORS = frozenset({"torus_spec", "hypercube_spec", "complete_spec", "GraphSpec"})


def _draws_from_the_registry(node) -> bool:
    """Whether `node` is a call of `arenas`, starred or not."""
    if isinstance(node, ast.Starred):
        node = node.value
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "arenas"


def _is_arena_list(node) -> bool:
    """Whether `node` lists arenas by hand: spec constructor calls, a
    comprehension over one, or a list or sum of such lists, which may take
    in sets drawn from the registry."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "attr", getattr(node.func, "id", None)) in _SPEC_CONSTRUCTORS
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        return _is_arena_list(node.elt)
    if isinstance(node, ast.Starred):
        return _is_arena_list(node.value)
    if isinstance(node, (ast.List, ast.Tuple)):
        parts = node.elts
    elif isinstance(node, ast.BinOp):
        parts = [node.left, node.right]
    else:
        return False
    own = [_is_arena_list(part) for part in parts]
    return any(own) and all(o or _draws_from_the_registry(p) for o, p in zip(own, parts))


def _lists_arenas_in_parametrize(node) -> bool:
    """Whether `node`, a decorator, is a parametrize call with an arena list
    of its own among its arguments."""
    return (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "parametrize"
            and any(map(_is_arena_list, [*node.args, *(k.value for k in node.keywords)])))


def _module_arena_lists(source):
    """The names a module binds at its top level to an arena list of its
    own, and the tests whose parametrize decorators list arenas inline."""
    tree = ast.parse(source)
    bound = {target.id for node in tree.body
             if isinstance(node, ast.Assign) and not isinstance(node.value, ast.Call)
             and _is_arena_list(node.value)
             for target in node.targets if isinstance(target, ast.Name)}
    return bound | {node.name for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(map(_lists_arenas_in_parametrize, node.decorator_list))}


def test_test_modules_take_their_arenas_from_the_registry():
    # an arena list of a test module's own grows apart from the others;
    # tests draw their arenas from the named sets of helpers.arenas
    own = {path.name: sorted(names) for path in TEST_MODULES
           if (names := _module_arena_lists(path.read_text(encoding="utf-8")))}
    assert not own, f"test modules list arenas of their own: {own}"


def test_the_arena_list_check_sees_every_form():
    source = ("A = [torus_spec(4), hypercube_spec(3)]\n"
              "B = ([torus_spec(s) for s in (2, 3)] + [walklab.complete_spec(2)])\n"
              "C = (*(hypercube_spec(d) for d in (1, 2)), GraphSpec('torus', (4, 4)))\n"
              "D = [s for s in A if s.family == 'torus']\n"
              "E = [(torus_spec(4), 1.0)]\n"
              "F = arenas('small') + [complete_spec(8)]\n"
              "G = torus_spec(4)\n\n\n"
              "@pytest.mark.parametrize('spec', [torus_spec(4), complete_spec(5)],\n"
              "                         ids=GraphSpec.label)\n"
              "def test_h(spec):\n    pass\n\n\n"
              "@pytest.mark.parametrize('spec', [*arenas('small'), hypercube_spec(10)])\n"
              "def test_i(spec):\n    pass\n\n\n"
              "@pytest.mark.parametrize('spec', arenas('small'), ids=GraphSpec.label)\n"
              "def test_j(spec):\n    pass\n\n\n"
              "@pytest.mark.parametrize('spec, bound', [(torus_spec(4), 1.0)])\n"
              "def test_k(spec, bound):\n    pass\n")
    assert _module_arena_lists(source) == {"A", "B", "C", "F", "test_h", "test_i"}


def _integer_rule_copies(source):
    """What `source` does that only `graphs.is_integer` should: call
    `operator.index`, or test a value for `bool` (an isinstance or issubclass
    check, or a comparison with the type)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "index" \
                and getattr(node.value, "id", None) == "operator":
            found.add("operator.index")
        elif isinstance(node, ast.ImportFrom) and node.module == "operator" \
                and any(alias.name == "index" for alias in node.names):
            found.add("operator.index")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance",
                                                                               "issubclass"):
            if any(getattr(leaf, "id", None) == "bool" for arg in node.args[1:]
                   for leaf in ast.walk(arg)):
                found.add("bool test")
        elif isinstance(node, ast.Compare):
            if any(getattr(leaf, "id", None) == "bool" for leaf in ast.walk(node)):
                found.add("bool test")
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "graphs.py"],
                         ids=lambda path: path.stem)
def test_only_graphs_decides_what_an_integer_is(path):
    # graphs.is_integer is the one integer rule (operator.index, a bool
    # refused); a module with its own copy drifts from it
    copies = sorted(_integer_rule_copies(path.read_text(encoding="utf-8")))
    assert not copies, f"{path.name} keeps its own integer rule: {copies}"


def test_the_integer_rule_check_sees_a_copy():
    assert _integer_rule_copies("import operator\nn = operator.index(v)\n") == {"operator.index"}
    assert _integer_rule_copies("from operator import index as ix\n") == {"operator.index"}
    assert _integer_rule_copies("ok = isinstance(v, (int, bool))\n") == {"bool test"}
    assert _integer_rule_copies("ok = type(v) is not bool\n") == {"bool test"}
    # a conversion to bool and a bool annotation test no value
    assert _integer_rule_copies("def f(v) -> bool:\n    return isinstance(v, int) and bool(v)\n") \
        == set()


# numpy's and scipy's dense eigensolvers
_EIGENSOLVERS = frozenset({"eigh", "eigvalsh", "eig", "eigvals"})


def _eigensolver_callers(source):
    """The functions in `source` that call an eigensolver, as `np.linalg.eigh`
    or by a name imported from linalg."""
    return {func.name for func in ast.walk(ast.parse(source))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(node, ast.Call)
                    and getattr(node.func, "attr", getattr(node.func, "id", None)) in _EIGENSOLVERS
                    for node in ast.walk(func))}


def test_one_function_calls_an_eigensolver():
    # dense_eigens has one solve route, the half-size eighs of
    # oracle._symmetric_eigh in a time reversal's eigenbasis; a second
    # caller would be a second route
    callers = {(path.stem, name) for path in MODULES
               for name in _eigensolver_callers(path.read_text(encoding="utf-8"))}
    assert callers == {("oracle", "_symmetric_eigh")}


def test_the_eigensolver_check_sees_a_second_caller():
    source = ("import numpy as np\nfrom numpy.linalg import eigh\n\n\n"
              "def _symmetric_eigh(m):\n    return np.linalg.eigh(m + m.T)\n\n\n"
              "def _level_eigens(b):\n    return eigh(-1j * b)\n\n\n"
              "def _phases(m):\n    return np.linalg.eigvals(m)\n\n\n"
              "def _norms(m):\n    return np.linalg.norm(m), m.eighth\n")
    assert _eigensolver_callers(source) == {"_symmetric_eigh", "_level_eigens", "_phases"}


_INVOLUTION_REFUSALS = ("does not commute with the symmetry", "no time reversal")


def _involution_checkers(source):
    """The functions in `source` that raise an error whose message (its
    string constants, joined) says U breaks its symmetry or its time
    reversal."""
    def says(node):
        text = "".join(part.value for part in ast.walk(node)
                       if isinstance(part, ast.Constant) and isinstance(part.value, str))
        return any(phrase in text for phrase in _INVOLUTION_REFUSALS)
    return {func.name for func in ast.walk(ast.parse(source))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(isinstance(node, ast.Raise) and says(node) for node in ast.walk(func))}


def test_one_function_checks_the_involutions_against_u():
    # dense_eigens checks P and S once, on U's nonzeros; a second check
    # (on a block, in an eigenbasis) would be a second owner of the decision
    checkers = {(path.stem, name) for path in MODULES
                for name in _involution_checkers(path.read_text(encoding="utf-8"))}
    assert checkers == {("oracle", "_check_involutions")}


def test_the_involution_check_sees_a_second_checker():
    source = ("def _check_involutions(u):\n"
              "    raise ArithmeticError(f'U does not commute with the symmetry P: {u}')\n\n\n"
              "def _reversal_eigens(v, defect):\n"
              "    if defect:\n"
              "        raise ArithmeticError(f'the reflection S is no time '\n"
              "                              f'reversal of U: {defect:.3e}')\n\n\n"
              "def _note():\n    return 'no time reversal'\n")
    assert _involution_checkers(source) == {"_check_involutions", "_reversal_eigens"}


def _neighborhood_builders(source):
    """The functions and methods that `source` defines with "neighbo" in
    their name."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "neighbo" in node.name.lower()}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "graphs.py"],
                         ids=lambda path: path.stem)
def test_only_graphs_builds_a_neighborhood(path):
    # Graph.closed_neighborhood reads a vertex set's reach off the shift
    # table and Graph.neighbors filters it; a second builder would drift
    builders = sorted(_neighborhood_builders(path.read_text(encoding="utf-8")))
    assert not builders, f"{path.name} builds neighborhoods of its own: {builders}"


def test_the_neighborhood_check_sees_a_second_builder():
    source = ("class Graph:\n    def neighbours(self, v):\n        pass\n\n\n"
              "def closed_neighborhood(graph, vertices):\n    return graph.neighbors(0)\n\n\n"
              "def _support(graph):\n    neighborhood = graph.closed_neighborhood((0,))\n"
              "    return neighborhood\n")
    assert _neighborhood_builders(source) == {"neighbours", "closed_neighborhood"}


def _xors_with_one(source):
    """The lines of `source` that XOR a value with the constant 1, as a
    binary operation or an augmented assignment."""
    def one(node):
        return isinstance(node, ast.Constant) and node.value == 1 and type(node.value) is int

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor) \
                and (one(node.left) or one(node.right)):
            found.add(node.lineno)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitXor) \
                and one(node.value):
            found.add(node.lineno)
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "graphs.py"],
                         ids=lambda path: path.stem)
def test_only_graphs_says_which_move_undoes_which(path):
    # Graph.reverse_moves pairs each move with the one that undoes it; an
    # index XORed with 1 elsewhere is a second copy of that pairing
    lines = sorted(_xors_with_one(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} pairs directions by XOR with 1 on lines {lines}"


def test_the_reversal_check_sees_an_xor_with_one():
    source = ("def _reverse(c, rows, d):\n"
              "    rows ^= 1\n"
              "    return [c ^ 1, 1 ^ rows[c], c ^ 2, c ^ d, c | 1, c ^ True]\n\n\n"
              "def _moving(np, d):\n    return np.arange(d) ^ 1\n")
    assert _xors_with_one(source) == {2, 3, 7}


def _coordinate_reads(source):
    """The lines of `source` that read `coordinates`: an attribute, a name
    or an imported name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "coordinates" \
                or isinstance(node, ast.Name) and node.id == "coordinates" \
                or isinstance(node, ast.alias) and node.name == "coordinates":
            found.add(node.lineno)
    return found


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "graphs.py"],
                         ids=lambda path: path.stem)
def test_only_graphs_reads_every_vertex_coordinate(path):
    # arena geometry is graphs': GraphSpec.steps holds the step set and
    # Graph.reflect the point reflections; a module that reads the
    # coordinate table spells a symmetry of its own
    lines = sorted(_coordinate_reads(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} reads Graph.coordinates on lines {lines}"


def test_the_coordinate_check_sees_a_read():
    source = ("from .graphs import coordinates\n"
              "def _centre(graph, v):\n"
              "    coords = graph.coordinates()\n"
              "    table = coordinates\n"
              "    return graph.vertex_coords(v), graph.vertex_index(coords)\n")
    assert _coordinate_reads(source) == {1, 3, 4}


def _axis_reflections(source):
    """The lines of `source` that call `reflect` with axes, as the `axes`
    keyword or a second argument: a reflection of some axes alone, as
    through a vertex."""
    return {node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == "reflect"
            and (len(node.args) > 1 or any(kw.arg == "axes" for kw in node.keywords))}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "graphs.py"],
                         ids=lambda path: path.stem)
def test_only_graphs_reflects_axes_through_a_vertex(path):
    # Graph.symmetries lists the reflections through the marked vertex that
    # split the dense oracle; an axis reflection built elsewhere is a second
    # list of them
    lines = sorted(_axis_reflections(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.name} reflects axes of its own on lines {lines}"


def test_the_axis_reflection_check_sees_every_form():
    source = ("def _mirror(graph, v):\n"
              "    centre = graph.vertex_coords(v)\n"
              "    return graph.reflect(2 * centre[0], axes=(0,))\n\n\n"
              "def _point(graph, total):\n"
              "    return graph.reflect(total), graph.reflect(total=total)\n\n\n"
              "def _others(graph, reflect):\n"
              "    return reflect(0, [1]), graph.lift(graph.reflect(0, (1,)))\n")
    assert _axis_reflections(source) == {3, 11}
