"""Each rule below has one owner in the source, and these guards keep it so.

- errors.require_finite builds every "... overflowed: ..." message, so no
  other module builds an error whose message says "overflowed";
- evolution._StepSystem alone raises IndefiniteStepError;
- spectral's private _finite_kernel, an earlier copy of the overflow rule,
  stays gone;
- io._records raises every "listed twice" and "no ... rows found" message
  of the CSV readers;
- CalculusConfig alone compares a scale against ALLOWED_SCALES;
- transport_solve has no isinstance(..., VectorField): one rates rule
  serves a fixed field and a field that depends on time;
- harmonic._normalized_rows owns the normalization of sphere rows, so no
  other code divides an array by its own row norms;
- the spectral solvers write their results through graph.scatter, never
  through the VertexFunction constructor;
- DMFRun._step_index alone maps a time to its implicit step;
- RegionLayout.integral owns the degree-weighted sum: no column_sums
  argument outside RegionLayout reads deg, and an np.sum or .sum of a
  product with deg appears only in run_identity_suite, whose printed
  residuals pin np.sum's order;
- column_sums is called outside graph.py only by _extend_to_closure,
  _seed_map and cheeger_functional's edge sum, so RegionLayout.energy
  owns the closure pair energy;
- graph.vertex_boundary owns the vertex boundary: no other code asks
  whether any neighbor of a vertex lies in a set, and cut_report counts
  the boundary that build_window stores;
- linalg.orthonormalize is the one orthonormalization: linalg defines no
  qr or project, and the canonical bases, the Courant-Fischer subspaces
  and random_rotation all call it;
- harmonic._descend is the one descent loop: no other loop evaluates a
  window energy, and harmonic_heat_flow (fixed steps) and
  dirichlet_minimize (Barzilai-Borwein steps) both call it;
- io.FLOAT owns the float format: the .17g spec appears in one string of
  src/, so format_float, the JSON templates and the CSV writers share it;
- Lcg64._units owns the LCG jumps: apart from next_u64's single step, no
  code reads the LCG constants or works in uint64, so uniforms and normals
  share one state fill;
- batched draws replace draw loops: outside rng.py, only the reference
  draws random_function and random_antisymmetric_field call .uniform or
  .normal inside a loop or comprehension;
- VectorField.pair_values owns a field's values on the layout pairs: no
  module but calculus.py reads .scaling, and no _PairRates is defined.
"""

import ast
import itertools
from pathlib import Path

import pytest

import graphcalc as gc

from conftest import FIXTURES

SRC = Path(__file__).resolve().parent.parent / "src" / "graphcalc"
MODULES = sorted(SRC.glob("*.py"))


def _called_name(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def overflow_messages(source: str) -> list[int]:
    """Lines of every error built with a string that contains "overflowed"."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _called_name(node).endswith("Error")
        and any(isinstance(c, ast.Constant) and "overflowed" in str(c.value) for c in ast.walk(node))
    )


def indefinite_step_raisers(source: str, owner: str) -> list[int]:
    """Lines of every IndefiniteStepError built outside the class named owner."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == owner
        for node in ast.walk(cls)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "IndefiniteStepError"
        and id(node) not in inside
    )


def finite_kernel_names(source: str) -> list[int]:
    """Lines that define or read a name _finite_kernel."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if "_finite_kernel" in (getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None))
    )


def test_checkers_find_each_copy():
    source = (
        "def _finite_kernel(x):\n"
        "    raise NumericalError(f'kernel overflowed: {x}')\n"
        "class _StepSystem:\n"
        "    def f(self):\n"
        "        raise errors.IndefiniteStepError('inside')\n"
        "def g():\n"
        "    raise IndefiniteStepError('outside')\n"
        "y = spectral._finite_kernel\n"
    )
    assert overflow_messages(source) == [2]
    assert indefinite_step_raisers(source, "_StepSystem") == [7]
    assert indefinite_step_raisers(source, "") == [5, 7]
    assert finite_kernel_names(source) == [1, 8]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"], ids=lambda p: p.name)
def test_only_errors_builds_overflow_messages(path):
    assert overflow_messages(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_step_system_raises_indefinite_step_error(path):
    owner = "_StepSystem" if path.name == "evolution.py" else ""
    assert indefinite_step_raisers(path.read_text(), owner) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_finite_kernel_is_gone(path):
    assert finite_kernel_names(path.read_text()) == []


def _outside(tree: ast.AST, owner: str, nodes) -> list[int]:
    """Lines of the nodes that do not lie in a def or class named owner."""
    inside = {
        id(node)
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.ClassDef)) and scope.name == owner
        for node in ast.walk(scope)
    }
    return sorted(node.lineno for node in nodes if id(node) not in inside)


def record_messages(source: str) -> list[int]:
    """Lines of CSV record messages ("listed twice", "rows found") outside _records."""
    tree = ast.parse(source)
    found = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and ("listed twice" in node.value or "rows found" in node.value)
    ]
    return _outside(tree, "_records", found)


def scale_comparisons(source: str) -> list[int]:
    """Lines that read ALLOWED_SCALES outside CalculusConfig."""
    tree = ast.parse(source)
    reads = [
        node
        for node in ast.walk(tree)
        if isinstance(getattr(node, "ctx", None), ast.Load)
        and "ALLOWED_SCALES" in (getattr(node, "id", None), getattr(node, "attr", None))
    ]
    return _outside(tree, "CalculusConfig", reads)


def field_type_branches(source: str) -> list[int]:
    """Lines of isinstance(..., VectorField) inside transport_solve."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == "transport_solve"
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and _called_name(node) == "isinstance"
        and any("VectorField" in ast.unparse(arg) for arg in node.args[1:])
    )


def self_normalizations(source: str) -> list[int]:
    """Lines outside _normalized_rows that divide a name x by an expression
    holding _row_dots(x, x), its row norms squared."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            left, right = node.left, node.right
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            left, right = node.target, node.value
        else:
            continue
        if not isinstance(left, ast.Name):
            continue
        for call in ast.walk(right):
            if (
                isinstance(call, ast.Call) and _called_name(call) == "_row_dots"
                and all(isinstance(a, ast.Name) and a.id == left.id for a in call.args)
            ):
                found.append(node)
    return _outside(tree, "_normalized_rows", found)


def constructor_calls(source: str, name: str) -> list[int]:
    """Lines that call the class called name."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _called_name(node) == name
    )


def step_index_copies(source: str) -> list[int]:
    """Lines of math.ceil outside DMFRun._step_index."""
    tree = ast.parse(source)
    ceils = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and _called_name(node) == "ceil"]
    return _outside(tree, "_step_index", ceils)


def test_rule_checkers_find_each_copy():
    source = (
        "def _records(text):\n"
        "    raise ValidationError('no rows found')\n"
        "def parse(text):\n"
        "    raise ValidationError(f'row {k}: vertex {v!r} listed twice')\n"
        "class CalculusConfig:\n"
        "    ok = [s for s in ALLOWED_SCALES]\n"
        "def parse_scale(x):\n"
        "    return min(calculus.ALLOWED_SCALES, key=lambda s: abs(s - x))\n"
        "def transport_solve(g, field):\n"
        "    if isinstance(field, (VectorField, int)):\n"
        "        pass\n"
        "def flow(ahead, sums):\n"
        "    ahead /= np.sqrt(_row_dots(ahead, ahead))[:, None]\n"
        "    return ahead / _row_dots(sums, sums)\n"
        "def _normalized_rows(sums):\n"
        "    n = math.ceil(sums / np.sqrt(_row_dots(sums, sums)))\n"
        "    return VertexFunction(g, {})\n"
    )
    assert record_messages(source) == [4]
    assert scale_comparisons(source) == [8]
    assert field_type_branches(source) == [10]
    assert self_normalizations(source) == [13]
    assert constructor_calls(source, "VertexFunction") == [17]
    assert step_index_copies(source) == [16]


def test_only_the_record_reader_raises_the_csv_record_messages():
    assert record_messages((SRC / "io.py").read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_config_compares_against_the_allowed_scales(path):
    assert scale_comparisons(path.read_text()) == []


def test_transport_has_one_rates_rule_for_every_field():
    assert field_type_branches((SRC / "evolution.py").read_text()) == []


def test_only_normalized_rows_normalizes_sphere_rows():
    assert self_normalizations((SRC / "harmonic.py").read_text()) == []


def test_spectral_solvers_write_through_scatter():
    assert constructor_calls((SRC / "spectral.py").read_text(), "VertexFunction") == []


def test_only_the_step_index_maps_a_time_to_its_step():
    assert step_index_copies((SRC / "evolution.py").read_text()) == []


def _reads_deg(node: ast.AST) -> bool:
    """Whether an expression reads a name or attribute called deg."""
    return any("deg" in (getattr(n, "id", None), getattr(n, "attr", None)) for n in ast.walk(node))


def weighted_column_sums(source: str) -> list[int]:
    """Lines of column_sums calls outside RegionLayout whose argument reads deg."""
    tree = ast.parse(source)
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "column_sums"
        and any(_reads_deg(arg) for arg in node.args)
    ]
    return _outside(tree, "RegionLayout", calls)


def column_sums_callers(source: str) -> list[str]:
    """The names of the functions that call column_sums, one per call, sorted."""
    return sorted(
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and _called_name(node) == "column_sums"
    )


def weighted_np_sums(source: str) -> list[int]:
    """Lines outside run_identity_suite of np.sum(x) or x.sum() where x holds
    a product with an operand that reads deg."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _called_name(node) == "sum"):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and not (isinstance(func.value, ast.Name) and func.value.id == "np"):
            summed = [func.value]  # x.sum()
        elif isinstance(func, ast.Attribute):
            summed = node.args[:1]  # np.sum(x)
        else:
            continue  # Python's sum
        if any(
            isinstance(p, ast.BinOp) and isinstance(p.op, ast.Mult)
            and (_reads_deg(p.left) or _reads_deg(p.right))
            for x in summed
            for p in ast.walk(x)
        ):
            found.append(node)
    return _outside(tree, "run_identity_suite", found)


def neighbor_membership_tests(source: str) -> list[int]:
    """Lines outside vertex_boundary of any(...) over a vertex's neighbors."""
    tree = ast.parse(source)
    found = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called_name(node) == "any"
        and any(
            isinstance(gen, ast.comprehension)
            and any(n in ast.unparse(gen.iter) for n in ("neighbors(", "_nbrs["))
            for gen in ast.walk(node)
        )
    ]
    return _outside(tree, "vertex_boundary", found)


def test_measure_energy_and_boundary_checkers_find_each_copy():
    source = (
        "class RegionLayout:\n"
        "    def integral(self, rows):\n"
        "        return column_sums(rows * self.deg)\n"
        "def closure_energy(v, lay):\n"
        "    return column_sums(v * v * lay.deg[:3])\n"
        "def run_identity_suite(deg, a):\n"
        "    return np.sum((deg * a)[1:])\n"
        "def gap(deg, d, phi):\n"
        "    return np.sum(d * d * deg) + (phi * pairs.deg).sum(axis=0) + sum(d * deg)\n"
        "def vertex_boundary(g, s):\n"
        "    return [v for v in g.vertices if any(w in s for w in g._nbrs[v])]\n"
        "def cut(g, s):\n"
        "    return sum(1 for v in g.vertices if any(w in s for w in g.neighbors(v)))\n"
    )
    assert weighted_column_sums(source) == [5]
    assert column_sums_callers(source) == ["closure_energy", "integral"]
    assert weighted_np_sums(source) == [9, 9]
    assert neighbor_membership_tests(source) == [13]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_layout_integrates_against_the_degree(path):
    assert weighted_column_sums(path.read_text()) == []
    assert weighted_np_sums(path.read_text()) == []


def test_column_sums_has_three_callers_outside_graph():
    callers = sorted(
        name for path in MODULES if path.name != "graph.py" for name in column_sums_callers(path.read_text())
    )
    assert callers == ["_extend_to_closure", "_seed_map", "cheeger_functional"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_vertex_boundary_collects_the_vertex_boundary(path):
    assert neighbor_membership_tests(path.read_text()) == []


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_cut_report_counts_the_window_boundary(name):
    g = FIXTURES[name]()
    checked = 0
    for r in range(1, len(g)):
        for subset in itertools.combinations(g.vertices, r):
            if g.is_connected(within=subset):
                want = len(gc.build_window(g, subset).boundary)
                assert gc.cut_report(g, subset).boundary_vertices == want, subset
                checked += 1
    assert checked >= len(g)


def defined_functions(source: str) -> list[str]:
    """Names of every function and method a source defines, sorted."""
    return sorted(node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef))


def callers(source: str, name: str) -> list[str]:
    """Names of the functions that call name, each once, sorted."""
    return sorted({
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and _called_name(node) == name
    })


def test_orthonormalization_checkers_find_each_copy():
    source = (
        "def qr(a):\n"
        "    return orthonormalize(a) + orthonormalize(a.T)\n"
        "class Basis:\n"
        "    def project(self, m):\n"
        "        return linalg.orthonormalize(m)\n"
        "def rotation(rng):\n"
        "    return np.linalg.qr(rng)\n"
    )
    assert defined_functions(source) == ["project", "qr", "rotation"]
    assert callers(source, "orthonormalize") == ["project", "qr"]


def test_one_orthonormalization():
    defined = defined_functions((SRC / "linalg.py").read_text())
    assert "orthonormalize" in defined and not {"qr", "project"} & set(defined)
    found = sorted(name for path in MODULES for name in callers(path.read_text(), "orthonormalize"))
    assert found == ["_canonical_bases", "courant_fischer_check", "random_rotation"]


def descent_loops(source: str) -> list[str]:
    """Names of the functions with a loop that evaluates a window energy
    (_pair_energy or map_energy), each once, sorted."""
    return sorted({
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef)
        for loop in ast.walk(fn)
        if isinstance(loop, (ast.For, ast.While))
        for node in ast.walk(loop)
        if isinstance(node, ast.Call) and _called_name(node) in ("_pair_energy", "map_energy")
    })


def test_descent_loop_checker_finds_each_copy():
    source = (
        "def _descend(pts):\n"
        "    for step in range(9):\n"
        "        e = _pair_energy(pts)\n"
        "def minimize(u, w):\n"
        "    while harmonic.map_energy(u, w) > 1:\n"
        "        u = _descend(u)\n"
        "def energy(u):\n"
        "    return _pair_energy(u)\n"
    )
    assert descent_loops(source) == ["_descend", "minimize"]
    assert callers(source, "_descend") == ["minimize"]


def test_one_descent_loop():
    assert [name for path in MODULES for name in descent_loops(path.read_text())] == ["_descend"]
    assert callers((SRC / "harmonic.py").read_text(), "_descend") == ["dirichlet_minimize", "harmonic_heat_flow"]


def float_format_specs(source: str) -> list[int]:
    """Lines of every string, f-string format spec included, that holds .17g."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and ".17g" in node.value
    )


def test_float_format_checker_finds_each_copy():
    source = (
        'FLOAT = "%.17g"\n'
        'a = f"{x},{v:.17g}"\n'
        'b = format(x, ".17g")\n'
        'c = "{:.17g},{:.16g}".format(x, y)\n'
        'd = f"{x:.16g}" + FLOAT % x\n'
    )
    assert float_format_specs(source) == [1, 2, 3, 4]


def test_one_float_format():
    found = [path.name for path in MODULES for _ in float_format_specs(path.read_text())]
    assert found == ["io.py"]
    assert gc.io.FLOAT == "%.17g"


def lcg_arithmetic(source: str) -> list[str]:
    """Names of the functions that read LCG_MULT or LCG_INC or build a
    uint64, each once, sorted."""
    return sorted({
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if {"LCG_MULT", "LCG_INC", "uint64"} & {getattr(node, "id", None), getattr(node, "attr", None)}
    })


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def looped_draws(source: str) -> list[str]:
    """Names of the functions that call .uniform or .normal inside a loop or
    a comprehension, each once, sorted."""
    return sorted({
        fn.name
        for fn in ast.walk(ast.parse(source))
        if isinstance(fn, ast.FunctionDef)
        for loop in ast.walk(fn)
        if isinstance(loop, LOOPS)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("uniform", "normal")
    })


def test_draw_checkers_find_each_copy():
    source = (
        "class Lcg64:\n"
        "    def next_u64(self):\n"
        "        return LCG_MULT * self.state + rng.LCG_INC\n"
        "    def _units(self, k):\n"
        "        return np.empty(k, dtype=np.uint64)\n"
        "def jump(s):\n"
        "    return (s * LCG_MULT) % 7\n"
        "def draws(rng, n):\n"
        "    xs = [rng.uniform(-1.0, 1.0) for _ in range(n)]\n"
        "    while len(xs) < 9:\n"
        "        xs.append(rng.normal())\n"
        "    return xs, rng.uniform(), rng.uniforms(n)\n"
        "def field(g, rng):\n"
        "    return {e: rng.uniform() for e in g.edges()}\n"
        "def one(rng):\n"
        "    return rng.normal()\n"
    )
    assert lcg_arithmetic(source) == ["_units", "jump", "next_u64"]
    assert looped_draws(source) == ["draws", "field"]


def test_one_lcg_state_fill():
    found = {path.name: lcg_arithmetic(path.read_text()) for path in MODULES}
    assert found.pop("rng.py") == ["_units", "next_u64"]
    assert [name for names in found.values() for name in names] == []


def test_no_draw_loops_outside_the_reference_draws():
    outside = [path for path in MODULES if path.name != "rng.py"]
    found = sorted(name for path in outside for name in looped_draws(path.read_text()))
    assert found == ["random_antisymmetric_field", "random_function"]


def scaling_reads(source: str) -> list[int]:
    """Lines that read an attribute named scaling."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "scaling" and isinstance(node.ctx, ast.Load)
    )


def defined_classes(source: str) -> list[str]:
    """Names of every class a source defines, sorted."""
    return sorted(node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef))


def test_pair_value_checkers_find_each_copy():
    source = (
        "class _PairRates:\n"
        "    def values(self, w):\n"
        "        if w.scaling is not None:\n"
        "            c, base = w.scaling\n"
        "        out.scaling = (c, w)\n"
    )
    assert scaling_reads(source) == [3, 4]
    assert defined_classes(source) == ["_PairRates"]


def test_only_vector_field_reads_its_scaling():
    found = {path.name: scaling_reads(path.read_text()) for path in MODULES}
    assert found.pop("calculus.py") != []
    assert [line for lines in found.values() for line in lines] == []
    assert not any("_PairRates" in defined_classes(path.read_text()) for path in MODULES)
