import ast
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcalc as gc
import graphcalc.cli as cli

from conftest import make_c4, make_k2, make_octahedron, make_p3, make_p5
from helpers import grid_calls, per_row_render_trajectory_csv, per_value_render_json

# ---------------------------------------------------------------------------
# file formats


def test_graph_json_round_trip():
    for make in (make_p3, make_c4, make_octahedron):
        g = make()
        back = gc.parse_graph(gc.write_graph(g))
        assert back.vertices == g.vertices
        assert back.edges() == g.edges()


def test_parse_graph_error_classes():
    with pytest.raises(gc.GraphParseError):
        gc.parse_graph("not json")
    with pytest.raises(gc.GraphParseError):
        gc.parse_graph("[1, 2]")
    with pytest.raises(gc.GraphParseError):
        gc.parse_graph('{"vertices": [], "edges": []}')
    with pytest.raises(gc.GraphParseError):
        gc.parse_graph('{"vertices": ["a", "a"], "edges": []}')
    with pytest.raises(gc.GraphParseError):
        gc.parse_graph('{"vertices": ["a"], "edges": [["a"]]}')
    with pytest.raises(gc.GraphParseError, match="^'edges' must be a list$"):
        gc.parse_graph('{"vertices": ["a", "b"], "edges": {}}')
    with pytest.raises(gc.SelfLoopError):
        gc.parse_graph('{"vertices": ["a", "b"], "edges": [["a", "a"]]}')
    with pytest.raises(gc.DanglingEndpointError):
        gc.parse_graph('{"vertices": ["a", "b"], "edges": [["a", "z"]]}')
    with pytest.raises(gc.DuplicateEdgeError):
        gc.parse_graph('{"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}')


def test_load_graph_and_vertex_function_read_files(tmp_path, p3):
    (tmp_path / "g.json").write_text(gc.write_graph(p3))
    (tmp_path / "f.csv").write_text("vertex,value\na,1.5\nc,-2\n")
    g = gc.load_graph(tmp_path / "g.json")
    assert (g.vertices, g.edges()) == (p3.vertices, p3.edges())
    f = gc.load_vertex_function(str(tmp_path / "f.csv"), g)
    assert f.values == {"a": 1.5, "c": -2.0}


def test_parse_vertex_function(p3):
    text = "# comment\n\nvertex,value\na, 1.5\nb,-2\n"
    f = gc.parse_vertex_function(text, p3)
    assert f.value("a") == 1.5 and f.value("b") == -2.0
    assert "c" not in f
    no_header = gc.parse_vertex_function("a,1.5\nb,-2\n", p3)
    assert no_header.value("a") == 1.5
    with pytest.raises(gc.UnknownVertexError):
        gc.parse_vertex_function("zz,1\n", p3)
    with pytest.raises(gc.ValidationError):
        gc.parse_vertex_function("a,1\na,2\n", p3)
    with pytest.raises(gc.ValidationError):
        gc.parse_vertex_function("# nothing\n", p3)
    with pytest.raises(gc.ValidationError):
        gc.parse_vertex_function("a,oops\n", p3)
    for cell in ("nan", "inf", "-Infinity"):
        with pytest.raises(gc.ValidationError):
            gc.parse_vertex_function(f"a,{cell}\n", p3)
    with pytest.raises(gc.ValidationError):
        gc.parse_vertex_function("a,1,2\n", p3)


def test_parse_vector_field_modes(k2):
    exact = gc.parse_vector_field("a,b,2.0\n", k2, "exact")
    assert exact.value("a", "b") == 2.0
    with pytest.raises(gc.DomainError):
        exact.value("b", "a")

    anti = gc.parse_vector_field("from,to,value\na,b,2.0\n", k2, "antisymmetrize")
    assert anti.value("a", "b") == 2.0
    assert anti.value("b", "a") == -2.0  # mirrored, not halved
    assert anti.is_antisymmetric()

    sym = gc.parse_vector_field("a,b,2.0\n", k2, "symmetrize")
    assert sym.value("b", "a") == 2.0

    both = gc.parse_vector_field("a,b,2.0\nb,a,-2.0\n", k2, "antisymmetrize")
    assert both.value("b", "a") == -2.0
    with pytest.raises(gc.ValidationError):
        gc.parse_vector_field("a,b,2.0\nb,a,5.0\n", k2, "antisymmetrize")
    with pytest.raises(gc.ValidationError):
        gc.parse_vector_field("a,b,2.0\n", k2, "fold")
    with pytest.raises(gc.ValidationError):
        gc.parse_vector_field("a,b,1\na,b,1\n", k2, "exact")


def test_parse_vector_field_adjacency(c4):
    with pytest.raises(gc.ValidationError):
        gc.parse_vector_field("v0,v2,1.0\n", c4, "exact")
    with pytest.raises(gc.UnknownVertexError):
        gc.parse_vector_field("v0,zz,1.0\n", c4, "exact")


def test_parse_sphere_map(p3):
    text = "vertex,x,y,z\na,2,0,0\nb,0,3,0\n"
    u = gc.parse_sphere_map(text, p3)
    assert u.point("a") == gc.SpherePoint(1, 0, 0)  # normalized
    assert u.point("b") == gc.SpherePoint(0, 1, 0)
    with pytest.raises(gc.ValidationError):
        gc.parse_sphere_map("a,0,0,0\n", p3)
    with pytest.raises(gc.UnknownVertexError):
        gc.parse_sphere_map("zz,1,0,0\n", p3)
    with pytest.raises(gc.ValidationError):
        gc.parse_sphere_map("a,1,0\n", p3)
    with pytest.raises(gc.ValidationError):
        gc.parse_sphere_map("a,1,0,0\na,0,1,0\n", p3)


RECORD_READERS = [  # the repeated row's number does not parse: the repeat is reported first
    (gc.parse_vertex_function, "vertex,value", "a,1\nb,2\na,oops\n", "vertex 'a'", "function"),
    (gc.parse_vector_field, "from,to,value", "a,b,1\nb,a,2\na,b,oops\n", "ordered pair ('a', 'b')", "field"),
    (gc.parse_sphere_map, "vertex,x,y,z", "a,1,0,0\nb,0,1,0\na,0,0,oops\n", "vertex 'a'", "map"),
]


@pytest.mark.parametrize("parse,header,repeated,key,noun", RECORD_READERS, ids=["function", "field", "map"])
def test_record_readers_share_repeat_and_empty_messages(p3, parse, header, repeated, key, noun):
    with pytest.raises(gc.ValidationError) as e:
        parse(repeated, p3)
    assert str(e.value) == f"row 3: {key} listed twice"
    for text in ("", "# only a comment\n\n", header + "\n", header.upper() + "\n"):
        with pytest.raises(gc.ValidationError) as e:
            parse(text, p3)
        assert str(e.value) == f"no {noun} rows found"


def test_csv_renderers_round_trip(p3):
    f = gc.VertexFunction(p3, {"a": 1.0 / 3.0, "b": -2.5e-17, "c": 7.0})
    text = "# manifest: {}\n" + gc.render_vertex_function_csv(f)
    assert text.startswith("# manifest: {}\nvertex,value\n")
    back = gc.parse_vertex_function(text, p3)
    for v in p3.vertices:
        assert back.value(v) == f.value(v)  # exact through .17g

    u = gc.SphereMap(
        p3,
        {
            "a": gc.SpherePoint(1, 0, 0),
            "b": gc.SpherePoint(1, 1, 1),
            "c": gc.SpherePoint(0, 0, 1),
        },
    )
    umap = gc.parse_sphere_map(gc.render_sphere_map_csv(u), p3)
    for v in p3.vertices:
        assert umap.point(v) == u.point(v)


def test_render_trajectory_csv_shape(p3):
    f = gc.VertexFunction(p3, {"a": 0.0, "b": 1.0, "c": 0.0})
    text = "# note\n" + gc.render_trajectory_csv([0.0, 0.5], [f, f])
    lines = text.splitlines()
    assert lines[0] == "# note"
    assert lines[1] == "time,vertex,value"
    assert lines[2] == "0,a,0"
    assert lines[5] == "0.5,a,0"


def test_render_trajectory_csv_bytes_are_pinned():
    # rows in each state's domain order (file order, not insertion order),
    # -0.0, subnormals and the .17g time column exactly as before
    g = gc.Graph(["b", "a", "c"], [("a", "b"), ("b", "c")])
    states = [
        gc.VertexFunction(g, {"a": 0.1, "b": -0.0, "c": 5e-324}),
        gc.VertexFunction(g, {"c": 1e300, "a": -2.5e-310}),
        gc.VertexFunction(g, {"b": 1 / 3}),
    ]
    assert gc.render_trajectory_csv([0.0, 0.1, 2.0 / 3.0], states) == (
        "time,vertex,value\n"
        "0,b,-0\n"
        "0,a,0.10000000000000001\n"
        "0,c,4.9406564584124654e-324\n"
        "0.10000000000000001,a,-2.5000000000000171e-310\n"
        "0.10000000000000001,c,1.0000000000000001e+300\n"
        "0.66666666666666663,b,0.33333333333333331\n"
    )


@pytest.mark.parametrize("n_times, n_states", [(3, 1), (1, 2)])
def test_render_trajectory_csv_refuses_a_time_count_unlike_the_state_count(p3, n_times, n_states):
    f = gc.VertexFunction(p3, {"a": 0.0, "b": 1.0, "c": 0.0})
    times, states = [0.0, 1.0, 2.0][:n_times], [f] * n_states
    message = f"trajectory has {n_times} times for {n_states} states"
    with pytest.raises(gc.ValidationError, match=message):
        gc.render_trajectory_csv(times, states)
    with pytest.raises(gc.ValidationError, match=message):
        next(gc.io.trajectory_csv_chunks(times, states))  # before the header row


def _float_parts_batches():
    """Seeded batches for _float_parts: raw bit patterns, each covered
    decade, the neighbours of each power of ten, the float range's edges,
    and exact ties at 18 significant digits, whose 17th digit rounds to
    even."""
    rng = np.random.default_rng(36)
    yield rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    signs = rng.choice([-1.0, 1.0], 4_000)
    for X in range(-4, 1):
        yield signs * rng.uniform(10.0**X, 10.0 ** (X + 1), 4_000)
    edges = []
    for k in range(-5, 3):
        below = above = 10.0**k
        for _ in range(8):
            edges += [below, above]
            below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
    yield np.array(edges + [-x for x in edges])
    tiny, big = 5e-324, np.finfo(float).max
    yield np.array([0.0, -0.0, tiny, -tiny, 2.2250738585072014e-308, -1e-310, big, -big])
    for X in range(-4, 1):
        # odd M / 2**j in decade X has 18 significant digits, the last a 5
        j = 17 - X
        lo, hi = math.ceil(10.0**X * 2**j), math.ceil(10.0 ** (X + 1) * 2**j)
        odd = rng.integers(lo // 2, hi // 2, 2_000) * 2 + 1
        yield signs[:2_000] * odd / 2.0**j


def test_float_parts_match_the_float_format():
    for values in _float_parts_batches():
        heads, tails, covered = gc.io._float_parts(values)
        a = np.abs(values)
        assert covered.tolist() == ((a == 0.0) | ((a >= 1e-4) & (a < 10.0))).tolist()
        got = [h + str(t) for h, t, c in zip(heads, tails, covered.tolist()) if c]
        assert got == [gc.io.FLOAT % x for x in values[covered].tolist()]
    heads, tails, _ = gc.io._float_parts(np.array([0.100002288818359375]))
    assert heads[0] + str(tails[0]) == "0.10000228881835938"


def test_render_trajectory_csv_fills_both_templates(monkeypatch):
    # covered states fill the template of heads and tails, a state with a
    # few values outside [1e-4, 10) fills it too, and a state with none
    # inside fills the plain template; the kernel sees only the first two
    g = gc.Graph(["a", "b", "c", "d", "e"], [])
    kinds = [
        {"a": 0.5, "b": -1.25e-4, "c": 0.0, "d": 9.999999999999998, "e": -0.1},
        {"a": 1e-5, "b": 0.3, "c": 12.5, "d": -2.0, "e": 1 / 3},
        {"a": 5e-5, "b": -1e-300, "c": 1e-6, "d": 5e-324, "e": -9.99e-5},
    ]
    states = [gc.VertexFunction(g, values) for values in kinds]
    states += [gc.VertexFunction(g, {"e": 1.5, "c": 2.5})] + states
    times = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
    seen = []
    kernel = gc.io._float_parts

    def spy(values):
        seen.append(np.ravel(values).tolist())
        return kernel(values)

    monkeypatch.setattr(gc.io, "_float_parts", spy)
    assert gc.render_trajectory_csv(times, states) == per_row_render_trajectory_csv(times, states)
    rows = [[s.values[x] for x in s.domain] for s in states]
    assert seen == [rows[0] + rows[1], rows[3], rows[4] + rows[5]]


def test_render_vertex_function_csv_bytes_are_pinned():
    # rows in file order whatever the insertion order, with -0.0, subnormals
    # and .17g values exactly as before
    g = gc.Graph(["b", "a", "c", "d", "e"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    f = gc.VertexFunction(g, {"e": 1e300, "c": 5e-324, "a": 0.1, "b": -0.0, "d": -2.5e-310})
    assert gc.render_vertex_function_csv(f) == (
        "vertex,value\n"
        "b,-0\n"
        "a,0.10000000000000001\n"
        "c,4.9406564584124654e-324\n"
        "d,-2.5000000000000171e-310\n"
        "e,1.0000000000000001e+300\n"
    )
    partial = gc.VertexFunction(g, {"d": 2.0 / 3.0, "b": 1.0})
    assert gc.render_vertex_function_csv(partial) == "vertex,value\nb,1\nd,0.66666666666666663\n"


def test_render_sphere_map_csv_bytes_are_pinned():
    # rows in file order whatever the insertion order, each coordinate .17g
    # exactly as before, with -0.0 and subnormals
    g = gc.Graph(["b", "a", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    u = gc.SphereMap(
        g,
        {
            "d": gc.SpherePoint(0.0, 5e-324, 1.0),
            "a": gc.SpherePoint(1, 1, 1),
            "b": gc.SpherePoint(-0.0, 1.0, 0.0),
            "c": gc.SpherePoint(0.1, -0.2, 0.3),
        },
    )
    assert gc.render_sphere_map_csv(u) == (
        "vertex,x,y,z\n"
        "b,-0,1,0\n"
        "a,0.57735026918962584,0.57735026918962584,0.57735026918962584\n"
        "c,0.2672612419124244,-0.53452248382484879,0.80178372573727308\n"
        "d,0,4.9406564584124654e-324,1\n"
    )
    partial = gc.SphereMap(g, {"c": gc.SpherePoint(0, 0, -2)})
    assert gc.render_sphere_map_csv(partial) == "vertex,x,y,z\nc,0,0,-1\n"


def test_render_json_layouts_are_pinned():
    obj = {
        "empty_dict": {},
        "empty_list": [],
        "flags": [True, False, None],
        "n": 3,
        "x": 0.1,
        "specials": [math.nan, math.inf, -math.inf],
        "nested": {'say "hi"': [1, [2.5, {}], {"k": -0.0}]},
        "tuple": (1, 2),
    }
    assert cli.render_json(obj) == (
        '{\n  "empty_dict": {},\n  "empty_list": [],\n  "flags": [\n    true,\n'
        '    false,\n    null\n  ],\n  "n": 3,\n  "x": 0.10000000000000001,\n'
        '  "specials": [\n    "nan",\n    "inf",\n    "-inf"\n  ],\n  "nested": {\n'
        '    "say \\"hi\\"": [\n      1,\n      [\n        2.5,\n        {}\n      ],\n'
        '      {\n        "k": -0\n      }\n    ]\n  },\n  "tuple": [\n    1,\n    2\n  ]\n}'
    )
    assert cli.render_json(obj["nested"], 2) == (
        '{\n      "say \\"hi\\"": [\n        1,\n        [\n          2.5,\n'
        '          {}\n        ],\n        {\n          "k": -0\n        }\n      ]\n    }'
    )
    assert cli.render_json_line(obj) == (
        '{"empty_dict": {}, "empty_list": [], "flags": [true, false, null], "n": 3, '
        '"x": 0.10000000000000001, "specials": ["nan", "inf", "-inf"], '
        '"nested": {"say \\"hi\\"": [1, [2.5, {}], {"k": -0}]}, "tuple": [1, 2]}'
    )
    # flat float containers, which fill templates
    flat = {"a": 0.5, "b": -0.0, "c": 1e308}
    assert cli.render_json(flat) == '{\n  "a": 0.5,\n  "b": -0,\n  "c": 1e+308\n}'
    assert cli.render_json(flat, 2) == '{\n      "a": 0.5,\n      "b": -0,\n      "c": 1e+308\n    }'
    assert cli.render_json_line(flat) == '{"a": 0.5, "b": -0, "c": 1e+308}'
    row = [0.25, 5e-324, -1.5]
    assert cli.render_json(row) == '[\n  0.25,\n  4.9406564584124654e-324,\n  -1.5\n]'
    assert cli.render_json(row, 2) == (
        '[\n      0.25,\n      4.9406564584124654e-324,\n      -1.5\n    ]'
    )
    assert cli.render_json_line(row) == '[0.25, 4.9406564584124654e-324, -1.5]'
    keys = {"100%": 0.1, "a\\b": 2.0, "%s": 3.0}
    assert cli.render_json(keys) == '{\n  "100%": 0.10000000000000001,\n  "a\\\\b": 2,\n  "%s": 3\n}'
    assert cli.render_json_line(keys) == '{"100%": 0.10000000000000001, "a\\\\b": 2, "%s": 3}'
    shared = {"x": [{"a": 0.5}, {"a": 1.0}], "y": {"a": 0.5}}
    assert cli.render_json_line(shared) == '{"x": [{"a": 0.5}, {"a": 1}], "y": {"a": 0.5}}'
    # 1 == True, so keys that are not str get no template
    assert cli.render_json_line({"a": {1: 0.5}, "b": {True: 0.5}}) == '{"a": {"1": 0.5}, "b": {"True": 0.5}}'


# keys that need escaping in JSON or in a %-template, non-ASCII and digits
_KEYS = st.text(st.sampled_from('ab%\\"\u00e9\u03bb7'), max_size=3) | st.integers(0, 20).map(str)
_SPECIAL = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf])
_FLOATS = _SPECIAL | st.floats()
_FINITE = st.sampled_from([-0.0, 5e-324, 1e308]) | st.floats(allow_nan=False, allow_infinity=False)
_SCALARS = (
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | _FLOATS | _FLOATS.map(np.float64)
)


def _same_keys(keys):
    """Dicts over one key list, float-only or not, so one template serves
    several of them and a mixed dict of the same keys meets it."""
    floats = st.fixed_dictionaries({k: _FINITE for k in keys})
    mixed = st.fixed_dictionaries({k: _SCALARS for k in keys})
    return st.lists(floats | mixed, min_size=2, max_size=4)


_DOCS = st.recursive(
    _SCALARS | st.lists(_KEYS, min_size=1, max_size=4, unique=True).flatmap(_same_keys)
    | st.lists(_FINITE, max_size=4) | st.lists(_FINITE, max_size=4).map(tuple),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_DOCS)
def test_render_json_equals_the_per_value_renderer(doc):
    for level in (0, 3, None):
        assert cli.render_json(doc, level) == per_value_render_json(doc, level)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_FLOATS | _FLOATS.map(np.float64))
def test_float_field_formats_as_format_float(x):
    assert "%.17g" % x == gc.format_float(x) == format(float(x), ".17g")


def test_format_float_round_trips():
    rng = gc.Lcg64(101)
    for _ in range(200):
        x = rng.normal() * 10.0 ** rng.randint(20)
        assert float(gc.format_float(x)) == x


def test_parse_graph_rejects_ids_csv_cannot_carry(tmp_path, capsys):
    # each of these rendered into a CSV line that read back wrong or not at all
    for bad in ["a,b", "#x", " a", "a ", 'a"b', "a\nb", "a\r", "a\x1cb", "a\u2028b"]:
        doc = json.dumps({"vertices": ["ok", bad], "edges": [["ok", bad]]})
        with pytest.raises(gc.GraphParseError, match="cannot be written to CSV"):
            gc.parse_graph(doc)
    assert gc.parse_graph(json.dumps({"vertices": ["a#b", "a b", "é"], "edges": []}))
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": ["ok", "a,b"], "edges": []}))
    rc, out = run_cli(capsys, ["graph", str(path)])
    assert rc == 1
    doc = json.loads(out)
    assert list(doc) == ["error"]
    assert doc["error"]["type"] == "GraphParseError"
    assert doc["error"]["exit_code"] == 1
    assert "'a,b'" in doc["error"]["message"]


def _parse_graph_accepts(v):
    try:
        gc.parse_graph(json.dumps({"vertices": [v], "edges": []}))
    except gc.GraphParseError:
        return False
    return True


VERTEX_IDS = st.text(min_size=1, max_size=6).filter(_parse_graph_accepts)
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -1e-310, 2.2250738585072014e-308]
)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(VERTEX_IDS, min_size=1, max_size=6, unique=True), st.data())
def test_vertex_function_csv_round_trip_is_exact(ids, data):
    g = gc.Graph(ids, [])
    domain = data.draw(st.lists(st.sampled_from(ids), min_size=1, unique=True))
    vals = data.draw(st.lists(FINITE_FLOATS, min_size=len(domain), max_size=len(domain)))
    f = gc.VertexFunction(g, dict(zip(domain, vals)))
    back = gc.parse_vertex_function("# manifest: {}\n" + gc.render_vertex_function_csv(f), g)
    assert back.domain == f.domain
    assert [v.hex() for v in back.values.values()] == [v.hex() for v in f.values.values()]


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    st.lists(
        VERTEX_IDS
        | st.sampled_from(["%", "a%s", "%%d", "50%", "\\", "x\\n", "é", "∂u", "12", "007"]),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    st.data(),
)
def test_render_trajectory_csv_matches_per_row_reference(ids, data):
    # the states' domains differ in membership and in insertion order, so a
    # template is reused only for an equal domain
    g = gc.Graph(ids, [])
    values = FINITE_FLOATS | st.sampled_from([-0.0, 5e-324, 1e308])
    states = []
    for _ in range(data.draw(st.integers(0, 4))):
        domain = data.draw(st.lists(st.sampled_from(ids), unique=True))
        vals = data.draw(st.lists(values, min_size=len(domain), max_size=len(domain)))
        states.append(gc.VertexFunction(g, dict(zip(domain, vals))))
    times = sorted(data.draw(st.lists(FINITE_FLOATS, min_size=len(states), max_size=len(states))))
    got = gc.render_trajectory_csv(times, states)
    assert got == per_row_render_trajectory_csv(times, states)
    # a state repeated after another domain renders from its own template
    assert gc.render_trajectory_csv(times + times, states + states) == (
        per_row_render_trajectory_csv(times + times, states + states)
    )


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.lists(VERTEX_IDS, min_size=1, max_size=7, unique=True), st.data())
def test_graph_json_round_trip_property(ids, data):
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = [data.draw(st.sampled_from([(a, b), (b, a)])) for a, b in chosen]
    g = gc.Graph(ids, edges)
    back = gc.parse_graph(gc.write_graph(g))
    assert back.vertices == g.vertices
    assert back.edges() == g.edges()
    assert [back.neighbors(x) for x in ids] == [g.neighbors(x) for x in ids]


# ---------------------------------------------------------------------------
# command line


def write_graph_file(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    path.write_text(gc.write_graph(g))
    return str(path)


def run_cli(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_cli_graph_payload(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_c4())
    rc, out = run_cli(capsys, ["graph", path])
    assert rc == 0
    doc = json.loads(out)
    m = doc["manifest"]
    assert m["tool"] == "graphcalc"
    assert m["version"] == gc.__version__
    assert m["argv"] == ["graph", path]
    assert m["scale"] == 1
    assert set(m["inputs"]) == {"graph"}
    assert m["inputs"]["graph"]["path"] == path
    assert len(m["inputs"]["graph"]["sha256"]) == 64
    assert "timestamp" not in json.dumps(doc).lower()
    assert doc["vertices"] == 4
    assert doc["edges"] == 4
    assert doc["volume"] == 8
    assert doc["connected"] is True
    assert doc["degrees"] == {"v0": 2, "v1": 2, "v2": 2, "v3": 2}


CSV_NOTES = {"heat": [], "transport": [], "dmf": ["audit"], "harmonic": ["result"]}


def one_call_per_command(tmp_path):
    """A valid argv for every subcommand, on P3."""
    gpath = write_graph_file(tmp_path, make_p3())
    fn = tmp_path / "f.csv"
    fn.write_text("a,0\nb,1\nc,0\n")
    field = tmp_path / "w.csv"
    field.write_text("a,b,1\nb,c,1\n")
    bmap = tmp_path / "boundary.csv"
    bmap.write_text("a,1,0,0\nc,0,1,0\n")
    f = str(fn)
    extra = {
        "graph": [],
        "spectrum": ["--bc", "dirichlet", "--interior", "b"],
        "cheeger": ["--function", f],
        "minimax": [f, "--src", "a", "--dst", "c"],
        "heat": [f, "--bc", "dirichlet", "--interior", "b", "--t-final", "1", "--steps", "2"],
        "transport": [f, "--field", str(field), "--t-final", "1", "--dt", "0.5"],
        "dmf": [f, "--interior", "b", "--t-final", "1", "--steps", "2"],
        "harmonic": ["--interior", "b", "--boundary", str(bmap)],
        "identities": ["--seed", "7", "--trials", "3"],
        "monge": ["--sources", "a", "--targets", "c"],
    }
    return {command: [command, gpath, *rest] for command, rest in extra.items()}


@pytest.mark.parametrize(
    "command",
    ["graph", "spectrum", "cheeger", "minimax", "heat", "transport", "dmf", "harmonic",
     "identities", "monge"],
)
def test_every_document_leads_with_its_manifest(tmp_path, capsys, command):
    argv = one_call_per_command(tmp_path)[command]
    rc, out = run_cli(capsys, argv)
    assert rc == 0, out
    if command in CSV_NOTES:
        lines = out.splitlines()
        labels = ["manifest", *CSV_NOTES[command]]
        for line, label in zip(lines, labels):
            assert line.startswith(f"# {label}: {{"), (line, label)
        assert not lines[len(labels)].startswith("#")
        manifest = json.loads(lines[0][len("# manifest: ") :])
    else:
        doc = json.loads(out)
        assert list(doc)[0] == "manifest"
        manifest = doc["manifest"]
    seed = ["seed"] if command == "identities" else []
    assert list(manifest) == ["tool", "version", "argv", "scale", *seed, "inputs"]
    assert manifest["argv"] == argv


GOLDEN = Path(__file__).parent / "cli_golden.json"


def golden_calls(tmp_path):
    """one_call_per_command, and a minimax call whose classification has a witness."""
    calls = one_call_per_command(tmp_path)
    octahedron = write_graph_file(tmp_path, make_octahedron(), "octahedron.json")
    saddle = tmp_path / "saddle.csv"
    saddle.write_text("p1,0\nm1,0\np2,1\nm2,1\np3,1\nm3,1\n")
    calls["minimax-witness"] = ["minimax", octahedron, str(saddle), "--src", "p1", "--dst", "m1"]
    return calls


def test_cli_documents_are_pinned(tmp_path, capsys):
    # every subcommand's document, byte for byte, with the temporary
    # directory written as <TMP>; the payloads built from result dataclasses
    # (cheeger witnesses, minimax search and classification) are among them
    want = json.loads(GOLDEN.read_text())
    del want["sha256"]  # test_grid_documents_are_pinned_by_hash
    calls = golden_calls(tmp_path)
    assert list(calls) == list(want)
    for name, argv in calls.items():
        rc, out = run_cli(capsys, argv)
        assert rc == 0, out
        assert out.replace(str(tmp_path), "<TMP>") == want[name], name


def test_grid_documents_are_pinned_by_hash(tmp_path, capsys):
    # the sha256 of each document, with the temporary directory written as
    # <TMP>, so that a change in any bit of the eigensolve fails here
    want = json.loads(GOLDEN.read_text())["sha256"]
    calls = grid_calls(tmp_path)
    assert list(calls) == list(want)
    for name, argv in calls.items():
        rc, out = run_cli(capsys, argv)
        assert rc == 0, out
        digest = hashlib.sha256(out.replace(str(tmp_path), "<TMP>").encode()).hexdigest()
        assert digest == want[name], name


def test_only_cli_main_reads_the_graph():
    """main reads and parses the graph argument once and hands the graph to
    every subcommand, so no other function in cli.py parses a graph or reads
    the graph file."""
    tree = ast.parse(Path(cli.__file__).read_text())
    for top in tree.body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        parses, reads = [], []
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == "parse_graph":
                parses.append(node.lineno)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "read"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == "graph"
            ):
                reads.append(node.lineno)
        in_main = top.name == "main"
        assert bool(parses) == in_main, (top.name, parses)
        assert bool(reads) == in_main, (top.name, reads)


def test_cli_spectrum_frozen(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_c4())
    rc, out = run_cli(capsys, ["spectrum", path, "--functions"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["bc"] == "none"
    vals = doc["values"]
    for got, want in zip(vals, [0.0, 1.0, 1.0, 2.0]):
        assert got == pytest.approx(want, abs=1e-10)
    assert doc["orthonormality_residual"] <= 1e-10
    assert set(doc["functions"]) == {"1", "2", "3", "4"}


def test_cli_spectrum_window(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_p5())
    rc, out = run_cli(capsys, ["spectrum", path, "--bc", "dirichlet", "--interior", "b,c,d"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["interior"] == ["b", "c", "d"]
    assert doc["boundary"] == ["a", "e"]
    r = math.sqrt(2) / 2
    for got, want in zip(doc["values"], [1 - r, 1.0, 1 + r]):
        assert got == pytest.approx(want, abs=1e-10)


def test_cli_spectrum_usage_errors(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_p5())
    rc, out = run_cli(capsys, ["spectrum", path, "--bc", "dirichlet"])
    assert rc == 1
    assert json.loads(out)["error"]["exit_code"] == 1
    rc, out = run_cli(capsys, ["spectrum", path, "--interior", "b"])
    assert rc == 1


def test_cli_cheeger(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_c4())
    fn = tmp_path / "indicator.csv"
    fn.write_text("v0,1\nv1,1\nv2,0\nv3,0\n")
    rc, out = run_cli(capsys, ["cheeger", path, "--function", str(fn)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["h"] == 0.5
    assert doc["g"] == 0.5
    assert doc["h_witness"]["subset"] == ["v0", "v1"]
    assert doc["h_witness"]["edge_cut"] == 2
    assert doc["h_witness"]["volume_inside"] == 4
    assert doc["functional_ratio"] == 0.5
    assert set(doc["manifest"]["inputs"]) == {"graph", "function"}


def test_cli_minimax(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_octahedron())
    fn = tmp_path / "f.csv"
    fn.write_text("p1,0\nm1,0\np2,1\nm2,1\np3,1\nm3,1\n")
    rc, out = run_cli(capsys, ["minimax", path, str(fn), "--src", "p1", "--dst", "m1"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["level"] == 1.0
    assert doc["vertex"] == "p2"
    assert doc["path"] == ["p1", "p2", "m1"]
    assert doc["warnings"] == []
    assert doc["bottleneck"]["level"] == 1.0
    assert "minimax" in doc["classification"]["kinds"]
    assert doc["classification"]["witness"]["dip_plus"] in ("p1", "m1")


def test_cli_heat(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_p3())
    fn = tmp_path / "f.csv"
    fn.write_text("b,1\n")
    rc, out = run_cli(
        capsys,
        [
            "heat",
            path,
            str(fn),
            "--bc",
            "dirichlet",
            "--interior",
            "b",
            "--t-final",
            "1",
            "--steps",
            "10",
        ],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# manifest: {")
    assert lines[1] == "time,vertex,value"
    last = [l for l in lines if l.startswith("1,b,")]
    assert len(last) == 1
    assert float(last[0].split(",")[2]) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_cli_transport(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_k2())
    fn = tmp_path / "f.csv"
    fn.write_text("a,0\nb,1\n")
    field = tmp_path / "w.csv"
    field.write_text("a,b,1\n")  # default mode antisymmetrizes
    rc, out = run_cli(
        capsys,
        ["transport", path, str(fn), "--field", str(field), "--t-final", "1", "--dt", "0.01"],
    )
    assert rc == 0
    rows = [l for l in out.splitlines() if l.startswith("1,")]
    vals = {r.split(",")[1]: float(r.split(",")[2]) for r in rows}
    assert vals["a"] == pytest.approx(1.0, abs=1e-10)
    assert vals["b"] == pytest.approx(2.0, abs=1e-10)


def test_cli_dmf(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_p3())
    fn = tmp_path / "f.csv"
    fn.write_text("b,1\n")
    rc, out = run_cli(
        capsys,
        ["dmf", path, str(fn), "--interior", "b", "--t-final", "1", "--steps", "4"],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# manifest: {")
    assert lines[1].startswith("# audit: {")
    audit = json.loads(lines[1][len("# audit: ") :])
    assert audit["audit_ok"] is True
    assert audit["certificates_ok"] is True
    assert audit["max_el_residual"] <= 1e-10
    final = [l for l in lines if l.startswith("1,b,")]
    assert float(final[0].split(",")[2]) == pytest.approx(0.8**4, abs=1e-12)


def test_cli_dmf_indefinite_exit_2(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_p3())
    fn = tmp_path / "f.csv"
    fn.write_text("b,1\n")
    rc, out = run_cli(
        capsys,
        [
            "dmf",
            path,
            str(fn),
            "--interior",
            "b",
            "--potential",
            "5",
            "--t-final",
            "4",
            "--steps",
            "4",
        ],
    )
    assert rc == 2
    err = json.loads(out)["error"]
    assert err["type"] == "IndefiniteStepError"
    assert err["exit_code"] == 2


def test_cli_harmonic(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_p3())
    bmap = tmp_path / "boundary.csv"
    bmap.write_text("a,1,0,0\nc,0,1,0\n")
    rc, out = run_cli(
        capsys, ["harmonic", path, "--interior", "b", "--boundary", str(bmap)]
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# manifest: {")
    assert lines[1].startswith("# result: {")
    result = json.loads(lines[1][len("# result: ") :])
    assert result["status"] == "converged"
    assert result["certificate_ok"] is True
    rows = {l.split(",")[0]: l for l in lines if not l.startswith("#")}
    bx = float(rows["b"].split(",")[1])
    assert bx == pytest.approx(math.sqrt(0.5), abs=1e-6)


def test_cli_harmonic_nonconvergence_exit_2(tmp_path, capsys):
    # non-coplanar boundary data: the averaging seed cannot be a critical
    # point, so one step is never enough
    path = write_graph_file(tmp_path, make_octahedron())
    bmap = tmp_path / "boundary.csv"
    bmap.write_text("m1,1,0,0\nm2,0,1,0\np3,0,0,1\nm3,1,1,1\n")
    rc, out = run_cli(
        capsys,
        [
            "harmonic",
            path,
            "--interior",
            "p1,p2",
            "--boundary",
            str(bmap),
            "--max-steps",
            "1",
        ],
    )
    assert rc == 2
    err = json.loads(out)["error"]
    assert err["type"] == "NumericalError"
    assert "step_cap" in err["message"]


def test_cli_identities(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_c4())
    rc, out = run_cli(capsys, ["identities", path, "--seed", "7", "--trials", "25"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["manifest"]["seed"] == 7
    for check in (
        "divergence_theorem",
        "green_symmetric",
        "green_vectorfield",
        "gradient_product_rule",
        "field_product_rule",
        "directional_vs_product",
        "hessian_trace",
    ):
        assert doc[check]["trials"] == 25
        assert doc[check]["max_abs_residual"] <= 1e-12
    assert doc["maximum_principle"]["min_laplacian"] >= 0.0
    assert doc["seed"] == 7


def test_cli_monge(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_c4())
    rc, out = run_cli(
        capsys, ["monge", path, "--sources", "v0,v1", "--targets", "v2,v3"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["cost"] == 2
    assert doc["assignment"] == [2, 1]


def test_cli_out_file_matches_stdout(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_c4())
    rc, out = run_cli(capsys, ["spectrum", path])
    assert rc == 0
    target = tmp_path / "spec.json"
    rc2, out2 = run_cli(capsys, ["spectrum", path, "--out", str(target)])
    assert rc2 == 0
    assert out2 == ""
    stored = target.read_text()
    # identical apart from the recorded argv
    assert json.loads(stored)["values"] == json.loads(out)["values"]


def test_cli_scale_env_and_flag(tmp_path, capsys, monkeypatch):
    path = write_graph_file(tmp_path, make_p3())
    monkeypatch.setenv(cli.SCALE_ENV, "2/3")
    rc, out = run_cli(capsys, ["graph", path])
    assert rc == 0
    assert json.loads(out)["manifest"]["scale"] == pytest.approx(2.0 / 3.0)
    rc, out = run_cli(capsys, ["graph", path, "--scale", "1"])
    assert json.loads(out)["manifest"]["scale"] == 1
    monkeypatch.delenv(cli.SCALE_ENV)
    rc, out = run_cli(capsys, ["graph", path, "--scale", "0.5"])
    assert rc == 1
    assert "scale" in json.loads(out)["error"]["message"]


def test_cli_scale_is_snapped_and_refused_by_the_config(tmp_path, capsys):
    # the CLI used to snap only within 1e-15 and refuse 0.6666666666667
    path = write_graph_file(tmp_path, make_p3())
    rc, out = run_cli(capsys, ["graph", path, "--scale", "0.6666666666667"])
    assert rc == 0
    assert '"scale": 0.66666666666666663,' in out
    assert json.loads(out)["manifest"]["scale"] == 2.0 / 3.0
    message = _validation_message(capsys, ["graph", path, "--scale", "0.5"])
    assert message == "laplacian_scale must be 1 or 2/3, got 0.5"


def test_cli_error_paths(tmp_path, capsys):
    rc, out = run_cli(capsys, ["graph", str(tmp_path / "missing.json")])
    assert rc == 1
    err = json.loads(out)["error"]
    assert err["type"] == "ValidationError"
    rc, out = run_cli(capsys, ["minimax", write_graph_file(tmp_path, make_p3())])
    assert rc == 1  # usage error: missing required arguments
    assert json.loads(out)["error"]["type"] == "ValidationError"
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["a", "b"], "edges": [["a", "a"]]}')
    rc, out = run_cli(capsys, ["graph", str(bad)])
    assert rc == 1
    assert json.loads(out)["error"]["type"] == "SelfLoopError"


def assert_one_json_validation_error(rc, out):
    assert rc == 1
    doc = json.loads(out)
    assert list(doc) == ["error"]
    assert doc["error"]["type"] == "ValidationError"
    assert doc["error"]["exit_code"] == 1


def test_cli_isolated_vertex_spectrum_and_heat_are_json_errors(tmp_path):
    path = write_graph_file(tmp_path, gc.Graph(["a", "b", "c"], [("a", "b")]))
    fn = tmp_path / "f.csv"
    fn.write_text("a,1\nb,0\nc,0.5\n")
    for argv in (
        ["spectrum", path, "--bc", "none", "--functions"],
        ["heat", path, str(fn), "--t-final", "1", "--steps", "2"],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "graphcalc.cli", *argv], capture_output=True
        )
        assert_one_json_validation_error(proc.returncode, proc.stdout)
        assert json.loads(proc.stdout)["error"]["message"] == "vertex 'c' is isolated"
        assert proc.stderr == b"", argv[0]


def test_cli_writes_utf8_whatever_the_locale(tmp_path):
    # a non-ASCII vertex id reaches the CSV body raw
    gpath = write_graph_file(tmp_path, gc.Graph(["a", "\u00e9", "c"], [("a", "\u00e9"), ("\u00e9", "c")]))
    fn = tmp_path / "fa.csv"
    fn.write_text("a,0.5\n")
    out = tmp_path / "out.csv"
    argv = [sys.executable, "-m", "graphcalc.cli", "dmf", gpath, str(fn),
            "--interior", "a", "--t-final", "1", "--steps", "2"]
    base = {k: v for k, v in os.environ.items()
            if k not in ("LANG", "PYTHONIOENCODING", "PYTHONUTF8", cli.SCALE_ENV) and not k.startswith("LC_")}

    def run(env, *extra):
        proc = subprocess.run(argv + list(extra), capture_output=True, env={**base, **env})
        assert proc.stderr == b""
        return proc.returncode, proc.stdout

    rc, want = run({"PYTHONIOENCODING": "utf-8"})
    assert rc == 0 and ",\u00e9,".encode() in want
    assert run({"PYTHONIOENCODING": "utf-8"}, "--out", str(out)) == (0, b"")
    want_file = out.read_bytes()
    for env, names in (
        ({"LC_ALL": "C", "PYTHONUTF8": "0"}, ("ascii",)),
        ({"PYTHONIOENCODING": "latin-1"}, ("latin-1", "iso8859-1")),
    ):
        out.unlink()
        assert run(env, "--out", str(out)) == (0, b""), env
        assert out.read_bytes() == want_file, env
        rc, stdout = run(env)
        assert_one_json_validation_error(rc, stdout)
        message = json.loads(stdout)["error"]["message"]
        assert "UTF-8" in message and any(repr(name) in message for name in names), message


@pytest.mark.parametrize("potential", ["linear:x,1", "sin:zz", "nan", "linear:1,inf"])
def test_cli_dmf_bad_potential_is_json_error(tmp_path, capsys, potential):
    path = write_graph_file(tmp_path, make_p3())
    fn = tmp_path / "f.csv"
    fn.write_text("b,1\n")
    argv = ["dmf", path, str(fn), "--interior", "b", "--potential", potential,
            "--t-final", "1", "--steps", "4"]
    assert_one_json_validation_error(*run_cli(capsys, argv))


def test_cli_transport_bad_profile_is_json_error(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_k2())
    fn = tmp_path / "f.csv"
    fn.write_text("a,0\nb,1\n")
    field = tmp_path / "w.csv"
    field.write_text("a,b,1\n")
    argv = ["transport", path, str(fn), "--field", str(field), "--profile", "linear:x,1",
            "--t-final", "1", "--dt", "0.5"]
    assert_one_json_validation_error(*run_cli(capsys, argv))


@pytest.mark.parametrize(
    "command, options, message",
    [
        # zero trials used to print every residual as 0 and exit 0
        ("identities", ["--trials", "0"], "trials must be at least 1, got 0"),
        ("identities", ["--trials", "-5"], "trials must be at least 1, got -5"),
        ("spectrum", ["--interior", " , "], "empty interior list"),
        ("dmf", ["--potential", "linear:1"], "linear potential needs 'linear:a,b'"),
        ("transport", ["--profile", "linear:1,2,3"], "linear profile needs 'linear:a,b'"),
    ],
)
def test_cli_refused_option_values_are_json_errors(tmp_path, capsys, command, options, message):
    rc, out = run_cli(capsys, one_call_per_command(tmp_path)[command] + options)
    assert_one_json_validation_error(rc, out)
    assert json.loads(out)["error"]["message"] == message


def test_seeds_outside_64_bits_are_refused(tmp_path, capsys):
    # reduced mod 2^64, --seed -1 used to print the residuals of 2^64 - 1
    for seed in (-1, 2**64, 2**64 + 1):
        message = f"seed must be in [0, 2**64), got {seed}"
        with pytest.raises(gc.ValidationError, match=re.escape(message)):
            gc.Lcg64(seed)
        rc, out = run_cli(capsys, one_call_per_command(tmp_path)["identities"] + [f"--seed={seed}"])
        assert_one_json_validation_error(rc, out)
        assert json.loads(out)["error"]["message"] == message
    assert gc.Lcg64(0).state == 0 and gc.Lcg64(2**64 - 1).state == 2**64 - 1


def test_cli_transport_exact_field_missing_pair_is_json_error(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_k2())
    fn = tmp_path / "f.csv"
    fn.write_text("a,0\nb,1\n")
    field = tmp_path / "w.csv"
    field.write_text("a,b,1\n")
    argv = ["transport", path, str(fn), "--field", str(field), "--field-mode", "exact",
            "--t-final", "1", "--dt", "0.5"]
    rc, out = run_cli(capsys, argv)
    assert rc == 1
    doc = json.loads(out)
    assert list(doc) == ["error"]
    assert doc["error"]["type"] == "DomainError"
    assert doc["error"]["exit_code"] == 1
    assert "(b, a)" in doc["error"]["message"]


@pytest.mark.parametrize(
    "command, options",
    [
        ("transport", ["--t-final", "1", "--dt", "nan"]),
        ("transport", ["--t-final", "inf", "--dt", "0.5"]),
        ("dmf", ["--interior", "b", "--t-final", "nan", "--steps", "2"]),
    ],
)
def test_cli_non_finite_option_is_json_error(tmp_path, capsys, command, options):
    path = write_graph_file(tmp_path, make_p3())
    fn = tmp_path / "f.csv"
    fn.write_text("a,0\nb,1\nc,0\n")
    field = tmp_path / "w.csv"
    field.write_text("a,b,1\n")
    extra = ["--field", str(field)] if command == "transport" else []
    argv = [command, path, str(fn), *extra, *options]
    assert_one_json_validation_error(*run_cli(capsys, argv))


def test_cli_unwritable_out_is_json_error(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_c4())
    target = tmp_path / "missing" / "g.json"
    assert_one_json_validation_error(*run_cli(capsys, ["graph", path, "--out", str(target)]))
    assert not target.parent.exists()


def test_cli_non_utf8_input_is_json_error(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + '{"vertices": ["a"], "edges": []}'.encode("utf-16-le"))
    rc, out = run_cli(capsys, ["graph", str(bad)])
    assert_one_json_validation_error(rc, out)
    message = json.loads(out)["error"]["message"]
    assert f"graph file {str(bad)!r} is not UTF-8" in message
    proc = subprocess.run(
        [sys.executable, "-m", "graphcalc.cli", "graph", str(bad)], capture_output=True
    )
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"]["message"] == message
    fn = tmp_path / "f.csv"
    fn.write_bytes(b"\xff\xfea,1\n")
    argv = ["cheeger", write_graph_file(tmp_path, make_p3()), "--function", str(fn)]
    rc, out = run_cli(capsys, argv)
    assert_one_json_validation_error(rc, out)
    assert f"function file {str(fn)!r}" in json.loads(out)["error"]["message"]


def test_cli_nan_csv_cell_is_json_error(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_p3())
    fn = tmp_path / "f.csv"
    fn.write_text("b,nan\n")
    argv = ["heat", path, str(fn), "--bc", "dirichlet", "--interior", "b",
            "--t-final", "1", "--steps", "2"]
    assert_one_json_validation_error(*run_cli(capsys, argv))


def numerical_error_message(capsys, argv):
    """The message of the one JSON NumericalError that argv must end in.
    The JSON error is the only signal: nothing, numpy warnings included,
    may reach stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert rc == 2, out
    doc = json.loads(out)
    assert list(doc) == ["error"]
    assert doc["error"]["type"] == "NumericalError"
    assert doc["error"]["exit_code"] == 2
    assert [str(w.message) for w in caught] == []
    assert err == ""
    return doc["error"]["message"]


def test_cli_heat_overflow_is_numerical_error(tmp_path, capsys):
    # the factor exp(-lambda t) overflows on P3; on P5 the data times the
    # degree does, and the coefficient sums meet inf - inf
    cases = [
        (make_p3(), "b,1\n", ["--interior", "b", "--potential", "-1000"]),
        (make_p5(), "b,1e308\nc,1e308\nd,1e308\n", ["--interior", "b,c,d"]),
    ]
    for k, (g, data, options) in enumerate(cases):
        path = write_graph_file(tmp_path, g)
        fn = tmp_path / f"f{k}.csv"
        fn.write_text(data)
        argv = ["heat", path, str(fn), "--bc", "dirichlet", *options]
        argv += ["--t-final", "1", "--steps", "2"]
        message = numerical_error_message(capsys, argv)
        assert message == "eigen-expansion overflowed: value at 'b' is not finite", k


def test_cli_dmf_overflow_is_numerical_error(tmp_path, capsys):
    # squares past the float range used to escape as Python's OverflowError
    # from ** 2; a step norm or energy that is not finite is reported instead.
    # With 1e308 and a small step the right-hand side u / h overflows too.
    path = write_graph_file(tmp_path, make_p3())
    for k, (value, steps) in enumerate([("1e160", "2"), ("1e308", "1000")]):
        fn = tmp_path / f"f{k}.csv"
        fn.write_text(f"b,{value}\n")
        argv = ["dmf", path, str(fn), "--interior", "b", "--t-final", "1", "--steps", steps]
        assert numerical_error_message(capsys, argv).startswith("dmf step overflowed: ")


def make_c5():
    return gc.Graph([f"v{i}" for i in range(5)], [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)])


def test_cli_transport_overflow_is_numerical_error(tmp_path, capsys):
    # the RK4 stages overflow in the first step and the states turn to nan
    path = write_graph_file(tmp_path, make_c5())
    fn = tmp_path / "f.csv"
    fn.write_text("".join(f"v{i},{0.1 * i}\n" for i in range(5)))
    field = tmp_path / "w.csv"
    field.write_text("".join(f"v{i},v{(i + 1) % 5},1e308\n" for i in range(5)))
    argv = ["transport", path, str(fn), "--field", str(field), "--t-final", "0.05", "--dt", "0.01"]
    message = numerical_error_message(capsys, argv)
    assert message == "transport overflowed: value at 'v0' is not finite at time 0.01"


def test_cli_spectrum_overflow_is_numerical_error(tmp_path, capsys):
    # the Householder reduction overflows; with 1e160 the eigenvalues used
    # to come out as "nan" at exit 0.  On K4 less an edge, 1e200 makes a
    # square infinite in the second column, so v0 = -sigma / inf is zero
    # and the division by it used to print a numpy warning
    k4e = gc.Graph(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")])
    for k, (g, potential) in enumerate(((make_c5(), "1e308"), (make_c5(), "1e160"), (k4e, "1e200"))):
        path = write_graph_file(tmp_path, g, f"g{k}.json")
        message = numerical_error_message(capsys, ["spectrum", path, "--potential", potential])
        assert message == "eigensolve overflowed: the tridiagonal form is not finite"


def test_cli_cheeger_functional_overflow_is_numerical_error(tmp_path, capsys):
    # the edge differences overflow; the ratio used to come out as "nan" at
    # exit 0, with numpy warnings on stderr
    path = write_graph_file(tmp_path, make_p3())
    fn = tmp_path / "f.csv"
    fn.write_text("a,1e308\nb,-1e308\nc,0\n")
    message = numerical_error_message(capsys, ["cheeger", path, "--function", str(fn)])
    assert message == "cheeger functional overflowed: a sum is not finite"


def test_cli_transport_state_bound_is_checked_before_stepping(tmp_path, capsys):
    # 10^10 + 1 states of 5 values each: rejected before the first step,
    # under an alarm so that a run that starts stepping fails instead of
    # hanging
    path = write_graph_file(tmp_path, make_c5())
    fn = tmp_path / "f.csv"
    fn.write_text("".join(f"v{i},{0.1 * i}\n" for i in range(5)))
    field = tmp_path / "w.csv"
    field.write_text("".join(f"v{i},v{(i + 1) % 5},1\n" for i in range(5)))
    argv = ["transport", path, str(fn), "--field", str(field), "--t-final", "1e10", "--dt", "1"]

    def stop(signum, frame):
        raise TimeoutError("transport started stepping")

    g = make_c5()
    f = gc.VertexFunction(g, {x: 0.0 for x in g.vertices})
    w = gc.VectorField(g, {(x, y): 1.0 for x in g.vertices for y in g.neighbors(x)})
    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        rc = cli.main(argv)
        steps = gc.TRANSPORT_MAX_VALUES // 5  # one state more than the bound allows
        with pytest.raises(gc.ValidationError, match="more than 10000000 values in all"):
            gc.transport_solve(g, w, f, float(steps), 1.0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = capsys.readouterr()
    assert rc == 1 and err == ""
    doc = json.loads(out)
    assert doc["error"]["type"] == "ValidationError"
    assert doc["error"]["message"] == (
        "transport would keep 10000000001 states of 5 values, more than 10000000 values in all"
    )


@pytest.mark.parametrize(
    "command, window",
    [("heat", ["--bc", "dirichlet", "--interior", "b"]), ("dmf", ["--interior", "b"])],
)
def test_cli_heat_and_dmf_state_bound_is_checked_first(tmp_path, capsys, command, window):
    # 10^8 + 1 states of P3's 3 closure values: rejected before the time
    # grid is built or the first step is solved, under an alarm as above
    path = write_graph_file(tmp_path, make_p3())
    fn = tmp_path / "f.csv"
    fn.write_text("a,0\nb,1\nc,0\n")
    argv = [command, path, str(fn), *window, "--t-final", "1", "--steps", "100000000"]

    def stop(signum, frame):
        raise TimeoutError(f"{command} started stepping")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(10)
    try:
        rc = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = capsys.readouterr()
    assert rc == 1 and err == ""
    assert json.loads(out)["error"] == {
        "type": "ValidationError",
        "message": (
            f"{command} would keep 100000001 states of 3 values, more than 10000000 values in all"
        ),
        "exit_code": 1,
    }


def test_dmf_run_state_bound_is_checked_before_any_solve(monkeypatch):
    g = make_p3()
    w = gc.build_window(g, ["b"])
    phi = gc.VertexFunction(g, {"a": 0.0, "b": 1.0, "c": 0.0})

    def no_solve(spec):
        raise AssertionError("dmf_run assembled its operator")

    monkeypatch.setattr(gc.evolution, "symmetric_matrix", no_solve)
    with pytest.raises(gc.ValidationError) as caught:
        gc.dmf_run(phi, 0.0, 1.0, 10**7, w)
    assert str(caught.value) == (
        "dmf would keep 10000001 states of 3 values, more than 10000000 values in all"
    )


def _option_choices(subcommand: str, option: str):
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return next(a for a in sub.choices[subcommand]._actions if option in a.option_strings).choices


def test_cli_choices_are_the_library_tuples():
    for command in ("spectrum", "heat"):
        assert _option_choices(command, "--bc") is gc.spectral.BOUNDARY_CONDITIONS
    assert _option_choices("transport", "--field-mode") is gc.io.FIELD_MODES


def test_cli_orthonormality_residual_matches_numpy(tmp_path, capsys):
    cases = [
        (make_c4(), []),
        (make_octahedron(), []),
        (make_p5(), ["--bc", "neumann", "--interior", "b,c,d"]),
        (make_p5(), ["--bc", "dirichlet", "--interior", "b,c,d", "--potential", "0.3"]),
    ]
    for g, extra in cases:
        path = write_graph_file(tmp_path, g)
        rc, out = run_cli(capsys, ["spectrum", path, "--functions", *extra])
        assert rc == 0
        doc = json.loads(out)
        inner = doc["interior"]
        phi = np.array([[doc["functions"][k][x] for k in doc["functions"]] for x in inner])
        deg = np.diag([float(g.degree(x)) for x in inner])
        want = float(np.max(np.abs(phi.T @ deg @ phi - np.eye(len(inner)))))
        assert abs(doc["orthonormality_residual"] - want) <= 1e-14, extra


def test_cli_version_exit_zero(capsys):
    assert cli.main(["--version"]) == 0
    out = capsys.readouterr().out
    assert gc.__version__ in out


def test_reused_parser_answers_as_a_fresh_one(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; usage errors, --version and a
    # rejected --scale leave nothing behind that a later call could see
    monkeypatch.delenv(cli.SCALE_ENV, raising=False)
    valid = list(one_call_per_command(tmp_path).values())
    gpath, fn = valid[0][1], str(tmp_path / "f.csv")
    errors = [
        ["heat", gpath, fn, "--t-final", "1"],  # usage error: --steps missing
        ["--version"],
        ["graph", gpath, "--scale", "0.5"],
    ]
    calls = errors + valid + errors
    env = {k: v for k, v in os.environ.items() if k != cli.SCALE_ENV}
    fresh = {}
    for argv in errors + valid:
        proc = subprocess.run(
            [sys.executable, "-m", "graphcalc.cli", *argv], capture_output=True, env=env
        )
        fresh[tuple(argv)] = (proc.returncode, proc.stdout)
    cli.build_parser.cache_clear()
    for argv in calls:
        rc, out = run_cli(capsys, argv)
        assert (rc, out.encode()) == fresh[tuple(argv)], argv
    assert [fresh[tuple(argv)][0] for argv in errors] == [1, 0, 1]
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)


def test_cli_runs_are_byte_identical(tmp_path, capsys):
    gpath = write_graph_file(tmp_path, make_p5())
    fn = tmp_path / "f.csv"
    fn.write_text("b,1\nc,0.5\nd,0.25\n")
    commands = [
        ["spectrum", gpath, "--bc", "dirichlet", "--interior", "b,c,d", "--functions"],
        ["identities", gpath, "--seed", "3", "--trials", "10"],
        ["dmf", gpath, str(fn), "--interior", "b,c,d", "--t-final", "1", "--steps", "8"],
        ["cheeger", gpath],
    ]
    for argv in commands:
        rc1, out1 = run_cli(capsys, argv)
        rc2, out2 = run_cli(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2, argv


def test_cli_output_independent_of_thread_count(tmp_path):
    gpath = write_graph_file(tmp_path, make_p5())
    argv = [
        sys.executable,
        "-m",
        "graphcalc.cli",
        "spectrum",
        gpath,
        "--bc",
        "dirichlet",
        "--interior",
        "b,c,d",
        "--functions",
    ]
    outs = []
    for threads in ("1", "4"):
        env = dict(os.environ)
        env["OMP_NUM_THREADS"] = threads
        env["OPENBLAS_NUM_THREADS"] = threads
        env["MKL_NUM_THREADS"] = threads
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# --- CLI paths held to the library call they make ----------------------------


def _csv_body(out: str) -> str:
    """A CSV document without its '# ...' note lines."""
    return "".join(line for line in out.splitlines(keepends=True) if not line.startswith("# "))


def test_cli_dmf_sin_and_csv_potentials_match_the_library(tmp_path, capsys):
    g = make_p5()
    path = write_graph_file(tmp_path, g)
    fn = tmp_path / "f.csv"
    fn.write_text("b,1\nc,0.5\nd,0.25\n")
    qn = tmp_path / "q.csv"
    qn.write_text("b,0.3\nc,-0.2\nd,0.1\n")
    w = gc.build_window(g, ["b", "c", "d"])
    f = gc.parse_vertex_function(fn.read_text(), g)
    for potential, lam in (
        ("sin:0.7", lambda t: 0.7 * math.sin(t)),
        (f"csv:{qn}", gc.parse_vertex_function(qn.read_text(), g)),
    ):
        argv = ["dmf", path, str(fn), "--interior", "b,c,d", "--potential", potential,
                "--t-final", "1.5", "--steps", "6"]
        rc, out = run_cli(capsys, argv)
        assert rc == 0, out
        run = gc.dmf_run(f, lam, 1.5, 6, w)
        assert _csv_body(out) == gc.render_trajectory_csv(run.times, run.states), potential


def test_cli_transport_linear_profile_matches_the_library(tmp_path, capsys):
    g = make_c4()
    path = write_graph_file(tmp_path, g)
    fn = tmp_path / "f.csv"
    fn.write_text("v0,1\nv1,-0.5\nv2,0.25\nv3,0\n")
    field = tmp_path / "w.csv"
    field.write_text("v0,v1,1\nv1,v2,-0.5\nv2,v3,2\nv3,v0,0.75\n")
    argv = ["transport", path, str(fn), "--field", str(field), "--profile", "linear:0.5,-0.25",
            "--t-final", "1", "--dt", "0.125"]
    rc, out = run_cli(capsys, argv)
    assert rc == 0, out
    base = gc.parse_vector_field(field.read_text(), g, "antisymmetrize")
    f = gc.parse_vertex_function(fn.read_text(), g)
    traj = gc.transport_solve(g, lambda t: base.scaled(0.5 + -0.25 * t), f, 1.0, 0.125)
    assert _csv_body(out) == gc.render_trajectory_csv(traj.times, traj.states)


def _validation_message(capsys, argv):
    rc, out = run_cli(capsys, argv)
    assert_one_json_validation_error(rc, out)
    return json.loads(out)["error"]["message"]


def test_cli_unknown_profile_unparsable_scale_and_zero_steps(tmp_path, capsys):
    path = write_graph_file(tmp_path, make_k2())
    fn = tmp_path / "f.csv"
    fn.write_text("a,0\nb,1\n")
    field = tmp_path / "w.csv"
    field.write_text("a,b,1\n")
    argv = ["transport", path, str(fn), "--field", str(field), "--profile", "cubic",
            "--t-final", "1", "--dt", "0.5"]
    assert _validation_message(capsys, argv) == "unknown profile 'cubic'"
    for scale in ("abc", "1/0"):
        message = _validation_message(capsys, ["graph", path, "--scale", scale])
        assert message == f"cannot parse scale {scale!r}"
    argv = ["heat", path, str(fn), "--t-final", "1", "--steps", "0"]
    assert _validation_message(capsys, argv) == "t-final must be positive and steps at least 1"


def test_cli_dmf_zero_step_is_json_error(tmp_path, capsys):
    # 5e-324 / 2 rounds to a zero step; the run used to end in a
    # ZeroDivisionError traceback
    path = write_graph_file(tmp_path, make_p3())
    fn = tmp_path / "f.csv"
    fn.write_text("b,1\n")
    argv = ["dmf", path, str(fn), "--interior", "b", "--t-final", "5e-324", "--steps", "2"]
    assert _validation_message(capsys, argv) == "step size must be positive"
    assert capsys.readouterr().err == ""


def test_cli_heat_zero_step_is_json_error(tmp_path, capsys):
    # 5e-324 / 3 rounds to a zero step, which used to be reported as a time
    # grid that is not strictly increasing
    path = write_graph_file(tmp_path, make_p3())
    fn = tmp_path / "f.csv"
    fn.write_text("b,1\n")
    argv = ["heat", path, str(fn), "--bc", "dirichlet", "--interior", "b", "--t-final", "5e-324",
            "--steps", "3"]
    assert _validation_message(capsys, argv) == "step size must be positive"
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "t_final, steps, message",
    [
        ("1", 0, "t-final must be positive and steps at least 1"),
        ("0", 3, "step size must be positive"),
        ("-1", 3, "step size must be positive"),
        ("5e-324", 3, "step size must be positive"),  # 5e-324 / 3 rounds to 0
        ("1", 10**8, "{run} would keep 100000001 states of 3 values, more than 10000000 values in all"),
    ],
    ids=["no-steps", "zero-t-final", "negative-t-final", "underflowed-step", "over-cap"],
)
def test_heat_and_dmf_share_one_time_grid_rule(tmp_path, capsys, t_final, steps, message):
    # the CLI's heat and dmf, dmf_run, and dmf_step with the grid's step
    # t_final / steps (so only where steps >= 1 and the cap is not hit) all
    # raise the same message, with the run's name in the cap's message
    g = make_p3()
    path = write_graph_file(tmp_path, g)
    fn = tmp_path / "f.csv"
    fn.write_text("b,1\n")
    for run, window in (("heat", ["--bc", "dirichlet", "--interior", "b"]), ("dmf", ["--interior", "b"])):
        argv = [run, path, str(fn), *window, f"--t-final={t_final}", "--steps", str(steps)]
        assert _validation_message(capsys, argv) == message.format(run=run), argv
    w = gc.build_window(g, ["b"])
    phi = gc.VertexFunction(g, {"b": 1.0})
    calls = [lambda: gc.dmf_run(phi, 0.0, float(t_final), steps, w)]
    if 1 <= steps < 10**7:
        calls.append(lambda: gc.dmf_step(phi, float(t_final) / steps, 0.0, w))
    for call in calls:
        with pytest.raises(gc.ValidationError) as caught:
            call()
        assert str(caught.value) == message.format(run="dmf")


def test_cli_transport_step_count_past_the_float_range_is_json_error(tmp_path, capsys):
    # t_final / dt overflows to inf, which round() used to raise OverflowError on
    path = write_graph_file(tmp_path, make_k2())
    fn = tmp_path / "f.csv"
    fn.write_text("a,0\nb,1\n")
    field = tmp_path / "w.csv"
    field.write_text("a,b,1\n")
    for t_final, dt in (("1", "5e-324"), ("1e308", "1e-200")):
        argv = ["transport", path, str(fn), "--field", str(field), "--t-final", t_final, "--dt", dt]
        message = _validation_message(capsys, argv)
        assert message == "transport would keep more than 10000000 values in all"
