import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphcalc as gc
import graphcalc.cli as cli

from conftest import make_c4, make_k2, make_octahedron, make_p3, make_p5

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
    with pytest.raises(gc.SelfLoopError):
        gc.parse_graph('{"vertices": ["a", "b"], "edges": [["a", "a"]]}')
    with pytest.raises(gc.DanglingEndpointError):
        gc.parse_graph('{"vertices": ["a", "b"], "edges": [["a", "z"]]}')
    with pytest.raises(gc.DuplicateEdgeError):
        gc.parse_graph('{"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}')


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


def test_csv_renderers_round_trip(p3):
    f = gc.VertexFunction(p3, {"a": 1.0 / 3.0, "b": -2.5e-17, "c": 7.0})
    text = gc.render_vertex_function_csv(f, ["manifest: {}"])
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
    text = gc.render_trajectory_csv([0.0, 0.5], [f, f], ["note"])
    lines = text.splitlines()
    assert lines[0] == "# note"
    assert lines[1] == "time,vertex,value"
    assert lines[2] == "0,a,0"
    assert lines[5] == "0.5,a,0"


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
    back = gc.parse_vertex_function(gc.render_vertex_function_csv(f, ["manifest: {}"]), g)
    assert back.domain == f.domain
    assert [v.hex() for v in back.values.values()] == [v.hex() for v in f.values.values()]


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
