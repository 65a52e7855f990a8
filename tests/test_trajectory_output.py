"""Trajectories go from the solver's array to the output file state by state.

Solver results share one array and build their values dict only when it is
read; the CLI renders a trajectory one state at a time and writes it in
batches, opening --out only after the solver has returned."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import graphcalc as gc
import graphcalc.cli as cli
from graphcalc.graph import gather

from conftest import make_p3
from helpers import grid_graph, grid_interior, reference_transport_states, rowwise_heat
from test_layertrace_hooks import _load_layertrace


def _grid_files(tmp_path, k: int) -> tuple[str, str, str]:
    """The k x k grid, a function on every vertex and a field on every edge,
    written to files: (graph, function, field) paths."""
    g = grid_graph(k)
    (tmp_path / "g.json").write_text(gc.write_graph(g))
    (tmp_path / "f.csv").write_text("".join(f"{x},{math.sin(1.0 + i)!r}\n" for i, x in enumerate(g.vertices)))
    (tmp_path / "w.csv").write_text(
        "".join(f"{x},{y},{math.cos(2.0 + i)!r}\n" for i, (x, y) in enumerate(g.edges()))
    )
    return str(tmp_path / "g.json"), str(tmp_path / "f.csv"), str(tmp_path / "w.csv")


def _transport_argv(tmp_path, k: int, dt: str) -> list[str]:
    graph, function, field = _grid_files(tmp_path, k)
    return ["transport", graph, function, "--field", field, "--t-final", "1", "--dt", dt]


# ---------------------------------------------------------------------------
# memory


def test_transport_to_out_peaks_below_the_file_it_writes(tmp_path, capsys):
    warm = tmp_path / "warm"
    warm.mkdir()
    assert cli.main(_transport_argv(warm, 3, "0.5") + ["--out", str(warm / "u.csv")]) == 0
    argv = _transport_argv(tmp_path, 10, "0.001") + ["--out", str(tmp_path / "u.csv")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "u.csv").stat().st_size
    rows = (tmp_path / "u.csv").read_text().count("\n")
    assert rows == 2 + 1001 * 100  # the manifest, the header and 1,001 states
    assert peak < size, (peak, size)
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# deferred dicts


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def _dict_backed(g: gc.Graph, xs, vals) -> gc.VertexFunction:
    return gc.VertexFunction(g, dict(zip(xs, vals.tolist())))


def _check_deferred(funcs, refs) -> None:
    """funcs build no dict through domain or a gather in their own order,
    and once read agree with the dict-backed refs, hex for hex."""
    funcs = list(funcs)
    assert funcs and all("values" not in vars(f) for f in funcs)
    for f in funcs:
        gather(f, f.domain)
    assert all("values" not in vars(f) for f in funcs)
    for f, ref in zip(funcs, refs, strict=True):
        assert f.domain == ref.domain
        assert _hexes(gather(f, f.domain)) == _hexes(gather(ref, ref.domain))
        backwards = ref.domain[::-1]
        assert _hexes(gather(f, backwards)) == _hexes(gather(ref, backwards))
        assert list(f.values) == list(ref.values)
        assert _hexes(f.values.values()) == _hexes(ref.values.values())
        assert [type(f.value(x)) for x in ref.domain] == [float] * len(ref.domain)
        assert _hexes(map(f.value, ref.domain)) == _hexes(map(ref.value, ref.domain))
        assert all(x in f for x in ref.domain)
        keep = ref.domain[::2]
        assert f.restrict(keep).values == ref.restrict(keep).values


def test_eigensystem_functions_build_values_on_first_read():
    g = grid_graph(6)
    for region, bc in ((g, "none"), (gc.build_window(g, grid_interior(6)), "dirichlet")):
        spec = gc.OperatorSpec(region, bc)
        es = gc.eigensystem(spec)
        refs = [_dict_backed(g, spec.closure, es.vectors[:, j]) for j in range(len(es))]
        _check_deferred(es.functions, refs)


def test_heat_states_build_values_on_first_read():
    g = grid_graph(6)
    w = gc.build_window(g, grid_interior(6))
    f = gc.VertexFunction(g, {x: math.sin(1.0 + i) for i, x in enumerate(w.interior)})
    times = [0.1 * k for k in range(6)]
    for spec in (gc.OperatorSpec(w, "dirichlet"), gc.OperatorSpec(w, "neumann")):
        traj = gc.spectral_heat_solve(spec, f, times)
        es = gc.eigensystem(spec)
        refs = [gc.VertexFunction(g, u.values) for u in rowwise_heat(es, f, times)]
        _check_deferred(traj.states, refs)


def test_transport_states_build_values_on_first_read():
    g = grid_graph(4)
    f0 = gc.VertexFunction(g, {x: math.sin(1.0 + i) for i, x in enumerate(g.vertices)})
    field = gc.random_antisymmetric_field(g, gc.Lcg64(7))
    traj = gc.transport_solve(g, field, f0, 0.5, 0.05)
    refs = [_dict_backed(g, g.vertices, row) for row in reference_transport_states(g, field, f0, 10, 0.05)]
    _check_deferred(traj.states, refs)


def test_dmf_states_build_values_on_first_read():
    g = grid_graph(5)
    w = gc.build_window(g, grid_interior(5))
    phi = gc.VertexFunction(g, {x: math.sin(1.0 + i) for i, x in enumerate(w.interior)})
    run = gc.dmf_run(phi, 0.5, 1.0, 4, w)
    assert all(s is r.u_next for s, r in zip(run.states[1:], run.reports))
    # the reference: every state's closure values read through a gather off
    # its own order, which goes through the dict of a fresh run's function
    fresh = gc.dmf_run(phi, 0.5, 1.0, 4, w)
    refs = [_dict_backed(g, w.closure, gather(u, w.closure)) for u in fresh.states]
    _check_deferred(run.states, refs)
    outside = next(x for x in g.vertices if x not in w.closure)
    with pytest.raises(gc.DomainError):
        gather(run.states[-1], [outside])


# ---------------------------------------------------------------------------
# failed runs


@pytest.mark.parametrize(
    "extra, error",
    [
        (["--potential", "5", "--t-final", "4", "--steps", "4"], "IndefiniteStepError"),
        (["--potential", "-1000", "--t-final", "1", "--steps", "2"], "NumericalError"),
    ],
)
def test_failed_trajectory_run_leaves_out_untouched(tmp_path, capsys, extra, error):
    path = tmp_path / "p3.json"
    path.write_text(gc.write_graph(make_p3()))
    fn = tmp_path / "f.csv"
    fn.write_text("b,1\n")
    out = tmp_path / "out.csv"
    before = b"kept,\xff\n# not graphcalc's\n"
    out.write_bytes(before)
    command = "dmf" if error == "IndefiniteStepError" else "heat"
    window = ["--interior", "b"] + (["--bc", "dirichlet"] if command == "heat" else [])
    code = cli.main([command, str(path), str(fn), *window, *extra, "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"]["type"] == error
    assert out.read_bytes() == before


# ---------------------------------------------------------------------------
# the layer tracer's view of the writes


def test_layertrace_counts_every_batch_of_a_trajectory(tmp_path, capsys, monkeypatch):
    graph, function, field = _grid_files(tmp_path, 6)
    inner = grid_interior(6)
    (tmp_path / "fi.csv").write_text("".join(f"{x},{math.sin(1.0 + i)!r}\n" for i, x in enumerate(inner)))
    runs = {
        "heat": ["heat", graph, function, "--t-final", "1", "--steps", "400"],
        "transport": ["transport", graph, function, "--field", field, "--t-final", "1", "--dt", "0.0025"],
        "dmf": ["dmf", graph, str(tmp_path / "fi.csv"), "--interior", ",".join(inner), "--t-final", "1",
                "--steps", "300"],
    }
    original = cli._emit
    tracer = _load_layertrace()["LayerTracer"]()
    tracer.install()
    try:
        counted = cli._emit
        kinds = []

        def typed_emit(text, out):
            kinds.append(type(text))
            return counted(text, out)

        monkeypatch.setattr(cli, "_emit", typed_emit)
        for name, argv in runs.items():
            for to_file in (True, False):
                tracer.reset()
                kinds.clear()
                out = tmp_path / f"{name}.csv"
                assert cli.main(argv + ["--out", str(out)] if to_file else argv) == 0
                written = out.read_bytes() if to_file else capsys.readouterr().out.encode("utf-8")
                assert len(written) > 2 * cli.BATCH, name  # several batches
                assert len(kinds) > 2 and set(kinds) == {str}, (name, to_file)
                assert tracer.snapshot()["io.bytes_out"] == len(written), (name, to_file)
    finally:
        monkeypatch.undo()
        tracer.uninstall()
    assert cli._emit is original


def test_refusal_on_a_non_utf8_stdout_comes_before_the_first_batch(tmp_path):
    # each state's rows are longer than a batch, so the head alone would go
    # first; the non-ASCII id is the last vertex
    names = [f"v{i}" for i in range(2999)] + ["é"]
    g = gc.Graph(names, list(zip(names, names[1:])))
    (tmp_path / "g.json").write_text(gc.write_graph(g))
    (tmp_path / "f.csv").write_text("".join(f"{x},{math.sin(i)!r}\n" for i, x in enumerate(names)))
    (tmp_path / "w.csv").write_text("".join(f"{x},{y},{i % 3}\n" for i, (x, y) in enumerate(g.edges())))
    argv = [sys.executable, "-m", "graphcalc.cli", "transport", str(tmp_path / "g.json"),
            str(tmp_path / "f.csv"), "--field", str(tmp_path / "w.csv"), "--t-final", "1", "--dt", "1"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUTF8" and not k.startswith("LC_")}
    proc = subprocess.run(argv, capture_output=True, env={**env, "PYTHONIOENCODING": "latin-1"})
    assert proc.returncode == 1 and proc.stderr == b""
    assert "UTF-8" in json.loads(proc.stdout)["error"]["message"]
    proc = subprocess.run(argv, capture_output=True, env={**env, "PYTHONIOENCODING": "utf-8"})
    assert proc.returncode == 0 and len(proc.stdout) > 2 * cli.BATCH
    assert proc.stdout.count(",é,".encode()) == 2  # once per state
