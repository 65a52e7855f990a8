"""The CLI's contract over extreme values: every subcommand ends in exit code
0, 1 or 2, writes nothing to stderr (numpy warnings are errors here), and a
document it accepts (exit 0) holds no nan or inf.

Graphs have at most 9 vertices.  Every number the CLI reads (CSV cells,
numeric options, potentials and profiles) is drawn from the float range's
edges (+-1e308, +-1e200, 1e160, +-5e-324, 0) and a few ordinary values.
"""

import contextlib
import io
import re
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import graphcalc as gc
import graphcalc.cli as cli

from helpers import VALUES, connected_graphs

NUMBER = st.sampled_from(VALUES).map(repr)
# times, steps and tolerances lean positive, so that more calls get past validation
POSITIVE = st.one_of(st.sampled_from([v for v in VALUES if v > 0]).map(repr), NUMBER)
# heat and dmf steps: none or fewer, a few, or enough to pass the kept-values cap
STEPS = st.integers(-2, 4) | st.integers(10**7, 10**9)
NOT_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)
COMMANDS = ["graph", "spectrum", "cheeger", "minimax", "heat", "transport", "dmf", "harmonic",
            "identities", "monge"]


def _csv(draw, names, width=1):
    return "".join(f"{x},{','.join(draw(NUMBER) for _ in range(width))}\n" for x in names)


def _put(root, name, text):
    path = root / name
    path.write_text(text)
    return str(path)


def _potential(draw, g, root, dynamic=False):
    kinds = ["none", "number", "csv"] + (["linear", "sin"] if dynamic else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "number":
        return draw(NUMBER)
    if kind == "csv":
        return "csv:" + _put(root, "q.csv", _csv(draw, g.vertices))
    if kind == "linear":
        return f"linear:{draw(NUMBER)},{draw(NUMBER)}"
    return "none" if kind == "none" else f"sin:{draw(NUMBER)}"


def _window(draw, g, with_bc=True):
    """--bc and --interior options with the interior's vertices; the
    interior is connected and leaves a boundary."""
    bc = draw(st.sampled_from(["none", "dirichlet", "neumann"])) if with_bc else "dirichlet"
    if bc == "none":
        return ["--bc", "none"], list(g.vertices)
    # each vertex after the first is a neighbor of one before it
    inner = [draw(st.sampled_from(g.vertices))]
    for _ in range(draw(st.integers(0, len(g) - 2))):
        inner.append(draw(st.sampled_from([y for x in inner for y in g.neighbors(x) if y not in inner])))
    return (["--bc", bc] if with_bc else []) + ["--interior", ",".join(inner)], inner


def _argv(draw, command, g, root):
    """The options and input files of one call after the graph."""
    if command == "graph":
        return []
    if command == "spectrum":
        window, _ = _window(draw, g)
        extra = ["--functions"] if draw(st.booleans()) else []
        return window + ["--potential=" + _potential(draw, g, root)] + extra
    if command == "cheeger":
        return ["--function", _put(root, "f.csv", _csv(draw, g.vertices))] if draw(st.booleans()) else []
    if command == "minimax":
        # src and dst lie below every other value unless they are neighbors
        src, dst = draw(st.lists(st.sampled_from(g.vertices), min_size=2, max_size=2, unique=True))
        text = _csv(draw, [x for x in g.vertices if x not in (src, dst)])
        text += f"{src},-1e308\n{dst},{draw(st.sampled_from(['-1e308', '-5e+307']))}\n"
        classify = ["--classify", draw(st.sampled_from(g.vertices))] if draw(st.booleans()) else []
        return [_put(root, "f.csv", text), "--src", src, "--dst", dst, *classify]
    if command == "heat":
        window, inner = _window(draw, g)
        return [_put(root, "f.csv", _csv(draw, inner)), *window,
                "--potential=" + _potential(draw, g, root),
                f"--t-final={draw(POSITIVE)}", "--steps", str(draw(STEPS))]
    if command == "transport":
        mode = draw(st.sampled_from(["exact", "antisymmetrize", "symmetrize"]))
        pairs = [*g.edges(), *((y, x) for x, y in g.edges())] if mode == "exact" else g.edges()
        field = _put(root, "w.csv", "".join(f"{x},{y},{draw(NUMBER)}\n" for x, y in pairs))
        profile = draw(st.sampled_from(["const", "sin", "linear"]))
        if profile == "linear":
            profile = f"linear:{draw(NUMBER)},{draw(NUMBER)}"
        dt = draw(POSITIVE)
        steps = draw(st.integers(1, 4))
        t_final = repr(float(dt) * steps) if draw(st.booleans()) else draw(POSITIVE)
        return [_put(root, "f.csv", _csv(draw, g.vertices)), "--field", field,
                "--field-mode", mode, "--profile", profile, f"--t-final={t_final}", f"--dt={dt}"]
    if command == "dmf":
        window, inner = _window(draw, g, with_bc=False)
        return [_put(root, "f.csv", _csv(draw, inner)), *window,
                "--potential=" + _potential(draw, g, root, dynamic=True),
                f"--t-final={draw(POSITIVE)}", "--steps", str(draw(STEPS))]
    if command == "harmonic":
        window, inner = _window(draw, g, with_bc=False)
        boundary = _csv(draw, [x for x in g.vertices if x not in inner], width=3)
        return [*window, "--boundary", _put(root, "b.csv", boundary), f"--tau={draw(POSITIVE)}",
                f"--tol={draw(POSITIVE)}", "--max-steps", str(draw(st.integers(1, 200)))]
    if command == "identities":
        return ["--seed", str(draw(st.integers(0, 99))), "--trials", str(draw(st.integers(1, 3)))]
    names = draw(st.lists(st.sampled_from(g.vertices), min_size=2, unique=True))
    half = len(names) // 2
    return ["--sources", ",".join(names[:half]), "--targets", ",".join(names[half : 2 * half])]


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(g=connected_graphs(), data=st.data())
def test_cli_exit_codes_stderr_and_finite_documents(tmp_path, command, g, data):
    graph = _put(tmp_path, "graph.json", gc.write_graph(g))
    argv = [command, graph, *_argv(data.draw, command, g, tmp_path)]
    if data.draw(st.booleans()):
        argv += ["--scale", "2/3"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, out.getvalue())
    assert err.getvalue() == "", argv
    if code == 0:
        assert not NOT_FINITE.search(out.getvalue()), argv
