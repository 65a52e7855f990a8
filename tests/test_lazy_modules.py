"""The package registers its submodules and runs each on first use; its
public namespace is the export table in `graphcalc/__init__.py`."""

import ast
import importlib.abc
import importlib.util
import json
import subprocess
import sys
import types

import pytest

import graphcalc as gc

from conftest import make_c4, make_octahedron, make_p3, make_p5

SOLVERS = ("spectral", "linalg", "evolution", "constants", "minimax", "harmonic")


def test_star_import_binds_the_export_table():
    namespace = {}
    exec("from graphcalc import *", namespace)
    del namespace["__builtins__"]
    assert len(gc.__all__) == len(set(gc.__all__)) == 142
    assert set(namespace) == set(gc.__all__) <= set(dir(gc))
    for module, names in gc._EXPORTS.items():
        owner = sys.modules[f"graphcalc.{module}"]
        assert getattr(gc, module) is namespace[module] is owner
        for name in names.split():
            assert getattr(gc, name) is namespace[name] is getattr(owner, name), name
    assert gc.eigensystem is gc.spectral.eigensystem
    assert gc.spectral.BOUNDARY_CONDITIONS is gc.graph.BOUNDARY_CONDITIONS
    assert not hasattr(gc, "no_such_name")


# loaded means the module's class is no longer the lazy loader's subclass
SCRIPT = """
import json, sys, types
import graphcalc.cli
graph, out = sys.argv[1:]
loaded = lambda names: [n for n in names if type(sys.modules["graphcalc." + n]) is types.ModuleType]
report = []
for command in ("graph", "spectrum"):
    assert graphcalc.cli.main([command, graph, "--out", out]) == 0
    report.append(loaded(%r))
report.append(loaded(["jacobi"]))
import graphcalc.jacobi
report.append(loaded(["jacobi"]))
print(json.dumps(report))
""" % (SOLVERS,)


def test_cli_runs_only_the_modules_its_subcommand_needs(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(gc.write_graph(make_c4()))
    argv = [sys.executable, "-c", SCRIPT, str(path), str(tmp_path / "out")]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # an import statement runs a registered module at once
    assert json.loads(proc.stdout) == [[], ["spectral", "linalg"], [], ["jacobi"]]
    # a lazily registered graphcalc.cli would make runpy warn on stderr here
    argv = [sys.executable, "-m", "graphcalc.cli", "graph", str(path)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["vertices"] == 4


# eight threads, two of them on one module, first read their names at once
RACE = """
import sys, threading
sys.setswitchinterval(1e-6)
import graphcalc as gc
names = [("evolution", "dmf_run"), ("evolution", "transport_solve"), ("spectral", "eigensystem"),
         ("linalg", "eigh"), ("constants", "cheeger_constants"), ("minimax", "find_minimax"),
         ("harmonic", "dirichlet_minimize"), ("harmonic", "SphereMap")]
barrier = threading.Barrier(len(names))
failed = []
def read(module, name):
    barrier.wait()
    try:
        getattr(getattr(gc, module), name)
    except Exception as exc:
        failed.append(repr(exc))
threads = [threading.Thread(target=read, args=pair) for pair in names]
for t in threads:
    t.start()
for t in threads:
    t.join(30)
print(failed, sum(t.is_alive() for t in threads))
"""


# the subcommands and refusals that compute no array, then one that does
NO_ARRAYS = """
import contextlib, io, json, sys
import graphcalc.cli
calls = json.loads(sys.argv[1])
report = [sorted(n for n in sys.modules if n.split(".")[0] == "numpy")]
for argv in calls:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = graphcalc.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    report.append([argv[0], code, "numpy" in sys.modules])
import numpy
report.append([graphcalc.graph.np.bincount is numpy.bincount, hasattr(graphcalc.graph.np, "__path__")])
print(json.dumps(report))
"""


def test_cli_loads_numpy_only_when_a_subcommand_computes_with_arrays(tmp_path):
    files = {"c4": make_c4(), "octahedron": make_octahedron(), "p3": make_p3(), "p5": make_p5()}
    for name, g in files.items():
        (tmp_path / f"{name}.json").write_text(gc.write_graph(g))
    path = {name: str(tmp_path / f"{name}.json") for name in files}
    for name, text in [("saddle", "p1,0\nm1,0\np2,1\nm2,1\np3,1\nm3,1\n"),
                       ("fnan", "b,nan\nc,0.5\nd,0.25\n"), ("fb", "b,0.75\n")]:
        (tmp_path / f"{name}.csv").write_text(text)
        path[name] = str(tmp_path / f"{name}.csv")
    out = str(tmp_path / "out.json")
    calls = [
        ["graph", path["c4"], "--out", out],
        ["monge", path["c4"], "--sources", "v0,v1", "--targets", "v2,v3", "--out", out],
        ["minimax", path["octahedron"], path["saddle"], "--src", "p1", "--dst", "m1", "--out", out],
        ["--version"],
        ["heat", path["p5"], path["fnan"], "--bc", "dirichlet", "--interior", "b,c,d", "--t-final", "1"],
        ["dmf", path["p3"], path["fb"], "--interior", "b", "--t-final", "1", "--potential", "nan"],
        ["graph", path["c4"], "--out", str(tmp_path / "missing" / "graph.json")],
        ["spectrum", path["c4"], "--out", out],
    ]
    proc = subprocess.run([sys.executable, "-c", NO_ARRAYS, json.dumps(calls)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, *runs, same = json.loads(proc.stdout)
    assert loaded == []
    assert runs == [
        ["graph", 0, False],
        ["monge", 0, False],
        ["minimax", 0, False],
        ["--version", 0, False],
        ["heat", 1, False],
        ["dmf", 1, False],
        ["graph", 1, False],
        ["spectrum", 0, True],
    ]
    # names read through graphcalc._numpy are numpy's own objects, but not
    # numpy's __path__, which would make it a second numpy package
    assert same == [True, False]


NUMPY_FREE = ("errors", "rng", "graph", "calculus", "io", "cli")


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_front_end_modules_read_numpy_only_through_the_private_module(name):
    path = importlib.util.find_spec(f"graphcalc.{name}").origin
    tree = ast.parse(open(path).read())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not {m for m in imported if m and m.split(".")[0] == "numpy"}, path


def test_threads_that_first_use_a_module_at_once_wait_for_its_run():
    proc = subprocess.run([sys.executable, "-c", RACE], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 0\n"


def test_a_module_whose_run_fails_runs_again_on_next_use():
    class Flaky(importlib.abc.Loader):
        runs = 0

        def create_module(self, spec):
            return None

        def exec_module(self, module):
            self.runs += 1
            if self.runs == 1:
                raise RuntimeError("first run fails")
            module.answer = 42

    module = importlib.util.module_from_spec(importlib.util.spec_from_loader("probe", Flaky()))
    module.__class__ = gc._Lazy
    with pytest.raises(RuntimeError, match="first run fails"):
        module.answer
    assert type(module) is gc._Lazy
    assert module.answer == 42 and type(module) is types.ModuleType
