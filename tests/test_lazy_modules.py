"""The package registers its submodules and runs each on first use; its
public namespace is the export table in `graphcalc/__init__.py`."""

import json
import subprocess
import sys

import graphcalc as gc

from conftest import make_c4

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
