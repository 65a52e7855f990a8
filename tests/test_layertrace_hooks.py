"""perfbench/layertrace.py finds graphcalc's layers by wrapping functions by
name, so a rename or a method moved to a base class breaks a traced
benchmark run.  Every name it hooks must still resolve."""

import sys
from collections import defaultdict
from pathlib import Path

import graphcalc.cli  # registers every module; each loads on first use
from graphcalc.graph import VertexFunction

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _load_layertrace() -> dict:
    # compiled from its source rather than imported, so nothing is written
    # next to it
    namespace = {"__name__": "layertrace"}
    exec(compile(LAYERTRACE.read_text(), str(LAYERTRACE), "exec"), namespace)
    return namespace


def test_every_layertrace_hook_resolves():
    lt = _load_layertrace()
    hooked = [(mod, attr) for mod, attr, _ in lt["TIMED"]]
    hooked += list(lt["_count_hooks"](defaultdict(int)))
    assert len(hooked) > len(lt["TIMED"])
    for modname, attr in hooked:
        assert modname in sys.modules, modname
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(mod, cls_name)), f"{modname}.{attr}"
        else:
            assert callable(getattr(mod, attr, None)), f"{modname}.{attr}"
    assert callable(VertexFunction.__dict__["value"])
    assert callable(graphcalc.cli._emit)
