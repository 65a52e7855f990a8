import os
from pathlib import Path

import pytest

import graphcalc as gc

# the CLI tests start `python -m graphcalc.cli` subprocesses; let them import
# this checkout's package without an install
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def make_p3() -> gc.Graph:
    return gc.Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])


def make_p5() -> gc.Graph:
    return gc.Graph(
        ["a", "b", "c", "d", "e"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
    )


def make_c4() -> gc.Graph:
    return gc.Graph(
        ["v0", "v1", "v2", "v3"],
        [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0")],
    )


def make_k2() -> gc.Graph:
    return gc.Graph(["a", "b"], [("a", "b")])


def make_k4() -> gc.Graph:
    return gc.Graph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")],
    )


def make_star4() -> gc.Graph:
    # K_{1,3}
    return gc.Graph(
        ["center", "u1", "u2", "u3"],
        [("center", "u1"), ("center", "u2"), ("center", "u3")],
    )


def make_octahedron() -> gc.Graph:
    verts = ["p1", "m1", "p2", "m2", "p3", "m3"]
    anti = {"p1": "m1", "m1": "p1", "p2": "m2", "m2": "p2", "p3": "m3", "m3": "p3"}
    edges = [
        (x, y)
        for i, x in enumerate(verts)
        for y in verts[i + 1 :]
        if anti[x] != y
    ]
    return gc.Graph(verts, edges)


def make_grid4() -> gc.Graph:
    names = [f"r{i}c{j}" for i in range(4) for j in range(4)]
    edges = []
    for i in range(4):
        for j in range(4):
            if j + 1 < 4:
                edges.append((f"r{i}c{j}", f"r{i}c{j+1}"))
            if i + 1 < 4:
                edges.append((f"r{i}c{j}", f"r{i+1}c{j}"))
    return gc.Graph(names, edges)


# the six fixture graphs named by the acceptance suite
FIXTURES = {
    "p3": make_p3,
    "p5": make_p5,
    "c4": make_c4,
    "k4": make_k4,
    "octahedron": make_octahedron,
    "grid4": make_grid4,
}


@pytest.fixture
def p3():
    return make_p3()


@pytest.fixture
def p5():
    return make_p5()


@pytest.fixture
def c4():
    return make_c4()


@pytest.fixture
def k2():
    return make_k2()


@pytest.fixture
def k4():
    return make_k4()


@pytest.fixture
def star4():
    return make_star4()


@pytest.fixture
def octahedron():
    return make_octahedron()


@pytest.fixture
def grid4():
    return make_grid4()


def fn(g: gc.Graph, values) -> gc.VertexFunction:
    return gc.VertexFunction(g, values)
