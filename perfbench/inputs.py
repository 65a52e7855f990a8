"""Workload definitions and their seeded inputs.

Every workload is a list of operations.  An operation is either a
`graphcalc` CLI invocation (argv, written to --out in the run's work
directory, or captured from stdout for the fresh-process workload) or one
library-only call that `worker.py` knows by name.  Each operation carries the
rung of the workload's size ladder it runs on (0 = smallest) and the facts
the independent checks in `oracles.py` need.

The seed decides function values, field weights, the random graphs, the
rotation applied to sphere-valued boundary data and the identity-suite seed.
It never decides sizes, step counts or tolerances, so the work a pass does is
the same for every seed.

Regenerate the inputs of one workload without running anything:

    python3 perfbench/inputs.py --workload spectral-ladder --seed 1 --out DIR
"""

import argparse
import json
import math
import os
import random

WORKLOADS = ("spectral-ladder", "pointwise-flows", "cheeger-enum", "cli-small")


# ---------------------------------------------------------------------------
# graphs as (vertices, edges) with string ids in file order


def grid(rows, cols, diagonals=False):
    name = lambda i, j: f"r{i}c{j}"
    verts = [name(i, j) for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((name(i, j), name(i, j + 1)))
            if i + 1 < rows:
                edges.append((name(i, j), name(i + 1, j)))
            if diagonals and i + 1 < rows and j + 1 < cols:
                edges.append((name(i, j), name(i + 1, j + 1)))
    return verts, edges


def grid_interior(k):
    """Interior of the k x k grid window: every vertex off the outer ring."""
    return [f"r{i}c{j}" for i in range(1, k - 1) for j in range(1, k - 1)]


def cycle(n):
    verts = [f"v{i}" for i in range(n)]
    return verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)]


def complete(n):
    verts = [f"v{i}" for i in range(n)]
    return verts, [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]


def random_connected(rng, n, extra):
    """Random spanning tree plus exactly `extra` further edges."""
    verts = [f"v{i}" for i in range(n)]
    pairs = set()
    for i in range(1, n):
        pairs.add((rng.randrange(i), i))
    while len(pairs) < n - 1 + extra:
        i, j = rng.sample(range(n), 2)
        pairs.add((min(i, j), max(i, j)))
    return verts, [(verts[a], verts[b]) for a, b in sorted(pairs)]


def octahedron():
    """K_{2,2,2}: every pair except the antipodal ones p_i, m_i."""
    verts = ["p1", "m1", "p2", "m2", "p3", "m3"]
    return verts, [(x, y) for i, x in enumerate(verts) for y in verts[i + 1 :] if x[1] != y[1]]


FIXTURES = {
    "p3": (["a", "b", "c"], [("a", "b"), ("b", "c")]),
    "p5": (["a", "b", "c", "d", "e"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]),
    "c4": cycle(4),
    "k4": (["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]),
    "octahedron": octahedron(),
    "grid4": grid(4, 4),
}


def _num(x):
    return repr(float(x))


class Builder:
    """Writes input files into one directory and collects operations."""

    def __init__(self, workdir, seed):
        self.dir = workdir
        self.rng = random.Random(seed)
        self.seed = seed
        self.ops = []
        os.makedirs(os.path.join(workdir, "in"), exist_ok=True)
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def write(self, name, text):
        p = self.path("in", name)
        with open(p, "w") as fh:
            fh.write(text)
        return p

    def graph(self, name, verts, edges):
        doc = {"vertices": list(verts), "edges": [[a, b] for a, b in edges]}
        return self.write(name + ".json", json.dumps(doc, indent=1) + "\n")

    def function(self, name, verts, values=None):
        """CSV of the given values, or of values drawn uniformly from [-1, 1)."""
        vals = values or {v: self.rng.uniform(-1.0, 1.0) for v in verts}
        return self.write(name + ".csv", "vertex,value\n" + "".join(f"{v},{_num(vals[v])}\n" for v in verts))

    def op(self, ident, rung, check, argv=None, params=None, expect_fail=False, **facts):
        """A CLI operation (argv) or a library-only call (params).

        check names the oracle in oracles.py; facts are extra inputs for it.
        """
        entry = {"id": ident, "rung": rung, "check": check, "out": self.path("out", ident + ".out")}
        if argv is not None:
            entry["kind"], entry["argv"] = "cli", list(argv)
        else:
            entry["kind"], entry["params"] = "lib", params
        entry["expect_fail"] = expect_fail
        entry["facts"] = facts
        self.ops.append(entry)


def _rotation(rng):
    """Uniformly random proper rotation from a random unit quaternion."""
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(c * c for c in q))
    w, x, y, z = (c / n for c in q)
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]


def sphere_boundary(b, k, name):
    """Boundary map for the k x k grid window: a rotated twisted circle.

    Every seed sees the same circle up to a rigid rotation, and the harmonic
    flow commutes with rotations, so the flow takes the same steps on every
    seed while its outputs differ.
    """
    verts, _ = grid(k, k)
    inner = set(grid_interior(k))
    corners = {"r0c0", f"r0c{k - 1}", f"r{k - 1}c0", f"r{k - 1}c{k - 1}"}
    rot = _rotation(b.rng)
    rows = ["vertex,x,y,z\n"]
    for v in verts:
        if v in inner or v in corners:
            continue
        i, j = (int(t) for t in v[1:].split("c"))
        th = math.atan2(i - (k - 1) / 2, j - (k - 1) / 2)
        p = (math.cos(th), math.sin(th), 0.3 + 0.5 * math.sin(2 * th))
        q = [sum(rot[r][c] * p[c] for c in range(3)) for r in range(3)]
        rows.append(f"{v},{_num(q[0])},{_num(q[1])},{_num(q[2])}\n")
    return b.write(name, "".join(rows))


def _field(b, name, edges):
    rows = ["from,to,value\n"] + [f"{x},{y},{_num(b.rng.uniform(-1.0, 1.0))}\n" for x, y in edges]
    return b.write(name, "".join(rows))


def _minimax_function(b, name, verts):
    """Random values in [0, 1) with two planted strict minima at opposite corners."""
    vals = {v: b.rng.random() for v in verts}
    vals[verts[0]] = -2.0
    vals[verts[-1]] = -1.5
    return b.function(name, verts, values=vals), verts[0], verts[-1]


# ---------------------------------------------------------------------------
# workloads

SPECTRAL_RUNGS = (4, 6, 7)  # k x k grids: n = 16, 36, 49
HEAT_STEPS = 200
DMF_STEPS = 8


def spectral_ladder(b):
    for rung, k in enumerate(SPECTRAL_RUNGS):
        g = b.graph(f"grid{k}", *grid(k, k))
        inner = grid_interior(k)
        interior = ",".join(inner)
        f = b.function(f"f{k}", inner)
        b.op(f"spectrum-none-{k}", rung, "spectrum", ["spectrum", g, "--bc", "none", "--functions"])
        for bc in ("dirichlet", "neumann"):
            b.op(f"spectrum-{bc}-{k}", rung, "spectrum", ["spectrum", g, "--bc", bc, "--interior", interior])
        for bc in ("dirichlet", "neumann"):
            b.op(
                f"heat-{bc}-{k}",
                rung,
                "heat",
                ["heat", g, f, "--bc", bc, "--interior", interior, "--t-final", "2", "--steps", str(HEAT_STEPS)],
            )
        for tag, pot in (("static", "0.5"), ("linear", "linear:0.25,0.5")):
            b.op(
                f"dmf-{tag}-{k}",
                rung,
                "dmf",
                ["dmf", g, f, "--interior", interior, "--potential", pot, "--t-final", "1", "--steps", str(DMF_STEPS)],
            )
        if k == 6:
            params = {"graph": g, "interior": inner, "function": f}
            b.op("heat-kernel-apply-6", rung, "heat_kernel_apply", params=dict(params, call="heat_kernel_apply", t=0.75))
            b.op("green-apply-6", rung, "green_apply", params=dict(params, call="green_apply"))


def pointwise_flows(b):
    s = b.seed
    graphs = {k: b.graph(f"grid{k}", *grid(k, k)) for k in (6, 8, 10, 12, 20)}
    # identity suite on n = 36, 144, 400, with fewer trials as n grows
    for rung, (k, trials) in enumerate(((6, 10), (12, 5), (20, 2))):
        argv = ["identities", graphs[k], "--seed", str(1000 + 3 * s + rung), "--trials", str(trials)]
        b.op(f"identities-{k}", rung, "identities", argv)
    # harmonic maps on grid windows with interiors 16, 36, 64
    for rung, k in enumerate((6, 8, 10)):
        bnd = sphere_boundary(b, k, f"sphere{k}.csv")
        argv = ["harmonic", graphs[k], "--interior", ",".join(grid_interior(k)), "--boundary", bnd, "--tol", "1e-6"]
        b.op(f"harmonic-{k}", rung, "harmonic", argv)
    # transport under a time-dependent field, 200 RK4 steps
    for rung, k in ((0, 6), (2, 10)):
        verts, edges = grid(k, k)
        f = b.function(f"u{k}", verts)
        w = _field(b, f"field{k}.csv", edges)
        argv = ["transport", graphs[k], f, "--field", w, "--profile", "sin", "--t-final", "2", "--dt", "0.01"]
        b.op(f"transport-{k}", rung, "transport", argv)
    # minimax between planted minima on triangulated grids, whose
    # neighbourhoods are connected, so the classifier searches for arcs
    for rung, k in ((0, 6), (2, 10)):
        verts, edges = grid(k, k, diagonals=True)
        g = b.graph(f"tri{k}", verts, edges)
        f, src, dst = _minimax_function(b, f"level{k}", verts)
        b.op(f"minimax-{k}", rung, "minimax", ["minimax", g, f, "--src", src, "--dst", dst])
    # library-only audits on the 8 x 8 window (interior 36)
    inner = grid_interior(8)
    params = {"graph": graphs[8], "interior": inner, "function": b.function("audit8", inner)}
    b.op("heat-identities-8", 1, "heat_identities", params=dict(params, call="heat_identities", steps=50, dt=0.01))
    b.op(
        "courant-fischer-8",
        1,
        "courant_fischer",
        params=dict(params, call="courant_fischer", j=3, seed=s, samples=100, subspaces=20),
    )


CHEEGER_RUNGS = (16, 18, 20)


def cheeger_enum(b):
    shapes = {
        16: [("grid", grid(4, 4)), ("cycle", cycle(16)), ("complete", complete(16)), ("random", None)],
        18: [("grid", grid(3, 6)), ("cycle", cycle(18)), ("random", None)],
        20: [("random", None)],
    }
    for rung, n in enumerate(CHEEGER_RUNGS):
        for shape, ve in shapes[n]:
            verts, edges = ve if ve is not None else random_connected(b.rng, n, n // 2)
            name = f"{shape}{n}"
            g = b.graph(name, verts, edges)
            f = b.function("fn-" + name, verts)
            b.op(f"cheeger-{name}", rung, "cheeger", ["cheeger", g, "--function", f], shape=shape)


def cli_small(b):
    s = b.seed
    gp = {name: b.graph(name, *FIXTURES[name]) for name in FIXTURES}
    fb = b.write("fb.csv", f"b,{_num(0.5 + b.rng.random())}\n")
    f5 = b.function("f5", ["b", "c", "d"])
    fc4 = b.function("fc4", FIXTURES["c4"][0])
    wc4 = _field(b, "wc4.csv", FIXTURES["c4"][1])
    saddle = b.write("saddle.csv", "p1,0\nm1,0\np2,1\nm2,1\np3,1\nm3,1\n")
    bnd = b.write("bnd.csv", "m1,1,0,0\nm2,0,1,0\np3,0,0,1\nm3,1,1,1\n")
    fnan = b.write("fnan.csv", "b,nan\nc,0.5\nd,0.25\n")
    small = [
        ("graph-c4", ["graph", gp["c4"]]),
        ("spectrum-grid4", ["spectrum", gp["grid4"], "--functions"]),
        ("cheeger-octahedron", ["cheeger", gp["octahedron"]]),
        ("minimax-octahedron", ["minimax", gp["octahedron"], saddle, "--src", "p1", "--dst", "m1"]),
        ("heat-p5", ["heat", gp["p5"], f5, "--bc", "dirichlet", "--interior", "b,c,d", "--t-final", "1", "--steps", "8"]),
        ("transport-c4", ["transport", gp["c4"], fc4, "--field", wc4, "--t-final", "1", "--dt", "0.01"]),
        ("dmf-p3", ["dmf", gp["p3"], fb, "--interior", "b", "--t-final", "1", "--steps", "4"]),
        ("harmonic-octahedron", ["harmonic", gp["octahedron"], "--interior", "p1,p2", "--boundary", bnd]),
        ("identities-k4", ["identities", gp["k4"], "--seed", str(s), "--trials", "60"]),
        ("monge-c4", ["monge", gp["c4"], "--sources", "v0,v1", "--targets", "v2,v3"]),
    ]
    for ident, argv in small:
        b.op(ident, 0, argv[0], argv)

    k = 6
    verts, edges = grid(k, k)
    g = b.graph("grid6", verts, edges)
    interior = ",".join(grid_interior(k))
    f = b.function("f6", grid_interior(k))
    large = [
        ("spectrum-grid6", ["spectrum", g, "--bc", "neumann", "--interior", interior]),
        ("heat-grid6", ["heat", g, f, "--bc", "neumann", "--interior", interior, "--t-final", "1", "--steps", "20"]),
        ("dmf-grid6", ["dmf", g, f, "--interior", interior, "--potential", "linear:0.25,0.5", "--t-final", "1", "--steps", "8"]),
        ("identities-grid6", ["identities", g, "--seed", str(s), "--trials", "10"]),
    ]
    for ident, argv in large:
        b.op(ident, 1, argv[0], argv)

    # The README promises a one-object JSON diagnostic on stdout with exit
    # code 1 for each of these; they count as failed until that holds.
    missing = b.path("out", "missing-dir", "graph.json")
    dmf_p3 = ["dmf", gp["p3"], fb, "--interior", "b", "--t-final", "1", "--steps", "4", "--potential"]
    faults = [
        ("fault-linear-potential", dmf_p3 + ["linear:x,1"]),
        ("fault-sin-potential", dmf_p3 + ["sin:zz"]),
        ("fault-out-missing-dir", ["graph", gp["c4"], "--out", missing]),
        ("fault-nan-potential", dmf_p3 + ["nan"]),
        ("fault-nan-cell", ["heat", gp["p5"], fnan, "--bc", "dirichlet", "--interior", "b,c,d", "--t-final", "1", "--steps", "8"]),
    ]
    for ident, argv in faults:
        b.op(ident, 0, "diagnostic", argv, expect_fail=True)


BUILDERS = {
    "spectral-ladder": spectral_ladder,
    "pointwise-flows": pointwise_flows,
    "cheeger-enum": cheeger_enum,
    "cli-small": cli_small,
}


def build(workload, seed, workdir):
    """Write the workload's inputs under workdir and return its operations."""
    b = Builder(workdir, seed)
    BUILDERS[workload](b)
    return b.ops


def main():
    ap = argparse.ArgumentParser(description="Write one workload's inputs and its operation list.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the inputs and ops.json")
    a = ap.parse_args()
    ops = build(a.workload, a.seed, a.out)
    with open(os.path.join(a.out, "ops.json"), "w") as fh:
        json.dump(ops, fh, indent=1)
    print(f"{len(ops)} operations, inputs under {a.out}")


if __name__ == "__main__":
    main()
