"""Checks of every operation's output, computed apart from graphcalc.

Nothing here imports graphcalc.  Operators are assembled from the edge list
as the README defines them (random-walk Laplacian, degree-weighted inner
product, Dirichlet zero / Neumann interior-mean boundary values) and solved
with numpy, scipy and networkx.  `check(op)` raises CheckFailed with the
reason when an output is wrong.
"""

import itertools
import json
import math

import networkx as nx
import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

EIG_TOL = 1e-10
STATE_TOL = 1e-10
IDENTITY_TOL = 1e-12


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# inputs and outputs


class GraphData:
    def __init__(self, path):
        with open(path) as fh:
            doc = json.load(fh)
        self.vertices = doc["vertices"]
        self.edges = [tuple(e) for e in doc["edges"]]
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.nx = nx.Graph()
        self.nx.add_nodes_from(self.vertices)
        self.nx.add_edges_from(self.edges)
        self.deg = {v: self.nx.degree(v) for v in self.vertices}

    def window(self, interior):
        """(interior, boundary) in file order."""
        inner = set(interior)
        s = [v for v in self.vertices if v in inner]
        b = [v for v in self.vertices if v not in inner and any(w in inner for w in self.nx[v])]
        return s, b

    def operator(self, interior, bc):
        """Degree-conjugated matrix D^(1/2) L D^(-1/2) of L = -laplacian on the interior."""
        s, boundary = self.window(interior)
        pos = {v: i for i, v in enumerate(s)}
        sq = np.sqrt([self.deg[v] for v in s])
        m = np.eye(len(s))
        for a, b in self.edges:
            if a in pos and b in pos:
                m[pos[a], pos[b]] -= 1.0 / (sq[pos[a]] * sq[pos[b]])
                m[pos[b], pos[a]] -= 1.0 / (sq[pos[a]] * sq[pos[b]])
        if bc == "neumann":  # f(b) is the mean of b's interior neighbours
            for b in boundary:
                inb = [pos[z] for z in self.nx[b] if z in pos]
                for x in inb:
                    for z in inb:
                        m[x, z] -= 1.0 / (len(inb) * sq[x] * sq[z])
        return s, boundary, m, sq

    def extend(self, values, boundary, bc):
        """Closure values in file order; the boundary gets zero (dirichlet)
        or the mean of its interior neighbours (neumann)."""
        out = dict(values)
        for b in boundary:
            inb = [values[z] for z in self.nx[b] if z in values]
            out[b] = sum(inb) / len(inb) if bc == "neumann" else 0.0
        return {v: out[v] for v in self.vertices if v in out}


def csv_rows(text):
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append([c.strip() for c in line.split(",")])
    if rows and not _is_number(rows[0][-1]):
        rows = rows[1:]
    return rows


def _is_number(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def read_function(path):
    with open(path) as fh:
        return {r[0]: float(r[1]) for r in csv_rows(fh.read())}


def comment(text, key):
    for line in text.splitlines():
        if line.startswith(f"# {key}: "):
            return json.loads(line[len(f"# {key}: ") :])
    raise CheckFailed(f"no '# {key}:' line")


def trajectory(text):
    """[(time, {vertex: value})] in output order."""
    out = []
    for t, v, x in csv_rows(text):
        t = float(t)
        if not out or out[-1][0] != t:
            out.append((t, {}))
        out[-1][1][v] = float(x)
    return out


class Args:
    """The options of one CLI argv, by name."""

    def __init__(self, argv):
        self.positional = []
        self.opts = {}
        i = 1
        while i < len(argv):
            a = argv[i]
            if a.startswith("--"):
                if a == "--functions":
                    self.opts[a] = True
                    i += 1
                else:
                    self.opts[a] = argv[i + 1]
                    i += 2
            else:
                self.positional.append(a)
                i += 1

    def get(self, name, default=None):
        return self.opts.get(name, default)


def max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if len(a) else 0.0


# ---------------------------------------------------------------------------
# one check per subcommand


def check_graph(op, text, args):
    g = GraphData(args.positional[0])
    doc = json.loads(text)
    require(doc["vertices"] == len(g.vertices), "vertex count")
    require(doc["edges"] == g.nx.number_of_edges(), "edge count")
    require(doc["volume"] == 2 * g.nx.number_of_edges(), "volume")
    require(doc["connected"] == nx.is_connected(g.nx), "connectivity")
    require(doc["degrees"] == g.deg, "degrees")


def _interior_arg(args, g):
    return args.get("--interior").split(",") if args.get("--interior") else g.vertices


def check_spectrum(op, text, args):
    g = GraphData(args.positional[0])
    bc = args.get("--bc", "none")
    s, boundary, m, sq = g.operator(_interior_arg(args, g), bc)
    doc = json.loads(text)
    require(doc["interior"] == s and doc["boundary"] == boundary, "window")
    want = np.linalg.eigvalsh(m)
    got = doc["values"]
    require(len(got) == len(want), "number of eigenvalues")
    err = max_abs(got, want)
    require(err <= EIG_TOL, f"eigenvalues differ from eigvalsh by {err:.3g}")
    require(doc["orthonormality_residual"] <= EIG_TOL, "orthonormality residual")
    if args.get("--functions"):
        for k, lam in enumerate(got):
            phi = doc["functions"][str(k + 1)]
            psi = np.array([phi[v] for v in s]) * sq
            res = float(np.max(np.abs(m @ psi - lam * psi)))
            require(res <= 1e-9, f"eigenfunction {k + 1} residual {res:.3g}")
            require(abs(psi @ psi - 1.0) <= EIG_TOL, f"eigenfunction {k + 1} weighted norm")
            ext = g.extend({v: phi[v] for v in s}, boundary, bc)
            require(max_abs([phi[v] for v in ext], list(ext.values())) <= EIG_TOL, "eigenfunction boundary values")


def _heat_states(g, interior, bc, f, times):
    """Exact heat states u(t) = D^(-1/2) expm(-tM) D^(1/2) f on the closure."""
    s, boundary, m, sq = g.operator(interior, bc)
    f0 = np.array([f.get(v, 0.0) for v in s]) * sq
    out = []
    for t in times:
        u = (expm(-t * m) @ f0) / sq
        out.append(g.extend(dict(zip(s, u)), boundary, bc))
    return out


def check_heat(op, text, args):
    g = GraphData(args.positional[0])
    f = read_function(args.positional[1])
    steps = int(args.get("--steps"))
    dt = float(args.get("--t-final")) / steps
    traj = trajectory(text)
    require([t for t, _ in traj] == [k * dt for k in range(steps + 1)], "time grid")
    want = _heat_states(g, _interior_arg(args, g), args.get("--bc", "none"), f, [t for t, _ in traj])
    for (t, got), exact in zip(traj, want):
        require(list(got) == list(exact), f"vertex set at t={t}")
        err = max_abs(list(got.values()), list(exact.values()))
        require(err <= STATE_TOL, f"heat state at t={t} differs from expm by {err:.3g}")


def _potential(text):
    if text is None:
        return lambda t: 0.0
    if text.startswith("linear:"):
        a, b = (float(x) for x in text[len("linear:") :].split(","))
        return lambda t: a + b * t
    return lambda t: float(text)


def check_dmf(op, text, args):
    g = GraphData(args.positional[0])
    f = read_function(args.positional[1])
    s, boundary = g.window(args.get("--interior").split(","))
    steps = int(args.get("--steps"))
    h = float(args.get("--t-final")) / steps
    lam = _potential(args.get("--potential"))
    audit = comment(text, "audit")
    require(audit["audit_ok"] is True and audit["certificates_ok"] is True, f"audit {audit}")
    traj = trajectory(text)
    require(len(traj) == steps + 1, "number of states")
    require(max_abs([traj[0][1][v] for v in s], [f.get(v, 0.0) for v in s]) == 0.0, "initial state")
    for n in range(1, steps + 1):
        t, u = traj[n]
        prev = traj[n - 1][1]
        require(t == n * h, f"time of step {n}")
        require(all(u[b] == 0.0 for b in boundary), f"boundary of step {n}")
        lam_n = lam((n - 1) * h)  # frozen at the left end of the step
        worst = 0.0
        for x in s:
            lap = sum(u[y] - u[x] for y in g.nx[x]) / g.deg[x]
            r = (1.0 / h - lam_n) * u[x] - lap - prev[x] / h
            worst = max(worst, abs(r))
        require(worst <= STATE_TOL, f"step {n} violates the Euler-Lagrange system by {worst:.3g}")


def check_identities(op, text, args):
    doc = json.loads(text)
    trials = int(args.get("--trials"))
    for name in (
        "divergence_theorem",
        "green_symmetric",
        "green_vectorfield",
        "gradient_product_rule",
        "field_product_rule",
        "directional_vs_product",
        "hessian_trace",
    ):
        require(doc[name]["trials"] == trials, f"{name} trials")
        require(doc[name]["max_abs_residual"] <= IDENTITY_TOL, f"{name} residual {doc[name]['max_abs_residual']}")
    mp = doc["maximum_principle"]
    if mp["local_minima_checked"]:
        for key in ("min_laplacian", "min_hessian_entry", "min_gradient_entry"):
            require(mp[key] >= 0.0, f"maximum principle {key}")


def _sphere_log(p, q):
    v = q - (p @ q) * p
    nv = float(np.linalg.norm(v))
    theta = math.atan2(float(np.linalg.norm(np.cross(p, q))), float(p @ q))
    return np.zeros(3) if nv == 0.0 else (theta / nv) * v


def check_harmonic(op, text, args):
    g = GraphData(args.positional[0])
    s, boundary = g.window(args.get("--interior").split(","))
    tol = float(args.get("--tol", "1e-8"))
    result = comment(text, "result")
    require(result["status"] == "converged", f"status {result['status']}")
    require(
        result["final_energy"] <= result["seed_energy"] * (1 + 1e-12), "final energy above the seed energy"
    )
    u = {r[0]: np.array([float(c) for c in r[1:]]) for r in csv_rows(text)}
    with open(args.get("--boundary")) as fh:
        given = {r[0]: np.array([float(c) for c in r[1:]]) for r in csv_rows(fh.read())}
    for b in boundary:
        require(max_abs(u[b], given[b] / np.linalg.norm(given[b])) <= 1e-15, f"boundary value at {b}")
    closure = set(s) | set(boundary)
    residual = 0.0
    energy = 0.0
    for x in closure:
        for y in g.nx[x]:
            if y in closure:
                energy += 0.5 * float(np.linalg.norm(_sphere_log(u[x], u[y]))) ** 2
    for x in s:
        require(abs(np.linalg.norm(u[x]) - 1.0) <= 1e-12, f"{x} off the sphere")
        acc = sum((_sphere_log(u[x], u[y]) for y in g.nx[x] if y in closure), np.zeros(3))
        residual = max(residual, float(np.linalg.norm(acc)) / g.deg[x])
    require(residual <= tol * (1 + 1e-6), f"first variation {residual:.3g} above tol {tol}")
    require(abs(energy - result["final_energy"]) <= 1e-10 * max(1.0, energy), "map energy")


def check_transport(op, text, args):
    g = GraphData(args.positional[0])
    f = read_function(args.positional[1])
    with open(args.get("--field")) as fh:
        w = {(r[0], r[1]): float(r[2]) for r in csv_rows(fh.read())}
    for (x, y), val in list(w.items()):  # the default mode antisymmetrizes
        w.setdefault((y, x), -val)
    n = len(g.vertices)
    m = np.zeros((n, n))
    for (x, y), val in w.items():
        i, j = g.index[x], g.index[y]
        m[i, j] += val / g.deg[x]
        m[i, i] -= val / g.deg[x]
    profile = args.get("--profile", "const")
    amp = {"const": lambda t: 1.0, "sin": math.sin}[profile]
    t_final, dt = float(args.get("--t-final")), float(args.get("--dt"))
    y0 = np.array([f[v] for v in g.vertices])
    traj = trajectory(text)
    times = [t for t, _ in traj]
    require(len(times) == round(t_final / dt) + 1, "number of steps")
    ref = solve_ivp(
        lambda t, y: amp(t) * (m @ y), (0.0, t_final), y0, method="DOP853", t_eval=times, rtol=1e-12, atol=1e-14
    )
    require(ref.success, "reference integration failed")
    # global RK4 error: step^4 times a fifth-derivative bound (|amp^(k)| <= 1)
    # with the Gronwall growth factor
    lip = float(np.max(np.sum(np.abs(m), axis=1)))
    bound = 1e-9 + t_final * math.exp(lip * t_final) * (2 * (lip + 1)) ** 5 / 120 * dt**4 * float(np.max(np.abs(y0)))
    got = np.array([[u[v] for v in g.vertices] for _, u in traj])
    err = float(np.max(np.abs(got - ref.y.T)))
    require(err <= bound, f"transport differs from solve_ivp by {err:.3g} > {bound:.3g}")


def check_minimax(op, text, args):
    g = GraphData(args.positional[0])
    f = read_function(args.positional[1])
    src, dst = args.get("--src"), args.get("--dst")
    doc = json.loads(text)
    level = None
    for c in sorted(set(f.values())):
        sub = g.nx.subgraph([v for v in g.vertices if f[v] <= c])
        if src in sub and dst in sub and nx.has_path(sub, src, dst):
            level = c
            break
    require(doc["level"] == level, f"level {doc['level']} != {level}")
    require(doc["bottleneck"]["level"] == level, "bottleneck level")
    for path in (doc["path"], doc["bottleneck"]["path"]):
        require(path[0] == src and path[-1] == dst, "path ends")
        require(all(g.nx.has_edge(a, b) for a, b in zip(path, path[1:])), "path is not a walk")
        require(max(f[v] for v in path) == level, "path level")
    require(doc["vertex"] in doc["path"] and f[doc["vertex"]] == level, "minimax vertex")


def _cut_numbers(g, subset):
    s = set(subset)
    rest = set(g.vertices) - s
    return (
        nx.cut_size(g.nx, s),
        len(nx.node_boundary(g.nx, s)),
        nx.volume(g.nx, s),
        nx.volume(g.nx, rest),
    )


def check_cheeger(op, text, args):
    g = GraphData(args.positional[0])
    doc = json.loads(text)
    n = len(g.vertices)
    for key, name in (("h", "h_witness"), ("g", "g_witness")):
        wit = doc[name]
        cut, bdry, vin, vout = _cut_numbers(g, wit["subset"])
        require(
            (wit["edge_cut"], wit["boundary_vertices"], wit["volume_inside"], wit["volume_outside"])
            == (cut, bdry, vin, vout),
            f"{name} recount",
        )
        num = cut if key == "h" else bdry
        require(doc[key] == num / min(vin, vout), f"{key} is not its witness's ratio")
    shape = op["facts"].get("shape")
    if shape == "cycle":
        require(doc["h"] == 1 / (n // 2) and doc["g"] == 1 / (n // 2), "cycle closed form")
    elif shape == "complete":
        require(doc["h"] == math.ceil(n / 2) / (n - 1) and doc["g"] == 1 / (n - 1), "complete graph closed form")
    else:
        sq = np.sqrt([g.deg[v] for v in g.vertices])
        a = nx.to_numpy_array(g.nx, nodelist=g.vertices)
        lam2 = float(np.linalg.eigvalsh(np.eye(n) - a / np.outer(sq, sq))[1])
        require(lam2 / 2 - 1e-12 <= doc["h"] <= math.sqrt(2 * lam2) + 1e-12, "Cheeger inequality")
    if args.get("--function"):
        f = read_function(args.get("--function"))
        num = sum(abs(f[a] - f[b]) for a, b in g.edges)
        den = min(sum(abs(f[v] - c) * g.deg[v] for v in g.vertices) for c in f.values())
        require(abs(doc["functional_ratio"] - num / den) <= 1e-12 * num / den, "functional ratio")


def check_monge(op, text, args):
    g = GraphData(args.positional[0])
    doc = json.loads(text)
    src, dst = args.get("--sources").split(","), args.get("--targets").split(",")
    dist = dict(nx.all_pairs_shortest_path_length(g.nx))
    best = None
    for perm in itertools.permutations(range(len(dst))):  # lexicographic order
        cost = sum(dist[a][dst[j]] for a, j in zip(src, perm))
        if best is None or cost < best[0]:
            best = (cost, [j + 1 for j in perm])
    require(doc["cost"] == best[0], f"cost {doc['cost']} != {best[0]}")
    require(doc["assignment"] == best[1], "assignment is not the smallest optimal one")


def check_diagnostic(op, text, args):
    err = json.loads(text)["error"]
    require(err["exit_code"] == 1 and err["type"] and err["message"], "diagnostic")


# ---------------------------------------------------------------------------
# library-only operations


def _lib_inputs(p):
    g = GraphData(p["graph"])
    return g, read_function(p["function"])


def check_heat_kernel_apply(op, text, args):
    p = op["params"]
    g, f = _lib_inputs(p)
    got = json.loads(text)["values"]
    (want,) = _heat_states(g, p["interior"], "dirichlet", f, [p["t"]])
    require(list(got) == list(want), "vertex set")
    err = max_abs(list(got.values()), list(want.values()))
    require(err <= STATE_TOL, f"heat kernel differs from expm by {err:.3g}")


def check_green_apply(op, text, args):
    p = op["params"]
    g, f = _lib_inputs(p)
    s, boundary, m, sq = g.operator(p["interior"], "dirichlet")
    u = np.linalg.solve(m, np.array([f[v] for v in s]) * sq) / sq
    want = g.extend(dict(zip(s, u)), boundary, "dirichlet")
    got = json.loads(text)["values"]
    require(list(got) == list(want), "vertex set")
    err = max_abs(list(got.values()), list(want.values()))
    require(err <= STATE_TOL * max(1.0, float(np.max(np.abs(u)))), f"green function differs by {err:.3g}")


def check_heat_identities(op, text, args):
    p = op["params"]
    g, f = _lib_inputs(p)
    rep = json.loads(text)
    s, _ = g.window(p["interior"])
    mass0 = sum(f[v] ** 2 * g.deg[v] for v in s)
    (final,) = _heat_states(g, p["interior"], "dirichlet", f, [p["steps"] * p["dt"]])
    mass1 = sum(final[v] ** 2 * g.deg[v] for v in s)
    require(rep["samples"] == p["steps"] + 1 and rep["bc"] == "dirichlet", "report shape")
    require(abs(rep["initial_mass"] - mass0) <= 1e-12 * mass0, "initial mass")
    require(abs(rep["final_mass"] - mass1) <= 1e-10 * mass0, "final mass")
    require(rep["energy_monotone"] is True, "energy not monotone")
    require(rep["closure_form_gap"] <= 1e-12 * max(1.0, mass0), "closure form gap")
    # centred difference of the mass: error <= h^2/6 * max|mass'''|, and
    # |mass'''| <= (2 * lambda_max)^3 * mass0 with lambda_max <= 2
    require(rep["max_ddt_residual"] <= 64 / 6 * p["dt"] ** 2 * mass0 + 1e-12, "d/dt mass residual")


def check_courant_fischer(op, text, args):
    p = op["params"]
    g, _ = _lib_inputs(p)
    rep = json.loads(text)
    _, _, m, _ = g.operator(p["interior"], "dirichlet")
    lam = float(np.linalg.eigvalsh(m)[p["j"] - 1])
    require(abs(rep["lambda_j"] - lam) <= EIG_TOL, "lambda_j")
    require(abs(rep["span_gap"]) <= EIG_TOL, f"span gap {rep['span_gap']}")
    require(rep["subspace_worst_excess"] >= -EIG_TOL, "a subspace beats lambda_j")
    require((rep["samples"], rep["subspaces"], rep["seed"]) == (p["samples"], p["subspaces"], p["seed"]), "echo")


CHECKS = {
    name[len("check_") :]: fn for name, fn in globals().items() if name.startswith("check_") and callable(fn)
}


def check(op, data):
    """Raise CheckFailed unless the output bytes of op are right."""
    args = Args(op["argv"]) if op["kind"] == "cli" else None
    CHECKS[op["check"]](op, data.decode("utf-8"), args)
