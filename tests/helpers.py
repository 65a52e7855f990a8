"""Independent brute-force oracles.

Everything here recomputes results from first principles with none of the
package's algorithmic shortcuts: Fractions instead of floats, exhaustive
enumeration instead of heaps or bitmask chunking, numpy's LAPACK eigensolver
instead of the package's QL solver, and the pointwise calculus API in place
of the array kernels built on it.  The bulk paths keep their one-at-a-time
forms here as bit-for-bit references: QL rotations applied as they are
made, the heat expansion one time at a time, the trajectory CSV one row at
a time, JSON documents one value at a time, and the identity suite's and
Courant-Fischer's random draws one at a time.
"""

import itertools
import json
import math
from fractions import Fraction
from typing import Optional

import numpy as np
from hypothesis import strategies as st

import graphcalc as gc
from graphcalc import linalg
from graphcalc.graph import gather, scatter


def floyd_warshall(g: gc.Graph) -> dict:
    INF = float("inf")
    dist = {(x, y): (0 if x == y else INF) for x in g.vertices for y in g.vertices}
    for x, y in g.edges():
        dist[(x, y)] = 1
        dist[(y, x)] = 1
    for k in g.vertices:
        for i in g.vertices:
            for j in g.vertices:
                alt = dist[(i, k)] + dist[(k, j)]
                if alt < dist[(i, j)]:
                    dist[(i, j)] = alt
    return dist


def brute_cheeger(g: gc.Graph, kind: str):
    """(value as Fraction, lexicographically smallest witness index tuple)."""
    n = len(g)
    idx = g.index
    best = None
    witness = None
    for mask in range(1, (1 << n) - 1):
        inside = {v for v in g.vertices if mask >> idx[v] & 1}
        vol_in = sum(g.degree(v) for v in inside)
        vol_out = sum(g.degree(v) for v in g.vertices if v not in inside)
        if kind == "h":
            num = sum(1 for x, y in g.edges() if (x in inside) != (y in inside))
        else:
            num = sum(
                1
                for v in g.vertices
                if v not in inside and any(u in inside for u in g.neighbors(v))
            )
        val = Fraction(num, min(vol_in, vol_out))
        key = tuple(sorted(idx[v] for v in inside))
        if best is None or val < best or (val == best and key < witness):
            best = val
            witness = key
    return best, witness


def mask_key(mask: int, n: int) -> tuple[int, ...]:
    """The vertex indices of a subset bitmask, ascending."""
    return tuple(i for i in range(n) if mask >> i & 1)


def lex_smallest_reference(candidates, n: int) -> int:
    """The tied mask a Cheeger witness is read from: the one whose index
    tuple is smallest, as min over Python key tuples."""
    return min((int(m) for m in candidates), key=lambda m: mask_key(m, n))


def complete_graph(n: int) -> gc.Graph:
    names = [f"v{i}" for i in range(n)]
    return gc.Graph(names, [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> gc.Graph:
    names = [f"v{i}" for i in range(n)]
    return gc.Graph(names, [(names[i], names[(i + 1) % n]) for i in range(n)])


def all_simple_paths(g: gc.Graph, src: str, dst: str):
    path = [src]
    seen = {src}

    def walk(v):
        if v == dst:
            yield tuple(path)
            return
        for w in g.neighbors(v):
            if w not in seen:
                path.append(w)
                seen.add(w)
                yield from walk(w)
                path.pop()
                seen.remove(w)

    yield from walk(src)


def brute_bottleneck(g: gc.Graph, f: gc.VertexFunction, src: str, dst: str):
    best = None
    for p in all_simple_paths(g, src, dst):
        level = max(f.value(v) for v in p)
        if best is None or level < best:
            best = level
    return best


def brute_monge(g: gc.Graph, sources, targets):
    dist = floyd_warshall(g)
    best = None
    for perm in itertools.permutations(range(len(targets))):
        cost = sum(dist[(s, targets[j])] for s, j in zip(sources, perm))
        if best is None or cost < best:
            best = cost
    return best


def eig_oracle(matrix: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(matrix)


def sequential_ql(d: list, e: list, vt: np.ndarray) -> None:
    """linalg._ql with each Givens rotation applied to rows i and i+1 of vt
    as it is made, one rotation at a time."""
    n = len(d)
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > linalg.EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if iterations == linalg.MAX_QL_ITERATIONS:
                raise gc.NumericalError(f"QL iteration did not converge for eigenvalue {l + 1}")
            iterations += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            i = m - 1
            while i >= l:
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: the matrix splits at i + 1
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                lo, hi = vt[i], vt[i + 1]
                new_hi = s * lo + c * hi
                lo *= c
                lo -= s * hi
                hi[:] = new_hi
                i -= 1
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


def frozen_tridiagonalize(A: np.ndarray):
    """linalg._tridiagonalize as it was before its reductions became .sum
    methods: np.sum throughout."""
    n = A.shape[0]
    e = np.zeros(n)
    reflectors = []
    for k in range(n - 2):
        x = A[k, k + 1 :].copy()
        x0 = float(x[0])
        sigma = float(np.sum(x[1:] * x[1:]))
        if sigma == 0.0:
            e[k] = x0
            continue
        mu = math.sqrt(x0 * x0 + sigma)
        v0 = x0 - mu if x0 <= 0.0 else -sigma / (x0 + mu)
        beta = 2.0 * v0 * v0 / (sigma + v0 * v0)
        v = x / v0
        v[0] = 1.0
        block = A[k + 1 :, k + 1 :]
        p = beta * np.sum(block * v, axis=1)
        w = p - (0.5 * beta * float(np.sum(p * v))) * v
        block -= v[:, None] * w[None, :] + w[:, None] * v[None, :]
        e[k] = mu
        reflectors.append((k, beta, v))
    if n >= 2:
        e[n - 2] = A[n - 2, n - 1]
    return np.diag(A).copy(), e, reflectors


def sequential_eigh_unsorted(matrix):
    """linalg.eigh_unsorted(matrix) with the QL rotations applied one at a
    time, on frozen copies of the kernels (no linalg function but the input
    check runs)."""
    A = linalg._symmetric_copy(matrix)
    d, e, reflectors = frozen_tridiagonalize(A)
    d, e = d.tolist(), e.tolist()
    vt = np.eye(len(d))
    sequential_ql(d, e, vt)
    for k, beta, v in reversed(reflectors):
        tail = vt[:, k + 1 :]
        tail -= (beta * np.sum(tail * v, axis=1))[:, None] * v[None, :]
    return np.array(d), vt


def per_wave_rotate(n: int, rotations: list) -> np.ndarray:
    """linalg._rotate with four products per wave: the rows i and i+1 of
    each wave are gathered apart and updated as hi = s lo + c hi and
    lo = c lo - s hi."""
    last = [0] * n
    waves = []
    for i in rotations[::3]:
        w = 1 + max(last[i], last[i + 1])
        last[i] = last[i + 1] = w
        waves.append(w)
    order = np.argsort(waves, kind="stable")
    table = np.array(rotations).reshape(-1, 3)[order]
    lo_rows = table[:, 0].astype(np.intp)
    hi_rows = lo_rows + 1
    c, s = table[:, 1:2].copy(), table[:, 2:3].copy()
    cuts = [0, *(np.flatnonzero(np.diff(np.array(waves)[order])) + 1).tolist(), len(waves)]
    vt = np.eye(n)
    for a, b in zip(cuts, cuts[1:]):
        lo_a, hi_a, c_a, s_a = lo_rows[a:b], hi_rows[a:b], c[a:b], s[a:b]
        lo, hi = vt[lo_a], vt[hi_a]
        new_hi = s_a * lo
        new_hi += c_a * hi
        lo *= c_a
        lo -= s_a * hi
        vt[hi_a] = new_hi
        vt[lo_a] = lo
    return vt


def per_cluster_canonical_basis(rows: np.ndarray) -> np.ndarray:
    """linalg._canonical_bases for one eigenspace at a time: the basis of
    the row space of rows (k x n) in reduced row-echelon form with pivot
    columns in order, then Gram-Schmidt in pivot order."""
    B = rows.copy()
    k = len(B)
    col = 0
    for j in range(k):
        hits = np.flatnonzero(np.max(np.abs(B[j:, col:]), axis=0) > linalg.PIVOT_TOL)
        if hits.size == 0:
            raise gc.NumericalError("eigenspace basis lost rank in echelon reduction")
        c = col + int(hits[0])
        i = j + int(np.argmax(np.abs(B[j:, c])))
        B[[j, i]] = B[[i, j]]
        B[j] /= B[j, c]
        others = np.arange(k) != j
        B[others] -= B[others, c : c + 1] * B[j]
        col = c + 1
    Q = np.empty_like(B)
    for j in range(k):
        v = B[j]
        for _ in range(2):
            v = v - np.sum(Q[:j] * np.sum(Q[:j] * v, axis=1)[:, None], axis=0)
        Q[j] = v / math.sqrt(float(np.sum(v * v)))
    return Q


def per_cluster_eigh(matrix):
    """linalg.eigh with each eigenspace's canonical basis computed on its
    own (per_cluster_canonical_basis)."""
    vals, vt = linalg.eigh_unsorted(matrix)
    order = np.argsort(vals, kind="stable")
    vals, vt = vals[order], vt[order]
    n = len(vals)
    if n:
        mags = np.abs(vt)
        first = np.argmax(mags > linalg.SIGN_TOL * mags.max(axis=1, keepdims=True), axis=1)
        vt *= np.where(vt[np.arange(n), first] < 0.0, -1.0, 1.0)[:, None]
        tol = linalg.CLUSTER_TOL * max(1.0, float(np.max(np.abs(vals))))
        cuts = [0, *(np.flatnonzero(np.diff(vals) > tol) + 1).tolist(), n]
        for a, b in zip(cuts, cuts[1:]):
            if b - a > 1:
                vt[a:b] = per_cluster_canonical_basis(vt[a:b])
    return vals, np.ascontiguousarray(vt.T)


def grid_graph(k: int, cols: Optional[int] = None) -> gc.Graph:
    """k x k grid, or k x cols, with vertices r{i}c{j} in row-major order."""
    cols = k if cols is None else cols
    names = [f"r{i}c{j}" for i in range(k) for j in range(cols)]
    edges = [(f"r{i}c{j}", f"r{i}c{j + 1}") for i in range(k) for j in range(cols - 1)]
    edges += [(f"r{i}c{j}", f"r{i + 1}c{j}") for i in range(k - 1) for j in range(cols)]
    return gc.Graph(names, edges)


def grid_interior(k: int) -> list[str]:
    """Every vertex of the k x k grid off its outer ring."""
    return [f"r{i}c{j}" for i in range(1, k - 1) for j in range(1, k - 1)]


def grid_calls(tmp_path) -> dict:
    """CLI calls for documents on the 7 x 7 grid and its window that carry
    eigenvectors or values computed from them: the spectrum with its
    functions, heat under both boundary conditions and a dmf run with a
    time-dependent potential."""
    (tmp_path / "grid7.json").write_text(gc.write_graph(grid_graph(7)))
    path = str(tmp_path / "grid7.json")
    inner = grid_interior(7)
    fn = tmp_path / "grid7.csv"
    fn.write_text("".join(f"{x},{math.sin(1.0 + i)!r}\n" for i, x in enumerate(inner)))
    window = [str(fn), "--interior", ",".join(inner)]
    heat = ["--t-final", "2", "--steps", "10"]
    return {
        "spectrum-none-7": ["spectrum", path, "--bc", "none", "--functions"],
        "heat-dirichlet-7": ["heat", path, *window, "--bc", "dirichlet", *heat],
        "heat-neumann-7": ["heat", path, *window, "--bc", "neumann", *heat],
        "dmf-linear-7": ["dmf", path, *window, "--potential", "linear:0.25,0.5", "--t-final", "1",
                         "--steps", "4"],
    }


def random_connected_graph(rng: gc.Lcg64, n_min: int = 4, n_max: int = 10) -> gc.Graph:
    """Random spanning tree plus a few extra edges; sparse enough that the
    exhaustive path oracle stays fast."""
    n = n_min + rng.randint(n_max - n_min + 1)
    names = [f"v{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        j = rng.randint(i)
        edges.add((names[j], names[i]))
    extras = rng.randint(max(1, n // 2) + 1)
    for _ in range(extras):
        i = rng.randint(n)
        j = rng.randint(n)
        if i == j:
            continue
        a, b = (names[min(i, j)], names[max(i, j)])
        edges.add((a, b))
    return gc.Graph(names, sorted(edges))


# the float range's edges and a few ordinary values, for the contract tests
VALUES = [1e308, -1e308, 1e200, -1e200, 1e160, 5e-324, -5e-324, 0.0, -2.5, -1.0, 0.25, 0.5, 1.0, 3.0]


@st.composite
def connected_graphs(draw):
    """Hypothesis strategy: a random spanning tree plus up to n extra edges."""
    n = draw(st.integers(2, 9))
    names = [f"v{i}" for i in range(n)]
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=n)))
    return gc.Graph(names, [(names[i], names[j]) for i, j in sorted(edges)])


def pointwise_identity_suite(g: gc.Graph, seed: int, trials: int, cfg=gc.DEFAULT_CONFIG) -> dict:
    """run_identity_suite written per vertex over the public pointwise
    functions: the same draws, the same report layout."""
    rng = gc.Lcg64(seed)
    win = gc.canonical_window(g)
    checks = {
        "divergence_theorem": 0.0,
        "green_symmetric": 0.0,
        "green_vectorfield": 0.0,
        "gradient_product_rule": 0.0,
        "field_product_rule": 0.0,
        "directional_vs_product": 0.0,
        "hessian_trace": 0.0,
    }
    scale1 = gc.CalculusConfig(laplacian_scale=1.0)
    minima_checked = 0
    min_laplacian = math.inf
    min_hessian_entry = math.inf
    min_gradient_entry = math.inf

    for _ in range(trials):
        f = gc.random_function(g, rng)
        h = gc.random_function(g, rng)
        W = gc.random_antisymmetric_field(g, rng)

        r = gc.divergence_theorem_residual(W, g, g.vertices)
        checks["divergence_theorem"] = max(checks["divergence_theorem"], abs(r))
        r = gc.divergence_theorem_residual(W, g, win.interior)
        checks["divergence_theorem"] = max(checks["divergence_theorem"], abs(r))

        rep = gc.green_symmetric_report(f, h, win, cfg)
        checks["green_symmetric"] = max(checks["green_symmetric"], abs(rep.residual))

        repv = gc.green_vectorfield_report(W, f, win)
        checks["green_vectorfield"] = max(checks["green_vectorfield"], abs(repv.residual))

        fg = gc.VertexFunction(g, {v: f.value(v) * h.value(v) for v in g.vertices})
        fW = gc.pointwise_product(f, W)
        gf = gc.gradient_field(f)
        for x in g.vertices:
            fx, hx = f.value(x), h.value(x)
            for y in g.neighbors(x):
                lhs = gc.edge_difference(fg, x, y)
                rhs = (
                    fx * gc.edge_difference(h, x, y)
                    + hx * gc.edge_difference(f, x, y)
                    + gc.edge_difference(f, x, y) * gc.edge_difference(h, x, y)
                )
                checks["gradient_product_rule"] = max(
                    checks["gradient_product_rule"], abs(lhs - rhs)
                )
            lhs = gc.divergence(fW, x)
            rhs = fx * gc.divergence(W, x) + 0.5 * gc.directional_derivative(W, f, x)
            checks["field_product_rule"] = max(checks["field_product_rule"], abs(lhs - rhs))

            lhs = gc.directional_derivative(W, f, x)
            rhs = gc.scalar_product(W, gf, x)
            checks["directional_vs_product"] = max(
                checks["directional_vs_product"], abs(lhs - rhs)
            )

            tr = gc.hessian(f, x).trace()
            expect = g.degree(x) * gc.laplacian(f, x, scale1)
            checks["hessian_trace"] = max(checks["hessian_trace"], abs(tr - expect))

            if gc.is_local_min(f, x):
                minima_checked += 1
                rep = gc.maximum_principle_check(f, x, cfg)
                min_laplacian = min(min_laplacian, rep.laplacian_value)
                min_hessian_entry = min(
                    min_hessian_entry, min(e for row in gc.hessian(f, x).entries for e in row)
                )
                min_gradient_entry = min(min_gradient_entry, min(gc.gradient(f, x)))

    report = {
        name: {"max_abs_residual": value, "trials": trials}
        for name, value in checks.items()
    }
    report["maximum_principle"] = {
        "local_minima_checked": minima_checked,
        "min_laplacian": min_laplacian,
        "min_hessian_entry": min_hessian_entry,
        "min_gradient_entry": min_gradient_entry,
    }
    report["window_interior"] = list(win.interior)
    report["scale"] = cfg.laplacian_scale
    report["seed"] = seed
    return report


class _PairRates:
    """Transport's rates as they were before VectorField.pair_values owned
    the pair values, kept as the bit-for-bit reference: w(x, y) / d_x on
    the graph's layout pairs, a scaled field read through its scaling, the
    last plain field gathered once, and rhs summed with the layout's sums."""

    def __init__(self, g: gc.Graph):
        lay = self.layout = g.layout
        self.src, self.dst = lay.src, lay.dst
        self.src_deg = lay.deg[lay.src]
        names = g.vertices
        self.keys = [(names[i], names[j]) for i, j in zip(self.src.tolist(), self.dst.tolist())]
        self._last: Optional[tuple[gc.VectorField, np.ndarray]] = None

    def values(self, w: gc.VectorField) -> np.ndarray:
        if w.scaling is not None:
            c, base = w.scaling
            return c * self.values(base)
        if self._last is None or self._last[0] is not w:
            try:
                vals = np.fromiter(map(w.entries.__getitem__, self.keys), float, len(self.keys))
            except KeyError as e:
                w.value(*e.args[0])  # raises: the pair is off the field
                raise
            self._last = (w, vals)
        return self._last[1]

    def rates(self, w: gc.VectorField) -> np.ndarray:
        return self.values(w) / self.src_deg

    def rhs(self, rates: np.ndarray, vec: np.ndarray) -> np.ndarray:
        return self.layout.sums(rates * (vec[self.dst] - vec[self.src]))


def reference_transport_states(g: gc.Graph, field, f0: gc.VertexFunction, n_steps: int, dt: float) -> np.ndarray:
    """transport_solve's RK4 states through _PairRates, one row per time."""
    pairs = _PairRates(g)
    rates_at = lambda t: pairs.rates(field(t) if callable(field) else field)
    vec = gather(f0, g.vertices)
    vecs = [vec]
    for t in (0.0, *(k * dt for k in range(1, n_steps))):
        r1, r2, r4 = rates_at(t), rates_at(t + dt / 2), rates_at(t + dt)
        k1 = pairs.rhs(r1, vec)
        k2 = pairs.rhs(r2, vec + dt / 2 * k1)
        k3 = pairs.rhs(r2, vec + dt / 2 * k2)
        k4 = pairs.rhs(r4, vec + dt * k3)
        vec = vec + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        vecs.append(vec)
    return np.array(vecs)


def reference_mass_rate(g: gc.Graph, w: gc.VectorField, f: gc.VertexFunction) -> tuple[float, float]:
    """transport_mass_rate's two sides through _PairRates."""
    pairs = _PairRates(g)
    lhs = pairs.layout.integral(pairs.rhs(pairs.rates(w), gather(f, g.vertices)))
    return lhs, sum(g.degree(x) * gc.directional_derivative(w, f, x) for x in g.vertices)


def _normalized_sum(vectors) -> gc.SpherePoint:
    acc = sum(vectors, np.zeros(3))
    if float(np.linalg.norm(acc)) < 1e-12:
        return gc.SpherePoint(*gc.harmonic.FALLBACK_POINT)
    return gc.SpherePoint.from_array(acc)


def pointwise_seed_map(boundary_map: gc.SphereMap, w: gc.SubgraphWindow) -> gc.SphereMap:
    """dirichlet_minimize's seed written per vertex over SpherePoint arrays:
    the normalized boundary sum, then harmonic.SEED_SWEEPS neighbor sweeps."""
    base = _normalized_sum(boundary_map.point(b).array for b in w.boundary)
    points = {b: boundary_map.point(b) for b in w.boundary}
    for x in w.interior:
        points[x] = base
    u = gc.SphereMap(w.graph, points)
    closure = set(w.closure)
    for _ in range(gc.harmonic.SEED_SWEEPS):
        new_points = {
            x: _normalized_sum(
                u.point(y).array for y in w.graph.neighbors(x) if y in closure
            )
            for x in w.interior
        }
        u = u.updated(new_points)
    return u


def pointwise_extend(spec: gc.OperatorSpec, f: gc.VertexFunction) -> gc.VertexFunction:
    """f on the closure, per vertex: its interior values, zero on a dirichlet
    boundary, and on a neumann boundary the mean of the vertex's interior
    neighbors, added in neighbor order."""
    gc.spectral.check_dirichlet_data(spec, f)
    inside = {x: f.value(x) for x in spec.interior}
    vals = dict(inside)
    for b in spec.boundary:
        nbrs = [inside[y] for y in spec.graph.neighbors(b) if y in inside]
        vals[b] = sum(nbrs) / len(nbrs) if spec.bc == "neumann" and nbrs else 0.0
    return gc.VertexFunction(spec.graph, vals)


def pointwise_apply_operator(spec: gc.OperatorSpec, f: gc.VertexFunction) -> gc.VertexFunction:
    """apply_operator written per vertex over the pointwise laplacian."""
    extended = pointwise_extend(spec, f)
    out = {}
    for x in spec.interior:
        fx = extended.values[x]
        out[x] = -gc.laplacian(extended, x, spec.config) + spec.potential_at(x) * fx
    return gc.VertexFunction(spec.graph, out)


def pointwise_rayleigh_quotient(f: gc.VertexFunction, spec: gc.OperatorSpec) -> float:
    """rayleigh_quotient over weighted_inner and the pointwise operator."""
    interior = spec.interior
    den = gc.weighted_inner(f, f, interior)
    if den <= 0.0:
        raise gc.ValidationError("rayleigh quotient of the zero function")
    lf = pointwise_apply_operator(spec, f)
    num = gc.weighted_inner(f, lf, interior)
    return num / den


def pointwise_courant_fischer(
    es: gc.EigenSystem, j: int, seed: int = 1, samples: int = 200, subspaces: int = 50
) -> gc.CourantFischerReport:
    """courant_fischer_check with one VertexFunction and one pointwise
    Rayleigh quotient per sample, and LAPACK's QR with BLAS products for the
    subspaces: the same draws in the same order."""
    spec = es.spec
    g = spec.graph
    interior = spec.interior
    rng = gc.Lcg64(seed)
    lam_j = es.values[j - 1]

    span_max = pointwise_rayleigh_quotient(es.functions[j - 1], spec)
    for _ in range(samples):
        coeffs = [rng.uniform(-1.0, 1.0) for _ in range(j)]
        norm = math.sqrt(sum(c * c for c in coeffs))
        if norm < 1e-9:
            coeffs[0] = 1.0
            norm = 1.0
        values = {}
        for v in interior:
            values[v] = sum(c / norm * es.functions[k].value(v) for k, c in enumerate(coeffs))
        f = gc.VertexFunction(g, values)
        span_max = max(span_max, pointwise_rayleigh_quotient(f, spec))

    M = gc.symmetric_matrix(spec)
    n = len(interior)
    worst = math.inf
    for _ in range(subspaces):
        B = np.array([[rng.normal() for _ in range(j)] for _ in range(n)], dtype=float)
        Qmat, R = np.linalg.qr(B)
        if min(abs(float(R[k, k])) for k in range(j)) < 1e-8:
            continue
        small = Qmat.T @ M @ Qmat
        small = 0.5 * (small + small.T)
        worst = min(worst, float(np.linalg.eigvalsh(small)[-1]) - lam_j)
    return gc.CourantFischerReport(
        j=j,
        lambda_j=lam_j,
        span_max=span_max,
        span_gap=span_max - lam_j,
        subspace_worst_excess=worst,
        samples=samples,
        subspaces=subspaces,
        seed=seed,
    )


class PerDrawLcg64(gc.Lcg64):
    """Lcg64 whose uniforms() makes one uniform() call per value, as
    run_identity_suite drew before it drew in batches."""

    def uniforms(self, k: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(k)], dtype=float)


def looped_courant_fischer(
    es: gc.EigenSystem, j: int, seed: int = 1, samples: int = 200, subspaces: int = 50
) -> gc.CourantFischerReport:
    """courant_fischer_check with one uniform() call per coefficient and
    one pass per subspace: orthonormalize, the operator, the Gram block and
    its eigenvalues for each subspace alone, skipping a rank-deficient one."""
    spec = es.spec
    k = len(spec.interior)
    rng = gc.Lcg64(seed)
    lam_j = es.values[j - 1]

    weights = []
    for _ in range(samples):
        coeffs = [rng.uniform(-1.0, 1.0) for _ in range(j)]
        norm = math.sqrt(sum(c * c for c in coeffs))
        if norm < 1e-9:
            coeffs[0] = 1.0
            norm = 1.0
        weights.append([c / norm for c in coeffs])
    basis = es.vectors[:k, :j]
    stack = np.zeros((k, 1 + len(weights)))
    stack[:, 0] = basis[:, j - 1]
    for i, c in enumerate(np.array(weights).reshape(len(weights), j).T):
        stack[:, 1:] += basis[:, i : i + 1] * c
    span_max = max(gc.spectral._quotients(spec, stack).tolist())

    lay = spec.region.layout
    worst = math.inf
    for _ in range(subspaces):
        Q = np.array(rng.normals(k * j)).reshape(k, j).T.copy()
        if linalg.orthonormalize(Q[None]).min() < 1e-8:
            continue
        Y = Q.T / np.sqrt(lay.deg[:k])[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            LY = gc.spectral._apply_rows(spec, gc.spectral._extend_to_closure(spec, Y))
            gram = lay.integral((Y[:, :, None] * LY[:, None]).reshape(k, j * j)).reshape(j, j)
            worst = min(worst, float(linalg.eigvalsh(0.5 * (gram + gram.T))[-1]) - lam_j)
    return gc.CourantFischerReport(
        j=j,
        lambda_j=lam_j,
        span_max=span_max,
        span_gap=span_max - lam_j,
        subspace_worst_excess=worst,
        samples=samples,
        subspaces=subspaces,
        seed=seed,
    )


def pointwise_heat_identities_report(
    traj: gc.Trajectory, spec: gc.OperatorSpec
) -> gc.HeatIdentitiesReport:
    """heat_identities_report with the pointwise operator, weighted sums and
    closure_energy for each state."""
    h = gc.evolution._uniform_step(traj.times)
    inner = spec.interior
    g = spec.graph
    cfg = spec.config

    masses, forms, grad_sq, gaps = [], [], [], []
    for u in traj.states:
        lu = pointwise_apply_operator(spec, u)
        masses.append(gc.weighted_norm_sq(u, inner))
        forms.append(gc.weighted_inner(u, lu, inner))
        grad_sq.append(gc.weighted_norm_sq(lu, inner))
        pair_energy = gc.closure_energy(u, spec.region)
        qterm = sum(spec.potential_at(x) * u.value(x) ** 2 * g.degree(x) for x in inner)
        gaps.append(abs(forms[-1] - (0.5 * cfg.laplacian_scale * pair_energy + qterm)))

    ddt = 0.0
    for k in range(1, len(traj.times) - 1):
        diff = (masses[k + 1] - masses[k - 1]) / (traj.times[k + 1] - traj.times[k - 1])
        ddt = max(ddt, abs(diff + 2.0 * forms[k]))

    worst_rise = 0.0
    for a, b in zip(forms, forms[1:]):
        worst_rise = max(worst_rise, b - a)
    monotone = worst_rise <= 1e-12 * max(1.0, abs(forms[0]))

    cons = 0.0
    flux = 0.0
    acc_f, acc_g = 0.0, 0.0
    for k in range(1, len(traj.times)):
        acc_f += h * (forms[k - 1] + forms[k])
        acc_g += h * (grad_sq[k - 1] + grad_sq[k])
        cons = max(cons, abs(masses[k] + acc_f - masses[0]))
        flux = max(flux, abs(forms[k] + acc_g - forms[0]))

    return gc.HeatIdentitiesReport(
        bc=spec.bc,
        step=h,
        samples=len(traj.times),
        quad_tol=h * h,
        max_ddt_residual=ddt,
        energy_monotone=monotone,
        max_energy_increase=worst_rise,
        conservation_residual=cons,
        energy_flux_residual=flux,
        closure_form_gap=max(gaps),
        initial_mass=masses[0],
        final_mass=masses[-1],
    )


def pointwise_dmf_certificate(
    rep: gc.DMFStepReport, u_prev: gc.VertexFunction, lam, w: gc.SubgraphWindow, cfg
) -> dict:
    """The certificate numbers of one dmf_step, recomputed per vertex from its
    result with the pointwise laplacian, closure_energy and ** squares."""
    g, h, inner = w.graph, rep.step, w.interior
    u0 = pointwise_extend(gc.OperatorSpec(w, "dirichlet", None, cfg), u_prev)
    u1 = rep.u_next
    pointwise = isinstance(lam, gc.VertexFunction)
    lam_vals = {x: lam.value(x) if pointwise else float(lam or 0.0) for x in inner}

    def j_value(u):
        quad = 0.25 * cfg.laplacian_scale * gc.closure_energy(u, w)
        mass = sum(lam_vals[x] * u.value(x) ** 2 * g.degree(x) for x in inner)
        return quad - 0.5 * mass

    el_sq = 0.0
    for x in inner:
        r = (u1.value(x) - u0.value(x)) / h - gc.laplacian(u1, x, cfg) - lam_vals[x] * u1.value(x)
        el_sq += r * r * g.degree(x)
    j_prev, j_next = j_value(u0), j_value(u1)
    dist = sum((u1.value(x) - u0.value(x)) ** 2 * g.degree(x) for x in inner)
    return {
        "el_residual": math.sqrt(el_sq),
        "j_prev": j_prev,
        "j_next": j_next,
        "f_prev": j_prev,
        "f_next": dist / (2.0 * h) + j_next,
    }


def pointwise_weighted_median(g: gc.Graph, f: gc.VertexFunction) -> float:
    """weighted_median read per vertex through f.value."""
    pairs = sorted((f.value(v), g.degree(v)) for v in g.vertices)
    total = sum(w for _, w in pairs)
    acc = 0
    for value, w in pairs:
        acc += w
        if 2 * acc >= total:
            return value
    return pairs[-1][0]


def pointwise_cheeger_functional(g: gc.Graph, f: gc.VertexFunction) -> float:
    """cheeger_functional with per-edge and per-vertex Python sums."""
    num = sum(abs(f.value(y) - f.value(x)) for x, y in g.edges())
    m = pointwise_weighted_median(g, f)
    den = sum(abs(f.value(v) - m) * g.degree(v) for v in g.vertices)
    if den == 0.0:
        raise gc.ValidationError("functional needs a nonconstant function")
    return num / den


def rowwise_heat(es: gc.EigenSystem, f: gc.VertexFunction, times) -> list:
    """The heat expansion one time at a time: a factor row exp(-lambda t)
    from math.exp, its product with the eigenvectors summed per closure
    vertex, and one scatter per time."""
    spec = es.spec
    data = gather(f, spec.interior) * spec.region.layout.deg[: len(spec.interior)]
    coeffs = (es.vectors[: len(data)] * data[:, None]).sum(axis=0)
    lam = np.array(es.values)
    out = []
    for t in times:
        decay = np.array([math.exp(a) for a in (-lam * t).tolist()])
        values = (es.vectors * (coeffs * decay)).sum(axis=1)
        out.append(scatter(spec.graph, spec.closure, values))
    return out


def per_row_render_trajectory_csv(times, states) -> str:
    """render_trajectory_csv with one f-string per row."""
    parts = ["time,vertex,value\n"]
    for t, u in zip(times, states):
        head = gc.format_float(t)
        parts += [f"{head},{x},{v:.17g}\n" for x, v in u.values.items()]
    return "".join(parts)


def per_value_render_json(obj, level: Optional[int] = 0) -> str:
    """cli.render_json with one recursive call per value and every key
    encoded where it is met."""
    deeper = None if level is None else level + 1
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        brackets = "{}"
        items = [f"{json.dumps(str(k))}: {per_value_render_json(v, deeper)}" for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        brackets = "[]"
        items = [per_value_render_json(v, deeper) for v in obj]
    elif isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    elif isinstance(obj, int):
        return str(obj)
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            return json.dumps(str(obj))
        return format(float(obj), ".17g")
    else:
        return json.dumps(obj)
    if level is None:
        return brackets[0] + ", ".join(items) + brackets[1]
    pad = "  " * level
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{brackets[1]}"
