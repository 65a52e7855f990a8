"""First-order calculus on graphs: differences, fields, divergence, Laplacian.

Conventions, fixed once here and used everywhere:

* edge difference        grad_xy f = f(y) - f(x) for an ordered edge (x, y)
* gradient at x          the tuple of edge differences, neighbors in file order
* vector field           one real per ordered adjacent pair
* pointwise product      (W . U)(x)  = (1/d_x) sum_y w(xy) u(xy)
* divergence             (div W)(x)  = (1/d_x) sum_y w(xy)
* laplacian              (Lap f)(x)  = scale * (1/d_x) sum_y (f(y) - f(x))
* integral over A        sum_{x in A} f(x) d_x   (degree-weighted measure)

The laplacian scale is 1 by default; 2/3 is accepted for the diffusive
normalization some flows prefer.  Everything downstream records which scale
it ran with.
"""

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .errors import DomainError, NotAdjacentError, ValidationError
from .graph import Graph, Region, SubgraphWindow, VertexFunction, gather
from .rng import Lcg64

ALLOWED_SCALES = (1.0, 2.0 / 3.0)


@dataclass(frozen=True)
class CalculusConfig:
    """Package-wide numeric conventions carried through every computation."""

    laplacian_scale: float = 1.0

    def __post_init__(self):
        if not any(abs(self.laplacian_scale - s) < 1e-12 for s in ALLOWED_SCALES):
            raise ValidationError(
                f"laplacian_scale must be 1 or 2/3, got {self.laplacian_scale!r}"
            )


DEFAULT_CONFIG = CalculusConfig()


class VectorField:
    """Real values on ordered adjacent pairs of a graph.

    Entries are stored per ordered pair; an undirected edge may carry two
    unrelated values unless the field is antisymmetric.  Pairs that are not
    edges are rejected at construction.
    """

    def __init__(self, graph: Graph, entries: Mapping[tuple[str, str], float]):
        self.graph = graph
        vals: dict[tuple[str, str], float] = {}
        for (x, y), w in entries.items():
            graph.check_edge(x, y)
            vals[(x, y)] = float(w)
        self.entries = vals

    def value(self, x: str, y: str) -> float:
        self.graph.check_edge(x, y)
        if (x, y) not in self.entries:
            raise DomainError(f"field not defined on ordered pair ({x}, {y})")
        return self.entries[(x, y)]

    def scaled(self, c: float) -> "VectorField":
        """The field c * w on the same pairs, without checking them again."""
        out = object.__new__(type(self))
        out.graph = self.graph
        out.entries = {k: c * v for k, v in self.entries.items()}
        return out

    def is_antisymmetric(self, tol: float = 1e-12) -> bool:
        for (x, y), w in self.entries.items():
            back = self.entries.get((y, x))
            if back is None or abs(w + back) > tol * max(1.0, abs(w)):
                return False
        return True


def edge_difference(f: VertexFunction, x: str, y: str) -> float:
    """f(y) - f(x) along the ordered edge (x, y)."""
    f.graph.check_edge(x, y)
    return f.value(y) - f.value(x)


def gradient(f: VertexFunction, x: str) -> tuple[float, ...]:
    """Edge differences from x, neighbors in file order."""
    return tuple(edge_difference(f, x, y) for y in f.graph.neighbors(x))


def gradient_norm_sq(f: VertexFunction, x: str) -> float:
    """|grad f(x)|^2 = (1/d_x) sum_y (f(y) - f(x))^2."""
    d = len(f.graph.stencil(x))
    return sum(t * t for t in gradient(f, x)) / d


def gradient_field(f: VertexFunction, region: Optional[Iterable[str]] = None) -> VectorField:
    """The gradient as an antisymmetric field on ordered pairs inside f's domain."""
    g = f.graph
    verts = list(f.domain) if region is None else [g.check_vertex(v) for v in region]
    allowed = set(verts)
    entries = {}
    for x in verts:
        for y in g.neighbors(x):
            if y in allowed and y in f:
                entries[(x, y)] = f.value(y) - f.value(x)
    return VectorField(g, entries)


def divergence(W: VectorField, x: str) -> float:
    """(div W)(x) = (1/d_x) sum over neighbors of w(xy)."""
    nbrs = W.graph.stencil(x)
    return sum(W.value(x, y) for y in nbrs) / len(nbrs)


def scalar_product(W: VectorField, U: VectorField, x: str) -> float:
    """(W . U)(x) with the 1/d_x normalization."""
    nbrs = W.graph.stencil(x)
    return sum(W.value(x, y) * U.value(x, y) for y in nbrs) / len(nbrs)


def directional_derivative(W: VectorField, f: VertexFunction, x: str) -> float:
    """W(f)(x) = (1/d_x) sum_y w(xy) (f(y) - f(x)).

    Single 1/d_x normalization; identical to the pointwise product of W with
    the gradient field of f.
    """
    nbrs = W.graph.stencil(x)
    return sum(W.value(x, y) * (f.value(y) - f.value(x)) for y in nbrs) / len(nbrs)


def laplacian(f: VertexFunction, x: str, cfg: CalculusConfig = DEFAULT_CONFIG) -> float:
    """Random-walk laplacian: scale * (1/d_x) sum_y (f(y) - f(x))."""
    nbrs = f.graph.stencil(x)
    return cfg.laplacian_scale * sum(f.value(y) - f.value(x) for y in nbrs) / len(nbrs)


def pointwise_product(f: VertexFunction, W: VectorField) -> VectorField:
    """(f W)(xy) = (f(x) + f(y))/2 * w(xy), over W's pair set."""
    entries = {}
    for (x, y), w in W.entries.items():
        entries[(x, y)] = 0.5 * (f.value(x) + f.value(y)) * w
    return VectorField(W.graph, entries)


@dataclass(frozen=True)
class HessianMatrix:
    """Second difference matrix at a vertex.

    entry(y, z) = (f(y) + f(z) - 2 f(x)) / 2 for neighbors y, z of x, with
    neighbor_order giving the row/column labels in file order.
    """

    vertex: str
    neighbor_order: tuple[str, ...]
    entries: tuple[tuple[float, ...], ...]

    def trace(self) -> float:
        return sum(self.entries[i][i] for i in range(len(self.neighbor_order)))


def hessian(f: VertexFunction, x: str) -> HessianMatrix:
    """Hessian of f at x; its trace equals d_x times the scale-1 laplacian."""
    nbrs = f.graph.stencil(x)
    fx = f.value(x)
    rows = tuple(
        tuple(0.5 * (f.value(y) + f.value(z) - 2.0 * fx) for z in nbrs) for y in nbrs
    )
    return HessianMatrix(x, nbrs, rows)


def integrate(f: VertexFunction, region: Iterable[str]) -> float:
    """Degree-weighted integral sum f(x) d_x over the region."""
    g = f.graph
    return sum(f.value(x) * g.degree(x) for x in region)


def weighted_norm_sq(f: VertexFunction, region: Iterable[str]) -> float:
    g = f.graph
    return sum(f.value(x) ** 2 * g.degree(x) for x in region)


def weighted_inner(f: VertexFunction, h: VertexFunction, region: Iterable[str]) -> float:
    g = f.graph
    return sum(f.value(x) * h.value(x) * g.degree(x) for x in region)


def dirichlet_energy(f: VertexFunction, region: Region) -> float:
    """sum over x interior, y any neighbor, of (f(y) - f(x))^2.

    Each interior-incident ordered pair counts once: interior-interior edges
    twice (both directions), interior-boundary edges once.
    """
    g = region.graph
    total = 0.0
    for x in region.interior:
        fx = f.value(x)
        for y in g.neighbors(x):
            t = f.value(y) - fx
            total += t * t
    return total


def closure_energy(f: VertexFunction, region: Region) -> float:
    """sum over ordered adjacent pairs with both ends in the closure.

    This is the closed-window energy; with zero boundary data it equals
    twice the scale-1 quadratic form of the negative laplacian.
    """
    vals, lay = gather(f, region.closure), region.layout
    total = 0.0
    for t in (vals[lay.dst] - vals[lay.src]).tolist():
        total += t * t
    return total


def divergence_theorem_residual(W: VectorField, g: Graph, region: Iterable[str]) -> float:
    """sum_{x in A} sum_{y in N(x) cap A} w(xy); zero for antisymmetric W."""
    A = [g.check_vertex(x) for x in region]
    inside = set(A)
    total = 0.0
    for x in A:
        for y in g.neighbors(x):
            if y in inside:
                total += W.value(x, y)
    return total


@dataclass(frozen=True)
class GreenSymmetricReport:
    """Integration by parts for the laplacian on a window.

    lhs            integral over S of (Lap f) g with the weighted measure
    interior_term  -(scale/2) sum over ordered pairs x,y in S of grad f grad g
    boundary_term  scale * sum over x in S, y boundary neighbor, g(x) grad_xy f
    residual       lhs - interior_term - boundary_term (identically zero)

    The commonly quoted -3/2 shortcut (lhs = -3/2 * dirichlet energy for
    f = g vanishing on the boundary) does not follow from these definitions;
    ratio_vs_energy reports the measured lhs / energy quotient so the claim
    can be inspected without being asserted.
    """

    lhs: float
    interior_term: float
    boundary_term: float
    residual: float
    scale: float
    ratio_vs_energy: Optional[float]


def green_symmetric_report(
    f: VertexFunction,
    gfun: VertexFunction,
    w: SubgraphWindow,
    cfg: CalculusConfig = DEFAULT_CONFIG,
) -> GreenSymmetricReport:
    g = w.graph
    scale = cfg.laplacian_scale
    inner = set(w.interior)
    lhs = 0.0
    for x in w.interior:
        lhs += g.degree(x) * laplacian(f, x, cfg) * gfun.value(x)
    interior = 0.0
    for x in w.interior:
        fx, gx = f.value(x), gfun.value(x)
        for y in g.neighbors(x):
            if y in inner:
                interior += (f.value(y) - fx) * (gfun.value(y) - gx)
    interior *= -scale / 2.0
    boundary = 0.0
    for x in w.interior:
        gx = gfun.value(x)
        fx = f.value(x)
        for y in g.neighbors(x):
            if y not in inner:
                boundary += gx * (f.value(y) - fx)
    boundary *= scale

    ratio = None
    same = all(
        x in f and x in gfun and f.value(x) == gfun.value(x) for x in w.closure
    )
    if same and all(abs(f.value(y)) == 0.0 for y in w.boundary):
        energy = dirichlet_energy(f, w)
        if energy > 0.0:
            ratio = lhs / (scale * energy)

    return GreenSymmetricReport(
        lhs=lhs,
        interior_term=interior,
        boundary_term=boundary,
        residual=lhs - interior - boundary,
        scale=scale,
        ratio_vs_energy=ratio,
    )


@dataclass(frozen=True)
class GreenVectorFieldReport:
    """Divergence form of integration by parts on a window.

    lhs = integral over S of (div W) f; equals -1/2 integral of W . grad f
    plus the integral of div(f W), all with the weighted measure.
    """

    lhs: float
    half_pairing_term: float
    product_divergence_term: float
    residual: float


def green_vectorfield_report(
    W: VectorField, f: VertexFunction, w: SubgraphWindow
) -> GreenVectorFieldReport:
    g = w.graph
    lhs = 0.0
    pairing = 0.0
    prod = 0.0
    fW = pointwise_product(f, W)
    for x in w.interior:
        d = g.degree(x)
        lhs += d * divergence(W, x) * f.value(x)
        pairing += d * directional_derivative(W, f, x)
        prod += d * divergence(fW, x)
    return GreenVectorFieldReport(
        lhs=lhs,
        half_pairing_term=-0.5 * pairing,
        product_divergence_term=prod,
        residual=lhs - (-0.5 * pairing + prod),
    )


def is_local_min(f: VertexFunction, x: str, strict: bool = False) -> bool:
    diffs = gradient(f, x)
    return all(t > 0 for t in diffs) if strict else all(t >= 0 for t in diffs)


def is_local_max(f: VertexFunction, x: str, strict: bool = False) -> bool:
    diffs = gradient(f, x)
    return all(t < 0 for t in diffs) if strict else all(t <= 0 for t in diffs)


@dataclass(frozen=True)
class MaximumPrincipleReport:
    vertex: str
    is_min: bool
    gradient_nonnegative: bool
    hessian_nonnegative: bool
    laplacian_value: float


def maximum_principle_check(
    f: VertexFunction, x: str, cfg: CalculusConfig = DEFAULT_CONFIG
) -> MaximumPrincipleReport:
    """At a local minimum the gradient, hessian entries and laplacian are >= 0."""
    is_min = is_local_min(f, x)
    grads = gradient(f, x)
    hess = hessian(f, x)
    return MaximumPrincipleReport(
        vertex=x,
        is_min=is_min,
        gradient_nonnegative=all(t >= 0 for t in grads),
        hessian_nonnegative=all(e >= 0 for row in hess.entries for e in row),
        laplacian_value=laplacian(f, x, cfg),
    )


def random_function(g: Graph, rng: Lcg64, lo: float = -1.0, hi: float = 1.0) -> VertexFunction:
    return VertexFunction(g, {v: rng.uniform(lo, hi) for v in g.vertices})


def random_antisymmetric_field(
    g: Graph, rng: Lcg64, lo: float = -1.0, hi: float = 1.0
) -> VectorField:
    entries = {}
    for x, y in g.edges():
        v = rng.uniform(lo, hi)
        entries[(x, y)] = v
        entries[(y, x)] = -v
    return VectorField(g, entries)


def canonical_window(g: Graph) -> SubgraphWindow:
    """Deterministic proper window: grow a BFS ball from the first vertex to
    about half the graph.  Used by the randomized identity suite."""
    from collections import deque

    target = max(1, (len(g) + 1) // 2)
    if len(g) == 1:
        target = 1
    root = g.vertices[0]
    picked = [root]
    seen = {root}
    queue = deque([root])
    while queue and len(picked) < target:
        v = queue.popleft()
        for wv in g.neighbors(v):
            if wv not in seen:
                seen.add(wv)
                picked.append(wv)
                queue.append(wv)
                if len(picked) >= target:
                    break
    from .graph import build_window

    return build_window(g, picked)


def run_identity_suite(
    g: Graph, seed: int, trials: int, cfg: CalculusConfig = DEFAULT_CONFIG
) -> dict:
    """Randomized residual checks for every first-order identity.

    Deterministic given the seed.  Values are drawn in [-1, 1] so residuals
    sit at accumulation roundoff, far below the 1e-12 gate.  Returns a dict
    of per-check summaries with max absolute residuals.
    """
    rng = Lcg64(seed)
    win = canonical_window(g)
    checks = {
        "divergence_theorem": 0.0,
        "green_symmetric": 0.0,
        "green_vectorfield": 0.0,
        "gradient_product_rule": 0.0,
        "field_product_rule": 0.0,
        "directional_vs_product": 0.0,
        "hessian_trace": 0.0,
    }
    scale1 = CalculusConfig(laplacian_scale=1.0)
    minima_checked = 0
    min_laplacian = math.inf
    min_hessian_entry = math.inf
    min_gradient_entry = math.inf

    for _ in range(max(0, trials)):
        f = random_function(g, rng)
        h = random_function(g, rng)
        W = random_antisymmetric_field(g, rng)

        r = divergence_theorem_residual(W, g, g.vertices)
        checks["divergence_theorem"] = max(checks["divergence_theorem"], abs(r))
        r = divergence_theorem_residual(W, g, win.interior)
        checks["divergence_theorem"] = max(checks["divergence_theorem"], abs(r))

        rep = green_symmetric_report(f, h, win, cfg)
        checks["green_symmetric"] = max(checks["green_symmetric"], abs(rep.residual))

        repv = green_vectorfield_report(W, f, win)
        checks["green_vectorfield"] = max(checks["green_vectorfield"], abs(repv.residual))

        fg = VertexFunction(g, {v: f.value(v) * h.value(v) for v in g.vertices})
        fW = pointwise_product(f, W)
        gf = gradient_field(f)
        for x in g.vertices:
            fx, hx = f.value(x), h.value(x)
            for y in g.neighbors(x):
                lhs = edge_difference(fg, x, y)
                rhs = (
                    fx * edge_difference(h, x, y)
                    + hx * edge_difference(f, x, y)
                    + edge_difference(f, x, y) * edge_difference(h, x, y)
                )
                checks["gradient_product_rule"] = max(
                    checks["gradient_product_rule"], abs(lhs - rhs)
                )
            lhs = divergence(fW, x)
            rhs = fx * divergence(W, x) + 0.5 * directional_derivative(W, f, x)
            checks["field_product_rule"] = max(checks["field_product_rule"], abs(lhs - rhs))

            lhs = directional_derivative(W, f, x)
            rhs = scalar_product(W, gf, x)
            checks["directional_vs_product"] = max(
                checks["directional_vs_product"], abs(lhs - rhs)
            )

            tr = hessian(f, x).trace()
            expect = g.degree(x) * laplacian(f, x, scale1)
            checks["hessian_trace"] = max(checks["hessian_trace"], abs(tr - expect))

            if is_local_min(f, x):
                minima_checked += 1
                rep = maximum_principle_check(f, x, cfg)
                min_laplacian = min(min_laplacian, rep.laplacian_value)
                min_hessian_entry = min(
                    min_hessian_entry, min(e for row in hessian(f, x).entries for e in row)
                )
                min_gradient_entry = min(min_gradient_entry, min(gradient(f, x)))

    report = {
        name: {"max_abs_residual": value, "trials": max(0, trials)}
        for name, value in checks.items()
    }
    report["maximum_principle"] = {
        "local_minima_checked": minima_checked,
        "min_laplacian": None if minima_checked == 0 else min_laplacian,
        "min_hessian_entry": None if minima_checked == 0 else min_hessian_entry,
        "min_gradient_entry": None if minima_checked == 0 else min_gradient_entry,
    }
    report["window_interior"] = list(win.interior)
    report["scale"] = cfg.laplacian_scale
    report["seed"] = seed
    return report
