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
normalization some flows prefer, and CalculusConfig snaps a value within
1e-12 of either to it.  Everything downstream records the scale it ran with.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional

from . import _numpy as np
from .errors import DomainError, ValidationError, require_finite
from .graph import Graph, Region, SubgraphWindow, VertexFunction, build_window, gather
from .rng import Lcg64

ALLOWED_SCALES = (1.0, 2.0 / 3.0)


@dataclass(frozen=True)
class CalculusConfig:
    """Package-wide numeric conventions carried through every computation."""

    laplacian_scale: float = 1.0

    def __post_init__(self):
        x = self.laplacian_scale
        near = [s for s in ALLOWED_SCALES if isinstance(x, numbers.Real) and abs(x - s) < 1e-12]
        if not near:
            raise ValidationError(f"laplacian_scale must be 1 or 2/3, got {x!r}")
        object.__setattr__(self, "laplacian_scale", near[0])  # snapped to the allowed value


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
        self.scaling: Optional[tuple[float, "VectorField"]] = None
        self._pairs: Optional[np.ndarray] = None

    @cached_property
    def entries(self) -> dict[tuple[str, str], float]:
        """The value on each ordered pair; a scaled field builds them on
        first read."""
        c, w = self.scaling
        return {k: c * v for k, v in w.entries.items()}

    def value(self, x: str, y: str) -> float:
        self.graph.check_edge(x, y)
        if (x, y) not in self.entries:
            raise DomainError(f"field not defined on ordered pair ({x}, {y})")
        return self.entries[(x, y)]

    def scaled(self, c: float) -> "VectorField":
        """The field c * w on the same pairs, without checking them again.

        It keeps scaling = (c, w) and builds its entries only when read, so
        pair_values() can scale w's array instead (the same products)."""
        out = object.__new__(type(self))
        out.graph = self.graph
        out.scaling = (c, self)
        return out

    def pair_values(self) -> np.ndarray:
        """The field on graph.layout's ordered pairs, in pair order.

        A plain field gathers its entries once and keeps the read-only array,
        and a pair off the field raises value()'s error; a scaled field c * w
        returns c times w's array."""
        if self.scaling is not None:
            c, w = self.scaling
            return c * w.pair_values()
        if self._pairs is None:
            keys = self.graph.layout.pair_names
            if len(self.entries) < len(keys):  # value() raises for the first pair off the field
                self.value(*next(k for k in keys if k not in self.entries))
            self._pairs = np.fromiter(map(self.entries.__getitem__, keys), float, len(keys))
            self._pairs.flags.writeable = False
        return self._pairs

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


def gradient_field(f: VertexFunction) -> VectorField:
    """The gradient as an antisymmetric field on ordered pairs inside f's domain."""
    g = f.graph
    entries = {}
    for x in f.domain:
        for y in g.neighbors(x):
            if y in f:
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
    subject = "the degree-weighted sum"  # what overflows when every square is finite
    try:
        total = sum(f.value(x) ** 2 * g.degree(x) for x in region)
    except OverflowError:  # a square past the float range
        total, subject = math.inf, "a square"
    return require_finite(total, "weighted norm", subject)


def weighted_inner(f: VertexFunction, h: VertexFunction, region: Iterable[str]) -> float:
    g = f.graph
    total = sum(f.value(x) * h.value(x) * g.degree(x) for x in region)
    return require_finite(total, "weighted inner product", "a sum")


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
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        total = region.layout.energy(gather(f, region.closure))
    return require_finite(total, "closure energy", "a sum")


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
    residual = lhs - interior - boundary
    require_finite((lhs, interior, boundary, residual), "green identity", "a term")

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
        residual=residual,
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
    terms = (lhs, -0.5 * pairing, prod, lhs - (-0.5 * pairing + prod))
    return GreenVectorFieldReport(*require_finite(terms, "green identity", "a term"))


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
    hess = hessian(f, x)
    return MaximumPrincipleReport(
        vertex=x,
        is_min=is_min,
        gradient_nonnegative=is_min,
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
    return build_window(g, list(g.bfs(g.vertices[0]))[: (len(g) + 1) // 2])


def run_identity_suite(
    g: Graph, seed: int, trials: int, cfg: CalculusConfig = DEFAULT_CONFIG
) -> dict:
    """Randomized residual checks for every first-order identity.

    Deterministic given the seed.  Each trial draws, as one Lcg64.uniforms
    batch, the instances random_function (f, then h) and
    random_antisymmetric_field (W) would draw, and evaluates both sides of
    every identity as arrays over the graph's layout pairs, each side from a
    different operator.  The
    pointwise functions above are the reference the tests hold it to.  Values
    are drawn in [-1, 1] so residuals sit at accumulation roundoff, far below
    the 1e-12 gate; the maximum-principle minima are the floats the pointwise
    checks return.  Returns a dict of per-check summaries with max absolute
    residuals.  Fewer than one trial would certify nothing: a ValidationError.
    """
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    rng = Lcg64(seed)
    win = canonical_window(g)
    scale = cfg.laplacian_scale
    lay, n = g.layout, len(g)
    src, dst, deg = lay.src, lay.dst, lay.deg
    lay.check_interior_degrees()
    inside = np.zeros(n, dtype=bool)
    inside[[lay.rows[x] for x in win.interior]] = True
    leaves = inside[src]  # pairs leaving the window interior
    stays, exits = leaves & inside[dst], leaves & ~inside[dst]
    # W(x, y) is the draw of edge {x, y}, which g.edges() lists with x first
    # in file order, and its negative on (y, x)
    edge_of = {(lay.rows[x], lay.rows[y]): k for k, (x, y) in enumerate(g.edges())}
    ends = zip(np.minimum(src, dst).tolist(), np.maximum(src, dst).tolist())
    edge = np.array([edge_of[e] for e in ends], dtype=np.intp)
    forward = src < dst

    def div(pair_values: np.ndarray) -> np.ndarray:
        return lay.sums(pair_values) / deg

    checks = {
        "divergence_theorem": 0.0,
        "green_symmetric": 0.0,
        "green_vectorfield": 0.0,
        "gradient_product_rule": 0.0,
        "field_product_rule": 0.0,
        "directional_vs_product": 0.0,
        "hessian_trace": 0.0,
    }

    def gap(name: str, lhs, rhs) -> None:
        worst = float(np.max(np.abs(np.subtract(lhs, rhs)), initial=0.0))
        checks[name] = max(checks[name], worst)

    minima_checked = 0
    min_laplacian = math.inf
    min_hessian_entry = math.inf
    min_gradient_entry = math.inf

    for _ in range(trials):
        draws = rng.uniforms(2 * n + len(edge_of), -1.0, 1.0)
        f, h, drawn = draws[:n], draws[n : 2 * n], draws[2 * n :]
        w = np.where(forward, drawn[edge], -drawn[edge])
        df, dh = f[dst] - f[src], h[dst] - h[src]

        gap("divergence_theorem", np.sum(w), 0.0)
        gap("divergence_theorem", np.sum(w[stays]), 0.0)

        lap = scale * lay.sums(df) / deg
        lhs = np.sum((deg * lap * h)[inside])
        interior = -scale / 2.0 * np.sum((df * dh)[stays])
        boundary = scale * np.sum((h[src] * df)[exits])
        gap("green_symmetric", lhs - interior, boundary)

        div_w, w_f = div(w), div(w * df)  # div W, and W(f) = W . grad f
        div_fw = div(0.5 * (f[src] + f[dst]) * w)
        lhs = np.sum((deg * div_w * f)[inside])
        pairing = np.sum((deg * w_f)[inside])
        gap("green_vectorfield", lhs, -0.5 * pairing + np.sum((deg * div_fw)[inside]))

        fh = f * h
        gap("gradient_product_rule", fh[dst] - fh[src], f[src] * dh + h[src] * df + df * dh)
        gap("field_product_rule", div_fw, f * div_w + 0.5 * w_f)
        gap("directional_vs_product", div(w * f[dst]) - f * div_w, w_f)
        hess_diag = 0.5 * (f[dst] + f[dst] - 2.0 * f[src])
        gap("hessian_trace", lay.sums(hess_diag), deg * (lay.sums(df) / deg))

        # x is a local minimum when no neighbor is lower; the smallest
        # gradient and hessian entries there are taken at the lowest neighbor
        low = np.full(n, math.inf)
        np.minimum.at(low, src, f[dst])
        at_min = low >= f
        if at_min.any():
            minima_checked += int(np.count_nonzero(at_min))
            min_laplacian = min(min_laplacian, float(lap[at_min].min()))
            min_hessian_entry = min(
                min_hessian_entry, float((0.5 * (low + low - 2.0 * f))[at_min].min())
            )
            min_gradient_entry = min(min_gradient_entry, float((low - f)[at_min].min()))

    report = {name: {"max_abs_residual": value, "trials": trials} for name, value in checks.items()}
    # each trial checks at least one local minimum: its global minimum
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
