"""Isoperimetric and Poincare constants of a finite graph.

Cheeger constants come from exhaustive subset enumeration (exact small-
integer arithmetic; float comparisons of cut/volume ratios are faithful
because correctly rounded quotients of integers this small cannot collide).
One pass over the 2^(n-1) complement pairs serves both h and g
(`cheeger_constants`); subsets and neighbourhoods are bitmasks counted with
`np.bitwise_count`, which needs numpy 2.0 or later.
Poincare constants come from the spectral module: the closed-window energy
sum over ordered adjacent pairs equals twice the scale-1 quadratic form of
the negative laplacian, so the sharp constant against the degree-weighted
mass is twice the relevant eigenvalue.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calculus import DEFAULT_CONFIG, CalculusConfig
from .errors import ValidationError
from .graph import Graph, SubgraphWindow, VertexFunction, volume

ENUMERATION_VERTEX_CAP = 24
_CHUNK = 1 << 18


@dataclass(frozen=True)
class CutReport:
    """One subset with everything both Cheeger ratios need."""

    subset: tuple[str, ...]
    edge_cut: int
    boundary_vertices: int
    volume_inside: int
    volume_outside: int

    @property
    def h_value(self) -> float:
        return self.edge_cut / min(self.volume_inside, self.volume_outside)

    @property
    def g_value(self) -> float:
        return self.boundary_vertices / min(self.volume_inside, self.volume_outside)


def cut_report(g: Graph, subset) -> CutReport:
    inner = {g.check_vertex(x) for x in subset}
    if not inner or len(inner) == len(g):
        raise ValidationError("subset must be proper and nonempty")
    cut = 0
    for x, y in g.edges():
        if (x in inner) != (y in inner):
            cut += 1
    bdry = sum(
        1
        for v in g.vertices
        if v not in inner and any(w in inner for w in g.neighbors(v))
    )
    vol_in = volume(g, inner)
    vol_out = volume(g, set(g.vertices) - inner)
    ordered = tuple(v for v in g.vertices if v in inner)
    return CutReport(ordered, cut, bdry, vol_in, vol_out)


def _enumerate_cuts(g: Graph):
    """Yield (masks, h, g_of_S, g_of_comp) per chunk of subset bitmasks.

    Masks always contain vertex 0, one representative per complement pair;
    both orientations' vertex-boundary counts are produced so the g constant
    sees every subset.  Each vertex's neighbourhood is a bitmask, so for a
    vertex v the neighbours inside S and outside S are popcounts of
    nbr[v] & S and nbr[v] & ~S; volumes come from one degree-sum table per
    mask byte.
    """
    n = len(g)
    deg = np.array([g.degree(v) for v in g.vertices], dtype=np.int64)
    total = int(deg.sum())
    nbr = np.array([sum(1 << g.index[w] for w in g.neighbors(v)) for v in g.vertices], np.uint32)
    byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    vol_tables = [(byte_bits[:, : d.size] * d).sum(axis=1) for d in np.split(deg, range(8, n, 8))]
    full = (1 << n) - 1
    count = 1 << (n - 1)  # odd masks 1, 3, ..., 2^n - 1
    for start in range(0, count, _CHUNK):
        stop = min(start + _CHUNK, count)
        masks = 1 + 2 * np.arange(start, stop, dtype=np.uint32)
        masks = masks[masks != full]
        if masks.size == 0:
            continue
        vol = sum(t[(masks >> (8 * b)) & 0xFF] for b, t in enumerate(vol_tables))
        comp = ~masks
        cut = np.zeros(masks.size, dtype=np.int32)
        bdry_out = np.zeros(masks.size, dtype=np.int32)  # |delta S|
        bdry_in = np.zeros(masks.size, dtype=np.int32)  # |delta (S complement)|
        for v in range(n):
            inside = (masks & (1 << v)).astype(bool)
            nbrs_in = np.bitwise_count(masks & nbr[v])
            nbrs_out = np.bitwise_count(comp & nbr[v])
            cut += nbrs_out * inside  # edges leaving S at v
            bdry_out += (nbrs_in > 0) & ~inside  # v outside S, next to S
            bdry_in += (nbrs_out > 0) & inside  # v in S, next to the complement
        m = np.minimum(vol, total - vol)
        yield masks, cut / m, bdry_out / m, bdry_in / m


def _mask_key(mask: int, g: Graph) -> tuple[int, ...]:
    return tuple(i for i in range(len(g)) if mask >> i & 1)


def _mask_vertices(mask: int, g: Graph) -> tuple[str, ...]:
    return tuple(g.vertices[i] for i in range(len(g)) if mask >> i & 1)


def _check_enumerable(g: Graph) -> None:
    if len(g) < 2:
        raise ValidationError("cheeger constants need at least 2 vertices")
    if len(g) > ENUMERATION_VERTEX_CAP:
        raise ValidationError(
            f"graph has {len(g)} vertices, enumeration cap is {ENUMERATION_VERTEX_CAP}"
        )
    if any(g.degree(v) == 0 for v in g.vertices):
        raise ValidationError("cheeger constants need a graph without isolated vertices")


class _RunningMin:
    """Smallest ratio seen so far and every mask that attains it."""

    def __init__(self):
        self.best: Optional[float] = None
        self.candidates: list[int] = []

    def update(self, *pairs) -> None:
        """Take one chunk as (ratios, masks) pairs of equal length."""
        lo = min(float(ratios.min()) for ratios, _ in pairs)
        if self.best is None or lo < self.best:
            self.best = lo
            self.candidates = []
        if lo <= self.best:
            for ratios, masks in pairs:
                self.candidates.extend(int(m) for m in masks[ratios == self.best])

    def witness(self, g: Graph) -> CutReport:
        assert self.best is not None and self.candidates
        winner = min(self.candidates, key=lambda m: _mask_key(m, g))
        return cut_report(g, _mask_vertices(winner, g))


def cheeger_constants(g: Graph) -> tuple[float, CutReport, float, CutReport]:
    """(h, h witness, g, g witness) from one enumeration of the subsets.

    Each witness is the lexicographically smallest optimal subset in the
    vertex-index order.  For h, h(S) = h(complement), so an optimal subset
    containing vertex 0 exists and beats any witness without it; for g both
    orientations of every complement pair compete.
    """
    _check_enumerable(g)
    full = (1 << len(g)) - 1
    h_min, g_min = _RunningMin(), _RunningMin()
    for masks, h, gs, gc in _enumerate_cuts(g):
        h_min.update((h, masks))
        g_min.update((gs, masks), (gc, full ^ masks))
    return h_min.best, h_min.witness(g), g_min.best, g_min.witness(g)


def cheeger_h(g: Graph) -> tuple[float, CutReport]:
    """Edge Cheeger constant with its lexicographically smallest witness."""
    h, h_report, _, _ = cheeger_constants(g)
    return h, h_report


def cheeger_g(g: Graph) -> tuple[float, CutReport]:
    """Vertex-boundary variant; both orientations of every pair compete."""
    _, _, g_value, g_report = cheeger_constants(g)
    return g_value, g_report


def weighted_median(g: Graph, f: VertexFunction) -> float:
    """Smallest value m with deg-weight of {f <= m} at least half the total.

    Minimizes the degree-weighted absolute deviation; when a whole interval
    of minimizers exists the smaller endpoint is returned.
    """
    pairs = sorted((f.value(v), g.degree(v)) for v in g.vertices)
    total = sum(w for _, w in pairs)
    acc = 0
    for value, w in pairs:
        acc += w
        if 2 * acc >= total:
            return value
    return pairs[-1][0]


def cheeger_functional(g: Graph, f: VertexFunction) -> float:
    """Edge-variation to deviation ratio at the optimal centering constant.

    numerator: sum over undirected edges of |f(y) - f(x)|
    denominator: min over c of sum_x |f(x) - c| d_x, attained at the
    degree-weighted median.  Indicator functions of subsets reproduce the
    subset ratio h(S) exactly.
    """
    num = sum(abs(f.value(y) - f.value(x)) for x, y in g.edges())
    m = weighted_median(g, f)
    den = sum(abs(f.value(v) - m) * g.degree(v) for v in g.vertices)
    if den == 0.0:
        raise ValidationError("functional needs a nonconstant function")
    return num / den


def poincare_dirichlet_constant(
    w: SubgraphWindow, cfg: CalculusConfig = DEFAULT_CONFIG
) -> float:
    """Sharp c in: closed-window energy of u >= c * weighted mass of u,
    for u vanishing on the boundary.

    The energy sums (f(y) - f(x))^2 over ordered adjacent pairs with both
    ends in the closure; with zero boundary data that equals twice the
    scale-1 quadratic form, so c = 2 mu_1 and the first Dirichlet
    eigenfunction attains equality.
    """
    from .spectral import OperatorSpec, eigensystem

    es = eigensystem(OperatorSpec(w, "dirichlet", None, cfg))
    return 2.0 * es.values[0] / cfg.laplacian_scale


def poincare_neumann_constant(g: Graph, cfg: CalculusConfig = DEFAULT_CONFIG) -> float:
    """Sharp c in: whole-graph energy of u >= c * weighted mass of u - mean.

    The mean is degree-weighted, so the constant is twice the smallest
    nonzero eigenvalue of the negative laplacian.  Needs a connected graph.
    """
    from .spectral import OperatorSpec, eigensystem

    if not g.is_connected():
        raise ValidationError("neumann poincare constant needs a connected graph")
    if len(g) < 2:
        raise ValidationError("neumann poincare constant needs at least 2 vertices")
    es = eigensystem(OperatorSpec(g, "none", None, cfg))
    return 2.0 * es.values[1] / cfg.laplacian_scale
