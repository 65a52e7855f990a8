"""Isoperimetric and Poincare constants of a finite graph.

Cheeger constants come from exhaustive subset enumeration (exact small-
integer arithmetic; float comparisons of cut/volume ratios are faithful
because correctly rounded quotients of integers this small cannot collide).
One pass over the 2^(n-1) complement pairs serves both h and g
(`cheeger_constants`).  Subsets and neighbourhoods are bitmasks counted with
`np.bitwise_count`, which needs numpy 2.0 or later.  The masks split into a
low part, the first L = log2(_CHUNK) + 1 vertices, and a high part.  Tables
over the low parts that contain vertex 0 (volume, edges inside, the union of
neighbourhoods inside and outside, and the mask bit-reversed) are built by
doubling: the entries with vertex k are those without it plus k.  Each
pattern of the high vertices is one chunk of _CHUNK masks, few enough (2^14)
that its arrays stay in a core's L2 cache, and turns the tables into the
chunk's cuts and boundaries with a few whole-array operations.  Each running
minimum keeps one witness, the lexicographically smallest tied subset: one
arg-extremum of the bit-reversed masks picks it where the tied masks share a
high vertex (`_enumerate_cuts`), and `_lex_smallest` elsewhere.
Poincare constants come from the spectral module: the closed-window energy
sum over ordered adjacent pairs equals twice the scale-1 quadratic form of
the negative laplacian, so the sharp constant against the degree-weighted
mass is twice the relevant eigenvalue.
"""

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Optional

import numpy as np

from .calculus import DEFAULT_CONFIG, CalculusConfig
from .errors import ValidationError, require_finite
from .graph import Graph, SubgraphWindow, VertexFunction, column_sums, gather, vertex_boundary, volume
from .linalg import eigvalsh
from .spectral import OperatorSpec, symmetric_matrix

ENUMERATION_VERTEX_CAP = 24
_CHUNK = 1 << 14  # masks per chunk, a power of two


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
    bdry = len(vertex_boundary(g, inner))
    vol_in = volume(g, inner)
    vol_out = volume(g, set(g.vertices) - inner)
    ordered = tuple(v for v in g.vertices if v in inner)
    return CutReport(ordered, cut, bdry, vol_in, vol_out)


def _enumerate_cuts(g: Graph):
    """Yield (h, g_of_S, g_of_comp, inside, outside) per chunk of subset bitmasks.

    Masks always contain vertex 0, one representative per complement pair,
    in increasing order; both orientations' vertex-boundary counts are
    produced so the g constant sees every subset.  A chunk is one pattern of
    the vertices from L on, over every low part of the tables; inside(idx)
    and outside(idx) are the lexicographically smallest of its subsets idx
    and of their complements.  Each chunk's arrays are written over the last.
    """
    n = len(g)
    deg = [g.degree(v) for v in g.vertices]
    nbr = [sum(1 << g.index[w] for w in g.neighbors(v)) for v in g.vertices]
    total = sum(deg)
    full = (1 << n) - 1
    low_n = min(n, _CHUNK.bit_length())
    size = 1 << (low_n - 1)
    # per low part S: its mask, its mask with vertex i at bit L - 1 - i, its
    # volume, the edges inside it, and the OR of the neighbourhoods of its
    # vertices and of the low vertices outside it; entry j + s adds vertex k
    # to entry j < s = 2^(k-1).  Volumes and edge counts fit int16: at the
    # cap they are at most 24 * 23 = 552
    low = np.empty(size, np.uint32)
    rev = np.empty(size, np.uint32)
    vol = np.empty(size, np.int16)
    inner = np.empty(size, np.int16)
    reach_in = np.empty(size, np.uint32)
    reach_out = np.empty(size, np.uint32)
    low[0], rev[0], vol[0], inner[0] = 1, 1 << (low_n - 1), deg[0], 0
    reach_in[0], reach_out[0] = nbr[0], 0
    for k in range(1, low_n):
        s = 1 << (k - 1)
        np.bitwise_or(low[:s], 1 << k, out=low[s : 2 * s])
        np.bitwise_or(rev[:s], 1 << (low_n - 1 - k), out=rev[s : 2 * s])
        np.add(vol[:s], deg[k], out=vol[s : 2 * s])
        np.add(inner[:s], np.bitwise_count(low[:s] & nbr[k]), out=inner[s : 2 * s])
        np.bitwise_or(reach_in[:s], nbr[k], out=reach_in[s : 2 * s])
        reach_out[s : 2 * s] = reach_out[:s]
        reach_out[:s] |= nbr[k]
    # edges from each high vertex into the low part
    into_low = [np.bitwise_count(low & nbr[v]) for v in range(low_n, n)]
    patterns = 1 << (n - low_n)
    masks_out = np.empty(size, np.uint32)
    ratios = np.empty((3, size))
    for pattern in range(patterns):
        high = pattern << low_n
        last = pattern == patterns - 1
        ins = [v for v in range(low_n, n) if high >> v & 1]
        outs = [v for v in range(low_n, n) if not high >> v & 1]
        t = slice(size - last)  # the full set ends the last chunk
        masks = np.bitwise_or(low[t], high, out=masks_out[t])
        vol_s = vol[t] + sum(deg[v] for v in ins)
        cut = inner[t] + sum((nbr[v] & high).bit_count() for v in ins) // 2
        for v in ins:
            cut += into_low[v - low_n][t]
        cut *= -2
        cut += vol_s  # edges leaving S: its volume less twice the edges inside
        reach = reach_in[t] | reduce(or_, (nbr[v] for v in ins), 0)
        bdry_out = np.bitwise_count(reach & ~masks)  # |delta S|
        reach = reach_out[t] | reduce(or_, (nbr[v] for v in outs), 0)
        bdry_in = np.bitwise_count(reach & masks)  # |delta (S complement)|
        m = np.minimum(vol_s, total - vol_s)
        h, g_s, g_c = ratios[:, t]
        np.divide(cut, m, out=h)
        np.divide(bdry_out, m, out=g_s)
        np.divide(bdry_in, m, out=g_c)
        # a chunk's subsets share its high vertices.  If there are any, of two
        # subsets the one holding the lowest vertex where they differ is the
        # smaller and has the larger rev.  Outside the last chunk the
        # complements share high vertices too, and the smallest rev wins.
        # Without shared high vertices a prefix can win: see _lex_smallest
        def inside(idx):
            return int(masks[idx[rev[idx].argmax()]]) if high else _lex_smallest(masks[idx])

        def outside(idx):
            if last:
                return _lex_smallest(full ^ masks[idx])
            return full ^ int(masks[idx[rev[idx].argmin()]])

        yield h, g_s, g_c, inside, outside


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


def _lex_smallest(masks: np.ndarray) -> int:
    """The mask whose vertex indices, ascending, form the lexicographically
    smallest tuple.  The masks agree below the lowest vertex v at which any
    two differ.  A mask with no vertex from v on is a prefix of the others
    and wins; otherwise the masks holding v do, and agree up to v."""
    while masks.size > 1 and (differ := int(np.bitwise_or.reduce(masks ^ masks[0]))):
        v = differ & -differ
        ended = masks < v
        masks = masks[ended if ended.any() else masks & v != 0]
    return int(masks[0])


class _RunningMin:
    """Smallest ratio seen so far and the lexicographically smallest mask
    that attains it."""

    def __init__(self):
        self.best: Optional[float] = None
        self.mask: Optional[int] = None

    def update(self, *pairs) -> None:
        """Take one chunk as (ratios, pick) pairs, pick as `_enumerate_cuts`
        gives inside and outside."""
        lows = [ratios.min() for ratios, _ in pairs]
        lo = float(min(lows))
        if self.best is None or lo < self.best:
            self.best, self.mask = lo, None
        if lo == self.best:
            tied = [pick(np.flatnonzero(r == lo)) for (r, pick), m in zip(pairs, lows) if m == lo]
            if self.mask is not None:
                tied.append(self.mask)
            self.mask = _lex_smallest(np.array(tied, np.uint32))

    def witness(self, g: Graph) -> CutReport:
        assert self.mask is not None
        return cut_report(g, _mask_vertices(self.mask, g))


def cheeger_constants(g: Graph) -> tuple[float, CutReport, float, CutReport]:
    """(h, h witness, g, g witness) from one enumeration of the subsets.

    Each witness is the lexicographically smallest optimal subset in the
    vertex-index order.  For h, h(S) = h(complement), so an optimal subset
    containing vertex 0 exists and beats any witness without it; for g both
    orientations of every complement pair compete.
    """
    _check_enumerable(g)
    h_min, g_min = _RunningMin(), _RunningMin()
    for h, gs, gc, inside, outside in _enumerate_cuts(g):
        h_min.update((h, inside))
        g_min.update((gs, inside), (gc, outside))
    return h_min.best, h_min.witness(g), g_min.best, g_min.witness(g)


def cheeger_h(g: Graph) -> tuple[float, CutReport]:
    """Edge Cheeger constant with its lexicographically smallest witness."""
    h, h_report, _, _ = cheeger_constants(g)
    return h, h_report


def cheeger_g(g: Graph) -> tuple[float, CutReport]:
    """Vertex-boundary variant; both orientations of every pair compete."""
    _, _, g_value, g_report = cheeger_constants(g)
    return g_value, g_report


def _median(vals: np.ndarray, deg: np.ndarray) -> float:
    pairs = sorted(zip(vals.tolist(), deg.tolist()))
    total = sum(w for _, w in pairs)
    acc = 0
    for value, w in pairs:
        acc += w
        if 2 * acc >= total:
            return value


def weighted_median(g: Graph, f: VertexFunction) -> float:
    """Smallest value m with deg-weight of {f <= m} at least half the total.

    Minimizes the degree-weighted absolute deviation; when a whole interval
    of minimizers exists the smaller endpoint is returned.
    """
    return _median(gather(f, g.vertices), g.layout.deg)


def cheeger_functional(g: Graph, f: VertexFunction) -> float:
    """Edge-variation to deviation ratio at the optimal centering constant.

    numerator: sum over undirected edges of |f(y) - f(x)|
    denominator: min over c of sum_x |f(x) - c| d_x, attained at the
    degree-weighted median.  Indicator functions of subsets reproduce the
    subset ratio h(S) exactly.  Both sums add in edge and vertex order.
    """
    try:
        vals = gather(f, g.vertices)
    except ValidationError:
        # name the vertex that the edge sum reaches first
        gather(f, [v for x, y in g.edges() for v in (y, x)])
        raise
    ends = np.array([(g.index[x], g.index[y]) for x, y in g.edges()], np.intp).reshape(-1, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        num = column_sums(np.abs(vals[ends[:, 1]] - vals[ends[:, 0]]))
        m = _median(vals, g.layout.deg)
        den = g.layout.integral(np.abs(vals - m))
    require_finite([num, den], "cheeger functional", "a sum")
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
    mu = eigvalsh(symmetric_matrix(OperatorSpec(w, "dirichlet", None, cfg)))
    return 2.0 * float(mu[0]) / cfg.laplacian_scale


def poincare_neumann_constant(g: Graph, cfg: CalculusConfig = DEFAULT_CONFIG) -> float:
    """Sharp c in: whole-graph energy of u >= c * weighted mass of u - mean.

    The mean is degree-weighted, so the constant is twice the smallest
    nonzero eigenvalue of the negative laplacian.  Needs a connected graph.
    """
    if not g.is_connected():
        raise ValidationError("neumann poincare constant needs a connected graph")
    if len(g) < 2:
        raise ValidationError("neumann poincare constant needs at least 2 vertices")
    mu = eigvalsh(symmetric_matrix(OperatorSpec(g, "none", None, cfg)))
    return 2.0 * float(mu[1]) / cfg.laplacian_scale
