"""Spectral theory of L = -laplacian + Q on a graph or window.

The operator acts on interior vertices.  Three boundary treatments:

* dirichlet: functions vanish on the window boundary; boundary neighbors
  still count in the vertex degree, so the stencil feels the wall.
* neumann: boundary values are eliminated through the reflection relation
  sum over interior neighbors of grad_xy f = 0, i.e. f(b) is the mean of
  b's interior neighbors.
* none: the whole graph, no boundary.

L is self-adjoint in the degree-weighted inner product; eigensystems are
computed from the degree-conjugated symmetric matrix with the deterministic
solver of linalg, returned ascending with weighted-orthonormal
eigenfunctions in its canonical basis of each eigenspace.  Eigenvalue
indices are 1-based in reports: values[0] is the first eigenvalue.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .calculus import DEFAULT_CONFIG, CalculusConfig, laplacian
from .errors import DomainError, NonpositiveSpectrumError, ValidationError, require_finite
from .graph import (
    BOUNDARY_CONDITIONS, Graph, Region, VertexFunction, column_sums, gather, scatter, scatter_rows
)
from .linalg import eigh, eigvalsh, orthonormalize
from .rng import Lcg64

# elements of one (times, closure, modes) product in _expand, and of one
# (interior, subspaces, j, j) Gram product in courant_fischer_check
EXPAND_CHUNK = 1 << 20
EXP_LIMIT = math.log(np.finfo(float).max)  # math.exp is finite up to here, overflows past it

StaticPotential = Union[None, float, VertexFunction]


@dataclass(frozen=True)
class OperatorSpec:
    """L = -laplacian + Q on a region with a boundary condition."""

    region: Region
    bc: str = "none"
    potential: StaticPotential = None
    config: CalculusConfig = DEFAULT_CONFIG

    def __post_init__(self):
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ValidationError(f"bc must be one of {BOUNDARY_CONDITIONS}, got {self.bc!r}")
        whole = isinstance(self.region, Graph)
        if self.bc == "none" and not whole:
            raise ValidationError("bc 'none' runs on the whole graph, not a window")
        if self.bc != "none" and whole:
            raise ValidationError(f"bc {self.bc!r} needs a window with a boundary")

    @property
    def graph(self) -> Graph:
        return self.region.graph

    @property
    def interior(self) -> tuple[str, ...]:
        return self.region.interior

    @property
    def boundary(self) -> tuple[str, ...]:
        return self.region.boundary

    @property
    def closure(self) -> tuple[str, ...]:
        return self.region.closure

    def potential_at(self, x: str) -> float:
        return float(_potential_rows(self.potential, (x,))[0])


def symmetric_matrix(spec: OperatorSpec) -> np.ndarray:
    """Degree-conjugated matrix of L on the interior, exactly symmetric."""
    lay = spec.region.layout
    lay.check_interior_degrees()
    k = len(spec.interior)
    scale = spec.config.laplacian_scale
    deg = lay.deg
    M = np.zeros((k, k))
    M[np.diag_indices(k)] = scale + _potential_rows(spec.potential, spec.interior)
    src, dst = lay.src[: lay.interior_pairs], lay.dst[: lay.interior_pairs]
    i, j = src[dst < k], dst[dst < k]
    M[i, j] = -scale / np.sqrt(deg[i] * deg[j])
    if spec.bc == "neumann":
        # eliminate each boundary vertex through the mean of its interior
        # neighbors; the correction stays symmetric because the coupling
        # x -> b -> z weighs both directions by 1/#(interior nbrs of b)
        for inb in _reflection_rows(spec):
            if inb.size:
                d = deg[inb]
                M[np.ix_(inb, inb)] -= scale * (1.0 / inb.size) / np.sqrt(np.outer(d, d))
    return M


def _reflection_rows(spec: OperatorSpec) -> list[np.ndarray]:
    """For each boundary vertex, the rows of its interior neighbors in
    neighbor order."""
    lay = spec.region.layout
    k, n = len(spec.interior), len(spec.closure)
    src, dst = lay.src[lay.interior_pairs :], lay.dst[lay.interior_pairs :]
    return [d[d < k] for d in np.split(dst, np.searchsorted(src, np.arange(k + 1, n)))]


def _extend_to_closure(spec: OperatorSpec, rows: np.ndarray) -> np.ndarray:
    """Interior rows (one per interior vertex) stacked over boundary rows.

    A boundary row is zero for dirichlet and the mean of the rows of its
    interior neighbors for neumann, summed in neighbor order from zero.
    rows holds one function (1-D) or a stack of them (one per column).
    """
    k = len(rows)
    out = np.zeros((len(spec.closure),) + rows.shape[1:])
    out[:k] = rows
    if spec.bc == "neumann":
        for r, inb in enumerate(_reflection_rows(spec), k):
            if inb.size:
                out[r] = column_sums(rows[inb]) / inb.size
    return out


def _potential_rows(potential: StaticPotential, xs: Sequence[str]) -> np.ndarray:
    """A static potential at each of xs: None is zero, a number is the same
    everywhere."""
    if isinstance(potential, VertexFunction):
        return gather(potential, xs)
    return np.full(len(xs), 0.0 if potential is None else float(potential))


def _laplacian_rows(spec: OperatorSpec, ext: np.ndarray) -> np.ndarray:
    """The laplacian on the interior rows of a closure array.

    ext has one row per closure vertex, as _extend_to_closure returns it:
    one function (1-D) or one column per function.  The layout sums each
    interior row's neighbor differences in neighbor order from zero, so
    every entry equals the pointwise laplacian bit for bit.
    """
    lay = spec.region.layout
    lay.check_interior_degrees()
    k, inner = len(spec.interior), lay.interior_pairs
    sums = lay.sums(ext[lay.dst[:inner]] - ext[lay.src[:inner]])
    deg = lay.deg[:k] if ext.ndim == 1 else lay.deg[:k, None]
    return (spec.config.laplacian_scale * sums) / deg


def _apply_rows(spec: OperatorSpec, ext: np.ndarray) -> np.ndarray:
    """L = -laplacian + Q on the interior rows of a closure stack with one
    column per function."""
    lap = _laplacian_rows(spec, ext)
    q = _potential_rows(spec.potential, spec.interior)
    return -lap + q[:, None] * ext[: len(q)]


def check_dirichlet_data(spec: OperatorSpec, f: VertexFunction) -> None:
    """Under the dirichlet condition, f must vanish wherever it is given on
    the boundary."""
    if spec.bc != "dirichlet":
        return
    for b in spec.boundary:
        value = f.values.get(b, 0.0)
        if value != 0.0:
            raise ValidationError(f"dirichlet data must vanish on the boundary, f({b}) = {value}")


def _closure_rows(spec: OperatorSpec, f: VertexFunction) -> np.ndarray:
    """f on the closure rows: its interior values, and boundary values from
    the bc (zero for dirichlet, where given data must vanish; the mean of the
    interior neighbors for neumann)."""
    check_dirichlet_data(spec, f)
    return _extend_to_closure(spec, gather(f, spec.interior))


def apply_operator(spec: OperatorSpec, f: VertexFunction) -> VertexFunction:
    """Evaluate Lf on the interior.

    Dirichlet data must actually vanish on the boundary; Neumann data is
    extended by the reflection relation; bc 'none' needs f on all vertices.
    A value outside the float range is a NumericalError naming its vertex.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        lf = _apply_rows(spec, _closure_rows(spec, f)[:, None])[:, 0]
    return scatter(spec.graph, spec.interior, require_finite(lf, "operator", spec.interior))


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with weighted-orthonormal eigenfunctions.

    vectors is a read-only array with one row per closure vertex (interior
    first, then boundary, as in spec.closure) and one column per
    eigenfunction: zero on the boundary for dirichlet, reflection-extended
    for neumann, whole graph for none.  functions[j] holds column j.
    Indices are 1-based in all reports: values[0] is eigenvalue 1.
    """

    spec: OperatorSpec
    values: tuple[float, ...]
    functions: tuple[VertexFunction, ...]
    vectors: np.ndarray = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.values)


def eigensystem(spec: OperatorSpec) -> EigenSystem:
    M = symmetric_matrix(spec)
    vals, vecs = eigh(M)
    vectors = _extend_to_closure(spec, vecs / np.sqrt(spec.region.layout.deg[: len(M)])[:, None])
    vectors.flags.writeable = False
    funcs = tuple(scatter_rows(spec.graph, spec.closure, vectors.T))
    return EigenSystem(spec, tuple(float(v) for v in vals), funcs, vectors)


def _expand(es: EigenSystem, f: VertexFunction, factors: np.ndarray) -> list[VertexFunction]:
    """sum_j m_j c_j phi_j on the closure, one function per factor row m.

    c = Phi^T (d f) over the interior with d the degree; a factor row is
    phi(lambda), such as exp(-lambda t) or 1/lambda, and factors holds one
    per row.  Only elementwise products and np.sum, never BLAS, so the bits
    do not depend on the BLAS thread count; the rows are expanded together,
    EXPAND_CHUNK product elements at a time, each summed as a single row
    would be.  Dirichlet data must vanish on the boundary, and a value
    outside the float range is a NumericalError naming the first, in row
    order, then closure order.
    """
    spec = es.spec
    check_dirichlet_data(spec, f)
    phi = es.vectors
    values = np.empty((len(factors), len(phi)))
    step = max(1, EXPAND_CHUNK // phi.size)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        data = gather(f, spec.interior) * spec.region.layout.deg[: len(spec.interior)]
        coeffs = (phi[: len(data)] * data[:, None]).sum(axis=0)
        for a in range(0, len(factors), step):
            products = phi[None] * (coeffs * factors[a : a + step])[:, None]
            values[a : a + step] = products.sum(axis=2)
    require_finite(values, "eigen-expansion", spec.closure)
    return scatter_rows(spec.graph, spec.closure, values)


def _decay_rows(values: Sequence[float], times) -> np.ndarray:
    """The factor rows exp(-lambda t), one per time, from libm: numpy's exp
    kernel, picked by CPU, can differ in the last bit.  Overflow gives inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        args = -np.array(values) * np.array(times, dtype=float)[:, None]
    flat = np.where(args > EXP_LIMIT, math.inf, args).ravel().tolist()
    return np.fromiter(map(math.exp, flat), float, args.size).reshape(args.shape)


def _heat(es: EigenSystem, f: VertexFunction, times) -> list[VertexFunction]:
    """_expand with the factor rows exp(-lambda t), one per time."""
    return _expand(es, f, _decay_rows(es.values, times))


def _quotients(spec: OperatorSpec, rows: np.ndarray) -> np.ndarray:
    """The Rayleigh quotient (f, Lf)_w / (f, f)_w of each column of an
    interior stack; a quotient outside the float range is a NumericalError.
    A nonzero column whose weighted norm underflows to 0 is first scaled by
    the power of two that brings its largest entry into [1/2, 1)."""
    lay = spec.region.layout
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        den = lay.integral(rows * rows)
        tiny = (den == 0.0) & (rows != 0.0).any(axis=0)
        if tiny.any():
            rows = np.where(tiny, np.ldexp(rows, -np.frexp(abs(rows).max(axis=0))[1]), rows)
            den = lay.integral(rows * rows)
        if np.any(den <= 0.0):
            raise ValidationError("rayleigh quotient of the zero function")
        q = lay.integral(rows * _apply_rows(spec, _extend_to_closure(spec, rows))) / den
    return require_finite(q, "rayleigh quotient", "a weighted sum")


def rayleigh_quotient(f: VertexFunction, spec: OperatorSpec) -> float:
    """(f, Lf)_w / (f, f)_w over the interior; the zero function is checked first."""
    q = _quotients(spec, gather(f, spec.interior)[:, None])
    check_dirichlet_data(spec, f)
    return float(q[0])


@dataclass(frozen=True)
class CourantFischerReport:
    j: int
    lambda_j: float
    span_max: float
    span_gap: float
    subspace_worst_excess: float
    samples: int
    subspaces: int
    seed: int


def courant_fischer_check(
    es: EigenSystem,
    j: int,
    seed: int = 1,
    samples: int = 200,
    subspaces: int = 50,
) -> CourantFischerReport:
    """Variational characterization of eigenvalue j (1-based).

    The Rayleigh quotient maximum over span(phi_1..phi_j) must equal
    lambda_j; the maximum over any other j-dimensional subspace can only be
    larger.  Sampled deterministically from the seed.
    """
    if not 1 <= j <= len(es):
        raise ValidationError(f"eigenvalue index {j} out of range 1..{len(es)}")
    spec = es.spec
    k = len(spec.interior)
    rng = Lcg64(seed)
    lam_j = es.values[j - 1]

    # the first column is phi_j; each sample is sum_i (c_i / |c|) phi_i,
    # added in index order from zero
    weights = rng.uniforms(samples * j, -1.0, 1.0).reshape(samples, j)
    norms = np.array([math.sqrt(sum(c * c for c in row)) for row in weights.tolist()], dtype=float)
    tiny = norms < 1e-9
    weights[tiny, 0], norms[tiny] = 1.0, 1.0
    weights /= norms[:, None]
    basis = es.vectors[:k, :j]
    stack = np.zeros((k, 1 + samples))
    stack[:, 0] = basis[:, j - 1]
    for i, c in enumerate(weights.T):
        stack[:, 1:] += basis[:, i : i + 1] * c
    span_max = max(_quotients(spec, stack).tolist())

    # any j-dimensional subspace: the top eigenvalue of L's Gram block
    # (y_a, L y_b)_w on an orthonormal basis y is the exact subspace maximum.
    # Subspaces go as stacks whose (k, m, j, j) Gram product stays within
    # EXPAND_CHUNK elements; a rank-deficient subspace is dropped.
    lay = spec.region.layout
    worst = math.inf
    group = max(1, EXPAND_CHUNK // (k * j * j))
    for start in range(0, subspaces, group):
        m = min(group, subspaces - start)
        Q = np.array(rng.normals(m * k * j)).reshape(m, k, j).transpose(0, 2, 1).copy()
        Q = Q[~(orthonormalize(Q).min(axis=1) < 1e-8)]
        m = len(Q)
        # Q is in symmetric_matrix's coordinates; Y holds one row per interior vertex
        Y = Q.transpose(2, 0, 1) / np.sqrt(lay.deg[:k])[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):  # eigvalsh refuses a non-finite block
            LY = _apply_rows(spec, _extend_to_closure(spec, Y.reshape(k, m * j))).reshape(k, m, j)
            products = (Y[:, :, :, None] * LY[:, :, None]).reshape(k, m * j * j)
            gram = lay.integral(products).reshape(m, j, j)
            for block in 0.5 * (gram + gram.transpose(0, 2, 1)):
                worst = min(worst, float(eigvalsh(block)[-1]) - lam_j)
    return CourantFischerReport(
        j=j,
        lambda_j=lam_j,
        span_max=span_max,
        span_gap=span_max - lam_j,
        subspace_worst_excess=worst,
        samples=samples,
        subspaces=subspaces,
        seed=seed,
    )


def barta_bound(
    region: Region,
    potential: StaticPotential,
    u: VertexFunction,
    cfg: CalculusConfig = DEFAULT_CONFIG,
) -> float:
    """min over interior x of (Lu)(x) / u(x) for a positive test function.

    Lower bound for the first eigenvalue of L with Dirichlet condition on
    the window (or on the whole graph for a plain graph region).  u must be
    strictly positive on the interior and defined on closed neighborhoods;
    boundary values enter the stencil as given.  A ratio outside the float
    range is a NumericalError naming its vertex, never a bound.
    """
    ratios = []
    for x, q in zip(region.interior, _potential_rows(potential, region.interior).tolist()):
        ux = u.value(x)
        if ux <= 0.0:
            raise ValidationError(f"test function must be positive on interior, u({x}) = {ux}")
        ratios.append((-laplacian(u, x, cfg) + q * ux) / ux)
    require_finite(np.array(ratios), "barta bound", region.interior)
    return min(ratios, default=math.inf)


def _row_products(es: EigenSystem, what: str, x: str, y: str) -> np.ndarray:
    """phi_j(x) phi_j(y) for each eigenfunction; x and y must both be
    interior vertices.  A kernel entry sums these against its factors m as
    in _expand, so it reads two eigenvector rows and builds no matrix."""
    rows, k = es.spec.region.layout.rows, len(es.spec.interior)
    i, j = rows.get(x, k), rows.get(y, k)
    if i >= k or j >= k:
        raise DomainError(f"{what} is defined on the interior; got ({x}, {y})")
    return es.vectors[i] * es.vectors[j]


class HeatKernel:
    """S_t(x, y) = sum_j exp(-lambda_j t) phi_j(x) phi_j(y) on the interior."""

    def __init__(self, es: EigenSystem):
        self.es = es
        self.interior = es.spec.interior

    def _decay(self, t: float) -> np.ndarray:
        """exp(-lambda_j t) for each eigenvalue."""
        if not t >= 0:
            raise ValidationError("heat kernel needs t >= 0")
        return _decay_rows(self.es.values, [t])[0]

    @np.errstate(over="ignore", invalid="ignore")  # reported by require_finite
    def matrix(self, t: float) -> np.ndarray:
        """Phi diag(exp(-lambda t)) Phi^T, Phi holding one eigenfunction per
        column, over the interior."""
        phi = self.es.vectors[: len(self.interior)]
        return require_finite(phi @ (self._decay(t)[:, None] * phi.T), "heat kernel", "an entry")

    @np.errstate(over="ignore", invalid="ignore")  # reported by require_finite
    def value(self, t: float, x: str, y: str) -> float:
        products = _row_products(self.es, "heat kernel", x, y)
        return float(require_finite((products * self._decay(t)).sum(), "heat kernel", "an entry"))

    def apply(self, t: float, f: VertexFunction) -> VertexFunction:
        """Propagate data f to time t; boundary values follow the spec's bc.

        The reconstruction is degree-weighted (the measure the
        eigenfunctions are orthonormal against), so it reproduces f at t = 0.
        """
        return _expand(self.es, f, self._decay(t)[None])[0]


class GreenFunction:
    """G(x, y) = sum_j phi_j(x) phi_j(y) / lambda_j; inverse of L."""

    def __init__(self, es: EigenSystem):
        for k, lam in enumerate(es.values):
            if lam <= 0.0:
                raise NonpositiveSpectrumError(k + 1, lam)
        self.es = es
        self.interior = es.spec.interior
        self._inv = 1.0 / np.array(es.values)

    def value(self, x: str, y: str) -> float:
        return float((_row_products(self.es, "green function", x, y) * self._inv).sum())

    def apply(self, f: VertexFunction) -> VertexFunction:
        """Solve Lu = f; boundary values follow the spec's bc."""
        return _expand(self.es, f, self._inv[None])[0]
