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
from typing import Union

import numpy as np

from .calculus import DEFAULT_CONFIG, CalculusConfig, laplacian, weighted_inner
from .errors import DomainError, NonpositiveSpectrumError, NumericalError, ValidationError
from .graph import Graph, Region, VertexFunction, gather, scatter
from .linalg import eigh, eigvalsh
from .rng import Lcg64

BOUNDARY_CONDITIONS = ("dirichlet", "neumann", "none")

StaticPotential = Union[None, float, VertexFunction]


def potential_value(potential: StaticPotential, x: str) -> float:
    """A static potential at x: None is zero, a number is the same everywhere."""
    if potential is None:
        return 0.0
    if isinstance(potential, VertexFunction):
        return potential.value(x)
    return float(potential)


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
        return potential_value(self.potential, x)


def symmetric_matrix(spec: OperatorSpec) -> np.ndarray:
    """Degree-conjugated matrix of L on the interior, exactly symmetric."""
    lay = spec.region.layout
    k = len(spec.interior)
    scale = spec.config.laplacian_scale
    deg = lay.deg
    M = np.zeros((k, k))
    M[np.diag_indices(k)] = [scale + spec.potential_at(x) for x in spec.interior]
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
    rows must be 2-D: numpy sums a 2-D array down its first axis in order,
    but a 1-D array pairwise.
    """
    k = len(rows)
    out = np.zeros((len(spec.closure),) + rows.shape[1:])
    out[:k] = rows
    if spec.bc == "neumann":
        for r, inb in enumerate(_reflection_rows(spec), k):
            if inb.size:
                out[r] = rows[inb].sum(axis=0) / inb.size
    return out


def check_dirichlet_data(spec: OperatorSpec, f: VertexFunction) -> None:
    """Under the dirichlet condition, f must vanish wherever it is given on
    the boundary."""
    if spec.bc != "dirichlet":
        return
    for b in spec.boundary:
        if b in f and f.value(b) != 0.0:
            raise ValidationError(
                f"dirichlet data must vanish on the boundary, f({b}) = {f.value(b)}"
            )


def _on_closure(spec: OperatorSpec, column: np.ndarray) -> VertexFunction:
    """The function with these interior values (one per interior vertex),
    extended to the boundary as the spec's bc says."""
    ext = _extend_to_closure(spec, column[:, None])[:, 0]
    return scatter(spec.graph, spec.closure, ext)


def extend_to_boundary(spec: OperatorSpec, f: VertexFunction) -> VertexFunction:
    """f on the closure: its interior values, and boundary values from the
    bc (zero for dirichlet, where given data must vanish; the mean of the
    interior neighbors for neumann)."""
    check_dirichlet_data(spec, f)
    return _on_closure(spec, gather(f, spec.interior))


def apply_operator(spec: OperatorSpec, f: VertexFunction) -> VertexFunction:
    """Evaluate Lf on the interior.

    Dirichlet data must actually vanish on the boundary; Neumann data is
    extended by the reflection relation; bc 'none' needs f on all vertices.
    """
    extended = extend_to_boundary(spec, f)
    out = {}
    for x in spec.interior:
        fx = extended.values[x]
        out[x] = -laplacian(extended, x, spec.config) + spec.potential_at(x) * fx
    return VertexFunction(spec.graph, out)


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
    funcs = tuple(scatter(spec.graph, spec.closure, col) for col in vectors.T)
    return EigenSystem(spec, tuple(float(v) for v in vals), funcs, vectors)


def _expand(es: EigenSystem, f: VertexFunction, factors) -> list[VertexFunction]:
    """sum_j m_j c_j phi_j on the closure, one function per factor row m.

    c = Phi^T (d f) over the interior with d the degree; a factor row is
    phi(lambda), such as exp(-lambda t) or 1/lambda.  Only elementwise
    products and np.sum, never BLAS, so the bits do not depend on the BLAS
    thread count.  A value outside the float range is a NumericalError.
    """
    spec = es.spec
    data = gather(f, spec.interior) * spec.region.layout.deg[: len(spec.interior)]
    coeffs = (es.vectors[: len(data)] * data[:, None]).sum(axis=0)
    out = []
    for m in factors:
        values = (es.vectors * (coeffs * m)).sum(axis=1)
        finite = np.isfinite(values)
        if not finite.all():
            x = spec.closure[int(np.argmin(finite))]
            raise NumericalError(f"eigen-expansion overflowed: value at {x!r} is not finite")
        out.append(scatter(spec.graph, spec.closure, values))
    return out


def rayleigh_quotient(f: VertexFunction, spec: OperatorSpec) -> float:
    """(f, Lf)_w / (f, f)_w over the interior."""
    interior = spec.interior
    den = weighted_inner(f, f, interior)
    if den <= 0.0:
        raise ValidationError("rayleigh quotient of the zero function")
    lf = apply_operator(spec, f)
    num = weighted_inner(f, lf, interior)
    return num / den


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
    g = spec.graph
    interior = spec.interior
    rng = Lcg64(seed)
    lam_j = es.values[j - 1]

    span_max = rayleigh_quotient(es.functions[j - 1], spec)
    for _ in range(samples):
        coeffs = [rng.uniform(-1.0, 1.0) for _ in range(j)]
        norm = math.sqrt(sum(c * c for c in coeffs))
        if norm < 1e-9:
            coeffs[0] = 1.0
            norm = 1.0
        values = {}
        for v in interior:
            values[v] = sum(
                c / norm * es.functions[k].value(v) for k, c in enumerate(coeffs)
            )
        f = VertexFunction(g, values)
        span_max = max(span_max, rayleigh_quotient(f, spec))

    # any j-dimensional subspace: project the symmetric matrix and take the
    # top eigenvalue of the small block, which is the exact subspace maximum
    M = symmetric_matrix(spec)
    n = len(interior)
    worst = math.inf
    for _ in range(subspaces):
        B = np.array(
            [[rng.normal() for _ in range(j)] for _ in range(n)], dtype=float
        )
        Qmat, R = np.linalg.qr(B)
        if min(abs(float(R[k, k])) for k in range(j)) < 1e-8:
            continue
        small = Qmat.T @ M @ Qmat
        small = 0.5 * (small + small.T)
        worst = min(worst, float(eigvalsh(small)[-1]) - lam_j)
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
    boundary values enter the stencil as given.
    """
    best = math.inf
    for x in region.interior:
        ux = u.value(x)
        if ux <= 0.0:
            raise ValidationError(f"test function must be positive on interior, u({x}) = {ux}")
        lu = -laplacian(u, x, cfg) + potential_value(potential, x) * ux
        best = min(best, lu / ux)
    return best


def _interior_rows(spec: OperatorSpec, what: str, x: str, y: str) -> tuple[int, int]:
    """The rows of x and y, which must both be interior vertices."""
    rows, k = spec.region.layout.rows, len(spec.interior)
    i, j = rows.get(x, k), rows.get(y, k)
    if i >= k or j >= k:
        raise DomainError(f"{what} is defined on the interior; got ({x}, {y})")
    return i, j


class HeatKernel:
    """S_t(x, y) = sum_j exp(-lambda_j t) phi_j(x) phi_j(y) on the interior."""

    def __init__(self, es: EigenSystem):
        self.es = es
        self.interior = es.spec.interior
        self._phi = es.vectors[: len(self.interior)].T  # rows indexed by eigenfunction
        self._vals = np.array(es.values)

    def matrix(self, t: float) -> np.ndarray:
        if t < 0:
            raise ValidationError("heat kernel needs t >= 0")
        w = np.exp(-self._vals * t)
        return self._phi.T @ (w[:, None] * self._phi)

    def value(self, t: float, x: str, y: str) -> float:
        i, j = _interior_rows(self.es.spec, "heat kernel", x, y)
        return float(self.matrix(t)[i, j])

    def apply(self, t: float, f: VertexFunction) -> VertexFunction:
        """Propagate data f to time t; boundary values follow the spec's bc.

        The reconstruction is degree-weighted (the measure the
        eigenfunctions are orthonormal against), so it reproduces f at t = 0.
        """
        if t < 0:
            raise ValidationError("heat kernel needs t >= 0")
        return _expand(self.es, f, [np.exp(-self._vals * t)])[0]


def heat_kernel(es: EigenSystem) -> HeatKernel:
    return HeatKernel(es)


def heat_kernel_eval(es: EigenSystem, t: float, x: str, y: str) -> float:
    return HeatKernel(es).value(t, x, y)


class GreenFunction:
    """G(x, y) = sum_j phi_j(x) phi_j(y) / lambda_j; inverse of L."""

    def __init__(self, es: EigenSystem):
        for k, lam in enumerate(es.values):
            if lam <= 0.0:
                raise NonpositiveSpectrumError(k + 1, lam)
        self.es = es
        self.interior = es.spec.interior
        phi = es.vectors[: len(self.interior)].T
        vals = np.array(es.values)
        self._G = phi.T @ (phi / vals[:, None])
        self._inv = 1.0 / vals

    def value(self, x: str, y: str) -> float:
        return float(self._G[_interior_rows(self.es.spec, "green function", x, y)])

    def apply(self, f: VertexFunction) -> VertexFunction:
        """Solve Lu = f; boundary values follow the spec's bc."""
        return _expand(self.es, f, [self._inv])[0]


def green_function(es: EigenSystem) -> GreenFunction:
    return GreenFunction(es)
