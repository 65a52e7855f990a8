"""Maps from a graph into the unit 2-sphere: energy, tension, and flow.

The energy of a map u over a closed window is half the sum of squared
geodesic distances over ordered adjacent pairs.  Its first variation at an
interior vertex is carried by logarithm maps in the tangent plane, and the
projected gradient flow with step rejection drives the energy downhill to a
discrete harmonic map with frozen boundary values.
"""

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import AntipodalPointsError, DomainError, ValidationError, require_finite
from .graph import Graph, Region, SubgraphWindow, column_sums
from .linalg import orthonormalize
from .rng import Lcg64

ANTIPODAL_MARGIN = 1e-6
FALLBACK_POINT = (1.0, 0.0, 0.0)
SEED_SWEEPS = 10


class SpherePoint:
    """Unit vector in R^3; constructor normalizes its input."""

    __slots__ = ("xyz",)

    def __init__(self, x: float, y: float, z: float):
        sq = x * x + y * y + z * z
        # hypot only where the squares overflow or lose bits to underflow:
        # elsewhere it can differ from sqrt in the last bit
        n = math.sqrt(sq) if sys.float_info.min <= sq < math.inf else math.hypot(x, y, z)
        if n < 1e-12:
            raise ValidationError("cannot normalize a near-zero vector to the sphere")
        object.__setattr__(self, "xyz", (x / n, y / n, z / n))

    def __setattr__(self, name, value):
        raise AttributeError("SpherePoint is immutable")

    @property
    def array(self) -> np.ndarray:
        return np.array(self.xyz)

    def __eq__(self, other) -> bool:
        return isinstance(other, SpherePoint) and self.xyz == other.xyz

    def __hash__(self) -> int:
        return hash(self.xyz)

    def __repr__(self) -> str:
        return f"SpherePoint{self.xyz}"

    @classmethod
    def from_array(cls, v) -> "SpherePoint":
        return cls(float(v[0]), float(v[1]), float(v[2]))

    @classmethod
    def _unit(cls, xyz: tuple[float, float, float]) -> "SpherePoint":
        """Wrap coordinates that __init__ has already normalized once."""
        p = object.__new__(cls)
        object.__setattr__(p, "xyz", xyz)
        return p


def sphere_distance(p: SpherePoint, q: SpherePoint) -> float:
    (x0, x1, x2), (y0, y1, y2) = p.xyz, q.xyz
    return math.acos(max(-1.0, min(1.0, x0 * y0 + x1 * y1 + x2 * y2)))  # as _row_dots sums


def sphere_log(p: SpherePoint, q: SpherePoint) -> np.ndarray:
    """Tangent vector at p pointing to q with length d(p, q).

    Undefined for (near-)antipodal pairs; those raise AntipodalPointsError
    once the distance passes pi - 1e-6.
    """
    theta = sphere_distance(p, q)
    if theta < 1e-15:
        return np.zeros(3)
    if theta > math.pi - ANTIPODAL_MARGIN:
        raise AntipodalPointsError(
            f"points {p.xyz} and {q.xyz} are antipodal within tolerance"
        )
    pa, qa = p.array, q.array
    v = qa - _row_dots(pa, qa) * pa
    return (theta / math.sqrt(_row_dots(v, v))) * v


def sphere_exp(p: SpherePoint, v) -> SpherePoint:
    """Geodesic from p with initial velocity v (projected to the tangent); a projected
    v whose squared length is not finite is a NumericalError."""
    pa, va = p.array, np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by require_finite
        va = va - _row_dots(va, pa) * pa
        n = require_finite(math.sqrt(_row_dots(va, va)), "sphere exp", "the tangent length")
    if n < 1e-15:
        return p
    return SpherePoint.from_array(math.cos(n) * pa + math.sin(n) * (va / n))


class SphereMap:
    """Sphere-valued function on a subset of the vertices."""

    def __init__(self, graph: Graph, points: Mapping[str, SpherePoint]):
        self.graph = graph
        for x in points:
            graph.check_vertex(x)
        self.points: dict[str, SpherePoint] = {
            v: points[v] for v in graph.vertices if v in points
        }

    @property
    def domain(self) -> tuple[str, ...]:
        return tuple(self.points)

    def __contains__(self, x: str) -> bool:
        return x in self.points

    def point(self, x: str) -> SpherePoint:
        self.graph.check_vertex(x)
        if x not in self.points:
            raise DomainError(f"map not defined at {x!r}")
        return self.points[x]

    def defined_on(self, region: Iterable[str]) -> bool:
        return all(x in self.points for x in region)

    def updated(self, changes: Mapping[str, SpherePoint]) -> "SphereMap":
        merged = dict(self.points)
        merged.update(changes)
        return SphereMap(self.graph, merged)


def _closure_stencil(
    u: SphereMap, x: str, region: Optional[Region]
) -> tuple[list[str], int]:
    """Neighbors of x inside the region's closure (u's whole graph when
    region is None), and the ambient degree of x."""
    nbrs = u.graph.stencil(x)
    rows = (u.graph if region is None else region).layout.rows
    return [y for y in nbrs if y in rows], len(nbrs)


def _antipodal_edge(x: str, y: str) -> AntipodalPointsError:
    return AntipodalPointsError(f"adjacent vertices {x!r}, {y!r} map to antipodal points")


def check_no_antipodal_edges(u: SphereMap, region: Region) -> None:
    closure = region.layout.rows
    for x, y in region.graph.edges():
        if x in closure and y in closure and x in u and y in u:
            if sphere_distance(u.point(x), u.point(y)) > math.pi - ANTIPODAL_MARGIN:
                raise _antipodal_edge(x, y)


def energy_density(u: SphereMap, x: str, region: Optional[Region] = None) -> float:
    """e(u)(x) = (1/(2 d_x)) sum over closure neighbors of d(u(x), u(y))^2.

    d_x is the ambient degree even when the neighbor sum is restricted."""
    nbrs, d = _closure_stencil(u, x, region)
    acc = 0.0
    for y in nbrs:
        acc += sphere_distance(u.point(x), u.point(y)) ** 2
    return acc / (2.0 * d)


def map_energy(u: SphereMap, region: Region) -> float:
    """Half the sum of squared distances over ordered closure pairs."""
    acc = 0.0
    for x, y in region.layout.pair_names:
        acc += sphere_distance(u.point(x), u.point(y)) ** 2
    return 0.5 * acc


def first_variation(u: SphereMap, x: str, region: Optional[Region] = None) -> np.ndarray:
    """Tangent vector at u(x): -(1/d_x) sum over closure neighbors of log.

    Scaled so that for any tangent direction eta at u(x),
        d/deps E(u with x moved along eta) = 2 d_x <first_variation, eta>;
    the flow therefore descends along its negative.
    """
    nbrs, d = _closure_stencil(u, x, region)
    p = u.point(x)
    acc = np.zeros(3)
    for y in nbrs:
        acc += sphere_log(p, u.point(y))
    return -acc / d


@dataclass(frozen=True)
class FlowResult:
    """Projected gradient flow outcome.

    status is exactly one of "converged" (residual under tol), "step_cap"
    (max_steps exhausted), "stalled" (step size collapsed under rejection).
    """

    map: SphereMap
    status: str
    steps_accepted: int
    steps_rejected: int
    initial_energy: float
    final_energy: float
    residual: float
    tau_final: float
    history: tuple[tuple[int, float, float, float], ...]  # (step, tau, energy, residual)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis (rows of (r, 3) arrays, or 3-vectors), summed left to right."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _pair_geometry(pts: np.ndarray, src: np.ndarray, dst: np.ndarray, back: np.ndarray):
    """Cosine and angle (libm's acos: numpy's CPU-picked arccos can differ in
    the last bit) of each undirected pair (src, dst), read back onto the ordered pairs."""
    dots = _row_dots(pts[src], pts[dst])
    theta = np.fromiter(map(math.acos, np.clip(dots, -1.0, 1.0).tolist()), float, len(dots))
    return dots[back], theta[back]


def _pair_energy(theta: np.ndarray) -> float:
    """Half the sum of squared pair angles: map_energy on the pair arrays."""
    return 0.5 * float(np.sum(theta * theta))


def _fixed_step(tau: float, s: np.ndarray, y: np.ndarray) -> float:
    """The flow's step rule: tau as given, halved only by rejections."""
    return tau


def _bb_step(tau: float, s: np.ndarray, y: np.ndarray) -> float:
    """Barzilai-Borwein's first step <s, s> / <s, y> for the change s in the
    interior points and y in the first variation, clipped to [1e-3, 1e3];
    tau stays where <s, y> is not positive and finite.  The dots are summed
    as _pair_energy sums, so no BLAS reduction enters."""
    sy = float(np.sum(_row_dots(s, y)))
    if not 0.0 < sy < math.inf:
        return tau
    return min(max(float(np.sum(_row_dots(s, s))) / sy, 1e-3), 1e3)


def _descend(
    u0: SphereMap, w: SubgraphWindow, tau: float, tol: float, max_steps: int, rule
) -> FlowResult:
    """Projected gradient descent on the window energy, u <- exp_u(-tau * first_variation).

    All interior vertices move simultaneously; boundary values stay frozen.
    After each accepted step, rule(tau, s, y) picks the next tau from the
    change s in the interior points and y in the first variation.  A step
    that raises the energy is rejected and tau halves; tau below 1e-14
    means the descent cannot make progress and the result says so.

    Each step evaluates first_variation, sphere_exp and map_energy on the
    closure as an array, interior rows first, with no BLAS reduction.  The
    first variation is taken again only after an accepted step.
    """
    if not (0 < tau < math.inf and 0 < tol < math.inf) or max_steps < 1:
        raise ValidationError("tau, tol and max_steps must be positive")
    if not u0.defined_on(w.closure):
        raise ValidationError("initial map must be defined on the window closure")
    closure, k, lay = w.closure, len(w.interior), w.layout
    lay.check_interior_degrees()
    deg = lay.deg[:k, None]
    src, dst, inner = lay.src, lay.dst, lay.interior_pairs
    pts = np.array([u0.point(x).xyz for x in closure])
    keys = np.minimum(src, dst) * len(closure) + np.maximum(src, dst)
    _, once, back = np.unique(keys, return_index=True, return_inverse=True)
    pairs = (src[once], dst[once], back)  # (x, y) and (y, x) dot bit for bit alike
    dots, theta = _pair_geometry(pts, *pairs)
    energy = initial = _pair_energy(theta)
    accepted = rejected = 0
    history: list[tuple[int, float, float, float]] = []
    status = "step_cap"
    residual = math.inf
    fresh, last = True, None  # last: interior points and first variation before the last accepted step
    for step in range(1, max_steps + 1):
        if fresh:
            far = theta > math.pi - ANTIPODAL_MARGIN
            if far.any():
                i = int(far.argmax())  # the first such pair
                raise _antipodal_edge(closure[src[i]], closure[dst[i]])
            # log maps along the pairs leaving the interior, as in sphere_log
            p, t = pts[src[:inner]], theta[:inner]
            v = pts[dst[:inner]] - dots[:inner, None] * p
            vn = np.sqrt(_row_dots(v, v))
            ratio = np.divide(t, vn, out=np.zeros_like(t), where=(t >= 1e-15) & (vn > 0.0))
            fv = -lay.sums(ratio[:, None] * v) / deg
            residual = float(np.sqrt(_row_dots(fv, fv)).max(initial=0.0))
            if residual <= tol:
                status = "converged"
                break
            if last is not None:
                tau = rule(tau, pts[:k] - last[0], fv - last[1])
        # sphere_exp of every interior row, then SpherePoint's normalization;
        # a step past the float range makes a nan trial, which is rejected
        with np.errstate(over="ignore", invalid="ignore"):
            base, va = pts[:k], -tau * fv
            va -= _row_dots(va, base)[:, None] * base
            n = np.sqrt(_row_dots(va, va))[:, None]
            move = n >= 1e-15
            ahead = _normalized_rows(np.cos(n) * base + np.sin(n) * (va / np.where(move, n, 1.0)))
        trial = np.concatenate([np.where(move, ahead, base), pts[k:]])
        trial_dots, trial_theta = _pair_geometry(trial, *pairs)
        e_trial = _pair_energy(trial_theta)
        fresh = e_trial <= energy + 1e-15 * max(1.0, energy)
        if fresh:
            last = (base, fv)
            pts, dots, theta = trial, trial_dots, trial_theta
            energy = e_trial
            accepted += 1
            history.append((step, tau, energy, residual))
        else:
            rejected += 1
            tau *= 0.5
            if tau < 1e-14:
                status = "stalled"
                break
    moved = {x: SpherePoint._unit(tuple(r)) for x, r in zip(w.interior, pts[:k].tolist())}
    return FlowResult(
        map=u0.updated(moved),
        status=status,
        steps_accepted=accepted,
        steps_rejected=rejected,
        initial_energy=initial,
        final_energy=energy,
        residual=residual,
        tau_final=tau,
        history=tuple(history[-50:]),
    )


def harmonic_heat_flow(
    u0: SphereMap,
    w: SubgraphWindow,
    tau: float = 0.5,
    tol: float = 1e-10,
    max_steps: int = 10000,
) -> FlowResult:
    """The paper's flow: descend the window energy by u <- exp_u(-tau * first_variation)
    at a fixed tau, which only a rejected step halves (see _descend)."""
    return _descend(u0, w, tau, tol, max_steps, _fixed_step)


def _normalized_rows(sums: np.ndarray) -> np.ndarray:
    """Each row of an (r, 3) array normalized as SpherePoint does, or
    FALLBACK_POINT where the row's norm is below 1e-12."""
    norms = np.sqrt(_row_dots(sums, sums))[:, None]
    small = norms < 1e-12
    return np.where(small, SpherePoint(*FALLBACK_POINT).xyz, sums / np.where(small, 1.0, norms))


def _seed_map(boundary_map: SphereMap, w: SubgraphWindow) -> SphereMap:
    """The flow's start on the closure: every interior vertex at the
    normalized sum of the boundary points, then SEED_SWEEPS Jacobi sweeps
    moving each interior vertex to the normalized sum of its closure
    neighbors.

    Sums run from zero, in boundary order and in neighbor order over the
    window layout's pairs, so they add what a sum of the points' arrays
    adds, in the same order.
    """
    k, lay = len(w.interior), w.layout
    boundary = [boundary_map.point(b) for b in w.boundary]
    bnd = np.array([p.xyz for p in boundary]).reshape(-1, 3)
    base = _normalized_rows(column_sums(bnd)[None, :])
    pts = np.concatenate([np.repeat(base, k, axis=0), bnd])
    dst = lay.dst[: lay.interior_pairs]
    for _ in range(SEED_SWEEPS):
        pts[:k] = _normalized_rows(lay.sums(pts[dst]))
    points = dict(zip(w.boundary, boundary))
    points.update((x, SpherePoint._unit(tuple(r))) for x, r in zip(w.interior, pts[:k].tolist()))
    return SphereMap(w.graph, points)


@dataclass(frozen=True)
class MinimizeResult:
    flow: FlowResult
    seed_energy: float
    certificate_ok: bool  # final energy did not exceed the seed energy


def dirichlet_minimize(
    boundary_map: SphereMap,
    w: SubgraphWindow,
    tau: float = 0.5,
    tol: float = 1e-8,
    max_steps: int = 20000,
) -> MinimizeResult:
    """Harmonic extension of boundary data by seeded gradient descent.

    The interior seed is the normalized mean of the boundary points refined
    by SEED_SWEEPS normalized neighbor-averaging sweeps; zero sums
    fall back to a fixed point so seeding is total and deterministic.
    The descent's first step takes tau; later steps are Barzilai-Borwein
    (see _bb_step) under the flow's monotone-energy acceptance, so every
    accepted step still lowers the energy.
    """
    if not boundary_map.defined_on(w.boundary):
        raise ValidationError("boundary data must cover the window boundary")
    u = _seed_map(boundary_map, w)
    seed_energy = map_energy(u, w)
    flow = _descend(u, w, tau, tol, max_steps, _bb_step)
    ok = flow.final_energy <= seed_energy + 1e-12 * max(1.0, seed_energy)
    return MinimizeResult(flow=flow, seed_energy=seed_energy, certificate_ok=ok)


# ---------------------------------------------------------------------------
# ambient-coordinate form of the tension field


@dataclass(frozen=True)
class AmbientTensionReport:
    """Ambient-versus-intrinsic consistency of the tension at one vertex.

    half_energy_field carries w(xy) = d * (ambient gradient of d in its
    first slot) = -(theta/sin theta) u(y); divergence and metric_correction
    combine to R = -div - correction/2, whose tangential projection equals
    minus half the first variation exactly.  The factor 2 separates the
    ambient pair-energy normalization from the intrinsic one.
    """

    vertex: str
    divergence: tuple[float, float, float]
    metric_correction: tuple[float, float, float]
    combined: tuple[float, float, float]
    projected: tuple[float, float, float]
    first_variation: tuple[float, float, float]
    residual: float


def ambient_tension_report(
    u: SphereMap, x: str, region: Optional[Region] = None
) -> AmbientTensionReport:
    nbrs, d = _closure_stencil(u, x, region)
    p = u.point(x).array
    div = np.zeros(3)
    corr = np.zeros(3)
    for y in nbrs:
        q = u.point(y).array
        theta = sphere_distance(u.point(x), u.point(y))
        if theta > math.pi - ANTIPODAL_MARGIN:
            raise _antipodal_edge(x, y)
        ratio = theta / math.sin(theta) if theta > 1e-9 else 1.0
        div += -ratio * q
        corr += ratio * (p + q)
    div /= d
    corr /= d
    combined = -div - 0.5 * corr
    projected = combined - _row_dots(combined, p) * p
    fv = first_variation(u, x, region)
    gap = projected + 0.5 * fv
    return AmbientTensionReport(
        vertex=x,
        divergence=tuple(map(float, div)),
        metric_correction=tuple(map(float, corr)),
        combined=tuple(map(float, combined)),
        projected=tuple(map(float, projected)),
        first_variation=tuple(map(float, fv)),
        residual=math.sqrt(_row_dots(gap, gap)),
    )


def random_rotation(rng: Lcg64) -> np.ndarray:
    """Deterministic proper rotation from the package RNG: the columns of a
    matrix of normals orthonormalized in order (the Q of a QR with a positive
    R diagonal), the first one flipped when the triple product is negative."""
    q = np.array(rng.normals(9)).reshape(3, 3).T.copy()
    orthonormalize(q[None])
    if (np.cross(q[0], q[1]) * q[2]).sum() < 0.0:
        q[0] = -q[0]
    return q.T


def rotate_map(u: SphereMap, rot: np.ndarray) -> SphereMap:
    """rot applied to every point, by elementwise products and .sum."""
    return SphereMap(
        u.graph,
        {x: SpherePoint.from_array((rot * u.point(x).array).sum(axis=1)) for x in u.domain},
    )
