"""Maps from a graph into the unit 2-sphere: energy, tension, and flow.

The energy of a map u over a closed window is half the sum of squared
geodesic distances over ordered adjacent pairs.  Its first variation at an
interior vertex is carried by logarithm maps in the tangent plane, and the
projected gradient flow with step rejection drives the energy downhill to a
discrete harmonic map with frozen boundary values.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from .errors import AntipodalPointsError, DomainError, ValidationError
from .graph import Graph, Region, SubgraphWindow
from .rng import Lcg64

ANTIPODAL_MARGIN = 1e-6
FALLBACK_POINT = (1.0, 0.0, 0.0)
SEED_SWEEPS = 10


class SpherePoint:
    """Unit vector in R^3; constructor normalizes its input."""

    __slots__ = ("xyz",)

    def __init__(self, x: float, y: float, z: float):
        n = math.sqrt(x * x + y * y + z * z)
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
    dot = max(-1.0, min(1.0, float(np.dot(p.array, q.array))))
    return math.acos(dot)


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
    v = qa - float(np.dot(pa, qa)) * pa
    return (theta / float(np.linalg.norm(v))) * v


def sphere_exp(p: SpherePoint, v) -> SpherePoint:
    """Geodesic from p with initial velocity v (projected to the tangent)."""
    pa = p.array
    va = np.asarray(v, dtype=float)
    va = va - float(np.dot(va, pa)) * pa
    n = float(np.linalg.norm(va))
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


def check_no_antipodal_edges(u: SphereMap, region: Region) -> None:
    closure = region.layout.rows
    for x, y in region.graph.edges():
        if x in closure and y in closure and x in u and y in u:
            if sphere_distance(u.point(x), u.point(y)) > math.pi - ANTIPODAL_MARGIN:
                raise AntipodalPointsError(
                    f"adjacent vertices {x!r}, {y!r} map to antipodal points"
                )


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
    closure, lay = region.closure, region.layout
    acc = 0.0
    for i, j in zip(lay.src.tolist(), lay.dst.tolist()):
        acc += sphere_distance(u.point(closure[i]), u.point(closure[j])) ** 2
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
    """Row-wise dot products of two (r, 3) arrays, summed left to right."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def _pair_geometry(pts: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """Cosine and geodesic angle between the two points of each pair."""
    dots = _row_dots(pts[src], pts[dst])
    return dots, np.arccos(np.clip(dots, -1.0, 1.0))


def _pair_energy(theta: np.ndarray) -> float:
    """Half the sum of squared pair angles: map_energy on the pair arrays."""
    return 0.5 * float(np.sum(theta * theta))


def harmonic_heat_flow(
    u0: SphereMap,
    w: SubgraphWindow,
    tau: float = 0.5,
    tol: float = 1e-10,
    max_steps: int = 10000,
) -> FlowResult:
    """Descend the window energy by u <- exp_u(-tau * first_variation).

    All interior vertices move simultaneously; boundary values stay frozen.
    A step that raises the energy is rejected and tau halves.  tau below
    1e-14 means the flow cannot make progress and the result says so.

    Each step evaluates first_variation, sphere_exp and map_energy on the
    closure as an array, interior rows first, with no BLAS reduction.
    """
    if tau <= 0 or tol <= 0 or max_steps < 1:
        raise ValidationError("tau, tol and max_steps must be positive")
    if not u0.defined_on(w.closure):
        raise ValidationError("initial map must be defined on the window closure")
    closure, k, lay = w.closure, len(w.interior), w.layout
    deg = lay.deg[:k, None]
    if not deg.all():
        raise ValidationError(f"vertex {w.interior[int(deg.argmin())]!r} is isolated")
    src, dst, inner = lay.src, lay.dst, lay.interior_pairs
    slots = (3 * src[:inner, None] + np.arange(3)).ravel()
    pts = np.array([u0.point(x).xyz for x in closure])
    dots, theta = _pair_geometry(pts, src, dst)
    energy = initial = _pair_energy(theta)
    accepted = rejected = 0
    history: list[tuple[int, float, float, float]] = []
    status = "step_cap"
    residual = math.inf
    for step in range(1, max_steps + 1):
        far = theta > math.pi - ANTIPODAL_MARGIN
        if far.any():
            i = int(far.argmax())  # the first such pair
            x, y = closure[src[i]], closure[dst[i]]
            raise AntipodalPointsError(f"adjacent vertices {x!r}, {y!r} map to antipodal points")
        # log maps along the pairs leaving the interior, as in sphere_log
        p, t = pts[src[:inner]], theta[:inner]
        v = pts[dst[:inner]] - dots[:inner, None] * p
        ratio = np.divide(t, np.sqrt(_row_dots(v, v)), out=np.zeros_like(t), where=t >= 1e-15)
        logs = (ratio[:, None] * v).ravel()
        fv = -np.bincount(slots, weights=logs, minlength=3 * k).reshape(k, 3) / deg
        residual = float(np.sqrt(_row_dots(fv, fv)).max(initial=0.0))
        if residual <= tol:
            status = "converged"
            break
        # sphere_exp of every interior row, then SpherePoint's normalization
        base, va = pts[:k], -tau * fv
        va -= _row_dots(va, base)[:, None] * base
        n = np.sqrt(_row_dots(va, va))[:, None]
        move = n >= 1e-15
        ahead = np.cos(n) * base + np.sin(n) * (va / np.where(move, n, 1.0))
        ahead /= np.sqrt(_row_dots(ahead, ahead))[:, None]
        trial = np.concatenate([np.where(move, ahead, base), pts[k:]])
        trial_dots, trial_theta = _pair_geometry(trial, src, dst)
        e_trial = _pair_energy(trial_theta)
        if e_trial <= energy + 1e-15 * max(1.0, energy):
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


def _normalized_sum(vectors) -> SpherePoint:
    acc = sum(vectors, np.zeros(3))
    if float(np.linalg.norm(acc)) < 1e-12:
        return SpherePoint(*FALLBACK_POINT)
    return SpherePoint.from_array(acc)


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
    """Harmonic extension of boundary data by seeded gradient flow.

    The interior seed is the normalized mean of the boundary points refined
    by SEED_SWEEPS normalized neighbor-averaging sweeps; zero sums
    fall back to a fixed point so seeding is total and deterministic.
    """
    if not boundary_map.defined_on(w.boundary):
        raise ValidationError("boundary data must cover the window boundary")
    base = _normalized_sum(boundary_map.point(b).array for b in w.boundary)
    points = {b: boundary_map.point(b) for b in w.boundary}
    for x in w.interior:
        points[x] = base
    u = SphereMap(w.graph, points)
    closure = set(w.closure)
    for _ in range(SEED_SWEEPS):
        new_points = {
            x: _normalized_sum(
                u.point(y).array for y in w.graph.neighbors(x) if y in closure
            )
            for x in w.interior
        }
        u = u.updated(new_points)
    seed_energy = map_energy(u, w)
    flow = harmonic_heat_flow(u, w, tau=tau, tol=tol, max_steps=max_steps)
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
            raise AntipodalPointsError(
                f"adjacent vertices {x!r}, {y!r} map to antipodal points"
            )
        ratio = theta / math.sin(theta) if theta > 1e-9 else 1.0
        div += -ratio * q
        corr += ratio * (p + q)
    div /= d
    corr /= d
    combined = -div - 0.5 * corr
    projected = combined - float(np.dot(combined, p)) * p
    fv = first_variation(u, x, region)
    residual = float(np.linalg.norm(projected + 0.5 * fv))
    return AmbientTensionReport(
        vertex=x,
        divergence=tuple(map(float, div)),
        metric_correction=tuple(map(float, corr)),
        combined=tuple(map(float, combined)),
        projected=tuple(map(float, projected)),
        first_variation=tuple(map(float, fv)),
        residual=residual,
    )


def random_rotation(rng: Lcg64) -> np.ndarray:
    """Deterministic proper rotation from the package RNG (QR of normals)."""
    a = np.array([[rng.normal() for _ in range(3)] for _ in range(3)])
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotate_map(u: SphereMap, rot: np.ndarray) -> SphereMap:
    return SphereMap(
        u.graph,
        {x: SpherePoint.from_array(rot @ u.point(x).array) for x in u.domain},
    )
