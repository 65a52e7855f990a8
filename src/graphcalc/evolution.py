"""Time evolution on graphs: heat flow, linear transport, and a discrete
Morse-type implicit flow with a per-step variational certificate.

All solvers return plain grids of vertex functions so identity checks can
recompute every quantity from scratch instead of trusting solver internals.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .calculus import (
    DEFAULT_CONFIG,
    CalculusConfig,
    VectorField,
    closure_energy,
    directional_derivative,
    laplacian,
    weighted_inner,
    weighted_norm_sq,
)
from .errors import DomainError, IndefiniteStepError, NumericalError, ValidationError
from .graph import Graph, SubgraphWindow, VertexFunction, gather, scatter
from .linalg import cholesky, cholesky_solve, eigvalsh
from .spectral import (
    EigenSystem,
    OperatorSpec,
    _expand,
    _on_closure,
    apply_operator,
    check_dirichlet_data,
    eigensystem,
    extend_to_boundary,
    potential_value,
    symmetric_matrix,
)

SOLVE_RESIDUAL_TOL = 1e-12
IDENTITY_MAX_STEP = 1e-2

Potential = Union[float, VertexFunction, Callable[[float], Union[float, VertexFunction]]]


@dataclass(frozen=True)
class Trajectory:
    """States on a strictly increasing time grid starting at 0."""

    times: tuple[float, ...]
    states: tuple[VertexFunction, ...]
    scheme: str

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValidationError("times and states must align")
        if not self.times or self.times[0] != 0.0:
            raise ValidationError("trajectory must start at time 0")
        for a, b in zip(self.times, self.times[1:]):
            if not b > a:
                raise ValidationError("times must be strictly increasing")

    def state_at(self, t: float) -> VertexFunction:
        for tk, u in zip(self.times, self.states):
            if tk == t:
                return u
        raise ValidationError(f"time {t} is not on the trajectory grid")


def _check_time_grid(times: Sequence[float]) -> tuple[float, ...]:
    ts = tuple(float(t) for t in times)
    if not ts or ts[0] != 0.0:
        raise ValidationError("time grid must start at 0")
    for a, b in zip(ts, ts[1:]):
        if not b > a:
            raise ValidationError("time grid must be strictly increasing")
    return ts


def spectral_heat_solve(
    spec: OperatorSpec, f: VertexFunction, times: Sequence[float]
) -> Trajectory:
    """Exact solution of u' = -Lu by eigenfunction expansion.

    Boundary data is held at zero for the dirichlet condition and at the
    interior-neighbor mean for the neumann condition, matching how the
    eigenfunctions themselves extend.
    """
    ts = _check_time_grid(times)
    check_dirichlet_data(spec, f)
    es = eigensystem(spec)
    lam = np.array(es.values)
    states = _expand(es, f, [np.exp(-lam * t) for t in ts])
    return Trajectory(ts, tuple(states), "spectral")


@dataclass(frozen=True)
class HeatIdentitiesReport:
    """Discrete checks of the heat-flow balance laws on one trajectory.

    ddt_residual compares the centered difference of the weighted mass
    against -2(Lu, u); its tolerance scales with the square of the grid
    step.  The conservation and flux residuals integrate by the trapezoid
    rule, so they carry the same quadrature error.  closure_form_gap
    measures (Lu, u) against the ordered-pair energy form
    (scale/2) * sum (grad u)^2 + (Qu, u); the two agree exactly whenever
    no boundary term survives.
    """

    bc: str
    step: float
    samples: int
    quad_tol: float
    max_ddt_residual: float
    energy_monotone: bool
    max_energy_increase: float
    conservation_residual: float
    energy_flux_residual: float
    closure_form_gap: float
    initial_mass: float
    final_mass: float


def _uniform_step(times: tuple[float, ...]) -> float:
    steps = [b - a for a, b in zip(times, times[1:])]
    if len(steps) < 2:
        raise ValidationError("identities need at least 3 grid points")
    h = steps[0]
    if any(abs(s - h) > 1e-12 * max(1.0, abs(h)) for s in steps):
        raise ValidationError("identities need a uniform time grid")
    if h > IDENTITY_MAX_STEP * (1 + 1e-9):
        raise ValidationError(f"identities need step <= {IDENTITY_MAX_STEP}")
    return h


def heat_identities_report(traj: Trajectory, spec: OperatorSpec) -> HeatIdentitiesReport:
    h = _uniform_step(traj.times)
    inner = spec.interior
    g = spec.graph
    cfg = spec.config

    masses, forms, grad_sq, gaps = [], [], [], []
    for u in traj.states:
        lu = apply_operator(spec, u)
        masses.append(weighted_norm_sq(u, inner))
        forms.append(weighted_inner(u, lu, inner))
        grad_sq.append(weighted_norm_sq(lu, inner))
        pair_energy = closure_energy(u, spec.region)
        qterm = sum(
            spec.potential_at(x) * u.value(x) ** 2 * g.degree(x) for x in inner
        )
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
        acc_f += h * (forms[k - 1] + forms[k])  # trapezoid of 2(Lu,u)
        acc_g += h * (grad_sq[k - 1] + grad_sq[k])
        cons = max(cons, abs(masses[k] + acc_f - masses[0]))
        flux = max(flux, abs(forms[k] + acc_g - forms[0]))

    return HeatIdentitiesReport(
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


FieldProvider = Union[VectorField, Callable[[float], VectorField]]


class _PairRates:
    """Rates w(x, y) / d_x on the graph's layout pairs; rhs sums over pairs by
    bincount, not BLAS."""

    def __init__(self, g: Graph):
        lay = g.layout
        self.src, self.dst, self.deg = lay.src, lay.dst, lay.deg
        names = g.vertices
        self.keys = [(names[i], names[j]) for i, j in zip(self.src.tolist(), self.dst.tolist())]

    def rates(self, w: VectorField) -> np.ndarray:
        try:
            vals = np.fromiter(map(w.entries.__getitem__, self.keys), float, len(self.keys))
        except KeyError as e:
            x, y = e.args[0]
            raise DomainError(f"field not defined on ordered pair ({x}, {y})") from None
        return vals / self.deg[self.src]

    def rhs(self, rates: np.ndarray, vec: np.ndarray) -> np.ndarray:
        change = rates * (vec[self.dst] - vec[self.src])
        return np.bincount(self.src, weights=change, minlength=len(self.deg))


def transport_solve(
    g: Graph, field: FieldProvider, f0: VertexFunction, t_final: float, dt: float
) -> Trajectory:
    """Classical RK4 for f' (x) = (1/d_x) sum_y w(t, xy) (f(y) - f(x)).

    The driving field may be a fixed vector field or a callable of time.
    t_final must be an integer number of steps of size dt.
    """
    if t_final <= 0 or dt <= 0:
        raise ValidationError("t_final and dt must be positive")
    n_steps = round(t_final / dt)
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValidationError("t_final must be an integer multiple of dt")
    pairs = _PairRates(g)
    if isinstance(field, VectorField):
        fixed = pairs.rates(field)
        rates_at = lambda t: fixed
    else:
        rates_at = lambda t: pairs.rates(field(t))

    vec = gather(f0, g.vertices)
    times = [0.0]
    states = [scatter(g, g.vertices, vec)]
    for k in range(n_steps):
        t = k * dt
        r1, r2, r4 = rates_at(t), rates_at(t + dt / 2), rates_at(t + dt)
        k1 = pairs.rhs(r1, vec)
        k2 = pairs.rhs(r2, vec + dt / 2 * k1)
        k3 = pairs.rhs(r2, vec + dt / 2 * k2)
        k4 = pairs.rhs(r4, vec + dt * k3)
        vec = vec + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        times.append((k + 1) * dt)
        states.append(scatter(g, g.vertices, vec))
    return Trajectory(tuple(times), tuple(states), "rk4")


def transport_mass_rate(g: Graph, w: VectorField, f: VertexFunction) -> tuple[float, float]:
    """(d/dt integral of f, integral of W(f)) at the instant the field is w.

    The first entry contracts the transport right-hand side against the
    degree measure, the second integrates the directional derivative; the
    equation makes them equal by construction.
    """
    pairs = _PairRates(g)
    vec = gather(f, g.vertices)
    lhs = float(np.sum(pairs.deg * pairs.rhs(pairs.rates(w), vec)))
    rhs = sum(g.degree(x) * directional_derivative(w, f, x) for x in g.vertices)
    return lhs, rhs


# ---------------------------------------------------------------------------
# discrete Morse-type flow


def _j_value(
    u: VertexFunction, lam: dict[str, float], w: SubgraphWindow, cfg: CalculusConfig
) -> float:
    g = w.graph
    quad = 0.25 * cfg.laplacian_scale * closure_energy(u, w)
    mass = sum(lam[x] * u.value(x) ** 2 * g.degree(x) for x in w.interior)
    return quad - 0.5 * mass


@dataclass(frozen=True)
class DMFStepReport:
    """One implicit step with its certificate numbers."""

    u_next: VertexFunction
    step: float
    lambda_max: float
    el_residual: float
    solve_residual: float
    j_prev: float
    j_next: float
    f_prev: float
    f_next: float
    certificate_ok: bool
    warnings: tuple[str, ...]


def _mu_first(spec: OperatorSpec) -> float:
    """First Dirichlet eigenvalue of -laplacian on the window."""
    return float(eigvalsh(symmetric_matrix(spec))[0])


def dmf_step(
    u_prev: VertexFunction,
    h: float,
    lam,
    w: SubgraphWindow,
    cfg: CalculusConfig = DEFAULT_CONFIG,
    mu_first: Optional[float] = None,
) -> DMFStepReport:
    """Minimize F(u) = ||u - u_prev||^2 / (2h) + J(u) over zero-boundary u.

    J(u) = (1/2)(-lap u, u) - (1/2)(lam u, u), all degree-weighted.  The
    Euler-Lagrange system ((1/h) - lap - lam) u = u_prev / h must be
    positive definite, which 1/h + mu_1 - max(lam) > 0 guarantees; anything
    else raises IndefiniteStepError.  A warning (not an error) is attached
    when max(lam) exceeds mu_1, since J itself then loses coercivity even
    though small enough steps remain solvable.
    """
    if h <= 0:
        raise ValidationError("step size must be positive")
    spec = OperatorSpec(w, "dirichlet", None, cfg)
    lam_vals = {x: potential_value(lam, x) for x in w.interior}
    lam_max = max(lam_vals.values())
    if mu_first is None:
        mu_first = _mu_first(spec)
    margin = 1.0 / h + mu_first - lam_max
    if margin <= 0:
        raise IndefiniteStepError(
            f"step operator not positive definite: 1/h + mu_1 - max(lambda) = {margin}"
        )
    warnings = []
    if lam_max > mu_first:
        warnings.append(
            "max(lambda) exceeds the first dirichlet eigenvalue; the step energy "
            "is not coercive and the flow tracks a saddle of J"
        )

    u0 = extend_to_boundary(spec, u_prev)
    g = w.graph
    inner = w.interior
    sqd = np.sqrt(w.layout.deg[: len(inner)])
    m = symmetric_matrix(spec)
    a = m + np.diag(1.0 / h - np.array([lam_vals[x] for x in inner]))
    b = sqd * gather(u0, inner) / h
    try:
        factor = cholesky(a)
    except NumericalError as exc:
        raise IndefiniteStepError(f"step operator not positive definite: {exc}") from None
    y = cholesky_solve(factor, b)
    resid = np.sum(a * y, axis=1) - b
    bn = math.sqrt(float(np.sum(b * b)))
    solve_res = math.sqrt(float(np.sum(resid * resid))) / max(bn, 1e-300)
    if bn == 0.0:
        y = np.zeros_like(y)
        solve_res = 0.0
    if solve_res > SOLVE_RESIDUAL_TOL:
        raise NumericalError(f"linear solve residual {solve_res} above {SOLVE_RESIDUAL_TOL}")

    u1 = _on_closure(spec, y / sqd)

    el_sq = 0.0
    for x in inner:
        r = (
            (u1.value(x) - u0.value(x)) / h
            - laplacian(u1, x, cfg)
            - lam_vals[x] * u1.value(x)
        )
        el_sq += r * r * g.degree(x)
    el_residual = math.sqrt(el_sq)

    j_prev = _j_value(u0, lam_vals, w, cfg)
    j_next = _j_value(u1, lam_vals, w, cfg)
    dist = sum((u1.value(x) - u0.value(x)) ** 2 * g.degree(x) for x in inner)
    f_prev = j_prev
    f_next = dist / (2.0 * h) + j_next
    cert = f_next <= f_prev + 1e-12 * max(1.0, abs(f_prev))
    return DMFStepReport(
        u_next=u1,
        step=h,
        lambda_max=lam_max,
        el_residual=el_residual,
        solve_residual=solve_res,
        j_prev=j_prev,
        j_next=j_next,
        f_prev=f_prev,
        f_next=f_next,
        certificate_ok=cert,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class DMFRun:
    """Full implicit flow with the a priori energy audit.

    dissipation = (1/2) sum_n h ||(u_n - u_{n-1}) / h||^2.  The audit bound
    is dissipation + J_N(u_N) <= J_1(u_0) + sum_{n>=2} (J_n - J_{n-1})(u_{n-1}),
    every term of which is read off the per-step ledger.
    """

    window: SubgraphWindow
    config: CalculusConfig
    times: tuple[float, ...]
    states: tuple[VertexFunction, ...]
    reports: tuple[DMFStepReport, ...]
    dissipation: float
    audit_margin: float
    audit_ok: bool
    warnings: tuple[str, ...]

    @property
    def step(self) -> float:
        return self.times[1] - self.times[0]

    def linear_state(self, t: float) -> VertexFunction:
        """Piecewise-linear interpolant of the step states."""
        if t < 0 or t > self.times[-1] + 1e-12:
            raise ValidationError("time outside the run interval")
        h = self.step
        n = min(max(int(math.ceil(t / h - 1e-12)), 1), len(self.times) - 1)
        theta = (t - self.times[n - 1]) / h
        a, b = self.states[n - 1], self.states[n]
        vals = {x: (1 - theta) * a.value(x) + theta * b.value(x) for x in a.domain}
        return VertexFunction(self.window.graph, vals)

    def step_state(self, t: float) -> VertexFunction:
        """Piecewise-constant interpolant: u_n on (t_{n-1}, t_n], u_0 on [-h, 0]."""
        h = self.step
        if t < -h - 1e-12 or t > self.times[-1] + 1e-12:
            raise ValidationError("time outside the run interval")
        if t <= 0:
            return self.states[0]
        n = min(max(int(math.ceil(t / h - 1e-12)), 1), len(self.times) - 1)
        return self.states[n]


def _is_time_dependent(v: Potential) -> bool:
    return callable(v) and not isinstance(v, VertexFunction)


def _potential_at(v: Potential, t: float):
    return v(t) if _is_time_dependent(v) else v


def dmf_run(
    phi: VertexFunction,
    potential: Potential,
    t_final: float,
    n_steps: int,
    w: SubgraphWindow,
    cfg: CalculusConfig = DEFAULT_CONFIG,
) -> DMFRun:
    """N implicit steps from phi with lambda_n frozen at the left endpoint."""
    if t_final <= 0:
        raise ValidationError("t_final must be positive")
    if n_steps < 1:
        raise ValidationError("need at least one step")
    h = t_final / n_steps
    spec = OperatorSpec(w, "dirichlet", None, cfg)
    mu_first = _mu_first(spec)
    u = extend_to_boundary(spec, phi)
    times = [0.0]
    states = [u]
    reports: list[DMFStepReport] = []
    warnings: list[str] = []
    for n in range(1, n_steps + 1):
        lam = _potential_at(potential, (n - 1) * h)
        rep = dmf_step(u, h, lam, w, cfg, mu_first=mu_first)
        reports.append(rep)
        for wmsg in rep.warnings:
            if wmsg not in warnings:
                warnings.append(wmsg)
        u = rep.u_next
        times.append(n * h)
        states.append(u)

    dissipation = sum(r.f_next - r.j_next for r in reports)
    correction = sum(
        reports[n].j_prev - reports[n - 1].j_next for n in range(1, len(reports))
    )
    rhs = reports[0].j_prev + correction
    lhs = dissipation + reports[-1].j_next
    margin = rhs - lhs
    scale = max(1.0, abs(reports[0].j_prev))
    return DMFRun(
        window=w,
        config=cfg,
        times=tuple(times),
        states=tuple(states),
        reports=tuple(reports),
        dissipation=dissipation,
        audit_margin=margin,
        audit_ok=margin >= -1e-10 * scale,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class ConvergenceReport:
    mode: str  # "reference" or "self"
    ns: tuple[int, ...]
    steps: tuple[float, ...]
    errors: tuple[float, ...]
    fitted_order: float


def _max_weighted_gap(pairs, w: SubgraphWindow) -> float:
    """Largest degree-weighted l2 distance on the interior over (u, v) pairs."""
    deg = w.layout.deg[: len(w.interior)]
    worst = 0.0
    for u, v in pairs:
        diff = gather(u, w.interior) - gather(v, w.interior)
        worst = max(worst, math.sqrt(float((diff * diff) @ deg)))
    return worst


def _run_error_vs_reference(run: DMFRun, es: EigenSystem, phi: VertexFunction) -> float:
    lam = np.array(es.values)
    refs = _expand(es, phi, [np.exp(-lam * t) for t in run.times])
    return _max_weighted_gap(zip(run.states, refs), run.window)


def dmf_convergence_study(
    phi: VertexFunction,
    potential: Potential,
    t_final: float,
    ns: Sequence[int],
    w: SubgraphWindow,
    cfg: CalculusConfig = DEFAULT_CONFIG,
) -> ConvergenceReport:
    """First-order convergence check for the implicit flow.

    A time-independent potential admits the exact eigenfunction solution of
    u' = lap u + V u as reference.  A time-dependent one is handled by
    self-comparison of successive dyadic refinements, so ns must then double.
    """
    ns = tuple(int(n) for n in ns)
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValidationError("need at least two increasing step counts")
    runs = {n: dmf_run(phi, potential, t_final, n, w, cfg) for n in ns}
    if not _is_time_dependent(potential):
        q = VertexFunction(w.graph, {x: -potential_value(potential, x) for x in w.interior})
        es = eigensystem(OperatorSpec(w, "dirichlet", q, cfg))
        errors = tuple(_run_error_vs_reference(runs[n], es, phi) for n in ns)
        steps = tuple(t_final / n for n in ns)
        mode = "reference"
    else:
        for a, b in zip(ns, ns[1:]):
            if b != 2 * a:
                raise ValidationError("self-convergence needs doubling step counts")
        errors = tuple(
            _max_weighted_gap(
                ((runs[a].states[k], runs[b].states[2 * k]) for k in range(a + 1)), w
            )
            for a, b in zip(ns, ns[1:])
        )
        steps = tuple(t_final / n for n in ns[:-1])
        mode = "self"
    pairs = [(s, e) for s, e in zip(steps, errors) if e > 0]
    if len(pairs) >= 2:
        xs = np.log([p[0] for p in pairs])
        ys = np.log([p[1] for p in pairs])
        order = float(np.polyfit(xs, ys, 1)[0])
    else:
        order = math.inf
    return ConvergenceReport(mode, ns, steps, errors, order)
