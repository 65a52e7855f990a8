"""Time evolution on graphs: heat flow, linear transport, and a discrete
Morse-type implicit flow with a per-step variational certificate.

All solvers return plain grids of vertex functions so identity checks can
recompute every quantity from scratch instead of trusting solver internals.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .calculus import DEFAULT_CONFIG, CalculusConfig, VectorField, directional_derivative
from .errors import IndefiniteStepError, NumericalError, ValidationError, require_finite
from .graph import Graph, SubgraphWindow, VertexFunction, gather, scatter, scatter_rows
from .linalg import cholesky, cholesky_solve, eigvalsh
from .spectral import (
    OperatorSpec,
    StaticPotential,
    _apply_rows,
    _closure_rows,
    _extend_to_closure,
    _heat,
    _laplacian_rows,
    _potential_rows,
    check_dirichlet_data,
    eigensystem,
    symmetric_matrix,
)

SOLVE_RESIDUAL_TOL = 1e-12
IDENTITY_MAX_STEP = 1e-2
TRANSPORT_MAX_VALUES = 10**7  # states times values per state that one run may keep
SADDLE_WARNING = (
    "max(lambda) exceeds the first dirichlet eigenvalue; the step energy "
    "is not coercive and the flow tracks a saddle of J"
)

Potential = Union[StaticPotential, Callable[[float], StaticPotential]]


@dataclass(frozen=True)
class Trajectory:
    """States on a strictly increasing time grid starting at 0."""

    times: tuple[float, ...]
    states: tuple[VertexFunction, ...]
    scheme: str

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValidationError("times and states must align")
        _check_time_grid(self.times)

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


def _check_kept_values(run: str, states: int, width: int) -> None:
    """Refuse a run that would keep more than TRANSPORT_MAX_VALUES values."""
    if states * width > TRANSPORT_MAX_VALUES:
        raise ValidationError(
            f"{run} would keep {states} states of {width} values, "
            f"more than {TRANSPORT_MAX_VALUES} values in all"
        )


def _uniform_times(run: str, t_final: float, n_steps: int, width: int) -> tuple[float, ...]:
    """The grid k t_final / n_steps for k = 0..n_steps; each kept state holds width values."""
    if n_steps < 1:
        raise ValidationError("t-final must be positive and steps at least 1")
    h = t_final / n_steps
    if not h > 0:  # t_final <= 0, NaN, or a step that underflows to 0
        raise ValidationError("step size must be positive")
    if not math.isfinite(n_steps * h):  # the last grid time
        raise ValidationError("step size and t-final must be finite")
    _check_kept_values(run, n_steps + 1, width)
    return (0.0, *(k * h for k in range(1, n_steps + 1)))


def spectral_heat_solve(
    spec: OperatorSpec, f: VertexFunction, times: Sequence[float]
) -> Trajectory:
    """Exact solution of u' = -Lu by eigenfunction expansion.

    Boundary data is held at zero for the dirichlet condition and at the
    interior-neighbor mean for the neumann condition, matching how the
    eigenfunctions themselves extend.
    """
    ts = _check_time_grid(times)
    es = eigensystem(spec)
    states = _heat(es, f, ts)
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
    n, lay = len(spec.interior), spec.region.layout
    columns = []
    for state in traj.states:
        check_dirichlet_data(spec, state)
        columns.append(gather(state, spec.closure))
    states = np.column_stack(columns)  # closure rows, one column per state
    u = states[:n]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        lu = _apply_rows(spec, _extend_to_closure(spec, u))
        # float_power is the C library's pow, as Python's ** is; np.power
        # and u * u round some squares differently
        u_sq = np.float_power(u, 2.0)
        masses = lay.integral(u_sq)
        forms = lay.integral(u * lu)
        grad_sq = lay.integral(np.float_power(lu, 2.0))
        pair_energy = lay.energy(states)  # closure_energy of each state
        qterm = lay.integral(_potential_rows(spec.potential, spec.interior)[:, None] * u_sq)
        gaps = np.abs(forms - (0.5 * spec.config.laplacian_scale * pair_energy + qterm))
    require_finite([masses, forms, grad_sq, gaps], "heat audit", "a mass, form or gap")
    masses, forms, grad_sq = masses.tolist(), forms.tolist(), grad_sq.tolist()

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
        closure_form_gap=max(gaps.tolist()),
        initial_mass=masses[0],
        final_mass=masses[-1],
    )


FieldProvider = Union[VectorField, Callable[[float], VectorField]]


def _transport_rhs(g: Graph):
    """(rates, drift) of transport on g's layout pairs: rates(w) = w(x, y) / d_x,
    and drift(r, vec)(x) adds r (vec[y] - vec[x]) over the pairs (x, y) with the
    layout's sums, not BLAS; the layout is read once here, not at every stage."""
    lay = g.layout
    src, dst, sums, src_deg = lay.src, lay.dst, lay.sums, lay.deg[lay.src]
    return (lambda w: w.pair_values() / src_deg), (lambda r, vec: sums(r * (vec[dst] - vec[src])))


def transport_solve(
    g: Graph, field: FieldProvider, f0: VertexFunction, t_final: float, dt: float
) -> Trajectory:
    """Classical RK4 for f' (x) = (1/d_x) sum_y w(t, xy) (f(y) - f(x)).

    The driving field may be a fixed vector field or a callable of time.
    t_final must be an integer number of steps of size dt, and the run
    keeps every state: more than TRANSPORT_MAX_VALUES values in all is a
    ValidationError before the first step.  A state outside the float range
    is a NumericalError naming its first time and vertex.
    """
    if not (t_final > 0 and dt > 0):  # NaN fails too
        raise ValidationError("t_final and dt must be positive")
    if t_final / dt == math.inf:
        raise ValidationError(f"transport would keep more than {TRANSPORT_MAX_VALUES} values in all")
    n_steps = round(t_final / dt)
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise ValidationError("t_final must be an integer multiple of dt")
    _check_kept_values("transport", n_steps + 1, len(g))
    rates, drift = _transport_rhs(g)
    rates_at = lambda t: rates(field(t) if callable(field) else field)

    vec = gather(f0, g.vertices)
    times = (0.0, *(k * dt for k in range(1, n_steps + 1)))
    vecs = [vec]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for t in times[:-1]:
            r1, r2, r4 = rates_at(t), rates_at(t + dt / 2), rates_at(t + dt)
            k1 = drift(r1, vec)
            k2 = drift(r2, vec + dt / 2 * k1)
            k3 = drift(r2, vec + dt / 2 * k2)
            k4 = drift(r4, vec + dt * k3)
            vec = vec + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            vecs.append(vec)
    states = require_finite(np.array(vecs), "transport", g.vertices, times)
    return Trajectory(times, tuple(scatter_rows(g, g.vertices, states)), "rk4")


def transport_mass_rate(g: Graph, w: VectorField, f: VertexFunction) -> tuple[float, float]:
    """(d/dt integral of f, integral of W(f)) at the instant the field is w.

    The first entry contracts the transport right-hand side against the
    degree measure, the second integrates the directional derivative.  The
    equation makes them equal in exact arithmetic, but the first divides
    each w(xy) by d_x before the vertex's sum and the second divides the
    sum, so they can differ in the last bits.
    """
    rates, drift = _transport_rhs(g)
    vec = gather(f, g.vertices)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        lhs = g.layout.integral(drift(rates(w), vec))
    rhs = sum(g.degree(x) * directional_derivative(w, f, x) for x in g.vertices)
    return require_finite((lhs, rhs), "transport mass rate", "a rate")


# ---------------------------------------------------------------------------
# discrete Morse-type flow


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


class _StepSystem:
    """One step size and potential (on the interior rows) with the
    Euler-Lagrange matrix ((1/h) - lap - lam), conjugated by sqrt(deg) as
    symmetric_matrix is, and its Cholesky factor.  The matrix must be
    positive definite: the margin 1/h + mu_1 - max(lam) is checked first,
    then the factor's pivots.  dmf_run keeps one for a whole run when the
    potential is static, so a static potential is checked once."""

    def __init__(self, operator: np.ndarray, mu_first: float, h: float, lam_rows: np.ndarray):
        self.h, self.lam_rows = h, lam_rows
        self.lam_max = max(lam_rows.tolist())
        margin = 1.0 / h + mu_first - self.lam_max
        if margin <= 0:
            raise IndefiniteStepError(
                f"step operator not positive definite: 1/h + mu_1 - max(lambda) = {margin}"
            )
        self.warnings = (SADDLE_WARNING,) if self.lam_max > mu_first else ()
        self.matrix = operator + np.diag(1.0 / h - lam_rows)
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # a nan factor fails the step's checks
                self.factor = cholesky(self.matrix)
        except NumericalError as exc:
            raise IndefiniteStepError(f"step operator not positive definite: {exc}") from None


def dmf_step(
    u_prev: VertexFunction,
    h: float,
    lam,
    w: SubgraphWindow,
    cfg: CalculusConfig = DEFAULT_CONFIG,
) -> DMFStepReport:
    """Minimize F(u) = ||u - u_prev||^2 / (2h) + J(u) over zero-boundary u:
    the one step of dmf_run(u_prev, lam, h, 1, w, cfg).

    J(u) = (1/2)(-lap u, u) - (1/2)(lam u, u), all degree-weighted.  The
    Euler-Lagrange system ((1/h) - lap - lam) u = u_prev / h must be
    positive definite, which 1/h + mu_1 - max(lam) > 0 guarantees; anything
    else raises IndefiniteStepError.  A warning (not an error) is attached
    when max(lam) exceeds mu_1, since J itself then loses coercivity even
    though small enough steps remain solvable.  A certificate norm or
    energy outside the float range raises NumericalError.
    """
    return dmf_run(u_prev, lam, h, 1, w, cfg).reports[0]


def _dmf_step(
    v0: np.ndarray, spec: OperatorSpec, system: _StepSystem
) -> tuple[np.ndarray, DMFStepReport]:
    """One implicit step from the closure rows v0 of u_prev with the checked
    step system given; the window's interior degrees are already checked.
    Returns the closure rows of u_next with the step's report."""
    w, cfg = spec.region, spec.config
    h, lam_rows = system.h, system.lam_rows
    lay = w.layout
    k = len(w.interior)
    sqd = np.sqrt(lay.deg[:k])
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        b = sqd * v0[:k] / h
        y = cholesky_solve(system.factor, b)
        resid = np.sum(system.matrix * y, axis=1) - b
        bn = math.sqrt(float(np.sum(b * b)))
        solve_res = math.sqrt(float(np.sum(resid * resid))) / max(bn, 1e-300)
    if bn == 0.0:
        y = np.zeros_like(y)
        solve_res = 0.0
    if solve_res > SOLVE_RESIDUAL_TOL:
        raise NumericalError(f"linear solve residual {solve_res} above {SOLVE_RESIDUAL_TOL}")

    # the certificate on closure arrays: each sum adds its terms in interior
    # or pair order from zero, and float_power squares as Python's ** does
    def j_value(v: np.ndarray) -> float:
        """J(v) = (scale/4) (closure energy of v) - (1/2) (lam v, v)."""
        mass = lay.integral(lam_rows * np.float_power(v[:k], 2.0))
        return 0.25 * cfg.laplacian_scale * lay.energy(v) - 0.5 * mass

    v1 = _extend_to_closure(spec, y / sqd)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        step = v1[:k] - v0[:k]
        r = step / h - _laplacian_rows(spec, v1) - lam_rows * v1[:k]
        el_residual = math.sqrt(lay.integral(r * r))
        j_prev, j_next = j_value(v0), j_value(v1)
        dist = lay.integral(np.float_power(step, 2.0))
    f_prev = j_prev
    f_next = dist / (2.0 * h) + j_next
    require_finite((el_residual, solve_res, j_prev, j_next, f_next), "dmf step", "a norm or energy")
    cert = f_next <= f_prev + 1e-12 * max(1.0, abs(f_prev))
    return v1, DMFStepReport(
        u_next=scatter(w.graph, w.closure, v1),
        step=h,
        lambda_max=system.lam_max,
        el_residual=el_residual,
        solve_residual=solve_res,
        j_prev=j_prev,
        j_next=j_next,
        f_prev=f_prev,
        f_next=f_next,
        certificate_ok=cert,
        warnings=system.warnings,
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

    def _step_index(self, t: float) -> int:
        """The step n, 1 <= n <= N, whose interval (t_{n-1}, t_n] holds t."""
        return min(max(int(math.ceil(t / self.step - 1e-12)), 1), len(self.times) - 1)

    def linear_state(self, t: float) -> VertexFunction:
        """Piecewise-linear interpolant of the step states."""
        if t < 0 or t > self.times[-1] + 1e-12:
            raise ValidationError("time outside the run interval")
        h = self.step
        n = self._step_index(t)
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
        return self.states[self._step_index(t)]


def dmf_run(
    phi: VertexFunction,
    potential: Potential,
    t_final: float,
    n_steps: int,
    w: SubgraphWindow,
    cfg: CalculusConfig = DEFAULT_CONFIG,
) -> DMFRun:
    """N implicit steps from phi with lambda_n frozen at the left endpoint;
    the time grid is checked before the operator is assembled, and each
    potential value before its step system is factored: one that is not
    finite is a ValidationError naming its vertex and time."""
    times = _uniform_times("dmf", t_final, n_steps, len(w.closure))
    spec = OperatorSpec(w, "dirichlet", None, cfg)
    operator = symmetric_matrix(spec)
    mu_first = float(eigvalsh(operator)[0])
    v = _closure_rows(spec, phi)  # phi is read once; the steps pass rows on
    states = [scatter(w.graph, w.closure, v)]
    reports: list[DMFStepReport] = []
    for n, t in enumerate(times[:-1]):
        if n == 0 or callable(potential):  # a static potential keeps one factor
            lam = potential(t) if callable(potential) else potential
            lam_rows = _potential_rows(lam, w.interior)
            if not np.isfinite(lam_rows).all():
                i = int(np.argmin(np.isfinite(lam_rows)))
                x, value = w.interior[i], float(lam_rows[i])
                raise ValidationError(f"potential at {x!r} is {value!r} at time {t!r}; it must be finite")
            system = _StepSystem(operator, mu_first, times[1], lam_rows)
        v, rep = _dmf_step(v, spec, system)
        reports.append(rep)
        states.append(rep.u_next)

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
        times=times,
        states=tuple(states),
        reports=tuple(reports),
        dissipation=dissipation,
        audit_margin=margin,
        audit_ok=margin >= -1e-10 * scale,
        warnings=tuple(dict.fromkeys(m for r in reports for m in r.warnings)),
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
    worst = 0.0
    for u, v in pairs:
        diff = gather(u, w.interior) - gather(v, w.interior)
        worst = max(worst, math.sqrt(w.layout.integral(diff * diff)))
    return worst


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
    if not callable(potential):
        q = scatter(w.graph, w.interior, -_potential_rows(potential, w.interior))
        es = eigensystem(OperatorSpec(w, "dirichlet", q, cfg))
        errors = tuple(
            _max_weighted_gap(zip(runs[n].states, _heat(es, phi, runs[n].times)), w) for n in ns
        )
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
    if len(pairs) >= 2:  # the least-squares slope of log error against log step
        xs, ys = ([math.log(v) for v in col] for col in zip(*pairs))
        mx = math.fsum(xs) / len(xs)
        order = math.fsum((x - mx) * y for x, y in zip(xs, ys)) / math.fsum((x - mx) ** 2 for x in xs)
    else:
        order = math.inf
    return ConvergenceReport(mode, ns, steps, errors, order)
