"""Cauchy solver for the graph p-Laplacian flow by truncated balls.

The flow ``du/dt = Delta_p u`` is solved as a finite ODE system on a ball
``B_n`` with ``u = 0`` outside (method of lines), using an explicit
embedded Dormand-Prince 4(5) pair with PI step-size control and dense
output at the configured instants.  :func:`solve_cauchy` re-solves on a
growing radius schedule until two consecutive truncations agree on the
smaller ball and the outer boundary ring stays numerically empty; the
returned trajectory is tagged with the certified radius.  A stage whose
boundary ring leaks is stopped at the first leaking output instant and
rerun on a larger ball.

The right-hand side is locally Lipschitz on bounded sets and degenerate
(not stiff) near flat states, so an explicit pair with adaptive steps is
appropriate; rejected steps fall back to halve-and-retry with an explicit
underflow floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import Field
from .graphs import ball, distances_within, region_edges
from .operators import require_exponent


class SolverError(RuntimeError):
    """The solver could not produce a trajectory (CLI exit code 3)."""


class StepSizeUnderflowError(SolverError):
    """Step size fell below the underflow floor; carries the offending time."""

    def __init__(self, t, h):
        super().__init__(f"step size underflow at t={t!r} (h={h!r})")
        self.t = t
        self.h = h


class NonFiniteStateError(SolverError):
    """The state or its derivative became NaN or infinite at time ``t``."""

    def __init__(self, t):
        super().__init__(f"non-finite state at t={t!r}")
        self.t = t


class NonFiniteInitialStepError(SolverError):
    """The starting step size is not a positive finite number (overflowing data)."""


class TruncationConvergenceError(SolverError):
    """Radius schedule exhausted before successive truncations agreed."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class TruncationDeficitError(SolverError):
    """Requested mass fraction is not contained in the truncated ball."""


def log_instants(t_min, t_max, count):
    """Logarithmically spaced output instants (decay fits need log-log regularity)."""
    if not (0 < t_min < t_max):
        raise ValueError("need 0 < t_min < t_max")
    if count < 2:
        raise ValueError("need at least 2 instants")
    return np.geomspace(t_min, t_max, int(count))


# factor between the truncation radii of consecutive certification stages
RADIUS_GROWTH = 2


@dataclass
class SolverConfig:
    """Configuration of the truncated-ball solver.

    ``delta_boundary`` and ``eps_trunc`` default to ``1e-10 * ||u0||_inf``
    and ``1e-8 * ||u0||_inf`` respectively when left as ``None``; set
    values must be positive.
    """

    p: float
    instants: np.ndarray
    rtol: float = 1e-8
    atol: float = 1e-12
    n0: int | None = None
    max_expansions: int = 8
    delta_boundary: float | None = None
    eps_trunc: float | None = None
    max_steps: int = 1_000_000

    def __post_init__(self):
        self.p = require_exponent(self.p)
        self.instants = np.asarray(self.instants, dtype=float)
        if self.instants.ndim != 1 or len(self.instants) == 0:
            raise ValueError("instants must be a nonempty 1-d array")
        if self.instants[0] <= 0:
            raise ValueError("first output instant must be > 0")
        if (np.diff(self.instants) <= 0).any():
            raise ValueError("output instants must be strictly increasing")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        for name in ("delta_boundary", "eps_trunc"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.n0 is not None and (self.n0 < 1 or int(self.n0) != self.n0):
            raise ValueError("n0 must be a positive integer")


# ----------------------------------------------------------------------
# Dormand-Prince 4(5) with PI control and quartic dense output

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                  -17253 / 339200, 22 / 525, -1 / 40])
# quartic interpolant coefficients for the pair (Shampine's free interpolant)
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_PI_ALPHA = 0.17          # err ** -alpha
_PI_BETA = 0.04           # err_prev ** beta


def _error_norm(diff, y0, y1, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return math.sqrt(float(np.mean((diff / scale) ** 2)))


def _initial_step(rhs, y0, f0, t_end, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    with np.errstate(over="ignore"):   # an overflow is typed just below
        d0 = math.sqrt(float(np.mean((y0 / scale) ** 2)))
        d1 = math.sqrt(float(np.mean((f0 / scale) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, 0.1 * t_end)
    if not 0.0 < h0 < math.inf:   # scaled norms overflowed
        raise NonFiniteInitialStepError(
            f"initial step {h0!r} from scaled norms {d0!r}, {d1!r}")
    y1 = y0 + h0 * f0
    f1 = rhs(h0, y1)
    d2 = math.sqrt(float(np.mean(((f1 - f0) / scale) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_end)


def _integrate(rhs, y0, t_end, t_eval, rtol, atol, max_steps, stop=None):
    """Integrate y' = rhs(t, y) on [0, t_end], dense output at t_eval.

    Returns ``(Y, diag)`` where ``Y[k]`` is the solution at ``t_eval[k]``
    and ``diag`` carries cumulative accepted/rejected step counts and the
    largest scaled local error seen before each output instant.  With a
    predicate ``stop``, integration ends at the first output row for which
    ``stop(row)`` is true: ``Y`` and the per-instant diagnostics then hold
    only the rows reached, that one included.
    """
    n = len(y0)
    y = y0.astype(float).copy()
    t = 0.0
    f = rhs(t, y)
    if not np.isfinite(f).all():
        raise NonFiniteStateError(t)
    K = np.empty((7, n))
    out = np.empty((len(t_eval), n))
    acc_at = np.zeros(len(t_eval), dtype=np.int64)
    rej_at = np.zeros(len(t_eval), dtype=np.int64)
    err_at = np.zeros(len(t_eval))
    floor = 1e-14 * t_end
    h = max(_initial_step(rhs, y, f, t_end, rtol, atol), floor)
    accepted = rejected = 0
    max_err_window = 0.0
    err_prev = 1e-4
    k_out = 0
    err = 0.0

    steps = 0
    stopped = False
    while t < t_end and not stopped:
        if h < floor:
            if not math.isfinite(err):
                raise NonFiniteStateError(t)
            raise StepSizeUnderflowError(t, h)
        steps += 1
        if steps > max_steps:
            raise SolverError(f"step budget {max_steps} exhausted at t={t}")
        h = min(h, t_end - t)
        K[0] = f
        for i in range(1, 7):
            yi = y + h * (_DP_A[i] @ K[:i])
            K[i] = rhs(t + _DP_C[i] * h, yi)
        y_new = y + h * (_DP_B5 @ K)
        err = _error_norm(h * (_DP_E @ K), y, y_new, rtol, atol)
        if not err <= 1.0:   # a NaN estimate is a rejection too
            rejected += 1
            h *= 0.5          # halve-and-retry fallback
            continue
        max_err_window = max(max_err_window, err)
        t_new = t + h
        # dense output inside (t, t_new]
        while k_out < len(t_eval) and t_eval[k_out] <= t_new * (1 + 1e-15):
            theta = min((t_eval[k_out] - t) / h, 1.0)
            powers = theta ** np.arange(1, 5)
            out[k_out] = y + h * (K.T @ (_DP_P @ powers))
            acc_at[k_out] = accepted + 1
            rej_at[k_out] = rejected
            err_at[k_out] = max_err_window
            max_err_window = 0.0
            k_out += 1
            if stop is not None and stop(out[k_out - 1]):
                stopped = True
                break
        accepted += 1
        y, t, f = y_new, t_new, K[6].copy()   # FSAL: last stage is f(t_new, y_new)
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** _PI_BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        err_prev = max(err, 1e-10)
        h *= factor
    if k_out < len(t_eval) and not stopped:
        raise SolverError(f"integration ended at t={t} before the last output "
                          f"instant {t_eval[-1]}")
    diag = {"accepted": acc_at[:k_out], "rejected": rej_at[:k_out],
            "max_scaled_error": err_at[:k_out],
            "total_accepted": accepted, "total_rejected": rejected}
    return out[:k_out], diag


# ----------------------------------------------------------------------
# trajectories


class Trajectory:
    """Time-indexed solution snapshots on a materialized ball.

    ``times[0] = 0`` holds the initial data; the remaining entries match
    the configured output instants.  Values are clamped to be nonnegative
    when the data is (undershoot magnitude is logged per instant).
    """

    def __init__(self, generator, p, config, region, edges, times, values,
                 diagnostics, certified=False, certified_radius=None,
                 history=None):
        self.generator = generator
        self.p = p
        self.config = config
        self.region = region
        self.edges = edges
        self.times = times
        self.values = values
        self.diagnostics = diagnostics
        self.certified = certified
        self.certified_radius = certified_radius
        self.history = history or []

    @property
    def instants(self):
        return self.times[1:]

    def locate(self, t):
        """Index of instant ``t`` on the stored grid (error if absent)."""
        k = int(np.searchsorted(self.times, t))
        for j in (k - 1, k, k + 1):
            if 0 <= j < len(self.times) and math.isclose(self.times[j], t,
                                                         rel_tol=1e-12, abs_tol=1e-300):
                return j
        raise ValueError(f"t={t} is not an output instant")

    def distances(self, x0=None):
        """Graph distances from ``x0`` (default: the ball center) to the region's vertices."""
        return distances_within(self.generator, self.region,
                                self.region.center if x0 is None else x0)

    def field_at(self, t):
        row = self.values[self.locate(t)]
        vals = {v: row[i] for i, v in enumerate(self.region.vertices) if row[i] != 0.0}
        return Field(self.generator, vals)

    # whole-trajectory functionals: one entry per stored time, t = 0 first.
    # Cached on first use (the stored values are final once built), so the
    # arrays are shared between callers and must not be written to.

    @cached_property
    def masses(self):
        """Weighted l1 norms ``sum |u| d_w``."""
        return np.abs(self.values) @ self.region.degrees

    @cached_property
    def sup_norms(self):
        return np.abs(self.values).max(axis=1)

    def lq_norms(self, q):
        """Weighted lq norms ``(sum |u|^q d_w)^(1/q)``."""
        if q < 1:
            raise ValueError("q must be >= 1")
        a = np.abs(self.values)
        np.power(a, q, out=a)
        return (a @ self.region.degrees) ** (1.0 / q)

    @cached_property
    def boundary_sups(self):
        """Sups over the truncation boundary, the vertices with an edge leaving the region.

        That is the distance-n ring on infinite graphs; it is empty when a
        finite graph fits inside the ball.
        """
        if len(self.edges.bi) == 0:
            return np.zeros(len(self.times))
        return np.abs(self.values[:, self.edges.bi]).max(axis=1)

    @cached_property
    def flux_integrals(self):
        """Time integral of the total (p-1)-power edge flux up to each time.

        Trapezoidal quadrature over the stored times of
        ``sum_{x,y} |u(y)-u(x)|^(p-1) w(x,y)`` (ordered pairs).  Requires a
        reasonably dense output grid.
        """
        if len(self.instants) < 50:
            raise ValueError("need at least 50 output instants for the quadrature")
        integrand = 2.0 * self.edges.power_sum(self.values, self.p - 1.0)
        steps = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(self.times)
        return np.concatenate([[0.0], np.cumsum(steps)])


def _resolve_center(g, u0: Field, center):
    if center is not None:
        return center
    if not u0.values:
        raise ValueError("zero data needs an explicit ball center")
    return min(u0.values.items(),
               key=lambda kv: (-abs(kv[1]), g.sort_key(kv[0])))[0]


def _make_rhs(edges, degrees, p):
    div = edges.divergence(p)

    def rhs(t, u):
        return div(u) / degrees

    return rhs


def solve_truncated(g, u0: Field, cfg: SolverConfig, n, center=None, delta=None):
    """Solve the flow on ``B_n`` with zero Dirichlet exterior values.

    The initial data must be supported inside the ball.  Output instants
    follow the config; the row at t = 0 holds the data itself.  With a
    leak threshold ``delta``, integration stops at the first output
    instant whose stored boundary sup exceeds it, and the trajectory ends
    there.
    """
    center = _resolve_center(g, u0, center)
    region = ball(g, center, n)
    for v in u0.support():
        if v not in region:
            raise ValueError(f"data support at {v!r} lies outside B_{n}({center!r})")
    edges = region_edges(g, region)
    y0 = np.zeros(len(region))
    for v, x in u0.values.items():
        y0[region.index[v]] = x
    rhs = _make_rhs(edges, region.degrees, cfg.p)
    nonneg = u0.is_nonnegative()
    stop = None
    if delta is not None and len(edges.bi):
        bi = edges.bi

        def stop(row):   # tests the stored value: nonnegative rows are clamped at 0
            b = np.maximum(row[bi], 0.0) if nonneg else np.abs(row[bi])
            return b.max() > delta
    Y, diag = _integrate(rhs, y0, float(cfg.instants[-1]), cfg.instants,
                         cfg.rtol, cfg.atol, cfg.max_steps, stop=stop)
    clamped = np.zeros(len(Y))
    if nonneg:
        neg = np.minimum(Y, 0.0)
        clamped = -neg.min(axis=1)
        np.maximum(Y, 0.0, out=Y)
    times = np.concatenate([[0.0], cfg.instants[:len(Y)]])
    values = np.vstack([y0, Y])
    diagnostics = {
        "radius": np.full(len(Y), n, dtype=np.int64),
        "accepted": diag["accepted"],
        "rejected": diag["rejected"],
        "max_scaled_error": diag["max_scaled_error"],
        "clamped": clamped,
    }
    return Trajectory(g, cfg.p, cfg, region, edges, times, values, diagnostics)


def solve_cauchy(g, u0: Field, cfg: SolverConfig, center=None):
    """Solve the Cauchy problem with automatic domain expansion.

    Re-solves from t = 0 on a doubling radius schedule until (a) the outer
    boundary ring stays below the leak threshold at every instant and
    (b) two consecutive truncations differ by at most ``eps_trunc`` on the
    smaller ball, uniformly over output instants.  A stage whose ring
    leaks stops at the first leaking output instant, since later instants
    cannot change its verdict.  Reproducibility beats checkpointing at
    this scale, so every expansion restarts the clock.

    Each ``history`` entry records the stage radius, its boundary leak
    (at the stopping instant for a stage that leaked), ``diff_prev``, the
    accepted and rejected step counts and ``stopped_at``, the instant a
    leaking stage ended at (``None`` otherwise).
    """
    center = _resolve_center(g, u0, center)
    sup0 = u0.sup_norm()
    delta = cfg.delta_boundary if cfg.delta_boundary is not None else 1e-10 * sup0
    eps = cfg.eps_trunc if cfg.eps_trunc is not None else 1e-8 * sup0
    if cfg.n0 is not None:
        n = int(cfg.n0)
    else:
        n = u0.support_radius(center) + 8
    prev = None
    history = []
    last_diff = None
    for stage in range(cfg.max_expansions):
        traj = solve_truncated(g, u0, cfg, n, center=center, delta=delta)
        leak = float(traj.boundary_sups[1:].max())
        diag = traj.diagnostics
        entry = {"n": n, "boundary_leak": leak, "diff_prev": None,
                 "accepted": int(diag["accepted"][-1]),
                 "rejected": int(diag["rejected"][-1]),
                 "stopped_at": float(traj.times[-1]) if leak > delta else None}
        if leak > delta:
            entry["expanded"] = "boundary_leak"
            history.append(entry)
            prev = None
            n *= RADIUS_GROWTH
            continue
        if prev is not None:
            gather = np.array([traj.region.index[v] for v in prev.region.vertices])
            diff = float(np.abs(traj.values[:, gather] - prev.values).max())
            entry["diff_prev"] = diff
            history.append(entry)
            last_diff = diff
            if diff <= eps:
                traj.certified = True
                traj.certified_radius = n
                traj.history = history
                return traj
        else:
            history.append(entry)
        prev = traj
        n *= RADIUS_GROWTH
    raise TruncationConvergenceError(
        f"no truncation convergence after {cfg.max_expansions} stages "
        f"(last successive-radius difference: {last_diff!r})",
        residual=last_diff)


# ----------------------------------------------------------------------
# comparison runs and distance functionals


def comparison_check(g, u01: Field, u02: Field, cfg: SolverConfig, center=None):
    """Worst signed gap ``min (u1 - u2)`` for ordered data ``u01 >= u02``.

    Both problems are solved with the same schedule (the certified radius
    of the larger datum); order preservation means the result is bounded
    below by solver noise.
    """
    if not u01.dominates(u02):
        raise ValueError("precondition u01 >= u02 violated")
    center = _resolve_center(g, u01, center)
    traj1 = solve_cauchy(g, u01, cfg, center=center)
    traj2 = solve_truncated(g, u02, cfg, traj1.region.radius, center=center)
    return float((traj1.values - traj2.values).min())


def mass_radius(traj: Trajectory, eps, x0=None):
    """Minimal radii around ``x0`` holding a ``(1-eps)`` fraction of the initial mass.

    One integer per stored time, t = 0 first.  Raises
    :class:`TruncationDeficitError` when the truncated ball does not even
    hold that fraction at some stored time (the run needs a larger n).
    """
    if not (0.0 < eps < 1.0) or 1.0 - eps == 1.0:
        raise ValueError(f"eps must lie in (0, 1) with 1 - eps < 1, got {eps!r}")
    dists = traj.distances(x0)
    target = (1.0 - eps) * traj.masses[0]
    bins = int(dists.max()) + 1
    cum = np.cumsum([np.bincount(dists, np.abs(row) * traj.region.degrees, bins)
                     for row in traj.values], axis=1)
    short = np.nonzero(cum[:, -1] < target)[0]
    if len(short):
        held = cum[short[0], -1]
        raise TruncationDeficitError(
            f"ball of radius {traj.region.radius} holds {held:.17g} < {target:.17g} "
            f"of the initial mass at t={traj.times[short[0]]} "
            f"(short by {target - held:.17g})")
    return np.argmax(cum >= target, axis=1)


def moment(traj: Trajectory, alpha, x0=None):
    """Spread functionals ``sum d(x, x0)^alpha u(x, t) d_w(x)``, one per stored time."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    dists = traj.distances(x0)
    return traj.values @ (dists.astype(float) ** alpha * traj.region.degrees)
