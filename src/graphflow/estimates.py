"""Verification harness: bound-ratio series, exponent fits, slow decay.

Each quantitative estimate for the flow is tested in one of two
constant-free ways, because the constants in one-sided bounds are
existential: (a) the ratio of the two sides is computed along a certified
trajectory and its boundedness/stability over the fit window is asserted,
and (b) where the bound implies a power law on unit lattices, the log-log
slope is fitted and compared with the predicted exponent.  Fit windows are
empirical and always reported with the fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .faberkrahn import psi_inverse
from .fields import Field
from .graphs import ball
from .solver import Trajectory, mass_radius, moment

DEFAULT_WINDOW = (10.0, 1e3)
# the slow-decay check's defaults: its window and its tolerance on the rate fit
SLOW_DECAY_WINDOW = (1e2, 1e4)
SLOW_DECAY_TOLERANCE = 0.05


def decay_exponent(N, p):
    """Predicted sup-norm decay exponent on the N-dim unit lattice."""
    return N / (N * (p - 2.0) + p)


def propagation_exponent(N, p):
    """Predicted growth exponent of the half-mass radius on the lattice."""
    return 1.0 / (N * (p - 2.0) + p)


def slow_decay_exponent(alpha, p):
    """Predicted decay exponent for power-law data of order alpha."""
    return alpha / (alpha * (p - 2.0) + p)


def balance_time_exponent(alpha, p):
    """Predicted growth exponent of the balance time in the radius."""
    return alpha * (p - 2.0) + p


# ----------------------------------------------------------------------
# fitting


@dataclass
class ExponentFit:
    """Least-squares slope of log(quantity) against log(t) on a window."""

    window: tuple
    slope: float
    intercept: float
    stderr: float
    r2: float
    n_points: int
    theoretical: float | None = None
    tolerance: float | None = None

    @property
    def passed(self):
        if self.theoretical is None or self.tolerance is None:
            return True
        return abs(self.slope - self.theoretical) <= self.tolerance


def fit_loglog(ts, ys, window, theoretical=None, tolerance=None):
    """Fit ``log y ~ slope * log t`` over ``window``; needs >= 10 points."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    m = (ts >= window[0]) & (ts <= window[1]) & (ys > 0) & (ts > 0)
    n = int(m.sum())
    if n < 10:
        raise ValueError(f"fit window {window} holds only {n} usable instants")
    x = np.log(ts[m])
    y = np.log(ys[m])
    A = np.vstack([x, np.ones(n)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = y - A @ coef
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    var = rss / (n - 2) if n > 2 else 0.0
    sxx = float(((x - x.mean()) ** 2).sum())
    stderr = math.sqrt(var / sxx) if sxx > 0 else math.inf
    return ExponentFit(tuple(window), slope, intercept, stderr, r2, n,
                       theoretical, tolerance)


def fit_decay_exponent(traj: Trajectory, window=DEFAULT_WINDOW,
                       theoretical=None, tolerance=None):
    """Slope of log sup-norm against log t on the window."""
    return fit_loglog(traj.instants, traj.sup_norms[1:], window, theoretical,
                      tolerance)


def fit_propagation_exponent(traj: Trajectory, eps, window=DEFAULT_WINDOW,
                             theoretical=None, tolerance=None):
    """Slope of log mass-confinement radius about the center against log t on the window."""
    radii = mass_radius(traj, eps)[1:].astype(float)
    return fit_loglog(traj.instants, radii, window, theoretical, tolerance)


# ----------------------------------------------------------------------
# bound-ratio checks


@dataclass
class BoundCheck:
    """Ratio series lhs/rhs for one estimate, with its verdict.

    For upper bounds the verdict is the supremum of the ratio over the fit
    window (the empirical, fitted constant); for the constant-free lower
    bound it is the infimum, which must be >= 1.
    """

    tag: str
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    ratio: np.ndarray
    verdict: float
    window: tuple
    extra: dict = field(default_factory=dict)

    def stability(self, window=None):
        """Relative variation (max-min)/max of the ratio over a window."""
        w = window or self.window
        m = (self.times >= w[0]) & (self.times <= w[1]) & np.isfinite(self.ratio)
        r = self.ratio[m]
        if len(r) == 0:
            return math.inf
        return float((r.max() - r.min()) / r.max())


def _window_mask(times, window):
    return (times >= window[0]) & (times <= window[1])


def _trim_window(traj, window):
    lo = max(window[0], float(traj.instants[0]))
    hi = min(window[1], float(traj.instants[-1]))
    if lo >= hi:
        raise ValueError(f"window {window} does not meet the trajectory horizon")
    return (lo, hi)


def require_profile(profile):
    """Raise ``ValueError`` unless ``profile`` passes its structural assumptions.

    The upper-bound checks rely on them; the report is computed once per
    profile (:attr:`FkProfile.assumptions`), so every check may vet it.  A
    brute-forced table fails them: it is constant past its range.
    """
    report = profile.assumptions
    if not report.all_ok:
        raise ValueError(f"profile fails structural assumptions: {report.worst}")


def _decay_scale(traj, profile):
    """``lambda(t) = psi_1^{-1}(1/(t m0^(p-2)))`` at the instants.

    The decay envelope of mass ``m0`` is ``m0 * lambda(t)``.
    """
    m0 = traj.masses[0]
    return psi_inverse(profile, 1.0, 1.0 / (traj.instants * m0 ** (traj.p - 2.0)))


def _upper_check(tag, traj, profile, window, sides, extra=None):
    """Upper-bound check of ``lhs/rhs`` with ``(lhs, rhs) = sides()`` over the instants.

    The verdict is the fitted constant, the sup of the ratio over the
    window trimmed to the horizon.  The profile must pass its structural
    assumptions.
    """
    require_profile(profile)
    window = _trim_window(traj, window)
    lhs, rhs = sides()
    ratio = lhs / rhs
    verdict = float(ratio[_window_mask(traj.instants, window)].max())
    return BoundCheck(tag, traj.instants, lhs, rhs, ratio, verdict, window, extra or {})


def check_sup_bound(traj: Trajectory, profile, window=DEFAULT_WINDOW):
    """Sup-norm against the mass-scaled decay envelope.

    lhs = sup-norm, rhs = ``m0 * psi_1^{-1}(1/(t m0^(p-2)))``; the verdict
    is the fitted constant (sup of the ratio over the window).
    """
    return _upper_check(
        "sup_decay_upper", traj, profile, window,
        lambda: (traj.sup_norms[1:], traj.masses[0] * _decay_scale(traj, profile)))


def check_lower_bound(traj: Trajectory, profile, x0=None, window=None):
    """Constant-free lower bound through the half-mass radius.

    At every instant, ``sup u(t) * 2 mu_w(B_R(t)) >= m0`` with ``R(t)`` the
    minimal radius around ``x0`` holding half the initial mass; instants
    whose radius violates the support hypothesis (data support must sit
    inside ``B_floor(R/2)(x0)``) are excluded and counted separately.  The
    second, profile-scaled inequality is reported as a fitted constant only.
    """
    ts = traj.instants
    window = _trim_window(traj, window) if window else (float(ts[0]), float(ts[-1]))
    m0 = traj.masses[0]
    sups = traj.sup_norms[1:]
    radii = mass_radius(traj, 0.5, x0=x0)[1:]
    # on orbits, an orbit is in the support iff each of its vertices is,
    # and its weight |O| d_w(O) sums the measure exactly (integers)
    rows, weights, dists = traj.summands(x0)
    support = np.abs(rows[0]) > 0
    s0 = int(dists[support].max()) if support.any() else 0
    excluded = s0 > radii // 2
    ball_measures = np.cumsum(np.bincount(dists, weights))
    lhs = sups * 2.0 * ball_measures[radii]
    rhs = np.full(len(ts), m0)
    ratio = lhs / rhs
    m = _window_mask(ts, window) & ~excluded
    verdict = float(ratio[m].min()) if m.any() else math.inf
    # profile-scaled companion: sup / (m0 psi_1^{-1}(...)) stays away from 0
    scaled = sups / (m0 * _decay_scale(traj, profile))
    extra = {
        "radii": radii,
        "excluded": excluded,
        "holds_everywhere": bool((ratio[m] >= 1.0).all()) if m.any() else True,
        "scaled_ratio": scaled,
        "fitted_gamma0": float(scaled[m].min()) if m.any() else math.inf,
    }
    return BoundCheck("mass_lower", ts, lhs, rhs, ratio, verdict, window, extra)


def check_moment_bound(traj: Trajectory, alpha, profile, x0=None,
                       window=DEFAULT_WINDOW):
    """Spread moment against ``R(t)^alpha * m0`` with the confinement radius scale.

    ``R(t) = t^(1/p) m0^((p-2)/p) psi_1^{-1}(1/(t m0^(p-2)))^((p-2)/p)``.
    """

    def sides():
        p = traj.p
        m0 = traj.masses[0]
        radius = (traj.instants ** (1.0 / p) * m0 ** ((p - 2.0) / p)
                  * _decay_scale(traj, profile) ** ((p - 2.0) / p))
        return moment(traj, alpha, x0=x0)[1:], radius ** alpha * m0

    return _upper_check("moment_upper", traj, profile, window, sides, {"alpha": alpha})


def check_entropy_bound(traj: Trajectory, profile, window=DEFAULT_WINDOW):
    """Cumulative edge-flux integral against its time-amplitude envelope."""

    def sides():
        p = traj.p
        rhs = (traj.instants ** (1.0 / p) * traj.masses[0] ** (2.0 * (p - 1.0) / p)
               * _decay_scale(traj, profile) ** ((p - 2.0) / p))
        return traj.flux_integrals[1:], rhs

    return _upper_check("gradient_flux_upper", traj, profile, window, sides)


# ----------------------------------------------------------------------
# slow decay machinery


def l1_sphere_count(N, r):
    """Number of lattice points at l1 distance exactly r in Z^N."""
    if r == 0:
        return 1
    return sum(2 ** k * math.comb(N, k) * math.comb(r - 1, k - 1)
               for k in range(1, min(N, r) + 1))


class PowerLawSpec:
    """Lattice initial data ``u0(x) = |x|_1^(-alpha)`` with a set center value.

    The value at the center vertex (where the power law is undefined) is a
    finite choice that is irrelevant for tail behavior; it defaults to 1.
    Closed ring sums make the partial l1 norm over balls and the lq tail
    norms exact, with an analytic integral bracketing of the far tail
    (available for N <= 2, where the ring-count polynomial keeps the
    summand monotone).
    """

    def __init__(self, N, alpha, center=None, center_value=1.0):
        if not (0 < alpha < N):
            raise ValueError(f"need 0 < alpha < N, got alpha={alpha}, N={N}")
        if center_value <= 0:
            raise ValueError("center value must be positive")
        self.N = int(N)
        self.alpha = float(alpha)
        self.center = center if center is not None else (0,) * int(N)
        self.center_value = float(center_value)
        self._counts = np.ones(1)       # ring sizes |S_r| for r = 0, 1, ...
        self._ring_terms_by_exp = {}    # exponent -> |S_r| r^(-exponent)

    def value(self, distance):
        if distance == 0:
            return self.center_value
        return float(distance) ** (-self.alpha)

    def field(self, g, truncation_radius):
        """Truncated data on the ball of the given radius around the center."""
        reg = ball(g, self.center, truncation_radius)
        return Field(g, {v: self.value(d) for v, d in zip(reg.vertices, reg.distances.tolist())})

    def _ring_terms(self, e, r):
        """``T[j] = |S_j| j^(-e)`` over the l1 spheres ``S_j`` for ``j = 1..len(T)-1 >= r``.

        Ring counts grow geometrically on demand and every exponent keeps one
        array, so repeated ring sums (balance-time tables, tail sums) are
        slices of it.  Sums are taken over slices, not as differences of
        prefix sums, which would cancel away the small tails.
        """
        if len(self._counts) <= r:
            more = range(len(self._counts), max(r + 1, 2 * len(self._counts)))
            self._counts = np.concatenate(
                [self._counts, [l1_sphere_count(self.N, j) for j in more]])
            self._ring_terms_by_exp.clear()
        if e not in self._ring_terms_by_exp:
            rs = np.arange(1, len(self._counts), dtype=float)
            self._ring_terms_by_exp[e] = np.concatenate(
                [[0.0], self._counts[1:] * rs ** (-e)])
        return self._ring_terms_by_exp[e]

    def partial_mass(self, R):
        """Exact l1 norm over the ball ``B_R`` (unit lattice, degree 2N)."""
        deg = 2.0 * self.N
        R = int(R)
        ring_sum = self._ring_terms(self.alpha, R)[1:R + 1].sum()
        return self.center_value * deg + float(deg * ring_sum)

    def lq_tail(self, R, q, annulus_radius=None):
        """q-th power of the lq norm outside ``B_R``: ``(value, error_bound)``.

        Direct ring sums out to the annulus radius, then an integral
        bracket of the remainder; the half-width of the bracket is the
        returned error bound.
        """
        s = self.alpha * q
        if s <= self.N:
            raise ValueError(
                f"lq tail diverges: need q > N/alpha = {self.N / self.alpha}, got q={q}")
        if self.N > 2:
            raise ValueError("analytic tail bound only available for N <= 2")
        M = int(annulus_radius) if annulus_radius is not None else max(2 * int(R), 200)
        deg = 2.0 * self.N
        direct = float(deg * self._ring_terms(s, M)[int(R) + 1:M + 1].sum())
        # remainder over r > M: ring counts are 2 (N=1) and 4r (N=2)
        if self.N == 1:
            integral = lambda x: 2.0 * deg * x ** (1.0 - s) / (s - 1.0)
        else:
            integral = lambda x: 4.0 * deg * x ** (2.0 - s) / (s - 2.0)
        hi = integral(float(M))
        lo = integral(float(M + 1))
        value = direct + 0.5 * (hi + lo)
        err = 0.5 * (hi - lo)
        return value, err


def slow_decay_T(spec: PowerLawSpec, q, R, profile, annulus_radius=None):
    """Balance time of the data at radius R about its center: tail decay vs local mass.

    ``T(R) = (m_R / E)^((p-2)/(q-1)) / Lambda_p((m_R E^(-1/q))^(q/(q-1)))``
    with ``m_R`` the l1 norm over ``B_R`` and ``E`` the q-th norm power
    outside, whose tail bracket must be within 1 % of it.  Nondecreasing
    in R and divergent as R grows; the minimal R with ``T(R) >= t``
    calibrates the decay envelope at time t.
    """
    if q <= 1:
        raise ValueError("q must exceed 1")
    p = profile.p
    m_R = spec.partial_mass(R)
    E, err = spec.lq_tail(R, q, annulus_radius=annulus_radius)
    if err > 0.01 * E:
        raise ValueError(f"tail bracket too wide: {err:.3g} vs {E:.3g}")
    return (m_R / E) ** ((p - 2.0) / (q - 1.0)) \
        / profile.lambda_value((m_R * E ** (-1.0 / q)) ** (q / (q - 1.0)))


def minimal_balance_radius(spec, q, t, profile, R_cap):
    """Smallest integer R <= R_cap with ``T(R) >= t``, for a scalar or an array t.

    T is nondecreasing, so one table ``T(0..R_cap)`` answers every t by a
    sorted search.
    """
    T = np.array([slow_decay_T(spec, q, R, profile) for R in range(int(R_cap) + 1)])
    t = np.asarray(t, dtype=float)
    if (t > T[-1]).any():
        raise ValueError(
            f"balance radius for t={t[t > T[-1]].min()} exceeds the cap {R_cap}")
    radii = np.searchsorted(T, t)
    return int(radii) if radii.ndim == 0 else radii


def check_slow_decay(traj: Trajectory, spec: PowerLawSpec, q, profile,
                     window=SLOW_DECAY_WINDOW, tolerance=SLOW_DECAY_TOLERANCE):
    """Decay envelope for slowly decaying data, plus the rate fit.

    For each instant the minimal balance radius R(t) defines the envelope
    ``m_R(t) * psi_1^{-1}(1/(t m_R(t)^(p-2)))``; the ratio of the sup norm
    to the envelope must stay bounded, and the fitted decay slope is
    compared with ``-alpha/(alpha(p-2)+p)``.
    """
    ts = traj.instants
    p = traj.p
    radii = np.empty(len(ts), dtype=int)

    def sides():
        rows, _, dists = traj.summands()   # an orbit is in the support iff its vertices are
        R_cap = int(dists[np.abs(rows[0]) > 0].max())
        radii[:] = minimal_balance_radius(spec, q, ts, profile, R_cap)
        m_R = np.array([spec.partial_mass(R) for R in radii])
        rhs = m_R * psi_inverse(profile, 1.0, 1.0 / (ts * m_R ** (p - 2.0)))
        return traj.sup_norms[1:], rhs

    check = _upper_check("slow_decay_upper", traj, profile, window, sides,
                         {"radii": radii})
    fit = fit_loglog(ts, check.lhs, check.window,
                     theoretical=-slow_decay_exponent(spec.alpha, p),
                     tolerance=tolerance)
    return check, fit
