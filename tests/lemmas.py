"""Numerical checks of the paper's lemmas that no command runs (criteria 8 and 9)."""

import numpy as np

import graphflow as gf
from graphflow.graphs import require_exponent


def monotonicity_gamma(q, p):
    """Constant ``((q-1+p)/p)^p / q`` produced by the Hoelder step."""
    return ((q - 1.0 + p) / p) ** p / q


def monotonicity_check(a, b, q, p):
    """Check ``(a^m - b^m)^p <= gamma(q,p) (a^q - b^q)(a-b)^(p-1)``, ``m = (q-1+p)/p``.

    The elementary power inequality behind the energy estimates for the
    flow.  Requires ``a > b > 0``, ``q > 0``, ``p > 2``.  A relative slack
    of 1e-12 absorbs roundoff in the equality cases (e.g. q = 1, where
    both sides coincide).
    """
    p = require_exponent(p)
    if not (a > b > 0):
        raise ValueError(f"need a > b > 0, got a={a}, b={b}")
    if q <= 0:
        raise ValueError(f"need q > 0, got q={q}")
    m = (q - 1.0 + p) / p
    lhs = (a ** m - b ** m) ** p
    rhs = monotonicity_gamma(q, p) * (a ** q - b ** q) * (a - b) ** (p - 1.0)
    return lhs <= rhs * (1.0 + 1e-12)


def check_psi_scaling_monotone(profile, b, taus):
    """Grid check that ``tau^nu * psi_1^{-1}(b/tau)^((p-2)/(p-1))`` is nondecreasing.

    ``nu = N(p-2) / ((N(p-2)+p)(p-1))``; on exact lattice power laws the
    map is constant, so a relative slack of 1e-9 absorbs roundoff.
    Returns ``(ok, worst_relative_drop, nu)``.
    """
    p, N = profile.p, profile.N
    nu = N * (p - 2.0) / ((N * (p - 2.0) + p) * (p - 1.0))
    taus = np.sort(np.asarray(taus, dtype=float))
    vals = taus ** nu * gf.psi_inverse(profile, 1.0, b / taus) ** ((p - 2.0) / (p - 1.0))
    rel_drop = ((vals[:-1] - vals[1:]) / np.abs(vals[:-1])).max()
    return bool(rel_drop <= 1e-9), float(rel_drop), nu


def check_ball_measure_bound(g, x0, profile, c, s_values):
    """Ball-measure scaling check behind the constant-free lower bound.

    For ``R^p = c * s * psi_1^{-1}(1/s)^(p-2)`` the measure of ``B_floor(R)``
    is bounded by a stable multiple of ``psi_1^{-1}(1/s)^{-1}``.  Returns
    the spread of the fitted multiples ``mu_w(B_floor(R)) * psi_1^{-1}(1/s)``
    around their midpoint, and the radii ``R``.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    s_values = np.asarray(s_values, dtype=float)
    lam = gf.psi_inverse(profile, 1.0, 1.0 / s_values)
    R = (c * s_values * lam ** (profile.p - 2.0)) ** (1.0 / profile.p)
    radii = np.floor(R).astype(int)
    measures = gf.ball_measure_profile(g, x0, int(radii.max()))
    gamma = measures[radii] * lam
    mid = 0.5 * (gamma.max() + gamma.min())
    return float((gamma.max() - mid) / mid), R
