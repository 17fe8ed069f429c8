"""Faber-Krahn profiles, Dirichlet p-eigenvalues and scaling functions.

The isoperimetric profile ``Lambda_p(v)`` bounds the Dirichlet p-Rayleigh
quotient from below over all finite vertex sets of measure ``v``.  Unit
lattices admit the closed form ``Lambda_p(v) = c0 * v^(-p/N)``; generic
graphs get a tabulated profile, either supplied or brute-forced over small
connected subsets.  The scaling function ``psi_r(s) = s^((p-2)/r) *
Lambda_p(1/s)`` and its inverse translate the profile into time-amplitude
decay rates.

Both ``Lambda_p`` and ``psi_r`` are power laws or piecewise log-log linear,
so their inverses are exact (closed form or one interpolation, no search).
``lambda_value``, ``lambda_inverse``, ``psi`` and ``psi_inverse`` take a
scalar or an array and return a float or an array to match.

Structural assumptions on a profile (``v^(-p/N)/Lambda_p(v)`` nondecreasing,
``v^(-omega)/Lambda_p(v)`` nonincreasing) are not enforced at construction;
:func:`check_assumptions` verifies them on an evaluation grid so that
deliberately broken profiles can be used as counterexamples;
:attr:`FkProfile.assumptions` caches that report on a standard grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import Field
from .graphs import ball_measure_profile, region_edges, region_from_vertices, rings
from .operators import dirichlet_energy, require_exponent


class ConvergenceError(RuntimeError):
    """Raised when a search or an iteration has no answer within its range."""


# ----------------------------------------------------------------------
# profiles

# measures on which a profile's structural assumptions are checked
_ASSUMPTION_GRID = np.geomspace(1e-3, 1e9, 140)


class FkProfile:
    """Representation of the map ``v -> Lambda_p(v)``.

    ``kind`` is ``"closed_form"`` (lattice power law ``c0 v^(-p/N)``) or
    ``"tabulated"`` (piecewise log-log linear through ``(v, Lambda)`` pairs,
    read from a file or brute-forced, constant beyond the table; evaluations
    in the extended range are counted in ``extrapolations``).
    """

    def __init__(self, kind, p, N, omega_exp=None, c0=None, table=None):
        self.kind = kind
        self.p = require_exponent(p)
        if N <= 0:
            raise ValueError("N must be positive")
        self.N = float(N)
        self.omega_exp = float(omega_exp) if omega_exp is not None else self.p / self.N
        self.extrapolations = 0
        if kind == "closed_form":
            if c0 is None or c0 <= 0:
                raise ValueError("closed-form profile needs c0 > 0")
            self.c0 = float(c0)
            self.table_v = self.table_lam = None
        elif kind == "tabulated":
            pairs = sorted((float(v), float(lam)) for v, lam in table)
            if not pairs:
                raise ValueError("empty profile table")
            vs = np.array([v for v, _ in pairs])
            lams = np.array([lam for _, lam in pairs])
            if (vs <= 0).any() or (lams <= 0).any():
                raise ValueError("profile table entries must be positive")
            if len(np.unique(vs)) != len(vs):
                raise ValueError("duplicate measures in profile table")
            self.c0 = None
            self.table_v = vs
            self.table_lam = lams
            self._log_v = np.log(vs)
            self._log_lam = np.log(lams)
        else:
            raise ValueError(f"unknown profile kind {kind!r}")

    @classmethod
    def lattice(cls, N, p, c0=1.0):
        """Closed-form lattice profile ``Lambda_p(v) = c0 * v^(-p/N)``."""
        return cls("closed_form", p, N, c0=c0)

    @classmethod
    def tabulated(cls, pairs, p, N, omega_exp=None):
        return cls("tabulated", p, N, omega_exp=omega_exp, table=pairs)

    def lambda_value(self, v):
        """Evaluate ``Lambda_p(v)`` for v > 0 (scalar or array)."""
        v = _positive(v, "measure")
        if self.kind == "closed_form":
            return _like(v, self.c0 * v ** (-self.p / self.N))
        vs, lams = self.table_v, self.table_lam
        below, above = v < vs[0], v > vs[-1]
        # constant continuation outside the tabulated range
        self.extrapolations += int(np.count_nonzero(below | above))
        lam = np.exp(np.interp(np.log(v), self._log_v, self._log_lam))
        return _like(v, np.where(below, lams[0], np.where(above, lams[-1], lam)))

    def lambda_inverse(self, y):
        """Largest ``v`` with ``Lambda_p(v) >= y`` (scalar or array ``y``).

        On a table this is the crossing on the segment after the last knot
        with ``Lambda >= y``, which is also the right end of a plateau at
        ``y``.  No such ``v`` exists when ``y <= Lambda(v_max)`` (the
        constant continuation never drops below ``y``) or when ``y`` is above
        every knot.
        """
        y = _positive(y, "y")
        if self.kind == "closed_form":
            return _like(y, (y / self.c0) ** (-self.N / self.p))
        lams, lv, ll = self.table_lam, self._log_v, self._log_lam
        if (y <= lams[-1]).any():
            raise ConvergenceError(f"Lambda never drops below {np.min(y)}")
        # tail_max[k] = max(Lambda at knots k, k+1, ...) is nonincreasing
        tail_max = np.maximum.accumulate(lams[::-1])[::-1]
        if (y > tail_max[0]).any():
            raise ConvergenceError(f"Lambda never reaches {np.max(y)}")
        k = np.searchsorted(-tail_max, -y, side="right") - 1
        frac = (np.log(y) - ll[k]) / (ll[k + 1] - ll[k])
        return _like(y, np.exp(lv[k] + frac * (lv[k + 1] - lv[k])))

    @cached_property
    def assumptions(self):
        """:func:`check_assumptions` report on the standard grid, computed on first use.

        A profile is final once built, so every check that relies on the
        assumptions shares this one report.
        """
        return check_assumptions(self, _ASSUMPTION_GRID)

    # -- serialization ---------------------------------------------------

    def to_csv_text(self):
        if self.kind == "closed_form":
            raise ValueError("CSV form is for tabulated profiles")
        lines = ["v,lambda"]
        for v, lam in zip(self.table_v, self.table_lam):
            lines.append(f"{v:.17g},{lam:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text, p, N, omega_exp=None):
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "v,lambda":
            raise ValueError("missing 'v,lambda' header")
        pairs = []
        for ln in lines[1:]:
            a, b = ln.split(",")
            pairs.append((float(a), float(b)))
        return cls.tabulated(pairs, p, N, omega_exp=omega_exp)


def _positive(x, name):
    """``x`` as a float array (0-d scalars stay numpy scalars); all > 0."""
    x = np.asarray(x, dtype=float)
    if (x <= 0).any():
        raise ValueError(f"{name} must be positive, got {np.min(x)}")
    # numpy scalars (unlike 0-d arrays) compute powers exactly as Python does
    return x[()] if x.ndim == 0 else x


def _like(x, value):
    return float(value) if np.ndim(x) == 0 else value


def psi(profile, r, s):
    """Scaling function ``psi_r(s) = s^((p-2)/r) * Lambda_p(1/s)``."""
    if r < 1:
        raise ValueError("order r must be >= 1")
    s = _positive(s, "argument s")
    return _like(s, s ** ((profile.p - 2.0) / r) * profile.lambda_value(1.0 / s))


def psi_inverse(profile, r, y):
    """Exact inverse of ``psi_r`` for a scalar or an array ``y``.

    On ``Lambda_p(v) = c0 v^(-p/N)``, ``psi_r(s) = c0 s^((p-2)/r + p/N)``.
    On a table, ``log psi_r`` is piecewise linear in ``log s`` with knots at
    ``s = 1/v_k`` and slope ``(p-2)/r`` beyond the table, where ``Lambda_p``
    is constant; it is inverted by interpolation between the knots and along
    that slope outside them.

    Raises
    ------
    ValueError
        If the knot values of ``psi_r`` are not strictly increasing, which
        breaks the structural assumptions on the profile.
    """
    if r < 1:
        raise ValueError("order r must be >= 1")
    y = _positive(y, "y")
    p = profile.p
    if profile.kind == "closed_form":
        return _like(y, (y / profile.c0) ** (1.0 / ((p - 2.0) / r + p / profile.N)))
    slope = (p - 2.0) / r
    log_s = -profile._log_v[::-1]
    log_psi = slope * log_s + profile._log_lam[::-1]
    if (np.diff(log_psi) <= 0).any():
        raise ValueError(f"psi_{r} is not increasing on the profile table")
    ly = np.log(y)
    u = np.where(ly < log_psi[0], log_s[0] + (ly - log_psi[0]) / slope,
                 np.where(ly > log_psi[-1], log_s[-1] + (ly - log_psi[-1]) / slope,
                          np.interp(ly, log_psi, log_s)))
    return _like(y, np.exp(u))


def ball_radius_inverse(g, x0, v, r_cap=10 ** 6):
    """Minimal integer R with ``mu_w(B_R(x0)) >= v`` (overshoot convention).

    Discrete measures generically cannot hit ``v`` exactly, so the minimal
    overshooting radius is returned.
    """
    if v <= 0:
        raise ValueError("v must be positive")
    total = 0.0
    for R, ring in enumerate(rings(g, x0, r_cap + 1)):
        if R > r_cap:
            raise ConvergenceError(f"measure {v} not reached within radius {r_cap}")
        for y in ring:
            total += g.degree(y)
        if total >= v:
            return R
    raise ValueError(f"graph component measure {total} is below v={v}")


# ----------------------------------------------------------------------
# Rayleigh quotients and eigenvalues


def rayleigh_quotient(g, region, f: Field, p):
    """Dirichlet p-energy of ``f`` over its p-norm mass on the region."""
    p = require_exponent(p)
    denom = 0.0
    for v in f.support():
        if v not in region:
            raise ValueError(f"field has support at {v!r} outside the region")
    for i, v in enumerate(region.vertices):
        denom += abs(f[v]) ** p * region.degrees[i]
    if denom == 0.0:
        raise ValueError("zero field has no Rayleigh quotient")
    return dirichlet_energy(g, f, p, region) / denom


def _quotient_batch(F, edges, degrees, p):
    # F has shape (..., n); energy counts each undirected edge twice
    return 2.0 * edges.power_sum(F, p), np.abs(F) ** p @ degrees


def dirichlet_p_eigenvalue(g, region, p, tol=1e-10, starts=8, seed=0,
                           max_iter=5000):
    """Smallest Dirichlet p-Rayleigh quotient over fields on the region.

    Normalized gradient descent on the p-energy under the weighted p-norm
    constraint, with multistart (the indicator of the region plus
    ``starts`` random fields); the best converged value is returned.

    Raises
    ------
    ConvergenceError
        If no start converges within ``max_iter`` iterations.
    """
    p = require_exponent(p)
    edges = region_edges(g, region)
    divergence = edges.divergence(p)
    degs = region.degrees
    n = len(region)
    rng = np.random.default_rng(seed)
    starts_list = [np.ones(n)]
    for _ in range(max(0, starts)):
        starts_list.append(rng.uniform(0.05, 1.0, n))

    def normalize(f):
        return f / (np.abs(f) ** p * degs).sum() ** (1.0 / p)

    def quotient(f):
        e, d = _quotient_batch(f, edges, degs, p)
        return e / d

    def grad_quotient(f):
        # at p-normalized f: grad(E/D) = grad E - Q * grad D
        ge = -2.0 * p * divergence(f)
        gd = p * degs * np.sign(f) * np.abs(f) ** (p - 1.0)
        return ge - quotient(f) * gd

    best = None
    converged_any = False
    for f0 in starts_list:
        f = normalize(f0.copy())
        q = quotient(f)
        step = 0.1
        flat = 0
        converged = False
        for _ in range(max_iter):
            grad = grad_quotient(f)
            gnorm2 = (grad * grad).sum()
            if gnorm2 <= (tol * max(q, 1.0)) ** 2:
                converged = True
                break
            accepted = False
            for _ in range(60):
                trial = normalize(f - step * grad)
                qt = quotient(trial)
                if qt <= q - 1e-4 * step * gnorm2:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                converged = True  # no descent direction within float resolution
                break
            if q - qt <= tol * max(q, 1e-300):
                flat += 1
                if flat >= 3:
                    f, q = trial, qt
                    converged = True
                    break
            else:
                flat = 0
            f, q = trial, qt
            step *= 1.5
        if converged:
            converged_any = True
            # max-normalization keeps unit-weight quotients exact
            fm = f / np.abs(f).max()
            e, d = _quotient_batch(fm, edges, degs, p)
            val = e / d
            best = val if best is None else min(best, val)
    if not converged_any:
        raise ConvergenceError("no descent start converged within the iteration cap")
    return float(best)


def eigenvalue_grid_oracle(g, region, p, step=1e-3):
    """Exhaustive-grid minimum of the Rayleigh quotient, |region| <= 3.

    Nonnegative competitors normalized by max = 1 (the quotient is scale
    invariant and replacing f by |f| cannot increase it), gridded at
    ``step`` on each remaining coordinate; one face per choice of the
    maximal coordinate.
    """
    p = require_exponent(p)
    n = len(region)
    if n > 3:
        raise ValueError("grid oracle is limited to regions of size <= 3")
    edges = region_edges(g, region)
    degs = region.degrees
    if n == 1:
        e, d = _quotient_batch(np.ones(1), edges, degs, p)
        return float(e / d)
    m = int(round(1.0 / step)) + 1
    axis = np.linspace(0.0, 1.0, m)
    best = np.inf
    if n == 2:
        for k in range(2):
            F = np.empty((m, 2))
            F[:, k] = 1.0
            F[:, 1 - k] = axis
            e, d = _quotient_batch(F, edges, degs, p)
            best = min(best, float((e / d).min()))
    else:
        g1, g2 = np.meshgrid(axis, axis, indexing="ij")
        flat1, flat2 = g1.ravel(), g2.ravel()
        for k in range(3):
            F = np.empty((m * m, 3))
            F[:, k] = 1.0
            others = [i for i in range(3) if i != k]
            F[:, others[0]] = flat1
            F[:, others[1]] = flat2
            e, d = _quotient_batch(F, edges, degs, p)
            best = min(best, float((e / d).min()))
    return best


# ----------------------------------------------------------------------
# brute-forced profiles


def connected_subsets_containing(g, base, max_size):
    """All connected vertex subsets containing ``base`` with size <= max_size.

    Standard rooted enumeration: grow along the frontier, banning each
    used candidate from later branches of the same level so that every
    subset is produced exactly once.  Yields canonically ordered tuples.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    g.degree(base)

    def rec(S, S_set, cand, banned):
        yield tuple(sorted(S, key=g.sort_key))
        if len(S) == max_size:
            return
        local_ban = set(banned)
        for idx, v in enumerate(cand):
            if v in local_ban:
                continue
            S.append(v)
            S_set.add(v)
            seen = S_set | set(cand) | local_ban
            extension = cand[idx + 1:]
            extra = []
            for y, _ in g.neighbors(v):
                if y not in seen:
                    extra.append(y)
                    seen.add(y)
            yield from rec(S, S_set, extension + extra, local_ban)
            S.pop()
            S_set.remove(v)
            local_ban.add(v)

    first_cand = [y for y, _ in g.neighbors(base)]
    yield from rec([base], {base}, first_cand, set())


def fk_profile_bruteforce(g, base, size_cap, p, tol=1e-10, starts=8, seed=0):
    """Tabulated profile from small connected subsets containing ``base``.

    For every achievable measure: the minimum Dirichlet p-eigenvalue over
    the enumerated subsets of that measure, then the nonincreasing lower
    envelope in v.  Disconnected competitors decompose into components and
    cannot beat their best component, so only connected subsets are tried.
    """
    if size_cap > 8:
        raise ValueError("size_cap is limited to 8 (combinatorial growth)")
    per_measure = {}
    for verts in connected_subsets_containing(g, base, size_cap):
        reg = region_from_vertices(g, verts)
        lam = dirichlet_p_eigenvalue(g, reg, p, tol=tol, starts=starts, seed=seed)
        v = round(reg.measure, 9)
        if v not in per_measure or lam < per_measure[v]:
            per_measure[v] = lam
    vs = sorted(per_measure)
    envelope = []
    running = math.inf
    for v in vs:
        running = min(running, per_measure[v])
        envelope.append((v, running))
    return FkProfile.tabulated(envelope, p, getattr(g, "dimension", None) or 1.0)


# ----------------------------------------------------------------------
# assumption and scaling checks


@dataclass
class AssumptionReport:
    """Per-assumption verdicts with worst violation magnitude and location."""

    nd_ok: bool
    ni_ok: bool
    above_ok: bool
    below_ok: bool
    worst: dict = field(default_factory=dict)

    @property
    def all_ok(self):
        return self.nd_ok and self.ni_ok and self.above_ok and self.below_ok


def check_assumptions(profile, grid, rtol=1e-11):
    """Verify the structural profile assumptions on an evaluation grid.

    Checks that ``v^(-p/N)/Lambda(v)`` is nondecreasing, that
    ``v^(-omega)/Lambda(v)`` is nonincreasing, and their two pairwise
    scaling consequences (``Lambda(sa)^-1 <= s^omega Lambda(a)^-1`` for
    s >= 1 and ``Lambda(sa)^-1 <= s^(p/N) Lambda(a)^-1`` for s <= 1).
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 100:
        raise ValueError("need a grid of at least 100 points")
    grid = np.sort(grid)
    lam = profile.lambda_value(grid)
    G_nd = grid ** (-profile.p / profile.N) / lam
    G_ni = grid ** (-profile.omega_exp) / lam

    def worst_drop(G):
        # positive when the sequence decreases somewhere
        rel = (G[:-1] - G[1:]) / np.maximum(np.abs(G[:-1]), 1e-300)
        i = int(np.argmax(rel))
        return float(rel[i]), float(grid[i + 1])

    def worst_rise(G):
        rel = (G[1:] - G[:-1]) / np.maximum(np.abs(G[:-1]), 1e-300)
        i = int(np.argmax(rel))
        return float(rel[i]), float(grid[i + 1])

    nd_drop, nd_at = worst_drop(G_nd)
    ni_rise, ni_at = worst_rise(G_ni)
    # pairwise consequences over all grid pairs
    inv = 1.0 / lam
    ratio = inv[None, :] / inv[:, None]              # Lambda(a)^... for a=row, sa=col
    s = grid[None, :] / grid[:, None]
    iu = np.triu_indices(len(grid), k=1)
    above_viol = (ratio[iu] / s[iu] ** profile.omega_exp - 1.0).max()
    il = (iu[1], iu[0])                              # s < 1 pairs
    below_viol = (ratio[il] / s[il] ** (profile.p / profile.N) - 1.0).max()
    report = AssumptionReport(
        nd_ok=nd_drop <= rtol,
        ni_ok=ni_rise <= rtol,
        above_ok=above_viol <= rtol,
        below_ok=below_viol <= rtol,
        worst={
            "nd": (nd_drop, nd_at),
            "ni": (ni_rise, ni_at),
            "above": (float(above_viol), None),
            "below": (float(below_viol), None),
        },
    )
    return report


def check_psi_scaling_monotone(profile, b, taus, rtol=1e-9):
    """Grid check that ``tau^nu * psi_1^{-1}(b/tau)^((p-2)/(p-1))`` is nondecreasing.

    ``nu = N(p-2) / ((N(p-2)+p)(p-1))``; on exact lattice power laws the
    map is constant, so a relative slack absorbs roundoff.
    Returns ``(ok, worst_relative_drop, nu)``.
    """
    p, N = profile.p, profile.N
    nu = N * (p - 2.0) / ((N * (p - 2.0) + p) * (p - 1.0))
    taus = np.sort(np.asarray(taus, dtype=float))
    vals = taus ** nu * psi_inverse(profile, 1.0, b / taus) ** ((p - 2.0) / (p - 1.0))
    rel_drop = ((vals[:-1] - vals[1:]) / np.abs(vals[:-1])).max()
    return bool(rel_drop <= rtol), float(rel_drop), nu


def check_ball_measure_bound(g, x0, profile, c, s_values):
    """Ball-measure scaling check behind the constant-free lower bound.

    For ``R^p = c * s * psi_1^{-1}(1/s)^(p-2)`` the measure of ``B_floor(R)``
    is bounded by a stable multiple of ``psi_1^{-1}(1/s)^{-1}``; the fitted
    multiple ``gamma = mu_w(B_floor(R)) * psi_1^{-1}(1/s)`` is returned per
    sample together with its spread around the midpoint.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    s_values = np.asarray(s_values, dtype=float)
    lam = psi_inverse(profile, 1.0, 1.0 / s_values)
    R = (c * s_values * lam ** (profile.p - 2.0)) ** (1.0 / profile.p)
    radii = np.floor(R).astype(int)
    measures = ball_measure_profile(g, x0, int(radii.max()))
    gamma = measures[radii] * lam
    mid = 0.5 * (gamma.max() + gamma.min())
    return {
        "s": s_values,
        "R": R,
        "gamma": gamma,
        "spread": float((gamma.max() - mid) / mid),
    }


def linf_lq_bound(profile, f: Field, q):
    """Pointwise bound ``||f||_inf <= Lambda_p^{-1}(2)^{-1/q} ||f||_q``.

    Returns ``(holds, lhs, rhs)``; a consequence of every vertex having
    degree at least ``Lambda_p^{-1}(2)``.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    lhs = f.sup_norm()
    rhs = profile.lambda_inverse(2.0) ** (-1.0 / q) * f.lq_norm(q)
    return lhs <= rhs * (1 + 1e-12), lhs, rhs
