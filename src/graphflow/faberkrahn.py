"""Faber-Krahn profiles, Dirichlet p-eigenvalues and scaling functions.

The isoperimetric profile ``Lambda_p(v)`` bounds the Dirichlet p-Rayleigh
quotient from below over all finite vertex sets of measure ``v``.  Unit
lattices admit the closed form ``Lambda_p(v) = c0 * v^(-p/N)``; a generic
graph gets a table brute-forced over its small connected subsets.  The
scaling function ``psi_r(s) = s^((p-2)/r) * Lambda_p(1/s)`` and its inverse
translate the profile into time-amplitude decay rates.

A region's Rayleigh quotients are read off its :class:`NeighbourTable`,
the solver's edge-flux kernel: the energy is twice the table's
``power_sum`` and the descent's gradient its ``divergence``.

Both ``Lambda_p`` and ``psi_r`` are power laws or piecewise log-log linear,
so ``psi_inverse`` is exact (closed form or one interpolation, no search).
``lambda_value``, ``psi`` and ``psi_inverse`` take a scalar or an array
and return a float or an array to match.

The structural assumptions on a profile (``v^(-p/N)/Lambda_p(v)``
nondecreasing, ``v^(-omega)/Lambda_p(v)`` nonincreasing, with
``omega = p/N``) are not enforced at construction; :func:`check_assumptions`
verifies them on an evaluation grid so that deliberately broken profiles can
be used as counterexamples; :attr:`FkProfile.assumptions` caches that report
on a standard grid.  With ``omega = p/N`` they hold exactly for a power law
``c0 v^(-p/N)``, so a table, constant beyond its range, fails them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import region_edges, region_from_vertices, require_exponent


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
    brute-forced or given, constant beyond the table).  A profile is final
    once built.
    """

    def __init__(self, kind, p, N, c0=None, table=None):
        self.kind = kind
        self.p = require_exponent(p)
        if N <= 0:
            raise ValueError("N must be positive")
        self.N = float(N)
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
            if (np.diff(vs) == 0).any():
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
    def tabulated(cls, pairs, p, N):
        return cls("tabulated", p, N, table=pairs)

    def lambda_value(self, v):
        """Evaluate ``Lambda_p(v)`` for v > 0 (scalar or array)."""
        v = _positive(v, "measure")
        if self.kind == "closed_form":
            return _like(v, self.c0 * v ** (-self.p / self.N))
        vs, lams = self.table_v, self.table_lam
        below, above = v < vs[0], v > vs[-1]
        # constant continuation outside the tabulated range
        lam = np.exp(np.interp(np.log(v), self._log_v, self._log_lam))
        return _like(v, np.where(below, lams[0], np.where(above, lams[-1], lam)))

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


# ----------------------------------------------------------------------
# Rayleigh quotients and eigenvalues


def _quotient_batch(F, table, degrees, p):
    # F has shape (..., n); energy counts each undirected edge twice
    return 2.0 * table.power_sum(F, p), np.abs(F) ** p @ degrees


def dirichlet_p_eigenvalue(g, region, p):
    """Smallest Dirichlet p-Rayleigh quotient over fields on a connected region.

    Normalized gradient descent on the p-energy under the weighted p-norm
    constraint, to a relative tolerance of 1e-10, from the indicator of the
    region.  The first Dirichlet p-eigenfunction of a connected set is
    positive and unique up to scale, and by hidden convexity (Belloni and
    Kawohl) every positive start descends to its quotient, so one start
    suffices.  Only when it does not converge are 8 positive fields drawn
    from a fixed generator tried in turn.  The value the first converging
    start reaches is returned, so equal inputs give equal values.

    Raises
    ------
    ConvergenceError
        If no start converges within 5000 iterations.
    """
    p = require_exponent(p)
    tol = 1e-10
    table = region_edges(g, region)
    divergence = table.divergence(p)
    degs = region.degrees
    n = len(region)

    def normalize(f):
        return f / (np.abs(f) ** p * degs).sum() ** (1.0 / p)

    def quotient(f):
        e, d = _quotient_batch(f, table, degs, p)
        return e / d

    def grad_quotient(f):
        # at p-normalized f: grad(E/D) = grad E - Q * grad D
        ge = -2.0 * p * divergence(f)
        gd = p * degs * np.sign(f) * np.abs(f) ** (p - 1.0)
        return ge - quotient(f) * gd

    def descend(f):
        """The field the descent from ``f`` converges to, or None."""
        f = normalize(f)
        q = quotient(f)
        step = 0.1
        flat = 0
        for _ in range(5000):
            grad = grad_quotient(f)
            gnorm2 = (grad * grad).sum()
            if gnorm2 <= (tol * max(q, 1.0)) ** 2:
                return f
            for _ in range(60):
                trial = normalize(f - step * grad)
                qt = quotient(trial)
                if qt <= q - 1e-4 * step * gnorm2:
                    break
                step *= 0.5
            else:
                return f   # no descent direction within float resolution
            flat = flat + 1 if q - qt <= tol * max(q, 1e-300) else 0
            f, q = trial, qt
            if flat >= 3:
                return f
            step *= 1.5
        return None

    def starts():
        yield np.ones(n)
        rng = np.random.default_rng(0)
        for _ in range(8):
            yield rng.uniform(0.05, 1.0, n)

    for f0 in starts():
        f = descend(f0)
        if f is not None:
            # max-normalization keeps unit-weight quotients exact
            e, d = _quotient_batch(f / np.abs(f).max(), table, degs, p)
            return float(e / d)
    raise ConvergenceError("no descent start converged within the iteration cap")


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


def fk_profile_bruteforce(g, base, size_cap, p):
    """Tabulated profile from small connected subsets containing ``base``.

    For every achievable measure: the minimum Dirichlet p-eigenvalue over
    the enumerated subsets of that measure, then the nonincreasing lower
    envelope in v.  Disconnected competitors decompose into components and
    cannot beat their best component, so only connected subsets are tried,
    and each eigenvalue is :func:`dirichlet_p_eigenvalue`'s deterministic one.
    """
    if size_cap > 8:
        raise ValueError("size_cap is limited to 8 (combinatorial growth)")
    per_measure = {}
    for verts in connected_subsets_containing(g, base, size_cap):
        reg = region_from_vertices(g, verts)
        lam = dirichlet_p_eigenvalue(g, reg, p)
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


def check_assumptions(profile, grid):
    """Verify the structural profile assumptions on an evaluation grid.

    Checks that ``v^(-p/N)/Lambda(v)`` is nondecreasing, that
    ``v^(-omega)/Lambda(v)`` is nonincreasing, and their two pairwise
    scaling consequences (``Lambda(sa)^-1 <= s^omega Lambda(a)^-1`` for
    s >= 1 and ``Lambda(sa)^-1 <= s^(p/N) Lambda(a)^-1`` for s <= 1), with
    ``omega = p/N``, each up to a relative slack of 1e-11.  All four compare
    ``K(v) = log(Lambda(v) v^(p/N))`` across the grid, so no exponent takes
    them out of float range; each worst violation is the relative change of
    the compared quantity.
    """
    rtol = 1e-11
    grid = np.asarray(grid, dtype=float)
    if grid.size < 100:
        raise ValueError("need a grid of at least 100 points")
    grid = np.sort(grid)
    log_v = np.log(grid)
    if profile.kind == "closed_form":
        log_lam = math.log(profile.c0) - profile.p / profile.N * log_v
    else:   # np.interp continues a table by its end values, as lambda_value does
        log_lam = np.interp(log_v, profile._log_v, profile._log_lam)
    K = log_lam + profile.p / profile.N * log_v
    # nd: K nonincreasing step by step; ni: K nondecreasing step by step
    steps = np.diff(K)
    i_nd, i_ni = int(np.argmax(steps)), int(np.argmin(steps))
    nd_drop, ni_rise = float(-np.expm1(-steps[i_nd])), float(np.expm1(-steps[i_ni]))
    # pairwise, over all a < b: above needs K(a) <= K(b), below K(b) <= K(a)
    above_viol = float(np.expm1((np.maximum.accumulate(K)[:-1] - K[1:]).max()))
    below_viol = float(np.expm1((K[1:] - np.minimum.accumulate(K)[:-1]).max()))
    report = AssumptionReport(
        nd_ok=nd_drop <= rtol,
        ni_ok=ni_rise <= rtol,
        above_ok=above_viol <= rtol,
        below_ok=below_viol <= rtol,
        worst={
            "nd": (nd_drop, float(grid[i_nd + 1])),
            "ni": (ni_rise, float(grid[i_ni + 1])),
            "above": (above_viol, None),
            "below": (below_viol, None),
        },
    )
    return report
