"""What the library's one p-Laplacian, the kernel ``NeighbourTable``, is compared with.

:func:`apply_plaplacian` and :func:`dirichlet_energy` loop over a ``Field``
and the neighbor oracle, summing over ordered pairs (each edge twice).
:func:`lq_norm` and :func:`lambda_inverse` are the norms and the profile
inverse of the paper's lemmas, which no command of the package evaluates.
"""

import math

import numpy as np

from graphflow.faberkrahn import ConvergenceError, _like, _positive, _quotient_batch
from graphflow.graphs import region_edges, require_exponent


def phi(s, p):
    """Odd power ``|s|^(p-2) s``, 0 at s = 0 (scalar or array)."""
    return np.copysign(np.abs(s) ** (p - 1.0), s)


def apply_plaplacian(g, u, p, x):
    """``(1/d_w(x)) * sum_y |u(y)-u(x)|^(p-2) (u(y)-u(x)) w(x,y)``, ``u = 0`` off its support."""
    p = require_exponent(p)
    ux = u[x]
    acc = 0.0
    deg = 0.0
    for y, w in g.neighbors(x):
        acc += phi(u[y] - ux, p) * w
        deg += w
    return acc / deg


def dirichlet_energy(g, f, p, region):
    """p-Dirichlet energy ``sum_{x,y in (U)_1} |f(y)-f(x)|^p w(x,y)`` over ordered pairs.

    ``(U)_1`` is the region with its neighbors; ``f`` must vanish outside
    the region.
    """
    p = require_exponent(p)
    for v in f.support():
        if v not in region:
            raise ValueError(f"field has support at {v!r} outside the region")
    hood = set(region.vertices)
    hood.update(y for x in region.vertices for y, _ in g.neighbors(x))
    total = 0.0
    for x in sorted(hood, key=g.sort_key):
        fx = f[x]
        for y, w in g.neighbors(x):
            if y in hood:
                total += abs(f[y] - fx) ** p * w
    return total


def summation_by_parts_defect(table, edges, u, f, p):
    """``(|lhs - rhs|, scale)`` for summation by parts on the kernel, stubs included.

    ``lhs = table.divergence(p)(u) @ f`` meets the flux
    ``w phi(u(j) - u(i))`` of each edge at both its ends, so it is
    ``rhs = -sum w phi(u(j) - u(i)) (f(j) - f(i))`` over the edges of
    ``edges``, each once: ``ei, ej, w``, and the stubs ``bi, bw``, whose
    far end is the zero exterior.  The defect is roundoff; ``scale`` is
    the absolute mass of the terms of both sides.
    """
    lhs = table.divergence(p)(u) @ f
    i = np.append(edges.ei, edges.bi)
    j = np.append(edges.ej, np.full(len(edges.bi), edges.n))   # the zero slot n
    u, f = np.append(u, 0.0), np.append(f, 0.0)
    flux, df = phi(u[j] - u[i], p) * np.append(edges.w, edges.bw), f[j] - f[i]
    return abs(lhs + flux @ df), np.abs(flux) @ (np.abs(f[i]) + np.abs(f[j]) + np.abs(df))


def eigenvalue_grid_oracle(g, region, p):
    """Exhaustive-grid minimum of the Rayleigh quotient, |region| <= 3.

    Nonnegative competitors normalized by max = 1 (the quotient is scale
    invariant and replacing f by |f| cannot increase it), gridded at
    step 1e-3 on each remaining coordinate; one face per choice of the
    maximal coordinate.
    """
    p = require_exponent(p)
    n = len(region)
    if n > 3:
        raise ValueError("grid oracle is limited to regions of size <= 3")
    table = region_edges(g, region)
    axes = [np.linspace(0.0, 1.0, 1001)] * (n - 1)   # step 1e-3
    rest = (np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n - 1)
            if n > 1 else np.empty((1, 0)))
    best = np.inf
    for k in range(n):
        e, d = _quotient_batch(np.insert(rest, k, 1.0, axis=1), table, region.degrees, p)
        best = min(best, float((e / d).min()))
    return best


def lq_norm(f, q):
    """Weighted norm ``(sum |f(x)|^q d_w(x))^(1/q)`` of a ``Field``; ``q = 1`` is its mass."""
    if q < 1:
        raise ValueError("q must be >= 1")
    # fsum rounds correctly, so no order of the terms changes the sum
    g = f.generator
    return math.fsum(abs(x) ** q * g.degree(v) for v, x in f.values.items()) ** (1.0 / q)


def lambda_inverse(profile, y):
    """Largest ``v`` with ``Lambda_p(v) >= y`` on an ``FkProfile`` (scalar or array ``y``).

    On a table this is the crossing on the segment after the last knot
    with ``Lambda >= y``, which is also the right end of a plateau at
    ``y``.  No such ``v`` exists when ``y <= Lambda(v_max)`` (the
    constant continuation never drops below ``y``) or when ``y`` is above
    every knot.
    """
    y = _positive(y, "y")
    if profile.kind == "closed_form":
        return _like(y, (y / profile.c0) ** (-profile.N / profile.p))
    lams, lv, ll = profile.table_lam, profile._log_v, profile._log_lam
    if (y <= lams[-1]).any():
        raise ConvergenceError(f"Lambda never drops below {np.min(y)}")
    # tail_max[k] = max(Lambda at knots k, k+1, ...) is nonincreasing
    tail_max = np.maximum.accumulate(lams[::-1])[::-1]
    if (y > tail_max[0]).any():
        raise ConvergenceError(f"Lambda never reaches {np.max(y)}")
    k = np.searchsorted(-tail_max, -y, side="right") - 1
    frac = (np.log(y) - ll[k]) / (ll[k + 1] - ll[k])
    return _like(y, np.exp(lv[k] + frac * (lv[k + 1] - lv[k])))
