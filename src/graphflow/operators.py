"""The discrete p-Laplacian and its pointwise algebraic identities.

All sums over vertex pairs are taken over ordered pairs, so every
undirected edge is counted twice; factor-of-2 conventions downstream
follow from that choice.  The odd power ``|s|^(p-2) s`` is evaluated as
``sign(s) |s|^(p-1)`` and extended by 0 at ``s = 0``, which is the natural
continuous extension for p > 2 and avoids 0-to-a-negative-power pitfalls.
"""

from __future__ import annotations

import math

from .fields import Field


def require_exponent(p):
    """Reject exponents outside the degenerate regime p > 2."""
    if not (p > 2):
        raise ValueError(f"exponent p must satisfy p > 2, got {p}")
    return float(p)


def phi(s, p):
    """Odd power ``|s|^(p-2) s``, defined as 0 at s = 0."""
    if s == 0.0:
        return 0.0
    return math.copysign(abs(s) ** (p - 1.0), s)


def apply_plaplacian(g, u: Field, p, x):
    """Evaluate the p-Laplacian of ``u`` at vertex ``x``.

    ``(1/d_w(x)) * sum_y |u(y)-u(x)|^(p-2) (u(y)-u(x)) w(x,y)`` with
    ``u = 0`` off the support.
    """
    p = require_exponent(p)
    ux = u[x]
    acc = 0.0
    deg = 0.0
    for y, w in g.neighbors(x):
        acc += phi(u[y] - ux, p) * w
        deg += w
    return acc / deg


def one_neighborhood(g, vertices):
    """Vertices within distance 1 of the given collection, canonical order."""
    out = set(vertices)
    for v in tuple(out):
        for y, _ in g.neighbors(v):
            out.add(y)
    return sorted(out, key=g.sort_key)


def dirichlet_energy(g, f: Field, p, region):
    """p-Dirichlet energy ``sum_{x,y in (U)_1} |f(y)-f(x)|^p w(x,y)``.

    The sum runs over ordered pairs in the 1-neighborhood of ``region``,
    so each undirected edge is counted twice.  ``f`` must vanish outside
    the region.
    """
    p = require_exponent(p)
    for v in f.support():
        if v not in region:
            raise ValueError(f"field has support at {v!r} outside the region")
    hood = one_neighborhood(g, region.vertices)
    inside = set(hood)
    total = 0.0
    for x in hood:
        fx = f[x]
        for y, w in g.neighbors(x):
            if y in inside:
                total += abs(f[y] - fx) ** p * w
    return total


def summation_by_parts_residual(g, u: Field, f: Field, p, relative=False):
    """Defect of the integration-by-parts identity for the edge flux.

    Compares ``sum_{x,y} |D_y u(x)|^(p-2) D_y u(x) f(x) w(x,y)`` with
    ``-(1/2) sum_{x,y} |D_y u(x)|^(p-2) D_y u(x) D_y f(x) w(x,y)`` over
    ordered pairs; the two agree exactly for finitely supported ``f``, so
    the return value is pure floating-point roundoff.  With
    ``relative=True`` the defect is normalized by the total absolute term
    mass of both sides.
    """
    p = require_exponent(p)
    hood = one_neighborhood(g, set(u.support()) | set(f.support()))
    lhs = 0.0
    rhs = 0.0
    scale = 0.0
    for x in hood:
        ux, fx = u[x], f[x]
        for y, w in g.neighbors(x):
            flux = phi(u[y] - ux, p) * w
            lhs += flux * fx
            rhs += -0.5 * flux * (f[y] - fx)
            scale += abs(flux) * (abs(fx) + 0.5 * abs(f[y] - fx))
    res = abs(lhs - rhs)
    if relative:
        return res / scale if scale > 0.0 else 0.0
    return res


def monotonicity_gamma(q, p):
    """Constant ``((q-1+p)/p)^p / q`` produced by the Hoelder step."""
    return ((q - 1.0 + p) / p) ** p / q


def monotonicity_check(a, b, q, p):
    """Check ``(a^m - b^m)^p <= gamma(q,p) (a^q - b^q)(a-b)^(p-1)``.

    Here ``m = (q-1+p)/p`` and gamma is :func:`monotonicity_gamma`; the
    inequality is the elementary pointwise bound behind the energy
    estimates for the flow.  Requires ``a > b > 0``, ``q > 0``, ``p > 2``.
    A relative slack of 1e-12 absorbs roundoff in the equality cases
    (e.g. q = 1, where both sides coincide).
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
