"""The discrete p-Laplacian and its exact algebraic identities.

The library evaluates the p-Laplacian in one place, the edge-flux kernel of
a region: ``region_edges(g, region)`` is its ``NeighbourTable``, whose
``divergence`` sums the fluxes at each vertex (the zero exterior of the
truncation enters through the stubs) and whose ``power_sum`` gives energies.
"""
import numpy as np

import graphflow as gf
from graphflow.graphs import region_edges

z1 = gf.lattice_generator(1)
z2 = gf.lattice_generator(2)

# --- the kernel on a ball -------------------------------------------------
ball1 = gf.ball(z1, (0,), 4)   # ring order: (0,), (-1,), (1,), (-2,), ...
laplacian = region_edges(z1, ball1).divergence(3.0, ball1.degrees)   # Delta_p, p = 3
u = (ball1.distances == 0).astype(float)   # unit point mass at the origin
print("point mass on Z^1, p = 3:")
print("  Delta_p u at the peak:", laplacian(u)[0])
print("  Delta_p u one step away:", laplacian(u)[1])
print("  constant field, interior vertex:", laplacian(np.full(len(ball1), 5.0))[0])

# --- Dirichlet energy (ordered pairs: each edge counted twice) ------------
point = gf.region_from_vertices(z1, [(0,)])
print("\nenergy of a point indicator =", 2.0 * region_edges(z1, point).power_sum(np.ones(1), 3.0),
      "(= 2 d_w, the singleton Rayleigh-quotient numerator)")

# --- summation by parts: an exact identity, zero up to roundoff -----------
# sum_x div u(x) f(x) = -sum_e w phi(u(j) - u(i)) (f(j) - f(i)) over the
# edges i < j, each once, and the stubs, whose far end is the zero slot n
table = region_edges(z2, gf.ball(z2, (0, 0), 4))
i, j = np.append(table.ei, table.bi), np.append(table.ej, np.full(len(table.bi), table.n))
rng = np.random.default_rng(0)
worst = 0.0
for uu, ff in rng.standard_normal((50, 2, table.n)):
    lhs = table.divergence(3.0)(uu) @ ff
    du, df = (np.append(x, 0.0)[j] - np.append(x, 0.0)[i] for x in (uu, ff))
    terms = du * np.abs(du) * np.append(table.w, table.bw) * df   # phi(s) = s |s| at p = 3
    worst = max(worst, abs(lhs + terms.sum()) / np.abs(terms).sum())
print(f"\nsummation-by-parts relative residual over 50 random pairs: {worst:.2e}")

# --- the elementary power inequality behind the energy estimates ----------
# (a^m - b^m)^p <= (m^p / q) (a^q - b^q) (a - b)^(p-1), m = (q-1+p)/p, a > b > 0
a, b = np.sort(rng.uniform(0.1, 10, (2, 500)), axis=0)[::-1]
q, p = rng.uniform(0.1, 5, 500), rng.uniform(2.1, 6, 500)
m = (q - 1.0 + p) / p
holds = (a ** m - b ** m) ** p <= m ** p / q * (a ** q - b ** q) * (a - b) ** (p - 1.0) * (1 + 1e-12)
print(f"\npower inequality: {holds.sum()} of 500 sampled (a, b, q, p) satisfy it")
