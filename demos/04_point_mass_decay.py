"""Cauchy flow of a point mass: conservation, monotone norms, decay rate.

The solver runs one integration on a ball that grows in place, by a factor
of 3/2 in radius, before any step that could reach its boundary ring; the
ball it ends on is certified,
and the history has one record per ball, with the time it was entered. On Z^1 at p = 3 the sup norm of a finite-mass solution decays
like t^(-1/4).
"""
import numpy as np

import graphflow as gf

z1 = gf.lattice_generator(1)
cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 1e3, 71), n0=16)
traj = gf.solve_cauchy(z1, gf.delta_field(z1, (0,)), cfg)

print("expansion history:")
for h in traj.history:
    print("  ", h)
print("certified truncation radius:", traj.certified_radius)

# norms are arrays over the stored times, the initial data first
m0 = traj.masses[0]
drift = np.abs(traj.masses - m0).max() / m0
print(f"\ninitial mass {m0:g}, relative drift over the run: {drift:.2e}")

print("sup norm nonincreasing:", bool((np.diff(traj.sup_norms) <= 0).all()))
for q in (1.5, 2.0, 4.0):
    print(f"l^{q} norm nonincreasing:", bool((np.diff(traj.lq_norms(q)) <= 0).all()))

fit = gf.fit_decay_exponent(traj, (10.0, 1e3), theoretical=-0.25, tolerance=0.05)
print(f"\nfitted decay slope on [10, 1000]: {fit.slope:+.4f} "
      f"(predicted -1/4, stderr {fit.stderr:.1e}, R^2 = {fit.r2:.5f})")

lat = gf.FkProfile.lattice(1, 3.0)
chk = gf.check_sup_bound(traj, lat)
print(f"sup-bound ratio: fitted constant {chk.verdict:.3f}, "
      f"upper-decade variation {chk.stability((100.0, 1e3)) * 100:.1f}%")
