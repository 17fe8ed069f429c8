"""Slowly decaying data: infinite mass, balance times, and the decay rate.

For u0(x) = |x|^(-alpha) (finite q-norm, infinite mass) the decay of the
solution is governed by the balance time T(R) of the data: local mass in
B_R against the q-norm tail outside. On Z^1 with p = 3, alpha = 1/2 the
predicted sup decay is t^(-1/7) and T(R) grows like R^(alpha(p-2)+p) = R^3.5.
"""
import numpy as np

import graphflow as gf

z1 = gf.lattice_generator(1)
spec = gf.PowerLawSpec(N=1, alpha=0.5)   # center value defaults to 1
lat = gf.FkProfile.lattice(1, 3.0)

# --- the balance time of the data -----------------------------------------
print("balance time T(R):")
for R in (10, 100, 1000):
    print(f"  R = {R:5d}: T = {gf.slow_decay_T(spec, 4.0, R, lat):.4g}")
Rs = np.unique(np.geomspace(100, 1e4, 40).astype(int)).astype(float)
Ts = [gf.slow_decay_T(spec, 4.0, int(R), lat) for R in Rs]
fit_T = gf.fit_loglog(Rs, np.array(Ts), (100, 1e4))
print(f"log-log slope of T: {fit_T.slope:.4f} (predicted alpha(p-2)+p = 3.5)")

# --- solve with truncated data and check the rate --------------------------
u0 = spec.field(z1, truncation_radius=100)
cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 1e4, 85),
                      n0=192, rtol=1e-10, atol=1e-14)
traj = gf.solve_cauchy(z1, u0, cfg)
print("\ncertified radius:", traj.certified_radius)

chk, fit = gf.check_slow_decay(traj, spec, q=4.0, profile=lat,
                               window=(1e2, 1e4), tolerance=0.05)
print(f"fitted decay slope on [100, 10000]: {fit.slope:+.4f} "
      f"(predicted -1/7 = {fit.theoretical:+.4f})")
print(f"envelope ratio: fitted constant {chk.verdict:.4f}; "
      f"balance radius spans {chk.extra['radii'].min()}..{chk.extra['radii'].max()}")
