"""Mass confinement: the half-mass radius, moments, and the lower bound.

A large point mass makes the lattice flow continuum-like early, so the
half-mass radius resolves the predicted t^(1/4) growth on Z^1 at p = 3.
"""
import graphflow as gf

z1 = gf.lattice_generator(1)
cfg = gf.SolverConfig(p=3.0, instants=gf.log_instants(1e-2, 1e3, 71), n0=64)
traj = gf.solve_cauchy(z1, gf.delta_field(z1, (0,), 1000.0), cfg)
print("certified radius:", traj.certified_radius)

print("\nhalf-mass radius growth:")
radii = gf.mass_radius(traj, 0.5)
for t, R, sup in zip(traj.times[1::10], radii[1::10], traj.sup_norms[1::10]):
    print(f"  t = {t:9.2f}: R = {R:3d}, sup = {sup:9.4f}")

fit = gf.fit_propagation_exponent(traj, 0.5, (10.0, 1e3),
                                  theoretical=0.25, tolerance=0.05)
print(f"\nfitted radius slope on [10, 1000]: {fit.slope:+.4f} (predicted +1/4)")

lat = gf.FkProfile.lattice(1, 3.0)
lower = gf.check_lower_bound(traj, lat)
print("constant-free lower bound sup * 2 mu_w(B_R) >= m0 holds everywhere:",
      lower.extra["holds_everywhere"], f"(worst ratio {lower.verdict:.4f})")

mom = gf.check_moment_bound(traj, 0.5, lat)
print(f"order-1/2 moment vs R^(1/2) m0: fitted constant {mom.verdict:.4f}")

ent = gf.check_entropy_bound(traj, lat)
print(f"cumulative edge-flux integral vs envelope: fitted constant {ent.verdict:.4f}")
