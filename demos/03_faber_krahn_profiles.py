"""Faber-Krahn profiles: eigenvalues, brute-forced tables, scaling functions."""
import numpy as np

import graphflow as gf

z1 = gf.lattice_generator(1)
p = 3.0

# --- Dirichlet p-eigenvalues of small sets --------------------------------
for verts in ([(0,)], [(0,), (1,)], [(0,), (1,), (2,)]):
    region = gf.region_from_vertices(z1, verts)
    lam = gf.dirichlet_p_eigenvalue(z1, region, p, seed=1)
    oracle = gf.eigenvalue_grid_oracle(z1, region, p)
    print(f"|U| = {len(verts)}: descent {lam:.6f}, exhaustive grid {oracle:.6f}")

# --- brute-forced profile table over connected subsets --------------------
prof = gf.fk_profile_bruteforce(z1, (0,), size_cap=3, p=p, seed=1)
print("\nbrute-forced (v, Lambda) table on Z^1 up to 3 vertices:")
for v, lam in zip(prof.table_v, prof.table_lam):
    print(f"  mu_w = {v:g}  ->  Lambda = {lam:.6f}")

# --- closed form on the lattice and the scaling function psi --------------
lat = gf.FkProfile.lattice(N=1, p=p, c0=1.0)
print("\nlattice closed form: Lambda(8) =", lat.lambda_value(8.0), "(= 8^-3)")
print("psi_1(s) = s^4 here: psi_1(2) =", gf.psi(lat, 1, 2.0),
      "and psi_1^{-1}(16) =", gf.psi_inverse(lat, 1, 16.0))

ys = np.random.default_rng(2).uniform(1e-4, 1e4, 300)
worst = (abs(gf.psi(lat, 1, gf.psi_inverse(lat, 1, ys)) - ys) / ys).max()
print(f"round-trip error over 300 random points: {worst:.2e}")

# --- structural assumptions, checked on a grid -----------------------------
report = gf.check_assumptions(lat, np.geomspace(1e-3, 1e6, 150))
print("\nlattice profile assumption report: all ok =", report.all_ok)

vs = np.geomspace(1e-2, 1e4, 120)
pairs = [(v, v ** -3.0) for v in vs]
pairs[60] = (vs[60], 4.0 * vs[60] ** -3.0)  # deliberately broken
bad = gf.FkProfile.tabulated(pairs, p, 1)
rep = gf.check_assumptions(bad, vs)
print("profile with an artificial bump: growth comparison ok =", rep.nd_ok,
      f"(worst violation {rep.worst['nd'][0]:.2f} near v = {rep.worst['nd'][1]:.1f})")

# --- measure-to-radius inversion ------------------------------------------
print("\nminimal R with mu_w(B_R) >= 10 on Z^1:",
      gf.ball_radius_inverse(z1, (0,), 10.0))
