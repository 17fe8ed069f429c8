"""Graph families, combinatorial balls, and their measures.

Every graph is a neighbor oracle; only balls ever get materialized, and
degrees always come from the full oracle (so truncation boundaries keep
their infinite-graph measure).  A ball lists its vertices ring by ring,
so the least radius whose ball reaches a measure is a sorted search.
"""
import numpy as np

import graphflow as gf

# --- the standard lattice ------------------------------------------------
z2 = gf.lattice_generator(2)
print("Z^2 neighbors of the origin:", z2.neighbors((0, 0)))
print("degree d_w = sum of incident weights:", z2.degree((0, 0)))

b = gf.ball(z2, (0, 0), 3)
print(f"\nB_3(0) has {len(b)} vertices and measure mu_w = {b.measure:g}")
print("distance (0,0) -> (2,3):", gf.distance(z2, (0, 0), (2, 3), r_max=10))
print("a vertex 40 steps away is 'unreachable within 10':",
      gf.distance(z2, (0, 0), (40, 0), r_max=10))

# --- ball growth on Z^1: mu_w(B_R) = 2(2R+1) -----------------------------
z1 = gf.lattice_generator(1)
profile = gf.ball_measure_profile(z1, (0,), 6)
print("\nZ^1 cumulative ball measures R=0..6:", [int(m) for m in profile])

# --- a product family: K_2 x Z^1 -----------------------------------------
prod = gf.product_generator(gf.complete_graph(2), 1)
print("\nK_2 x Z^1: every vertex has 3 unit-weight neighbors, e.g. (0,5) ->",
      prod.neighbors((0, 5)))

# --- measure to radius: the least R with mu_w(B_R) >= v ------------------
print("\nleast R with mu_w(B_R) >= v on Z^1, searched in the measures above:",
      {v: int(np.searchsorted(profile, v)) for v in (1, 10, 25)})
print("ring distances of B_3(0) in Z^2, ring by ring:", b.distances.tolist())
