"""Dyadic grids, Haar functions, and exact quadrature.

Everything lives on [0,1)^d sampled at N = 2^n points; the quadrature weight
2^(-nd) makes Haar functions exactly orthonormal, so all the identities below
hold to machine precision rather than approximately.
"""

import numpy as np

import dyadiclab as dl
from dyadiclab.dyadic import DyadicInterval, Grid

grid = Grid(depth=4, dim=1)
print(f"grid: {grid.n_points} cells of width {grid.cell_width}")

# the two basic Haar shapes
I = DyadicInterval(-1, 0)  # [0, 1/2)
h0 = dl.haar_function(0, I, grid)  # mean zero
h1 = dl.haar_function(1, I, grid)  # normalized indicator
print("h0 samples :", np.round(h0.values.real, 3))
print("||h0||_2   :", h0.norm2(), " mean:", abs(h0.mean()))
print("||h1||_2   :", h1.norm2())

# orthonormality across the whole family
intervals = dl.enumerate_intervals(4, 2.0 ** -3)
gram = np.array([[dl.haar_function(0, a, grid).inner(dl.haar_function(0, b, grid))
                  for b in intervals] for a in intervals])
print("Haar Gram defect:", np.max(np.abs(gram - np.eye(len(intervals)))))

# analysis / synthesis round trip and Parseval
rng = np.random.default_rng(0)
f = dl.random_signal(grid, rng)
coeffs = dl.haar_analysis(f)
back = dl.haar_synthesis(coeffs)
print("round trip error:", np.max(np.abs(back.values - f.values)))
print("Parseval defect :", abs(coeffs.total_energy() - f.norm2() ** 2))

# the coefficients are one array in heap order: index 0 is the integral,
# index 2^p + j the interval I(p, j), so the halves of index i are 2i and 2i + 1
print("index 0 vs the mean       :", abs(coeffs.values[0] - f.mean()))
quarter = dl.haar_function(0, DyadicInterval(-2, 2), grid)  # h on [1/2, 3/4)
print("index 2^2 + 2 vs <f, h_I> :", abs(coeffs.values[6] - f.inner(quarter)))
print("band(2) is indices 4..7   :", np.array_equal(coeffs.band(2), coeffs.values[4:8]))

# the same transform runs along every axis of a grid of any dimension
f3 = dl.random_signal(Grid(2, 3), rng)
c3 = dl.haar_analysis(f3)
print("3-D round trip error     :", np.max(np.abs(dl.haar_synthesis(c3).values - f3.values)))

# the odd companion g_I = -h_left + h_right used by the dyadic shift
g = dl.shifted_haar_g(DyadicInterval(0, 0), grid)
print("<g, g> =", g.inner(g).real, " <g, h> =", abs(g.inner(dl.haar_function(0, DyadicInterval(0, 0), grid))))

# rectangles in two dimensions and shadows
grid2 = Grid(2, 2)
rects = dl.enumerate_rectangles(grid2, 0.25)
print("dyadic rectangles at depth 2:", len(rects))
coll = dl.RectangleCollection(tuple(rects[:3]), grid2)
print("shadow measure of the first three:", coll.shadow_measure())
