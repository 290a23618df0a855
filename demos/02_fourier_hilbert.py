"""Analytic projections, the Hilbert transform, and maximal/square functions.

Conventions worth knowing: P_+ keeps 0 < k < N/2, P_- keeps the negatives,
and the k = 0 and Nyquist modes belong to neither, so real signals split
symmetrically and H^2 = -I away from those modes.
"""

import numpy as np

import dyadiclab as dl
from dyadiclab.dyadic import Grid, Signal
from dyadiclab.transforms import (
    analytic_projection,
    axis_mean_projection,
    hilbert_transform,
    square_function,
    strong_maximal,
)

grid = Grid(6, 1)
x = grid.points()
rng = np.random.default_rng(1)

f = dl.random_signal(grid, rng, real=True)
plus = analytic_projection("+", 1, f)
minus = analytic_projection("-", 1, f)
print("||P_+ f|| =", round(plus.norm2(), 6), " ||P_- f|| =", round(minus.norm2(), 6))
resid = f.values - plus.values - minus.values - axis_mean_projection(1, f).values
print("P_+ + P_- + mean/Nyquist = identity:", np.max(np.abs(resid)))

cosx = Signal(grid, np.cos(2 * np.pi * x))
print("H cos = sin:", np.max(np.abs(hilbert_transform(1, cosx).values - np.sin(2 * np.pi * x))))
hh = hilbert_transform(1, hilbert_transform(1, f))
print("H(Hf) = -f + mean:", np.max(np.abs(hh.values + f.values - axis_mean_projection(1, f).values)))

# in 1-D the strong maximal function is the dyadic one: plateaus on a block indicator
ind = Signal(grid, (x < 0.25).astype(complex))
m = strong_maximal(ind)
print("M 1_[0,1/4) plateaus:", sorted({float(v) for v in np.round(m.values.real, 6)}, reverse=True))

# the square function repackages the Haar coefficients: L2 mass matches
s = square_function(f)
coeffs = dl.haar_analysis(f)
mass = float(np.sum(np.abs(coeffs.values[1:]) ** 2))  # every coefficient but the mean (index 0)
print("||Sf||_2^2 vs coefficient mass:", abs(s.norm2() ** 2 - mass))

# strong maximal function in two parameters
grid2 = Grid(3, 2)
sq = Signal(grid2, np.zeros(grid2.shape))
sq.values[:4, :4] = 1.0
mm = strong_maximal(sq)
print("MM 1_{[0,1/2)^2} at (3/4, 3/4):", mm.values[6, 6].real)
