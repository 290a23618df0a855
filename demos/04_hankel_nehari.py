"""Hankel matrices and operators, the commutator block identities, and the
desk-scale Nehari ratio.

The matrix of phi -> P(b conj phi) on the truncated exponential basis is the
structural matrix bhat(i+j), and its columns computed by FFT on an alias-free
grid agree with it to rounding; the norm-vs-BMO ratio over random
symbols stays in a narrow band, which is the finite shadow of the norm
equivalence for Hankel operators.
"""

import numpy as np

import dyadiclab as dl
from dyadiclab.dyadic import Grid, Signal
from dyadiclab import hankel as hk

rng = np.random.default_rng(5)

# matrix forms
H = hk.hankel_matrix([1.0, 1.0, 0.0], 2)
print("Hankel [[1,1],[1,0]] norm:", H.norm(), "(the golden ratio)")
print("interior intertwining defect HS - S*H:", hk.check_intertwining(H))

b = hk.random_symbol(8, rng)
Hop = hk.hankel_operator_1d(b)
g = Grid(6, 1)
samples, x = b.to_signal(g).values, g.points()
cols = np.stack([np.fft.fft(samples * np.exp(-2j * np.pi * j * x))[:8] / g.n_points
                 for j in range(8)], axis=1)
print("grid-FFT columns == gathered matrix:", np.max(np.abs(cols - Hop.matrix.entries)))

# little Hankel on the bidisc: tensor symbols factor
u, v = hk.random_symbol(3, rng), hk.random_symbol(3, rng)
buv = hk.SymbolCoefficients(np.outer(u.coeffs, v.coeffs))
print("tensor multiplicativity:",
      abs(dl.operator_norm(hk.little_hankel(buv).matrix)
          - dl.operator_norm(hk.hankel_operator_1d(u).matrix)
          * dl.operator_norm(hk.hankel_operator_1d(v).matrix)))

# block identities: the commutator with the Hilbert transform is built from
# two Hankel pieces, with the factor 2^d from H = +-(I - 2P)
g1 = Grid(6, 1)
bs = b.to_signal(g1)
bs = bs - Signal(g1, np.full(g1.shape, bs.mean()))
print("d=1 block identity defect:", hk.block_identity_check(bs, mode_cutoff=12))
g2 = Grid(5, 2)
b2 = hk.random_symbol(4, rng, dim=2).to_signal(g2)
print("d=2 block identity defect:", hk.block_identity_check(b2, mode_cutoff=6))

# the Nehari ratio at desk scale
ratios = []
for t in range(25):
    bb = hk.random_symbol(32, np.random.default_rng(100 + t))
    ratios.append(hk.nehari_ratio(bb)["ratio"])
ratios = np.array(ratios)
print(f"1D ratio band over 25 symbols: [{ratios.min():.3f}, {ratios.max():.3f}]")

r2 = hk.nehari_ratio(hk.random_symbol(4, rng, dim=2), product_depth=2)
print("2D little-Hankel ratio:", round(r2["ratio"], 4))
