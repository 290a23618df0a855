"""The Haar paraproduct and the exact commutator decomposition.

Para(b, f) = sum_I <b,h_I> (avg_I f) h_I is the restriction of the pointwise
product to strictly-nested scale pairs.  The commutator [M_b, G_left] with
the one-sided dyadic shift splits into eight labeled rank-structured pieces
which reassemble it to machine precision - the case table is exact algebra,
not an estimate.
"""

import numpy as np

import dyadiclab as dl
from dyadiclab.dyadic import DyadicInterval, Grid
from dyadiclab import paraproducts as pp
from dyadiclab.norms import operator_norm

rng = np.random.default_rng(2)
grid = Grid(6, 1)

# the defining restricted-sum identity
b = dl.random_signal(grid, rng)
f = dl.random_signal(grid, rng)
lhs = pp.para_haar(b, f)
rhs = pp.para_double_sum(b, f)
print("para_haar == double sum over I inside J:", np.max(np.abs(lhs.values - rhs.values)))

# paraproduct norm, by the dense SVD and by the real Gram of its orthonormal
# expansion (sum_I |<b,h_I>|^2 |<f>_I|^2), vs dyadic BMO of the symbol
dense = operator_norm(pp.para_haar_matrix(b))
print("||Para_b||: dense SVD", dense, " Gram (para_haar_norm)", pp.para_haar_norm(b))
print("||Para_b|| / ||b||_BMOdy =", dense / dl.bmo_dyadic(b).value)

# the dyadic shift G and its one-sided half
I = DyadicInterval(-2, 1)
h = dl.haar_function(0, I, grid)
print("G h_I == g_I:", np.max(np.abs(pp.dyadic_shift_G(h).values - dl.shifted_haar_g(I, grid).values)))
print("||G f||_2 <= sqrt(2) ||f||_2:", pp.dyadic_shift_G(f).norm2() <= np.sqrt(2) * f.norm2())

# decompose and reassemble the commutator; the pieces are held as their thin
# factors, and each is formed as a dense matrix when it is read
pieces = pp.decompose_commutator_Gleft(b)
print("\npieces of [M_b, G_left]:")
for label in pieces.labels():
    print(f"  {label:22s} norm {operator_norm(pieces.piece(label)):.4f}")
print("reconstruction defect:", pieces.residual)  # max |sum of the pieces - [M_b, G_left]|

# Meyer scale-block paraproduct, with the scale offset as a knob
fam = dl.build_meyer_family(grid)
phi = dl.random_signal(grid, rng)
for off in (0, 1, 2):
    out = pp.meyer_para_1d(b, phi, fam, offset=off)
    print(f"meyer paraproduct, offset {off}: ||out||_2 = {out.norm2():.4f}")
