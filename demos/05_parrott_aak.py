"""Norm-minimal matrix completion and the Hankel extension ladder.

parrott_min fills the unknown block of [[X, C], [A, B]] with the closed-form
central completion (one Hermitian solve); the norm measured on the completed
matrix matches Parrott's value max(||[A B]||, ||[C; B]||) to about 1e-13.
Iterating the one-step Hankel extension grows a two-sided symbol beta whose
sup norm chases the Hankel norm from above (the recovered bounded symbol)."""

import numpy as np

from dyadiclab import aak, hankel as hk
from dyadiclab.norms import operator_norm

rng = np.random.default_rng(12)

A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
C = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
p = aak.BlockProblem(A, B, C)
res = aak.parrott_min(p)
print("achieved norm :", res["achieved_norm"])
print("closed form   :", aak.parrott_closed_form(p))
print("norm with X=0 :", operator_norm(p.assemble(np.zeros((3, 3)))))

# one extension step preserves the sequence (full-window) norm exactly
seq = rng.standard_normal(15) + 1j * rng.standard_normal(15)
H = hk.hankel_matrix(seq, 8)
ext = aak.extend_hankel_step(H)
print("base sequence norm:", H.sequence_norm())
print("extended          :", ext.sequence_norm())
print("new antidiagonal value a_-1 =", np.round(ext.sequence[0], 6))

# the recovered symbol dominates the operator: ratio >= 1, trending down
b = hk.random_symbol(6, rng)
H = hk.hankel_operator_1d(b)
print("\nbounded-symbol recovery (ratio = ||beta||_inf / ||H||):")
for K in range(0, 6):
    rep = aak.recover_bounded_symbol(H, K)
    print(f"  K={K}: ratio = {rep['ratio']:.6f}")
