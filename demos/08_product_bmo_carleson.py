"""The BMO hierarchy in two parameters and the staircase separation.

The quadratic form |U|^{-1} sum_{R in U} |<b, w_R>|^2 is evaluated with U
ranging over rectangles (rectangular BMO), one-parameter collections (the
d-1 norm, in closed form), or arbitrary unions of cells (product BMO, exact
by minimum cuts with a certificate).  The corner staircase family drives
product BMO strictly above rectangular BMO, but boundedly: ratio
sqrt(2(n+1)/(n+2)) -> sqrt(2).
"""

import numpy as np

import dyadiclab as dl
from dyadiclab.dyadic import DyadicInterval, DyadicRectangle, Grid, haar_tensor
from dyadiclab import journe as jn

# a two-rectangle corner pair already separates the norms
g = Grid(2, 2)
b = (haar_tensor(DyadicRectangle((DyadicInterval(0, 0), DyadicInterval(-1, 0))), g)
     + haar_tensor(DyadicRectangle((DyadicInterval(-1, 0), DyadicInterval(0, 0))), g))
print("corner pair:")
print("  bmo_rect    =", dl.bmo_rect(b).value)
print("  bmo_minus1  =", dl.bmo_minus1(b).value)
print("  bmo_product =", dl.bmo_product(b, mode='exact').value, "(exact, min-cut certified)")
print("  heuristic   =", dl.bmo_product(b, mode='heuristic').value,
      "(the same min cut, labelled a lower bound)")

print("\nstaircase family ratios (exact / heuristic):")
for n in range(0, 7):
    grid = Grid(n + 3, 2)
    bn, _ = jn.carleson_family(n, grid, seed=0)
    book = dl.norms.coefficient_book(bn)  # Haar analysis once per n
    rect = dl.bmo_rect(bn, book=book).value
    exact = dl.bmo_product(bn, mode="exact", book=book).value
    heur = dl.bmo_product(bn, mode="heuristic", book=book).value
    print(f"  n={n}: ratio = {exact / rect:.6f}  (closed form {np.sqrt(2 * (n + 1) / (n + 2)):.6f}), "
          f"heuristic {heur / rect:.6f}")

print("\nthe four-rectangle configuration where the d-1 norm is strictly weaker:")
b4 = dl.zeros(Grid(2, 2))
for r in [
    DyadicRectangle((DyadicInterval(0, 0), DyadicInterval(-1, 0))),
    DyadicRectangle((DyadicInterval(0, 0), DyadicInterval(-1, 1))),
    DyadicRectangle((DyadicInterval(-1, 0), DyadicInterval(0, 0))),
    DyadicRectangle((DyadicInterval(-1, 1), DyadicInterval(0, 0))),
]:
    b4 = b4 + haar_tensor(r, Grid(2, 2))
print("  bmo_rect =", dl.bmo_rect(b4).value, " bmo_minus1 =", dl.bmo_minus1(b4).value)
