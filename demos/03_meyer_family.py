"""The frequency-domain Meyer family: band support, exact orthonormality,
analytic/antianalytic parts, and the father-wavelet two-scale relation.

The mother profile lives on the band 2pi <= |xi| <= 8pi.  Dilates below
2^(4-n) are excluded rather than aliased, which keeps every product of two
family members alias-free and every Gram entry exact.
"""

import numpy as np

from dyadiclab.dyadic import DyadicInterval, Grid
from dyadiclab.transforms import (
    build_meyer_family,
    meyer_amplitude,
    meyer_father_profile,
    meyer_mother_profile,
    mode_numbers,
)

fam = build_meyer_family(Grid(8, 1))
print("resolvable scales:", [2.0 ** -p for p in fam.scales])
print("family size:", len(fam.intervals))
print("Gram defect:", fam.gram_defect())

iv = DyadicInterval(-2, 1)
w = fam.signal(iv, "w")
u = fam.signal(iv, "u")
v = fam.signal(iv, "v")
print("wavelet is real:", np.max(np.abs(w.values.imag)))
print("u + v = w:", np.max(np.abs((u + v).values - w.values)))
print("||w|| =", w.norm2(), " ||v||^2 =", round(v.norm2() ** 2, 6), "(half the energy)")

# band support is exact, not approximate
k = mode_numbers(fam.axis_grid)
arr = fam.mode_array(iv, "w")
p = -iv.scale_exponent
outside = (np.abs(k) < 2 ** p) | (np.abs(k) > 2 ** (p + 2))
print("coefficients outside the band are bit-zero:", bool(np.all(arr[outside] == 0.0)))

# two-scale father relation Q(t) = F(t) - F(2t)
t = np.linspace(-4.5, 4.5, 801)
defect = np.max(np.abs(meyer_father_profile(t) - meyer_father_profile(2 * t) - meyer_mother_profile(t)))
print("father two-scale defect:", defect)

# the per-mode Calderon sum of the stretched band is exactly 1/3: the family
# is an orthonormal *subsystem*, not a basis (one third of the covered band)
kk = np.arange(6, 60)
cal = sum(meyer_amplitude(kk * 2.0 ** -q) ** 2 for q in range(16))
print("Calderon constant:", cal.min(), "...", cal.max())
