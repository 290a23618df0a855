import numpy as np
import pytest

import dyadiclab as dl
from dyadiclab.dyadic import (
    DyadicInterval,
    DyadicRectangle,
    Grid,
    Signal,
    constant,
    haar_function,
    random_signal,
    zeros,
)
from dyadiclab import paraproducts as pp
from dyadiclab.norms import operator_norm
from dyadiclab.transforms import build_meyer_family

rng = np.random.default_rng(31)


# ---------------------------------------------------------------------------
# Haar paraproduct


def test_para_haar_examples():
    g = Grid(5, 1)
    b = haar_function(0, DyadicInterval(0, 0), g)
    out = pp.para_haar(b, constant(g))
    assert np.max(np.abs(out.values - b.values)) < 1e-13
    assert np.max(np.abs(pp.para_haar(constant(g, 5.0), random_signal(g, rng)).values)) < 1e-13


@pytest.mark.parametrize("n", [4, 5, 6])
def test_para_haar_equals_double_sum(n):
    g = Grid(n, 1)
    b = random_signal(g, rng)
    f = random_signal(g, rng)
    lhs = pp.para_haar(b, f)
    rhs = pp.para_double_sum(b, f)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


def test_para_haar_bilinear():
    g = Grid(5, 1)
    b1, b2, f = (random_signal(g, rng) for _ in range(3))
    lhs = pp.para_haar(b1 + 2.0 * b2, f)
    rhs = pp.para_haar(b1, f) + 2.0 * pp.para_haar(b2, f)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


def test_para_haar_matrix_columns_are_para_haar_bit_for_bit():
    g = Grid(6, 1)
    b = random_signal(g, rng)
    mat = pp.para_haar_matrix(b).entries
    for c in range(g.n_points):
        e = zeros(g)
        e.values[c] = 1.0
        assert np.array_equal(mat[:, c], pp.para_haar(b, e).values)


def test_para_norm_vs_bmo_single_wavelet_scale_invariance():
    # ratio ||Para_b|| / bmo_dyadic(b) is the same at two grid depths
    vals = []
    for n in (4, 6):
        g = Grid(n, 1)
        b = haar_function(0, DyadicInterval(-1, 0), g)
        mat = pp.para_haar_matrix(b)
        vals.append(operator_norm(mat) / dl.bmo_dyadic(b).value)
    assert abs(vals[0] - vals[1]) < 1e-10


@pytest.mark.parametrize("n", range(1, 10))
def test_para_haar_norm_is_the_norm_of_the_matrix(n):
    g, local = Grid(n, 1), np.random.default_rng(100 + n)
    for b in (random_signal(g, local), Signal(g, local.standard_normal(g.shape))):
        dense = operator_norm(pp.para_haar_matrix(b))
        assert abs(pp.para_haar_norm(b) - dense) <= 1e-13 * dense


def test_para_haar_norm_of_a_constant_and_of_a_2d_symbol():
    assert pp.para_haar_norm(constant(Grid(5, 1), 2.5 - 1j)) == 0.0
    with pytest.raises(ValueError, match="1D symbol"):
        pp.para_haar_norm(zeros(Grid(3, 2)))
    with pytest.raises(ValueError, match="1D symbol"):
        pp.para_haar_matrix(zeros(Grid(3, 2)))


# ---------------------------------------------------------------------------
# the dyadic shift


def test_dyadic_shift_basics():
    g = Grid(6, 1)
    I = DyadicInterval(-2, 1)
    h = haar_function(0, I, g)
    gI = dl.shifted_haar_g(I, g)
    assert np.max(np.abs(pp.dyadic_shift_G(h).values - gI.values)) < 1e-13
    assert pp.dyadic_shift_G(constant(g)).norm2() < 1e-14
    for _ in range(5):
        f = random_signal(g, rng)
        assert pp.dyadic_shift_G(f).norm2() <= np.sqrt(2) * f.norm2() + 1e-12


def _g_left(f):
    """G_left f = sum_J h_{J_left} <f, h_J>, over J with resolvable halves."""
    return Signal(f.grid, pp._shift_values(f.values, f.grid.depth, 1.0, 0.0))


def test_g_left_relation():
    # G = G_right - G_left on the resolvable range
    g = Grid(5, 1)
    f = random_signal(g, rng)
    fc = dl.haar_analysis(f)
    right = zeros(g)
    n = g.depth
    new_coeffs = np.zeros(1 << n, dtype=complex)
    for p in range(n - 1):
        new_coeffs[(2 << p) + 1:4 << p:2] += fc.band(p)
    right = dl.haar_synthesis(dl.HaarCoefficients(g, new_coeffs))
    lhs = pp.dyadic_shift_G(f)
    rhs = right - _g_left(f)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12


# ---------------------------------------------------------------------------
# commutator decomposition


def test_decomposition_reconstructs_exactly():
    g = Grid(6, 1)
    for _ in range(3):
        b = random_signal(g, rng)
        pieces = pp.decompose_commutator_Gleft(b)
        target = pp.commutator_gleft_matrix(b)
        assert np.max(np.abs(pieces.total() - target)) < 1e-12
        assert len(pieces.labels()) == 8


@pytest.mark.parametrize("n", [3, 6, 8])
def test_decomposition_residual_is_the_sum_of_its_pieces_in_table_order(n):
    # the in-place sum adds the pieces in the order of the table, as sum() does
    g = Grid(n, 1)
    b = random_signal(g, rng) + 1j * random_signal(g, rng)
    pieces = pp.decompose_commutator_Gleft(b)
    target = pp.commutator_gleft_matrix(b)
    assert pieces.residual == np.max(np.abs(sum(pieces.pieces.values()) - target))


def test_decomposition_error_holds_the_residual_matrix():
    g = Grid(6, 1)
    b = random_signal(g, rng) + 1j * random_signal(g, rng)
    pieces = pp.decompose_commutator_Gleft(b, check_tol=np.inf)
    assert pieces.residual > 0
    with pytest.raises(pp.DecompositionError) as err:
        pp.decompose_commutator_Gleft(b, check_tol=1e-300)
    residual = err.value.residual
    assert residual.shape == (g.n_points, g.n_points)
    assert np.array_equal(residual, pieces.total() - pp.commutator_gleft_matrix(b))
    assert np.max(np.abs(residual)) == pieces.residual


def test_decomposition_piece_is_formed_from_its_factors():
    b = random_signal(Grid(5, 1), rng) + 1j * random_signal(Grid(5, 1), rng)
    pieces = pp.decompose_commutator_Gleft(b)
    dense = pieces.pieces
    assert list(dense) == list(pieces.factors) and sorted(dense) == pieces.labels()
    for label in pieces.labels():
        A, B = pieces.factors[label]()
        assert np.array_equal(pieces.piece(label), dense[label]), label
        assert np.max(np.abs(dense[label] - A @ B.T)) <= 1e-13, label


def test_decomposition_memory_bound():
    # the pieces are held as factors and summed in place: one call at n = 9
    # peaks near 18 MiB, where eight dense 512^2 complex pieces alone are 32 MiB
    import tracemalloc

    g = Grid(9, 1)
    b = random_signal(g, rng) + 1j * random_signal(g, rng)
    pp.decompose_commutator_Gleft(random_signal(Grid(4, 1), rng))
    tracemalloc.start()
    try:
        pp.decompose_commutator_Gleft(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 26 * 2**20


def test_commutator_gleft_matrix_matches_the_diagonal_products():
    g = Grid(5, 1)
    b = random_signal(g, rng) + 1j * random_signal(g, rng)
    GL = pp._shift_values(np.eye(g.n_points, dtype=complex), g.depth, 1.0, 0.0)
    Mb = np.diag(b.values)
    assert np.array_equal(pp.commutator_gleft_matrix(b), Mb @ GL - GL @ Mb)


def _rank_one_table(b: Signal) -> dict:
    """The five-case table summed term by term with sampled Haar functions."""
    g = b.grid
    n, N, w = g.depth, g.n_points, g.weight
    bc = dl.haar_analysis(b)
    h = lambda eps, p, j: haar_function(eps, DyadicInterval(-p, j), g).values
    rank_one = lambda psi, phi: np.outer(psi, np.conj(phi)) * w
    labels = ["I=J_left:dual_para", "I=J_left:regular", "I=J_right", "I=J:para", "I=J:regular",
              "I<J_left:analytic", "I<J_left:dual", "I<J_right"]
    out = {lab: np.zeros((N, N), dtype=complex) for lab in labels}
    for p in range(n - 1):
        s = 2.0 ** (p / 2)
        for j in range(1 << p):
            hJ, h1J = h(0, p, j), h(1, p, j)
            hL, hR, h1L = h(0, p + 1, 2 * j), h(0, p + 1, 2 * j + 1), h(1, p + 1, 2 * j)
            bL, bR, bJ = bc.band(p + 1)[2 * j], bc.band(p + 1)[2 * j + 1], bc.band(p)[j]
            out["I=J_left:dual_para"] += bL * s * np.sqrt(2) * rank_one(h1L, hJ)
            out["I=J_left:regular"] += bL * s * rank_one(hL, hL)
            out["I=J_right"] += -bR * s * rank_one(hL, hR)
            out["I=J:para"] += -bJ * s * rank_one(hL, h1J)
            out["I=J:regular"] += -bJ * s * rank_one(hL, hJ)
            for pi in range(p + 2, n):
                shift = pi - (p + 1)
                for ji in range(2 * j << shift, (2 * j + 1) << shift):
                    hI, bI = h(0, pi, ji), bc.band(pi)[ji]
                    eps1 = np.sign(hL[((ji * 2 + 1) << (n - pi - 1))])
                    out["I<J_left:analytic"] += bI * s * np.sqrt(2) * eps1 * rank_one(hI, hJ)
                    out["I<J_left:dual"] += bI * s * rank_one(hL, hI)
                for ji in range((2 * j + 1) << shift, (2 * j + 2) << shift):
                    out["I<J_right"] += -bc.band(pi)[ji] * s * rank_one(hL, h(0, pi, ji))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_decomposition_pieces_match_rank_one_table(n):
    # n = 1 has no J, so every piece is zero; at n = 2 no I lies strictly inside a half
    g = Grid(n, 1)
    b = random_signal(g, rng)
    pieces = pp.decompose_commutator_Gleft(b)
    table = _rank_one_table(b)
    assert list(pieces.factors) == list(table)
    for label, ref in table.items():
        assert np.max(np.abs(pieces.piece(label) - ref)) <= 1e-13, label


def test_gleft_operators_need_a_1d_symbol():
    b = random_signal(Grid(3, 2), np.random.default_rng(5))
    with pytest.raises(ValueError, match="1D"):
        pp.commutator_gleft_matrix(b)
    with pytest.raises(ValueError, match="1D"):
        pp.decompose_commutator_Gleft(b)


def test_decomposition_single_haar_rank_one_algebra():
    # brute-force check of the case table: for b a single Haar function the
    # commutator with each rank-one term is computed directly
    g = Grid(4, 1)
    I = DyadicInterval(-1, 1)
    b = haar_function(0, I, g)
    pieces = pp.decompose_commutator_Gleft(b)
    N = g.n_points
    w = g.weight
    total = np.zeros((N, N), dtype=complex)
    bvals = b.values
    for p in range(g.depth - 1):
        for j in range(1 << p):
            J = DyadicInterval(-p, j)
            hJ = haar_function(0, J, g).values
            hL = haar_function(0, J.left_half(), g).values
            op = np.outer(hL, np.conj(hJ)) * w  # h_{J_left} (x) h_J
            Mb = np.diag(bvals)
            total += Mb @ op - op @ Mb
    assert np.max(np.abs(pieces.total() - total)) < 1e-12


def test_decomposition_constant_symbol_vanishes():
    g = Grid(5, 1)
    pieces = pp.decompose_commutator_Gleft(constant(g, 2.0))
    assert max(np.max(np.abs(pieces.piece(label))) for label in pieces.labels()) < 1e-14


def test_decomposition_gstar_composed_form():
    # the 'I inside J_left' analytic piece equals
    # sum_I (<b,h_I>/sqrt|I|) h_I (x) (G_left* h^1_I) up to the derived sign
    g = Grid(5, 1)
    b = random_signal(g, rng)
    pieces = pp.decompose_commutator_Gleft(b)
    N, w = g.n_points, g.weight
    bc = dl.haar_analysis(b)
    alt = np.zeros((N, N), dtype=complex)
    for p in range(g.depth):
        for j in range(1 << p):
            I = DyadicInterval(-p, j)
            h1I = haar_function(1, I, g)
            # G_left^* h^1_I = sum_J h_J <h^1_I, h_{J_left}> with the real pairing
            gstar = zeros(g)
            for q in range(g.depth - 1):
                for m in range(1 << q):
                    J = DyadicInterval(-q, m)
                    hL = haar_function(0, J.left_half(), g)
                    gstar = gstar + complex(hL.inner(h1I)) * haar_function(0, J, g)
            coef = bc.band(p)[j] * 2.0 ** (p / 2)  # <b,h_I>/sqrt|I|
            hI = haar_function(0, I, g)
            alt += coef * np.outer(hI.values, np.conj(gstar.values)) * w
    assert np.max(np.abs(pieces.piece("I<J_left:analytic") - alt)) < 1e-12


# ---------------------------------------------------------------------------
# Meyer paraproducts


def test_meyer_para_1d():
    g = Grid(7, 1)
    fam = build_meyer_family(g)
    phi = random_signal(g, rng)
    assert pp.meyer_para_1d(zeros(g), phi, fam).norm2() == 0.0
    b1, b2 = random_signal(g, rng), random_signal(g, rng)
    lhs = pp.meyer_para_1d(b1 + 2 * b2, phi, fam)
    rhs = pp.meyer_para_1d(b1, phi, fam) + 2 * pp.meyer_para_1d(b2, phi, fam)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12
    # offsets give different operators while staying bounded
    for off in (0, 1, 2):
        out = pp.meyer_para_1d(b1, phi, fam, offset=off)
        assert np.isfinite(out.norm2())


def test_meyer_para_1d_matches_block_sums():
    # sum_p (P_p b) * conj(sum_{q <= p - offset} P_q phi) with the block projectors
    g = Grid(7, 1)
    fam = build_meyer_family(g)
    gen = np.random.default_rng(8)
    b, phi = random_signal(g, gen), random_signal(g, gen)
    P = fam.block_projector
    for offset in (0, 1, 2):
        ref = sum((P(p) @ b.values) * np.conj(sum(P(q) @ phi.values for q in range(p - offset + 1)))
                  for p in fam.scales if p >= offset)
        out = pp.meyer_para_1d(b, phi, fam, offset=offset).values
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    with pytest.raises(ValueError):
        pp.meyer_para_1d(b, phi, fam, offset=9)


def test_meyer_para_single_scale_localization():
    g = Grid(8, 1)
    fam = build_meyer_family(g)
    I = DyadicInterval(-3, 4)  # interval of length 1/8 at the center
    u = fam.signal(I, "u")
    b = u.copy()
    phi = fam.signal(I, "w")
    out = pp.meyer_para_1d(b, phi, fam)
    total = out.norm2() ** 2
    x = g.points()
    dist = np.minimum(np.abs(x - I.center), 1.0 - np.abs(x - I.center))
    tail = np.sum(np.abs(out.values[dist > 8 * I.length]) ** 2) * g.weight
    assert tail < 0.10 * total


def test_meyer_block_projectors_match_rank_one_sums():
    g1, g2 = Grid(6, 1), Grid(6, 2)
    fam = build_meyer_family(g1)
    F = random_signal(g2, rng)
    for p1, p2 in [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2), (1, 2)]:
        ref = zeros(g2)
        for j1 in range(1 << p1):
            for j2 in range(1 << p2):
                r = DyadicRectangle((DyadicInterval(-p1, j1), DyadicInterval(-p2, j2)))
                u = fam.tensor(r, ("u", "u"))
                ref = ref + F.inner(u) * u
        got = fam.block_projector(p1) @ F.values @ fam.block_projector(p2).T
        assert np.max(np.abs(got - ref.values)) <= 1e-13
    f = random_signal(g1, rng)
    for p in fam.scales:
        ref = zeros(g1)
        for j in range(1 << p):
            u = fam.signal(DyadicInterval(-p, j), "u")
            ref = ref + f.inner(u) * u
        assert np.max(np.abs(fam.block_projector(p) @ f.values - ref.values)) <= 1e-13


def test_meyer_para_multi_tensor_factorization():
    g1 = Grid(6, 1)
    fam = build_meyer_family(g1)
    g2 = Grid(6, 2)
    b1, b2 = random_signal(g1, rng), random_signal(g1, rng)
    p1, p2 = random_signal(g1, rng), random_signal(g1, rng)
    btens = Signal(g2, np.multiply.outer(b1.values, b2.values))
    ptens = Signal(g2, np.multiply.outer(p1.values, p2.values))
    out = pp.meyer_para_multi(btens, ptens, fam, J=(1, 2), kvec=(0, 0))
    ref = np.zeros(g2.shape, dtype=complex)
    for pa in fam.scales:
        Pa = fam.block_projector(pa)
        fa = (Pa @ b1.values) * np.conj(Pa @ p1.values)
        for pb in fam.scales:
            Pb = fam.block_projector(pb)
            fb = (Pb @ b2.values) * np.conj(Pb @ p2.values)
            ref += np.multiply.outer(fa, fb)
    assert np.max(np.abs(out.values - ref)) < 1e-12
    assert pp.meyer_para_multi(zeros(g2), ptens, fam).norm2() == 0.0
    with pytest.raises(ValueError):
        pp.meyer_para_multi(btens, ptens, fam, kvec=(9, 0))


@pytest.mark.parametrize("J", [(1, 2), (1,), (2,), ()])
def test_meyer_para_multi_matches_block_sums(J):
    # U_{q,J} phi summed block by block: equal scale on the axes in J,
    # every coarser-or-equal scale elsewhere
    g1, g2 = Grid(6, 1), Grid(6, 2)
    fam = build_meyer_family(g1)
    b, phi = random_signal(g2, rng), random_signal(g2, rng)
    P = fam.block_projector
    for kvec in [(0, 0), (1, 2), (-1, 0)]:
        ref = np.zeros(g2.shape, dtype=complex)
        for p1 in fam.scales:
            for p2 in fam.scales:
                q1, q2 = p1 - kvec[0], p2 - kvec[1]
                if not (0 <= q1 <= fam.max_scale and 0 <= q2 <= fam.max_scale):
                    continue
                uphi = sum(P(a) @ phi.values @ P(c).T
                           for a in ([q1] if 1 in J else range(q1 + 1))
                           for c in ([q2] if 2 in J else range(q2 + 1)))
                ref += (P(p1) @ b.values @ P(p2).T) * np.conj(uphi)
        out = pp.meyer_para_multi(b, phi, fam, J=J, kvec=kvec).values
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_meyer_para_multi_separation_decay():
    # ensembles with coefficient supports separated by A rectangle widths:
    # the normalized output norm decreases monotonically over A in {2, 4, 8}
    g1 = Grid(8, 1)
    fam = build_meyer_family(g1)
    g2 = Grid(8, 2)
    p = 4  # scale 1/16; half the torus is 8 widths away
    cells = 1 << (g1.depth - p)
    means = []
    for A in (2, 4, 8):
        vals = []
        for t in range(4):
            rngt = np.random.default_rng(100 + t)
            b = zeros(g2)
            for i in (0, 1):
                for j in (0, 1):
                    c = rngt.standard_normal() + 1j * rngt.standard_normal()
                    r = DyadicRectangle((DyadicInterval(-p, i), DyadicInterval(-p, j)))
                    b = b + c * fam.tensor(r, ("u", "u"))
            shift = A * cells
            phi = Signal(g2, np.roll(np.roll(b.values, shift, axis=0), shift, axis=1))
            out = pp.meyer_para_multi(b, phi, fam, J=(1, 2), kvec=(0, 0))
            vals.append(out.norm2() / (b.norm2() * phi.norm2()))
        means.append(np.mean(vals))
    assert means[0] > means[1] > means[2]


def _adapted_bump_constant(phi, interval, decay_power=4):
    """Smallest constants C_0, C_1 with

        |D^n phi(x)| <= C_n |I|^{-n-1/2} (1 + |x - c(I)|/|I|)^{-decay_power}

    for n = 0, 1 on the grid (D^1 by centered differences, torus distance).
    A function is adapted to I when these constants are O(1) across scales.
    The default decay order matches what the C^3 frequency window actually
    provides (tails ~ |x|^-4); steeper envelopes would need a smoother
    window and report scale-growing constants."""
    x = phi.grid.points()
    dist = np.abs(x - interval.center)
    dist = np.minimum(dist, 1.0 - dist)  # torus metric
    envelope = (1.0 + dist / interval.length) ** (-float(decay_power))
    c0 = np.abs(phi.values) * interval.length ** 0.5 / envelope
    dphi = (np.roll(phi.values, -1) - np.roll(phi.values, 1)) / (2.0 * phi.grid.cell_width)
    c1 = np.abs(dphi) * interval.length ** 1.5 / envelope
    return {"C0": float(np.max(c0)), "C1": float(np.max(c1))}


def test_adapted_bump_constants():
    # Meyer wavelets are adapted to their intervals: both constants are O(1)
    # at every scale, with no growth from coarse to fine
    g = Grid(8, 1)
    fam = build_meyer_family(g)
    consts = []
    for iv in (DyadicInterval(0, 0), DyadicInterval(-2, 1), DyadicInterval(-4, 7)):
        rep = _adapted_bump_constant(fam.signal(iv, "w"), iv)
        consts.append((rep["C0"], rep["C1"]))
    c0s = [c[0] for c in consts]
    assert max(c0s) < 4 * min(c0s)  # uniform across scales at the window's decay order
    # a far-translated bump is NOT adapted: the constant blows up
    iv = DyadicInterval(-4, 0)
    far = fam.signal(DyadicInterval(-4, 8), "w")
    rep_far = _adapted_bump_constant(far, iv)
    rep_near = _adapted_bump_constant(fam.signal(iv, "w"), iv)
    assert rep_far["C0"] > 100 * rep_near["C0"]
