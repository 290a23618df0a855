import itertools

import numpy as np
import pytest

import dyadiclab as dl
from dyadiclab.dyadic import Grid, Signal, constant
from dyadiclab.experiments import trial_rng
from dyadiclab import hankel as hk
from dyadiclab.norms import OperatorMatrix, operator_norm
from dyadiclab.transforms import apply_multipliers, fourier_mode, on_axis

rng = np.random.default_rng(17)


def test_hankel_toeplitz_structure():
    H = hk.hankel_matrix([1, 0, 0, 0, 0], 3)
    assert H.matrix.entries[0, 0] == 1.0
    assert np.count_nonzero(H.matrix.entries) == 1
    assert abs(H.norm() - 1.0) < 1e-14

    H2 = hk.hankel_matrix([0, 0, 1, 0, 0], 3)
    # the antidiagonal i + j = 2
    expect = np.zeros((3, 3))
    expect[0, 2] = expect[1, 1] = expect[2, 0] = 1.0
    assert np.allclose(H2.matrix.entries, expect)
    assert abs(H2.norm() - 1.0) < 1e-12


def test_intertwining():
    b = hk.random_symbol(6, rng)
    H = hk.hankel_matrix(b.coeffs, 6)
    assert hk.check_intertwining(H) == 0.0
    # random non-Hankel matrix has positive defect
    fake = hk.HankelOp(OperatorMatrix(rng.standard_normal((6, 6)), ("m", 6), ("m", 6)))
    assert hk.check_intertwining(fake) > 1e-6
    # nonscalar Toeplitz, entry (i, j) = a_{i-j}, does not intertwine
    a = rng.standard_normal(11)
    T = OperatorMatrix(a[5 + np.subtract.outer(np.arange(6), np.arange(6))], ("m", 6), ("m", 6))
    assert hk.check_intertwining(hk.HankelOp(T)) > 1e-6


def test_operator_equals_structural_matrix():
    b = hk.random_symbol(8, rng)
    Hop = hk.hankel_operator_1d(b)
    Hstruct = hk.hankel_matrix(b.coeffs, 8)
    assert np.max(np.abs(Hop.matrix.entries - Hstruct.matrix.entries)) < 1e-12


def test_rank_one_and_golden_ratio():
    e0 = hk.SymbolCoefficients([1.0])
    H = hk.hankel_operator_1d(e0)
    assert abs(operator_norm(H.matrix) - 1.0) < 1e-12
    golden = hk.SymbolCoefficients([1.0, 1.0])
    Hg = hk.hankel_operator_1d(golden)
    assert np.allclose(Hg.matrix.entries, [[1, 1], [1, 0]], atol=1e-12)
    phi = (1 + np.sqrt(5)) / 2
    assert abs(operator_norm(Hg.matrix) - phi) < 1e-12


def test_depends_on_analytic_part_only():
    M = 6
    b = hk.random_symbol(M, rng)
    g = Grid(6, 1)
    base = hk.hankel_operator_1d(b).matrix.entries
    # perturb by antianalytic modes on the grid and recompute columns directly
    perturbed = b.to_signal(g).values + 0.7 * np.exp(-2j * np.pi * 3 * g.points()) \
        + 1.3j * np.exp(-2j * np.pi * 9 * g.points())
    cols = np.empty((M, M), dtype=complex)
    for j in range(M):
        phi = np.exp(2j * np.pi * j * g.points())
        cols[:, j] = (np.fft.fft(perturbed * np.conj(phi)) / g.n_points)[:M]
    assert np.max(np.abs(cols - base)) < 1e-12
    # 2-D: column (j1, j2) is the 2-D FFT of (b + antianalytic and mixed-sign
    # modes) * conj(e_j1 (x) e_j2) on a grid with N >= 4M, read off at the analytic bi-modes
    M = 5
    b = hk.random_symbol(M, np.random.default_rng(23), dim=2)
    g = Grid(5, 2)
    x1, x2 = g.meshgrid()

    def mode(k1, k2):
        return np.exp(2j * np.pi * (k1 * x1 + k2 * x2))

    perturbed = b.to_signal(g).values + 0.7 * mode(-3, -1) + 1.3j * mode(-2, 4) \
        + 0.4 * mode(1, -6) - 0.9 * mode(0, -2)
    cols = np.empty((M * M, M * M), dtype=complex)
    for j, (j1, j2) in enumerate(itertools.product(range(M), repeat=2)):
        spec = np.fft.fft2(perturbed * np.conj(mode(j1, j2))) / g.n_points ** 2
        cols[:, j] = spec[:M, :M].ravel()
    assert np.max(np.abs(cols - hk.little_hankel(b).matrix.entries)) < 1e-12


def test_sup_norm_dominates():
    b = hk.random_symbol(8, rng)
    g = Grid(6, 1)
    sup = float(np.max(np.abs(b.to_signal(g).values)))
    assert operator_norm(hk.hankel_operator_1d(b).matrix) <= sup + 1e-10


def _little_hankel_structural(b):
    """Entries bhat(i1+j1, i2+j2) directly from the coefficient array."""
    M = b.degree
    c = np.zeros((2 * M, 2 * M), dtype=complex)
    c[:M, :M] = b.coeffs
    i1, i2 = np.divmod(np.arange(M * M), M)  # row-major bi-mode (i1, i2)
    return c[np.add.outer(i1, i1), np.add.outer(i2, i2)]


def test_little_hankel():
    u = hk.random_symbol(3, rng)
    v = hk.random_symbol(3, rng)
    # rank-1 norm-1 case
    e00 = hk.SymbolCoefficients(np.array([[1.0]]))
    H0 = hk.little_hankel(e00)
    assert abs(operator_norm(H0.matrix) - 1.0) < 1e-12
    # tensor multiplicativity
    buv = hk.SymbolCoefficients(np.outer(u.coeffs, v.coeffs))
    Huv = hk.little_hankel(buv)
    prod = operator_norm(hk.hankel_operator_1d(u).matrix) * operator_norm(hk.hankel_operator_1d(v).matrix)
    assert abs(operator_norm(Huv.matrix) - prod) < 1e-10
    # structural reduction entrywise
    assert np.max(np.abs(Huv.matrix.entries - _little_hankel_structural(buv))) < 1e-12
    # the cross symbol e_(0,1) + e_(1,0): a matrix of norm sqrt(2) in closed form
    c = np.zeros((2, 2), dtype=complex)
    c[0, 1] = c[1, 0] = 1.0
    Hc = hk.little_hankel(hk.SymbolCoefficients(c))
    assert np.array_equal(Hc.matrix.entries, [[0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]])
    assert abs(operator_norm(Hc.matrix) - np.sqrt(2)) < 1e-14


def test_little_hankel_gather_at_degree_12():
    # degree 12: the gather agrees with the structural reduction on a 144^2 matrix
    b = hk.random_symbol(12, rng, dim=2)
    assert np.max(np.abs(hk.little_hankel(b).matrix.entries - _little_hankel_structural(b))) < 1e-12


def test_commutator_basics():
    g = Grid(6, 1)
    zero = hk.commutator_matrix(constant(g, 2.0 + 1.0j), (1,), mode_cutoff=8)
    assert np.max(np.abs(zero.entries)) < 1e-13
    e1 = fourier_mode(g, 1)
    M1 = hk.commutator_matrix(e1, (1,), mode_cutoff=8)
    assert np.linalg.matrix_rank(M1.entries, tol=1e-10) <= 2
    # norm invariance under circular shift of the symbol samples
    b = hk.random_symbol(8, rng).to_signal(g)
    n0 = operator_norm(hk.commutator_matrix(b, (1,), mode_cutoff=10))
    bs = Signal(g, np.roll(b.values, 7))
    n1 = operator_norm(hk.commutator_matrix(bs, (1,), mode_cutoff=10))
    assert abs(n0 - n1) < 1e-10
    # adjoint pairs with the conjugate symbol
    Mc = hk.commutator_matrix(b.conj(), (1,), mode_cutoff=10)
    M0 = hk.commutator_matrix(b, (1,), mode_cutoff=10)
    assert np.max(np.abs(Mc.entries - M0.adjoint().entries)) < 1e-12


def _commutator_closed_form(b, K, axes):
    """Entry (k, j) = bhat(k - j) prod_a (m(j_a) - m(k_a)), m(k) = -i sgn(k), on [-K, K]^d."""
    N, d = b.grid.n_points, b.grid.dim
    bhat = np.fft.fftn(b.values) / N ** d
    ks = np.stack(np.meshgrid(*[np.arange(-K, K + 1)] * d, indexing="ij"), -1).reshape(-1, d)
    m = lambda k: -1j * np.sign(k)
    out = bhat[tuple((ks[:, None, a] - ks[None, :, a]) % N for a in range(d))]
    for a in axes:
        out = out * (m(ks[None, :, a - 1]) - m(ks[:, None, a - 1]))
    return out


def test_commutator_matrix_matches_closed_form():
    # d = 2 at n = 6, K = 6: 169 modes, so several batches and a partial last one
    b2 = dl.random_signal(Grid(6, 2), rng)
    assert 169 % max(1, hk._BATCH_POINTS // 64 ** 2) != 0
    M2 = hk.commutator_matrix(b2, (1, 2), mode_cutoff=6).entries
    assert np.max(np.abs(M2 - _commutator_closed_form(b2, 6, (1, 2)))) < 1e-12
    b1 = dl.random_signal(Grid(7, 1), rng)
    M1 = hk.commutator_matrix(b1, (1,), mode_cutoff=30).entries
    assert np.max(np.abs(M1 - _commutator_closed_form(b1, 30, (1,)))) < 1e-12


def _mode_batches(grid, kvecs):
    """(lo, hi, values) over consecutive slices of the mode list, values[i] the
    exponential e^{2 pi i k.x} of kvecs[lo + i] as a product of per-axis
    exponentials, read from one table of N-th roots of unity (so exactly
    N-periodic in k); no batch holds more than _BATCH_POINTS grid points."""
    d, N = grid.dim, grid.n_points
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    kvecs = np.asarray(kvecs, dtype=np.int64).reshape(-1, d)
    step = max(1, hk._BATCH_POINTS // N ** d)
    for lo in range(0, len(kvecs), step):
        ks = kvecs[lo:lo + step]
        values = 1.0
        for a in range(d):
            e = roots[ks[:, a, None] * np.arange(N) % N]
            values = values * e.reshape((len(ks),) + (1,) * a + (N,) + (1,) * (d - 1 - a))
        yield lo, lo + len(ks), values


def _exponentials(grid, kvecs):
    return np.concatenate([values for _, _, values in _mode_batches(grid, kvecs)])


def _iterated_commutator_values(b, axes, variant):
    """Value-level application of A_d where A_0 = M_b, A_j = [A_{j-1}, H_j]; the
    values may carry leading batch axes before the grid axes.  The H's
    commute, so the axes nest last-first: the innermost commutator, applied
    2^(k-1) times, runs along the contiguous last axis.  The A_j work in place
    on their argument, so the returned map copies its input once."""
    kinds = {ax: on_axis("hilbert" if variant == "imaginary" else "signum", ax, b.grid.dim)
             for ax in axes}

    def apply(vals):
        vals *= b.values
        return vals

    for ax in axes[::-1]:
        def nxt(vals, prev=apply, ax=ax):
            out = prev(apply_multipliers(kinds[ax], vals))
            out -= apply_multipliers(kinds[ax], prev(vals), out=vals)
            return out
        apply = nxt
    return lambda vals: apply(np.array(vals, dtype=complex))


# commutator_matrix takes the one multiplier -i sgn(k), the oracle's "imaginary" variant
@pytest.mark.parametrize("variant", ["imaginary"])
@pytest.mark.parametrize("depth, dim, K, axes", [(10, 1, 30, (1,)), (6, 2, 6, (1, 2)), (6, 2, 6, (2,))])
def test_iterated_commutator_values_match_commutator_matrix(depth, dim, K, axes, variant):
    # 61 modes in batches of 32 (d = 1), 169 in batches of 8 (d = 2): each ends in a partial batch
    g = Grid(depth, dim)
    b = dl.random_signal(g, rng)
    basis = list(itertools.product(range(-K, K + 1), repeat=dim))
    assert len(basis) % max(1, hk._BATCH_POINTS // g.n_points ** dim) != 0
    expected = hk.commutator_matrix(b, axes, mode_cutoff=K).entries
    apply = _iterated_commutator_values(b, axes, variant)
    rows = (slice(None),) + tuple(np.array(basis).T % g.n_points)
    for lo, hi, modes in _mode_batches(g, basis):
        spec = np.fft.fftn(apply(modes), axes=tuple(range(-dim, 0)))[rows].T / g.n_points ** dim
        assert np.max(np.abs(spec - expected[:, lo:hi])) < 1e-12


def _octant(sigma, K):
    return list(itertools.product(*(range(1, K + 1) if s == "+" else range(-K, 0) for s in sigma)))


@pytest.mark.parametrize("depth, dim, K", [(14, 1, 5), (6, 2, 12), (4, 3, 3)])
def test_octant_spectra_match_the_value_level_commutator(depth, dim, K):
    # chunks of at most 2 (d = 1) or 8 (d = 2, 3) columns, the last one partial
    g = Grid(depth, dim)
    b = dl.random_signal(g, rng)
    comm_of = _iterated_commutator_values(b, tuple(range(1, dim + 1)), "signum")
    grid_axes = tuple(range(-dim, 0))
    for sigma in itertools.product("+-", repeat=dim):
        chunks = list(hk._octant_spectra(b, sigma, K))
        assert len(chunks) > 1 and len(chunks[-1][0]) < hk._BATCH_POINTS // g.n_points ** dim
        modes = np.concatenate([chunk[0] for chunk in chunks])
        assert modes.tolist() == [list(j) for j in _octant(sigma, K)]
        for modes, comm, comm_b in chunks:
            vals = _exponentials(g, modes)
            for got, want in ((comm, np.fft.fftn(comm_of(vals), axes=grid_axes)),
                              (comm_b, np.fft.fftn(b.values * vals, axes=grid_axes))):
                assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def _block_defect_sup(b, K):
    """The block identity defect measured by its largest sample: each defect
    column of `_octant_spectra` taken back to the grid and projected by P_s
    or P_-s, its largest modulus times the square root of the quadrature
    weight."""
    d = b.grid.dim
    grid_axes = tuple(range(-d, 0))
    defect = 0.0
    for sigma in itertools.product("+-", repeat=d):
        minus_sigma = tuple("-" if s == "+" else "+" for s in sigma)
        factor = (-1) ** sigma.count("-") * 2.0 ** d
        for _, comm, comm_b in hk._octant_spectra(b, sigma, K):
            off = apply_multipliers(minus_sigma, np.fft.ifftn(comm - factor * comm_b, axes=grid_axes))
            diag = apply_multipliers(sigma, np.fft.ifftn(comm, axes=grid_axes))
            defect = max(defect, float(np.max(np.abs(off))) * b.grid.weight ** 0.5,
                         float(np.max(np.abs(diag))) * b.grid.weight ** 0.5)
    return defect


def _patched_spectra(change):
    """`_octant_spectra` with change(b, sigma, modes, comm) in place of each chunk's comm."""
    exact = hk._octant_spectra

    def spectra(b, sigma, K):
        for modes, comm, comm_b in exact(b, sigma, K):
            yield modes, change(b, sigma, modes, comm), comm_b
    return spectra


def test_block_defect_bounds_the_sup_measure(monkeypatch):
    # criterion 5's two signals: the L2 column defect is at least the sup-based one
    g1, g2 = Grid(6, 1), Grid(6, 2)
    b1 = hk.random_symbol(8, trial_rng(105, 0)).to_signal(g1)
    b1 = b1 - Signal(g1, np.full(g1.shape, b1.mean()))
    b2 = hk.random_symbol(8, trial_rng(105, 1), dim=2).to_signal(g2)
    for b, K in ((b1, 12), (b2, 8)):
        new, old = hk.block_identity_check(b, mode_cutoff=K), _block_defect_sup(b, K)
        assert old <= new <= 1e-12
    # and on a commutator that is off by a visible amount
    monkeypatch.setattr(hk, "_octant_spectra", _patched_spectra(lambda b, s, modes, comm: 1.01 * comm))
    assert hk.block_identity_check(b2, mode_cutoff=8) >= _block_defect_sup(b2, 8) > 1e-3


def test_block_identities():
    g1 = Grid(6, 1)
    b = hk.random_symbol(8, rng).to_signal(g1)
    b = b - Signal(g1, np.full(g1.shape, b.mean()))
    assert hk.block_identity_check(b, mode_cutoff=12) < 1e-12
    # constants commute: every block vanishes
    assert hk.block_identity_check(constant(g1, 1.5), mode_cutoff=8) < 1e-13
    g2 = Grid(5, 2)
    b2 = hk.random_symbol(4, rng, dim=2).to_signal(g2)
    assert hk.block_identity_check(b2, mode_cutoff=6) < 1e-12
    # the tridisc: eight octants, each nested three axes deep
    b3 = dl.random_signal(Grid(3, 3), rng)
    assert hk.block_identity_check(b3, mode_cutoff=3) < 1e-12


def test_block_identity_check_sees_every_block(monkeypatch):
    g2 = Grid(5, 2)
    b2 = hk.random_symbol(4, rng, dim=2).to_signal(g2)
    with pytest.raises(ValueError, match="cutoff"):
        hk.block_identity_check(b2, mode_cutoff=g2.n_points // 2)
    monkeypatch.setattr(hk, "_octant_spectra", _patched_spectra(lambda b, s, modes, comm: 1.01 * comm))
    assert hk.block_identity_check(b2, mode_cutoff=6) > 1e-3
    # a term that only one diagonal block P_s (.) P_s sees is caught in every octant s
    for sigma in [("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")]:
        def diagonal(b, octant, modes, comm, sigma=sigma):
            extra = apply_multipliers(sigma, _exponentials(b.grid, modes))
            return comm + 0.1 * np.fft.fftn(extra, axes=(-2, -1))

        monkeypatch.setattr(hk, "_octant_spectra", _patched_spectra(diagonal))
        assert hk.block_identity_check(b2, mode_cutoff=6) > 1e-3


def test_block_identity_check_sees_the_last_mode_of_each_octant(monkeypatch):
    # 36 modes per octant at K = 6 on a 32^2 grid, in chunks of 30 and 6: the last one is partial
    g2, K = Grid(5, 2), 6
    b2 = hk.random_symbol(4, rng, dim=2).to_signal(g2)
    for sigma in [("+", "+"), ("+", "-"), ("-", "+"), ("-", "-")]:
        last = tuple(K if s == "+" else -1 for s in sigma)
        modes, _, _ = list(hk._octant_spectra(b2, sigma, K))[-1]
        assert tuple(modes[-1]) == last and len(modes) < hk._BATCH_POINTS // g2.n_points ** 2
        for wrong in (last, tuple(-k for k in last)):  # seen by P_s C P_s, by P_-s C P_s
            bad = np.fft.fftn(fourier_mode(g2, *wrong).values)

            def one_mode_off(b, octant, modes, comm, last=last, bad=bad):
                hit = np.all(modes == last, axis=1)[:, None, None]
                return comm + 0.1 * hit * bad

            monkeypatch.setattr(hk, "_octant_spectra", _patched_spectra(one_mode_off))
            assert hk.block_identity_check(b2, mode_cutoff=K) > 1e-3
            monkeypatch.undo()


def test_nehari_ratio_contracts():
    b = hk.random_symbol(8, rng)
    rep = hk.nehari_ratio(b)
    assert rep["ratio"] > 0
    # scale invariance
    rep2 = hk.nehari_ratio(hk.SymbolCoefficients(3.0 * b.coeffs))
    assert abs(rep["ratio"] - rep2["ratio"]) < 1e-9
    with pytest.raises(hk.TruncationError):
        hk.nehari_ratio(hk.SymbolCoefficients([1.0]))  # constant: BMO 0, Hankel 1
    # degree 4 is sampled on a depth-4 grid, whose finest Haar scale is 3
    b2 = hk.random_symbol(4, rng, dim=2)
    assert hk.nehari_ratio(b2, product_depth=3)["ratio"] > 0
    with pytest.raises(ValueError, match="finest Haar scale"):
        hk.nehari_ratio(b2, product_depth=4)
    with pytest.raises(ValueError, match="dimension >= 1"):
        hk.nehari_ratios(np.ones(3))  # a stack of three 0-D symbols
    # 3-D: bmo_product of the sampled symbol, and the norm of bhat(k + j) built entry by entry
    b3 = hk.random_symbol(4, np.random.default_rng(30), dim=3)
    rep3 = hk.nehari_ratio(b3, product_depth=3)
    g3 = Grid(hk.symbol_grid_depth(4), 3)
    alone = dl.bmo_product(b3.to_signal(g3), depth=3)
    assert rep3["bmo_value"] == alone.value and rep3["cuts"] == alone.detail["cuts"]
    modes = list(itertools.product(range(4), repeat=3))
    direct = np.array([[b3.coeffs[k1 + j1, k2 + j2, k3 + j3] if max(k1 + j1, k2 + j2, k3 + j3) < 4
                        else 0.0 for j1, j2, j3 in modes] for k1, k2, k3 in modes])
    assert abs(rep3["hankel_norm"] - operator_norm(direct)) <= 1e-12 * rep3["hankel_norm"]


@pytest.mark.parametrize("degree, dim", [(32, 1), (4, 2), (16, 2), (4, 3)],
                         ids=["32-1-dyadic", "4-2-product_exact", "16-2-product_exact",
                              "4-3-product_exact"])
def test_nehari_ratios_rows_do_not_depend_on_their_chunk(degree, dim):
    # the Hankel norms go in chunks of 2^15 // (M N)^d symbols: 8 in the first
    # two cases; the books in chunks of 2^15 // N^d: 8 in the last two; so 19
    # symbols make three chunks, and dropping the first 5 moves every boundary
    coeffs = np.stack([hk.random_symbol(degree, rng, dim=dim).coeffs for _ in range(19)])
    whole = hk.nehari_ratios(coeffs)
    later = hk.nehari_ratios(coeffs[5:])
    for t in range(19):
        alone = hk.nehari_ratio(hk.SymbolCoefficients(coeffs[t]))
        for key in ("hankel_norm", "bmo_value", "ratio"):
            assert whole[key][t] == alone[key]
            assert t < 5 or later[key][t - 5] == alone[key]


@pytest.mark.parametrize("depth", [2, 3])
def test_stacked_product_bmo_equals_each_symbols_bmo_product(depth, monkeypatch):
    # one set-up for the stack, on the boxes nonzero in some symbol, where a
    # zero or negligible coefficient gets mass 0, gives each symbol's own
    # bmo_product bit for bit, masks included
    coeffs = np.stack([hk.random_symbol(4, rng, dim=2).coeffs for _ in range(3)] + [np.zeros((4, 4))])
    for (k1, k2), c in {(0, 0): 1.0, (0, 3): -1.0, (2, 2): 1.0, (2, 3): 1.0, (3, 0): 1.0}.items():
        coeffs[3, k1, k2] = c  # an integer symbol with exactly zero and negligible Haar coefficients
    g = Grid(hk.symbol_grid_depth(4), 2)
    samples = hk._symbol_samples(coeffs, g)
    stack = dl.norms._haar_book(np.moveaxis(samples, 0, -1), 2, depth)
    coef = dl.transforms._haar_transform(samples[3], 2)[tuple((1 << stack.scales) + stack.positions)]
    # symbol 3 has mass 0 on a box of the stack where its coefficient is exactly
    # zero, and on another where it is nonzero but negligible
    assert np.any((stack.mass[3] == 0) & (coef == 0)) and np.any((stack.mass[3] == 0) & (coef != 0))
    masks = []
    solve = dl.norms._max_union_ratio

    def recording(book, depth, boxes=None):
        out = solve(book, depth, boxes)
        masks.append(out[1])
        return out

    monkeypatch.setattr(dl.norms, "_max_union_ratio", recording)
    rep = hk.nehari_ratios(coeffs, product_depth=depth)
    monkeypatch.undo()
    assert len(masks) == 4
    for t in range(4):
        alone = dl.bmo_product(Signal(g, samples[t]), depth=depth)
        assert rep["bmo_value"][t] == alone.value and np.array_equal(masks[t], alone.witness)
        assert rep["cuts"][t] == alone.detail["cuts"]
    assert hk.nehari_ratio(hk.SymbolCoefficients(coeffs[3]), product_depth=depth)["cuts"] == rep["cuts"][3]


def test_nehari_ratios_build_the_cut_set_up_again_for_a_chunk_on_other_boxes(monkeypatch):
    # at M 32 a chunk of books holds 2 symbols: two integer symbols, whose
    # Haar coefficients are exactly zero on some boxes, then two random ones;
    # the chunks' books hold different boxes, and each symbol's value, cuts
    # and witness mask still equal its own bmo_product bit for bit
    M, depth = 32, 3
    coeffs = np.zeros((4, M, M), dtype=complex)
    coeffs[0, 2, 2] = coeffs[0, 4, 4] = 1.0
    coeffs[1, 2, 4], coeffs[1, 4, 2] = 1.0, -1.0
    chunk_rng = np.random.default_rng(32)
    coeffs[2:] = [hk.random_symbol(M, chunk_rng, dim=2).coeffs for _ in range(2)]
    g = Grid(hk.symbol_grid_depth(M), 2)
    assert hk._BATCH_POINTS // g.n_points ** 2 == 2
    samples = hk._symbol_samples(coeffs, g)
    first, second = (dl.norms._haar_book(np.moveaxis(samples[lo:lo + 2], 0, -1), 2, depth)
                     for lo in (0, 2))
    assert first.scales.shape[1] < second.scales.shape[1]
    masks = []
    solve = dl.norms._max_union_ratio

    def recording(book, depth, boxes=None):
        out = solve(book, depth, boxes)
        masks.append(out[1])
        return out

    monkeypatch.setattr(dl.norms, "_max_union_ratio", recording)
    rep = hk.nehari_ratios(coeffs, product_depth=depth)
    monkeypatch.undo()
    for t in range(4):
        alone = dl.bmo_product(Signal(g, samples[t]), depth=depth)
        assert rep["bmo_value"][t] == alone.value and rep["cuts"][t] == alone.detail["cuts"]
        assert np.array_equal(masks[t], alone.witness)


@pytest.mark.parametrize("cutoff", [-1, -2, 4])
def test_a_mode_cutoff_outside_the_grid_raises(cutoff):
    # N = 8: K lies in 0..3; a negative K once gave an empty basis (a 0 x 0
    # commutator, a block-identity defect of 0)
    b = dl.random_signal(Grid(3, 2), np.random.default_rng(33))
    with pytest.raises(ValueError, match="mode cutoff must lie in 0..3"):
        hk.commutator_matrix(b, mode_cutoff=cutoff)
    with pytest.raises(ValueError, match="mode cutoff must lie in 0..3"):
        hk.block_identity_check(b, mode_cutoff=cutoff)


def test_nehari_ratios_raise_for_one_bad_symbol_in_a_stack():
    coeffs = np.stack([hk.random_symbol(8, rng).coeffs for _ in range(12)])
    coeffs[9] = 0.0
    coeffs[9, 0] = 1.0  # constant: BMO 0, Hankel norm 1
    with pytest.raises(hk.TruncationError, match="symbol 9"):
        hk.nehari_ratios(coeffs)
    assert np.all(hk.nehari_ratios(np.delete(coeffs, 9, axis=0))["ratio"] > 0)


def test_nehari_ratio_calibration_point():
    # the single analytic mode: Hankel norm 1, ratio = 1 / bmo(e^{2 pi i x}),
    # a fixed grid-dependent constant
    b = hk.SymbolCoefficients([0.0, 1.0])
    rep = hk.nehari_ratio(b)
    assert abs(rep["hankel_norm"] - 1.0) < 1e-12
    g = Grid(3, 1)
    mode1 = dl.fourier_mode(g, 1)
    expect = 1.0 / dl.bmo_dyadic(mode1).value
    assert abs(rep["ratio"] - expect) < 1e-10


def test_norm_homogeneity_and_phase_invariance():
    b = hk.random_symbol(6, rng)
    base = operator_norm(hk.hankel_operator_1d(b).matrix)
    for c in (2.5, -1.0, np.exp(1j * 0.7), 3.0 * np.exp(-1j * 1.2)):
        scaled = hk.SymbolCoefficients(c * b.coeffs)
        got = operator_norm(hk.hankel_operator_1d(scaled).matrix)
        assert abs(got - abs(c) * base) < 1e-10


def _hankel_window_rows(seq, rows, cols):
    """hankel_window as a loop over rows: the oracle of the indexed build."""
    seq = np.asarray(seq, dtype=complex)
    out = np.zeros((rows, cols), dtype=complex)
    for i in range(rows):
        hi = min(cols, len(seq) - i)
        if hi > 0:
            out[i, :hi] = seq[i : i + hi]
    return out


def test_hankel_window_matches_the_row_loop():
    win_rng = np.random.default_rng(91)
    for length in range(20):
        seq = win_rng.standard_normal(length) + 1j * win_rng.standard_normal(length)
        for rows in range(8):
            for cols in range(8):
                got, want = hk.hankel_window(seq, rows, cols), _hankel_window_rows(seq, rows, cols)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)
    assert np.array_equal(hk.hankel_window([1, 2, 3], 2, 3), _hankel_window_rows([1, 2, 3], 2, 3))
