import numpy as np
import pytest

from dyadiclab import aak, hankel as hk
from dyadiclab.dyadic import Grid
from dyadiclab.norms import operator_norm

rng = np.random.default_rng(23)


def test_block_problem_shapes():
    p = aak.BlockProblem(rng.standard_normal((3, 2)), rng.standard_normal((3, 4)),
                         rng.standard_normal((1, 4)))
    assert p.x_shape == (1, 2)
    U = p.assemble(np.zeros((1, 2)))
    assert U.shape == (4, 6)
    with pytest.raises(ValueError):
        aak.BlockProblem(rng.standard_normal((3, 2)), rng.standard_normal((2, 4)),
                         rng.standard_normal((1, 4)))


def test_parrott_simple_examples():
    res = aak.parrott_min(aak.BlockProblem([[1.0]], [[0.0]], [[1.0]]))
    assert abs(res["achieved_norm"] - 1.0) < 1e-9
    assert abs(res["X"][0, 0]) < 1e-12
    res0 = aak.parrott_min(aak.BlockProblem([[0.0]], [[0.0]], [[0.0]]))
    assert res0["achieved_norm"] < 1e-12


def test_parrott_matches_closed_form_scalar_and_matrix():
    for trial in range(10):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        C = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        p = aak.BlockProblem(A, B, C)
        res = aak.parrott_min(p)
        assert abs(res["achieved_norm"] - aak.parrott_closed_form(p)) < 1e-8
    for trial in range(5):
        A = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
        B = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        C = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
        p = aak.BlockProblem(A, B, C)
        res = aak.parrott_min(p)
        assert abs(res["achieved_norm"] - aak.parrott_closed_form(p)) < 1e-8


NEAR_TIGHT = (1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 1e-4)


@pytest.mark.parametrize("A, B, C", [
    (np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))),  # gamma = 0
    (np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2))),  # rank one
    ([[0.0], [1.0]], [[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0]]),  # gamma = ||B||
    ([[0.1]], [[2.0]], [[0.3]]),  # B dominates
    ([[1.0], [0.0], [2.0]], [[1.0, 1j], [2.0, 0.0], [0.0, -1.0]],
     [[0.5, 1.0], [1.0, 0.0]]),  # 2x1 unknown
] + [([[a]], [[1.0]], [[a]]) for a in NEAR_TIGHT],  # gamma^2 - ||B||^2 = a^2
    ids=["zero", "rank_one", "gamma_is_norm_B", "B_dominant", "unknown_2x1"]
    + [f"near_tight_{a:g}" for a in NEAR_TIGHT])
def test_parrott_degenerate_cases(A, B, C):
    p = aak.BlockProblem(A, B, C)
    res = aak.parrott_min(p)
    gamma = aak.parrott_closed_form(p)
    assert res["X"].shape == p.x_shape
    assert abs(res["achieved_norm"] - gamma) <= 1e-12 * max(1.0, gamma)
    if gamma == 0.0:
        assert np.all(res["X"] == 0)


def test_parrott_near_tight_twofold():
    # B has the singular value 1 twice; W* A and C V are of size 1e-8..1e-6
    # on those two directions, so gamma^2 - 1 lies between about 1e-16 and 1e-12
    near_rng = np.random.default_rng(0)

    def unitary():
        z = near_rng.standard_normal((3, 3)) + 1j * near_rng.standard_normal((3, 3))
        return np.linalg.qr(z)[0]

    for _ in range(200):
        W, V = unitary(), unitary()
        size = np.append(10.0 ** near_rng.uniform(-8, -6, size=2), 0.3)
        Ap = size[:, None] * (near_rng.standard_normal((3, 2)) + 1j * near_rng.standard_normal((3, 2)))
        Cp = (near_rng.standard_normal((2, 3)) + 1j * near_rng.standard_normal((2, 3))) * size
        B = W @ np.diag([1.0, 1.0, 0.5]) @ V.conj().T
        p = aak.BlockProblem(W @ Ap, B, Cp @ V.conj().T)
        gamma = aak.parrott_closed_form(p)
        assert abs(aak.parrott_min(p)["achieved_norm"] - gamma) <= 1e-12 * max(1.0, gamma)


def test_parrott_min_raises_above_optimum(monkeypatch):
    # a gamma below the optimum cannot be met; the measured norm must say so
    monkeypatch.setattr(aak, "parrott_closed_form", lambda p: 0.5)
    with pytest.raises(ArithmeticError):
        aak.parrott_min(aak.BlockProblem([[1.0]], [[1.0]], [[1.0]]))


def test_achieved_never_below_lower_bound():
    # the closed form is a genuine lower bound for any completion
    A = rng.standard_normal((2, 2)); B = rng.standard_normal((2, 2)); C = rng.standard_normal((2, 2))
    p = aak.BlockProblem(A, B, C)
    target = aak.parrott_closed_form(p)
    for _ in range(5):
        X = rng.standard_normal((2, 2))
        assert operator_norm(p.assemble(X)) >= target - 1e-12


def test_extension_examples():
    # zero matrix extends to zero
    H0 = hk.hankel_matrix(np.zeros(3), 2)
    ext0 = aak.extend_hankel_step(H0)
    assert np.max(np.abs(ext0.matrix.entries)) < 1e-10
    # single-entry norm-1 Hankel keeps norm 1 with a_{-1} = 0
    H1 = hk.hankel_matrix([1.0], 1)
    e1 = aak.extend_hankel_step(H1)
    assert abs(e1.sequence[0]) < 1e-12
    assert abs(e1.sequence_norm() - 1.0) < 1e-8
    # golden ratio data: the 3x3 extension still has norm phi
    Hg = hk.hankel_matrix([1.0, 1.0, 0.0], 2)
    ext = aak.extend_hankel_step(Hg)
    phi = (1 + np.sqrt(5)) / 2
    assert ext.matrix.shape == (3, 3)
    assert abs(ext.sequence_norm() - phi) < 1e-8
    assert abs(operator_norm(ext.matrix) - phi) < 1e-8


def test_extension_preserves_structure_and_norm():
    for M in (2, 5, 16):
        seq = rng.standard_normal(2 * M - 1) + 1j * rng.standard_normal(2 * M - 1)
        H = hk.hankel_matrix(seq, M)
        ext = aak.extend_hankel_step(H)
        mat = ext.matrix.entries
        # Hankel structure: entries constant on antidiagonals
        for i in range(M):
            for j in range(M):
                assert mat[i, j + 1] == mat[i + 1, j]
        assert abs(H.sequence_norm() - ext.sequence_norm()) < 1e-8
        assert hk.check_intertwining(ext) < 1e-12


def test_extension_m64_defect_at_rounding_level():
    seq_rng = np.random.default_rng(64)
    seq = seq_rng.standard_normal(127) + 1j * seq_rng.standard_normal(127)
    H = hk.hankel_matrix(seq, 64)
    ext = aak.extend_hankel_step(H)
    assert abs(H.sequence_norm() - ext.sequence_norm()) <= 1e-11


def test_recover_bounded_symbol():
    b = hk.random_symbol(5, rng)
    H = hk.hankel_operator_1d(b)
    base = H.sequence_norm()
    ratios = []
    for K in (0, 1, 3):
        rep = aak.recover_bounded_symbol(H, K)
        assert rep["sup_norm"] >= base - 1e-10  # multiplier dominates compression
        ratios.append(rep["ratio"])
    assert all(r >= 1.0 - 1e-8 for r in ratios)
    # K = 0 is the analytic part itself
    rep0 = aak.recover_bounded_symbol(H, 0)
    g = rep0["beta"].grid
    direct = b.to_signal(g)
    assert np.max(np.abs(rep0["beta"].values - direct.values)) < 1e-10


def _count_svds_and_solves(monkeypatch) -> tuple[list, list]:
    svds, solves = [], []
    svd, solve = np.linalg.svd, np.linalg.solve

    def counting_svd(*args, **kwargs):
        svds.append((args[0].shape, kwargs.get("compute_uv", True)))
        return svd(*args, **kwargs)

    def counting_solve(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return svds, solves


def test_extension_step_takes_two_values_only_svds_and_one_solve(monkeypatch):
    seq = rng.standard_normal(31) + 1j * rng.standard_normal(31)
    H = hk.hankel_matrix(seq, 16)
    svds, solves = _count_svds_and_solves(monkeypatch)
    aak.extend_hankel_step(H)
    # gamma from the full window and the norm of the extended full window,
    # both values only; the completion is one solve of the 31 x 31 system
    assert svds == [((31, 31), False), ((32, 32), False)]
    assert solves == [(31, 31)]


@pytest.mark.parametrize("K", [0, 1, 4])
def test_recovery_chains_each_achieved_norm_into_the_next_gamma(monkeypatch, K):
    H = hk.hankel_operator_1d(hk.random_symbol(5, rng))
    svds, solves = _count_svds_and_solves(monkeypatch)
    aak.recover_bounded_symbol(H, K)
    assert len(svds) == 1 + K
    assert all(compute_uv is False for _, compute_uv in svds)
    assert len(solves) == K


def test_extension_step_norms_are_the_sequence_norms():
    seq = rng.standard_normal(31) + 1j * rng.standard_normal(31)
    H = hk.hankel_matrix(seq, 16)
    gamma = H.sequence_norm()
    new_seq, achieved = aak._extend_sequence(H.sequence, gamma)
    assert np.array_equal(new_seq[1:], H.sequence)
    ext = aak.extend_hankel_step(H)
    assert np.array_equal(ext.sequence[:len(new_seq)], new_seq)
    assert abs(achieved - ext.sequence_norm()) <= 1e-12 * gamma
    # the closed form of the same window problem, with its padded blocks, agrees
    L = len(seq)
    p = aak.BlockProblem(hk.hankel_window(seq, L + 1, 1), hk.hankel_window(seq[1:], L + 1, L),
                         hk.hankel_window(seq, 1, L))
    assert abs(aak.parrott_closed_form(p) - gamma) <= 1e-12 * gamma


def test_extension_step_raises_above_gamma():
    # below the sequence norm no completion exists; the measured norm must say so
    seq = np.array([1.0, 2.0, 0.5j])
    gamma = hk.hankel_matrix(seq, 2).sequence_norm()
    with pytest.raises(ArithmeticError):
        aak._extend_sequence(seq, gamma * (1 - 1e-6))
    assert aak._extend_sequence(seq, gamma)[1] <= gamma * (1 + 1e-10)


def test_recovery_rejects_a_grid_too_small_for_its_modes():
    # degree 6 extended twice has 13 modes; on 4 points they would overwrite
    # each other and give beta = 0
    H = hk.hankel_operator_1d(hk.random_symbol(6, np.random.default_rng(6)))
    for n in (2, 3):
        with pytest.raises(ValueError):
            aak.recover_bounded_symbol(H, 2, Grid(n, 1))
    rep = aak.recover_bounded_symbol(H, 2, Grid(4, 1))  # 16 points: a point a mode
    assert rep["ratio"] >= 1 - 1e-8
    seq = rep["sequence"]
    modes = np.concatenate([seq[2:], np.zeros(16 - len(seq)), seq[:2]])  # a_k at k mod 16
    assert np.allclose(np.fft.fft(rep["beta"].values) / 16, modes)


def _svd_route_completion(A, B, C, gamma):
    """The central completion by one thin SVD B = W diag(s) V*: X = -C V
    diag(s / g) W* A with g_i = max(gamma^2 - s_i^2, 0) + 1e-13 gamma^2, the
    oracle for aak._central_completion's solve."""
    W, s, Vh = np.linalg.svd(B, full_matrices=False)
    gap = np.maximum(gamma ** 2 - s ** 2, 0.0) + 1e-13 * gamma ** 2
    weight = np.divide(s, gap, out=np.zeros_like(s), where=gap > 0)
    return -(C @ Vh.conj().T) @ (weight[:, None] * (W.conj().T @ A))


def _relative_gap(X, oracle) -> float:
    return np.linalg.norm(X - oracle) / np.linalg.norm(oracle)


@pytest.mark.parametrize("M", [4, 8, 16, 32, 64, 128])
def test_central_completion_matches_the_svd_oracle_on_windows(M):
    window_rng = np.random.default_rng(M)
    for _ in range(2):
        seq = window_rng.standard_normal(2 * M - 1) + 1j * window_rng.standard_normal(2 * M - 1)
        L = len(seq)
        blocks = (hk.hankel_window(seq, L + 1, 1), hk.hankel_window(seq[1:], L + 1, L),
                  hk.hankel_window(seq, 1, L))
        gamma = hk.hankel_matrix(seq, M).sequence_norm()
        X = aak._central_completion(*blocks, gamma)
        assert _relative_gap(X, _svd_route_completion(*blocks, gamma)) <= 1e-10


def test_central_completion_matches_the_svd_oracle_on_parrott_problems():
    parrott_rng = np.random.default_rng(3)

    def block(shape):
        return parrott_rng.standard_normal(shape) + 1j * parrott_rng.standard_normal(shape)

    shapes = [((3, 3), (3, 3), (3, 3))] * 10 + [((4, 1), (4, 3), (1, 3))] * 5
    for shape_A, shape_B, shape_C in shapes:
        p = aak.BlockProblem(block(shape_A), block(shape_B), block(shape_C))
        gamma = aak.parrott_closed_form(p)
        X = aak._central_completion(p.A, p.B, p.C, gamma)
        assert _relative_gap(X, _svd_route_completion(p.A, p.B, p.C, gamma)) <= 1e-10


def test_central_completion_matches_the_svd_oracle_near_tight():
    # the twofold family of test_parrott_near_tight_twofold.  There the shifted
    # gap is 1e-13..1e-12 of gamma^2, so X moves by the condition number
    # kappa of G times eps under any rounding of that gap, whichever route
    # computes it (the oracle on the adjoint problem moves as much): the two
    # routes agree to 1e-10 plus 32 kappa eps, and both attain gamma.
    near_rng = np.random.default_rng(0)
    eps = np.finfo(float).eps

    def unitary():
        z = near_rng.standard_normal((3, 3)) + 1j * near_rng.standard_normal((3, 3))
        return np.linalg.qr(z)[0]

    for _ in range(200):
        W, V = unitary(), unitary()
        size = np.append(10.0 ** near_rng.uniform(-8, -6, size=2), 0.3)
        Ap = size[:, None] * (near_rng.standard_normal((3, 2)) + 1j * near_rng.standard_normal((3, 2)))
        Cp = (near_rng.standard_normal((2, 3)) + 1j * near_rng.standard_normal((2, 3))) * size
        p = aak.BlockProblem(W @ Ap, W @ np.diag([1.0, 1.0, 0.5]) @ V.conj().T, Cp @ V.conj().T)
        gamma = aak.parrott_closed_form(p)
        X = aak._central_completion(p.A, p.B, p.C, gamma)
        oracle = _svd_route_completion(p.A, p.B, p.C, gamma)
        g2 = gamma ** 2 * (1 + 1e-13)
        kappa = (g2 - 0.25) / (g2 - 1.0)
        assert _relative_gap(X, oracle) <= 1e-10 + 32 * kappa * eps
        for Y in (X, oracle):
            assert abs(operator_norm(p.assemble(Y)) - gamma) <= 1e-12 * gamma


@pytest.mark.parametrize("degree, K", [(6, 128), (64, 64)])
def test_long_chains_stay_at_their_gamma(degree, K):
    H = hk.hankel_operator_1d(hk.random_symbol(degree, np.random.default_rng(degree)))
    seq, gamma = np.asarray(H.sequence, dtype=complex), H.sequence_norm()
    for _ in range(K):
        seq, achieved = aak._extend_sequence(seq, gamma)
        assert achieved <= gamma * (1 + 1e-10)
        gamma = achieved


def test_recovery_rejects_negative_steps():
    # steps = -1 used to skip the chain, loosen the grid check by one and shift
    # the modes: 9 modes of a degree-5 symbol wrapped onto the 8 points of Grid(3, 1)
    H = hk.hankel_operator_1d(hk.random_symbol(5, np.random.default_rng(5)))
    for grid in (None, Grid(3, 1), Grid(4, 1)):
        with pytest.raises(ValueError, match="steps"):
            aak.recover_bounded_symbol(H, -1, grid)
