"""Norm-preserving completion: Parrott's one-step extension, iterated Hankel
extension, and bounded-symbol recovery at finite truncation.

parrott_min fills the unknown block of [[X, C], [A, B]] with the central
completion of Davis, Kahan and Weinberger (1982), built from one thin SVD of
the known corner B, taken at a gamma 5e-14 relative above Parrott's least
possible norm max(||[A B]||, ||[C; B]||) so that rounding cannot push it past
that value.  The achieved value is measured on the assembled matrix and
compared in the tests against that closed form.

A finitely supported Hankel sequence defines a semi-infinite operator whose
norm equals the norm of the full window of side len(sequence); prepending an
antidiagonal at that window keeps the companion blocks inside the window, so
one extension step preserves that operator norm exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import Grid, Signal
from .hankel import HankelOp, hankel_matrix, hankel_window
from .norms import operator_norm


@dataclass
class BlockProblem:
    """Blocks of U = [[X, C], [A, B]] with X unknown.

    Shapes: X (hx, wx), C (hx, wc), A (ha, wx), B (ha, wc).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=complex))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=complex))
        self.C = np.atleast_2d(np.asarray(self.C, dtype=complex))
        if self.A.shape[0] != self.B.shape[0]:
            raise ValueError("A and B must have the same number of rows")
        if self.B.shape[1] != self.C.shape[1]:
            raise ValueError("B and C must have the same number of columns")

    @property
    def x_shape(self) -> tuple[int, int]:
        return self.C.shape[0], self.A.shape[1]

    def assemble(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=complex).reshape(self.x_shape)
        top = np.hstack([X, self.C])
        bottom = np.hstack([self.A, self.B])
        return np.vstack([top, bottom])


def parrott_closed_form(p: BlockProblem) -> float:
    """max(||[A B]||, ||[C; B]||): the optimal completion value (Parrott).

    parrott_min completes at a gamma 5e-14 relative above this value and
    checks its measured norm against it; the tests compare the two as well."""
    row = np.hstack([p.A, p.B])
    col = np.vstack([p.C, p.B])
    return max(operator_norm(row), operator_norm(col))


def parrott_min(p: BlockProblem) -> dict:
    """Complete U(X) = [[X, C], [A, B]] with the least possible norm.

    With B = W diag(s) V* (thin SVD) and gamma = parrott_closed_form(p), the
    central completion is X = -C V diag(s / g) W* A, that is
    -C (gamma^2 - B*B)^+ B* A, with g_i = gamma^2 - s_i^2.

    gamma and s come from separate SVDs, so gamma^2 - s_i^2 carries an
    absolute error of a few eps gamma^2.  On a nearly tight direction (g_i
    small) Parrott's condition only bounds ||w_i* A||, ||C v_i|| by
    sqrt(g_i), so the term of that direction has size up to s_i and the same
    relative error, which can push the norm above gamma.  Completing instead
    at gamma^2 + 1e-13 gamma^2, the standard remedy of taking gamma just above
    the optimum, leaves room for that error on every direction and costs at
    most about 5e-14 gamma in the norm.  gamma = 0 gives X = 0.

    Returns X and achieved_norm, the norm of the assembled matrix; raises
    ArithmeticError if that exceeds gamma by more than 1e-10 relative.
    """
    gamma = parrott_closed_form(p)
    W, s, Vh = np.linalg.svd(p.B, full_matrices=False)
    gap = np.maximum(gamma ** 2 - s ** 2, 0.0) + 1e-13 * gamma ** 2
    weight = np.divide(s, gap, out=np.zeros_like(s), where=gap > 0)
    X = -(p.C @ Vh.conj().T) @ (weight[:, None] * (W.conj().T @ p.A))
    achieved = operator_norm(p.assemble(X))
    if achieved > gamma * (1 + 1e-10):
        raise ArithmeticError(
            f"completion norm {achieved!r} exceeds the optimum {gamma!r}")
    return {"X": X, "achieved_norm": achieved}


def _prepend_antidiagonal(seq: np.ndarray) -> tuple[complex, np.ndarray]:
    """Choose a_{-1} for the sequence (a_0, ..., a_L) at the full window.

    The window is (L+2) x (L+1) with the unknown in the top-left corner; its
    row block is the full-window Hankel of the sequence and its column block
    is that window minus the last column, so the optimal completion preserves
    the sequence norm exactly.
    """
    seq = np.asarray(seq, dtype=complex)
    L = len(seq)
    A = hankel_window(seq, L + 1, 1)
    B = hankel_window(seq[1:], L + 1, L)
    C = hankel_window(seq, 1, L)
    res = parrott_min(BlockProblem(A, B, C))
    new_seq = np.concatenate([[complex(res["X"][0, 0])], seq])
    return complex(res["X"][0, 0]), new_seq


def extend_hankel_step(H: HankelOp) -> HankelOp:
    """One AAK extension step: prepend a new antidiagonal value a_{-1} chosen
    by parrott_min, returning the (M+1) x (M+1) Hankel operator of the
    extended sequence (zero-completed beyond the given data).

    The preserved quantity is the sequence (full-window) norm; the tests
    verify |sequence_norm(extended) - sequence_norm(H)| <= 1e-8.
    """
    if H.sequence is None:
        raise ValueError("extension needs the defining sequence")
    M = H.matrix.shape[0]
    _, new_seq = _prepend_antidiagonal(H.sequence)
    out = hankel_matrix(new_seq, M + 1)
    out.flavor = H.flavor
    return out


def recover_bounded_symbol(H: HankelOp, steps: int, grid: Grid | None = None) -> dict:
    """Iterate the extension, assemble beta = sum a_k e^{2 pi i k x} over the
    doubly-indexed sequence, and report ||beta||_inf against the Hankel norm.

    ratio = ||beta||_inf / sequence_norm(H) is >= 1 - 1e-8 always (a bounded
    multiplier dominates its Hankel compression); the trend in `steps` is
    reported, not asserted.
    """
    if H.sequence is None:
        raise ValueError("recovery needs the defining sequence")
    seq = np.asarray(H.sequence, dtype=complex)
    base_norm = H.sequence_norm()
    offsets = 0
    for _ in range(steps):
        _, seq = _prepend_antidiagonal(seq)
        offsets += 1
    total_modes = len(seq)
    if grid is None:
        n = max(4, int(np.ceil(np.log2(4 * total_modes))))
        grid = Grid(n, 1)
    N = grid.n_points
    modes = np.zeros(N, dtype=complex)
    for idx, a in enumerate(seq):
        k = idx - offsets
        modes[k % N] = a
    beta = Signal(grid, np.fft.ifft(modes) * N)
    sup = float(np.max(np.abs(beta.values)))
    return {
        "beta": beta,
        "sup_norm": sup,
        "hankel_norm": base_norm,
        "ratio": sup / base_norm if base_norm > 0 else np.inf,
        "steps": steps,
        "sequence": seq,
    }
