"""Norm-preserving completion: Parrott's one-step extension, iterated Hankel
extension, and bounded-symbol recovery at finite truncation.

parrott_min fills the unknown block of [[X, C], [A, B]] with the central
completion of Davis, Kahan and Weinberger (1982), X = -C (g^2 - B*B)^-1 B* A,
by one Hermitian solve at g^2 = gamma^2 (1 + 1e-13), about 5e-14 relative
above Parrott's least possible norm gamma = max(||[A B]||, ||[C; B]||), so
that rounding cannot push it past that value.  The achieved value is measured
on the assembled matrix and compared in the tests against that closed form.

A finitely supported Hankel sequence defines a semi-infinite operator whose
norm equals the norm of the full window of side len(sequence).  Prepending an
antidiagonal at that window is a completion problem whose companion blocks
are this window bordered by zeros, so its optimum gamma is the sequence norm,
one values-only SVD; the completed window is the extended sequence's full
window with a zero row under it, so each step preserves the norm exactly and
its measured norm, the extended sequence norm, is the next step's gamma.
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


def _central_completion(A, B, C, gamma: float) -> np.ndarray:
    """X = -C G^-1 B* A by one solve of the L x L Hermitian system
    G = g^2 I - B*B with g^2 = gamma^2 (1 + 1e-13), L the width of B; by the
    push-through identity, -C V diag(s / (g^2 - s^2)) W* A for B = W diag(s) V*.

    Parrott's gamma is at least ||B||, so G's eigenvalues g^2 - s_i^2 are at
    least 1e-13 gamma^2, far above the rounding of gamma (another SVD) and of
    B*B: G is positive definite even on a tight direction (s_i = gamma), where
    the unshifted G is singular.  Completing just above the optimum also keeps
    that rounding, which a nearly tight direction's term carries in full, from
    pushing the norm past gamma, at a cost of about 5e-14 gamma.  gamma = 0
    forces B = 0 and a singular G: X = 0, no solve.
    """
    if gamma == 0:
        return np.zeros((C.shape[0], A.shape[1]), dtype=complex)
    G = -(B.conj().T @ B)
    G.flat[::G.shape[0] + 1] += gamma ** 2 * (1 + 1e-13)
    return -C @ np.linalg.solve(G, B.conj().T @ A)


def _checked(achieved: float, gamma: float) -> float:
    """achieved, unless it exceeds the optimum gamma by more than 1e-10 relative."""
    if achieved > gamma * (1 + 1e-10):
        raise ArithmeticError(
            f"completion norm {achieved!r} exceeds the optimum {gamma!r}")
    return achieved


def parrott_min(p: BlockProblem) -> dict:
    """Complete U(X) = [[X, C], [A, B]] with the least possible norm, by the
    central completion at gamma = parrott_closed_form(p).  Returns X and
    achieved_norm, the norm of U(X); raises ArithmeticError if that exceeds
    gamma by more than 1e-10 relative."""
    gamma = parrott_closed_form(p)
    X = _central_completion(p.A, p.B, p.C, gamma)
    return {"X": X, "achieved_norm": _checked(operator_norm(p.assemble(X)), gamma)}


def _extend_sequence(seq: np.ndarray, gamma: float) -> tuple[np.ndarray, float]:
    """One norm-preserving step: (new_seq, achieved) for new_seq = (a_{-1},
    a_0, ..., a_{L-1}), given seq = (a_0, ..., a_{L-1}) and its sequence norm.

    The window [[x, C], [A, B]] has entry (r, c) = new_seq[r + c].  Its row
    block [A B] and its column block [C; B] are hankel_window(seq, L, L)
    bordered by zero rows and columns, so both have the sequence norm, which
    is Parrott's optimum gamma.  The completed window is hankel_window(new_seq,
    L+1, L+1) and a zero row, so the achieved norm is the extended sequence
    norm.  ArithmeticError if it exceeds gamma by more than 1e-10 relative.
    """
    seq = np.asarray(seq, dtype=complex)
    L = len(seq)
    X = _central_completion(hankel_window(seq, L + 1, 1), hankel_window(seq[1:], L + 1, L),
                            hankel_window(seq, 1, L), gamma)
    new_seq = np.concatenate([X[0], seq])
    return new_seq, _checked(operator_norm(hankel_window(new_seq, L + 1, L + 1)), gamma)


def extend_hankel_step(H: HankelOp) -> HankelOp:
    """One AAK extension step: prepend a new antidiagonal value a_{-1} chosen
    by the central completion, returning the (M+1) x (M+1) Hankel operator
    of the extended sequence (zero-completed beyond the given data).

    The preserved quantity is the sequence (full-window) norm; the tests
    verify |sequence_norm(extended) - sequence_norm(H)| <= 1e-8.
    """
    if H.sequence is None:
        raise ValueError("extension needs the defining sequence")
    new_seq, _ = _extend_sequence(H.sequence, H.sequence_norm())
    return hankel_matrix(new_seq, H.matrix.shape[0] + 1)


def recover_bounded_symbol(H: HankelOp, steps: int, grid: Grid | None = None) -> dict:
    """Iterate the extension, assemble beta = sum a_k e^{2 pi i k x} over the
    doubly-indexed sequence, and report ||beta||_inf against the Hankel norm.

    ratio = ||beta||_inf / sequence_norm(H) is >= 1 - 1e-8 always (a bounded
    multiplier dominates its Hankel compression); the trend in `steps` is
    reported, not asserted.  ValueError if `steps` is negative or `grid` has
    fewer points than modes.
    """
    if H.sequence is None:
        raise ValueError("recovery needs the defining sequence")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if grid is not None and grid.n_points < len(H.sequence) + steps:
        raise ValueError(f"{len(H.sequence) + steps} modes need a grid of as many points")
    seq = np.asarray(H.sequence, dtype=complex)
    base_norm = gamma = H.sequence_norm()
    for _ in range(steps):  # each achieved norm is the next step's gamma
        seq, gamma = _extend_sequence(seq, gamma)
    return _bounded_symbol(seq, steps, base_norm, grid)


def _bounded_symbol(seq: np.ndarray, steps: int, base_norm: float, grid: Grid | None = None) -> dict:
    """The report of recover_bounded_symbol for a sequence extended `steps`
    times (seq[i] is a_{i - steps}) from one whose sequence norm is base_norm."""
    if grid is None:  # at least four points a mode
        grid = Grid(max(4, int(np.ceil(np.log2(4 * len(seq))))), 1)
    N = grid.n_points
    modes = np.zeros(N, dtype=complex)
    modes[(np.arange(len(seq)) - steps) % N] = seq
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
