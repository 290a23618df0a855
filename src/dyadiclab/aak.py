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
window with a zero row under it.  Its norm is at least gamma, since [A B] is
a block of it, and one Cholesky factorization certifies it at most gamma_c,
within 1e-10 relative of gamma (_certified_norm): each step keeps the norm
in [gamma, gamma_c], and a chain of steps completes every step at the first
gamma, as the theory says.  Where the certificate's rounding margin would
pass that gate, or the factorization fails, the step measures its norm by
one values-only SVD instead, checks it against the gate, and carries it on
as the next step's gamma.
"""

from __future__ import annotations

import math
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


_GATE = 1 + 1e-10  # a completion's norm may exceed its optimum gamma by this factor


def _checked(achieved: float, gamma: float) -> float:
    """achieved, unless it exceeds the optimum gamma by more than 1e-10 relative."""
    if achieved > gamma * _GATE:
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


def _certified_norm(W: np.ndarray, gamma: float) -> float | None:
    """gamma_c >= ||W|| for the n x n matrix W, proved by one Cholesky
    factorization of s I - W*W at s = gamma^2 (1 + 5e-13), a level 5 times
    the completion's shift above gamma^2; None, with no factorization, when
    gamma_c would exceed the gate gamma (1 + 1e-10), and None when the
    factorization fails.

    The margin, after S. M. Rump, Verification of positive definiteness
    (BIT 46, 2006).  Let u = 2^-53, g_k = k u / (1 - k u) and F = ||W||_F^2.
    In any order of summation and blocking, with or without fused
    multiply-adds:
    1. The Gram.  The real and the imaginary part of each entry of the
       computed W*W is a real dot product of 2n terms, so the entry is within
       sqrt(2) g_2n (|W|^T |W|)_ij of the exact one.  The Hermitian matrix
       read from one triangle of it is within sqrt(2) g_2n || |W| ||^2 <=
       sqrt(2) g_2n F of W*W in norm.
    2. The shift.  The matrix factored, A, has the Gram's off-diagonal
       entries negated, and s - Re(Gram_ii) on its diagonal, rounded once.
       A factorization that runs to completion has positive pivots, each
       a_jj less a sum of squares, so every a_jj lies in (0, s], and the
       diagonal's rounding is at most u s in norm, with tr A <= n s.
    3. The factorization.  Its computed factor R has R*R = A + E with
       |E| <= sqrt(2) g_{2n+2} |R|^T |R|: Higham's argument for Theorem 10.3
       of Accuracy and Stability of Numerical Algorithms (2002), on the real
       and imaginary parts, where each entry of R is a dot product of at most
       2n real products, then a division, a product with a rounded
       reciprocal, or a square root.  So ||E|| <= sqrt(2) g_{2n+2} ||R||_F^2,
       and ||R||_F^2 = tr A + tr E <= n s + sqrt(2) g_{2n+2} ||R||_F^2.
    As R*R is positive semidefinite, s I - W*W >= -e I, so ||W||^2 <= s + e,
    with e = n s sqrt(2) g_{2n+2} / (1 - sqrt(2) g_{2n+2}) + u s + sqrt(2) g_2n F.
    The computed sum of squares F^ (one dot product of 2 n^2 terms) has
    F <= F^ / (1 - g_{2n^2}).  The gate keeps n below 773, where these
    factors sum to e <= 2 sqrt(2) (n + 1) u (1 + 1e-9) (n s + F^) + u s, less
    than m = 3 (n + 2) u (n s + F^) even after the rounding of m.  With
    gradual underflow, a product or quotient may also be off by 2^-1075
    absolute; these add less than 6 (n + 1)^2 (1 + sqrt(s)) 2^-1075 to e,
    which the term (n + 1)^2 (1 + sqrt(s)) 2^-1072 added to m covers.  The
    factor 1 + 2^-50 in gamma_c = sqrt(s + m) (1 + 2^-50) covers the rounding
    of the sum, the root and itself.  Non-finite data give a non-finite
    gamma_c, which fails the gate.

    m is about 3 n^2 u gamma^2 + 3 n u F.  Relative to gamma it passes the
    gate from side 773 whatever W, and from about side 720 on random
    windows, whose F grows like n gamma^2 / 7; a random window of side 512
    is certified within 5e-11.
    """
    n = W.shape[1]
    s = gamma * gamma * (1 + 5e-13)
    m = (3 * (n + 2) * 2.0 ** -53 * (n * s + float(np.vdot(W, W).real))
         + (n + 1) ** 2 * (1 + math.sqrt(s)) * 2.0 ** -1072)
    gamma_c = math.sqrt(s + m) * (1 + 2.0 ** -50)
    if not gamma_c <= gamma * _GATE:
        return None
    A = -(W.conj().T @ W)
    A.flat[::n + 1] = s + A.flat[::n + 1].real
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    return gamma_c


def _extension_chain(seq: np.ndarray, gamma: float, steps: int):
    """Yield (new_seq, upper) after each of `steps` norm-preserving steps
    from seq = (a_0, ..., a_{L-1}), whose sequence norm is gamma: new_seq =
    (a_{-1}, a_0, ..., a_{L-1}), then (a_{-2}, a_{-1}, ...), and so on.

    The window [[x, C], [A, B]] of a step has entry (r, c) = new_seq[r + c].
    Its row block [A B] and its column block [C; B] are hankel_window(seq,
    L, L) bordered by zero rows and columns, so both have the sequence norm,
    which is Parrott's optimum gamma.  The completed window is
    hankel_window(new_seq, L+1, L+1) and a zero row, whose norm is the
    extended sequence norm: at least gamma, as [A B] is a block of it, and
    at most upper = _certified_norm(window, gamma) <= gamma (1 + 1e-10).  The
    next step then completes at the same gamma.  Where the certificate gives
    nothing, upper is the window's norm measured by one values-only SVD,
    and it is the next step's gamma; ArithmeticError if it exceeds gamma by
    more than 1e-10 relative.
    """
    seq = np.asarray(seq, dtype=complex)
    for _ in range(steps):
        L = len(seq)
        X = _central_completion(hankel_window(seq, L + 1, 1), hankel_window(seq[1:], L + 1, L),
                                hankel_window(seq, 1, L), gamma)
        seq = np.concatenate([X[0], seq])
        window = hankel_window(seq, L + 1, L + 1)
        upper = _certified_norm(window, gamma)
        if upper is None:
            upper = gamma = _checked(operator_norm(window), gamma)
        del window  # not held while the next step completes, at the peak of its memory
        yield seq, upper


def _extend_sequence(seq: np.ndarray, gamma: float) -> tuple[np.ndarray, float]:
    """One step of _extension_chain: (new_seq, upper)."""
    return next(_extension_chain(seq, gamma, 1))


def extend_hankel_step(H: HankelOp) -> HankelOp:
    """One AAK extension step: prepend a new antidiagonal value a_{-1} chosen
    by the central completion, returning the (M+1) x (M+1) Hankel operator
    of the extended sequence (zero-completed beyond the given data).

    The preserved quantity is the sequence (full-window) norm: the step
    certifies the extended one within 1e-10 relative above it, by one
    Cholesky factorization, or measures it by one values-only SVD where the
    certificate's margin is too wide (_extension_chain); the tests verify
    |sequence_norm(extended) - sequence_norm(H)| <= 1e-8.
    """
    if H.sequence is None:
        raise ValueError("extension needs the defining sequence")
    new_seq, _ = _extend_sequence(H.sequence, H.sequence_norm())
    return hankel_matrix(new_seq, H.matrix.shape[0] + 1)


def recover_bounded_symbol(H: HankelOp, steps: int, grid: Grid | None = None) -> dict:
    """Iterate the extension, assemble beta = sum a_k e^{2 pi i k x} over the
    doubly-indexed sequence, and report ||beta||_inf against the Hankel norm.

    Every step completes at the sequence norm of H, which each certified
    step keeps (_extension_chain); only a step that measures its norm, where
    the certificate's margin is too wide, carries that value on instead.

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
    base_norm = H.sequence_norm()
    for seq, _ in _extension_chain(seq, base_norm, steps):  # seq ends as the last extension
        pass
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
