"""Dyadic intervals, rectangles, grids and sampled signals.

Everything lives on the periodic torus [0,1)^d sampled at N = 2^n points per
axis.  The quadrature weight 2^(-n d) per sample makes the discrete inner
product agree with the continuum one for step functions, so Haar functions
are exactly orthonormal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ResolutionError(ValueError):
    """An interval or wavelet is too small for the grid."""


@dataclass(frozen=True, order=True)
class DyadicInterval:
    """The interval I = [j*2^k, (j+1)*2^k).

    scale_exponent k may be negative (subintervals of [0,1)) or positive
    (the enlarged windows used by non-periodic constructions).
    """

    scale_exponent: int
    position: int

    @property
    def length(self) -> float:
        return 2.0 ** self.scale_exponent

    @property
    def left(self) -> float:
        return self.position * 2.0 ** self.scale_exponent

    @property
    def right(self) -> float:
        return (self.position + 1) * 2.0 ** self.scale_exponent

    @property
    def center(self) -> float:
        return (self.position + 0.5) * 2.0 ** self.scale_exponent

    # Exact endpoint comparisons: scale both intervals to the finer grid and
    # compare integers, so nesting never depends on float rounding.
    def _bounds_at(self, k_min: int) -> tuple[int, int]:
        shift = self.scale_exponent - k_min
        return self.position << shift, (self.position + 1) << shift

    def contains(self, other: "DyadicInterval") -> bool:
        k = min(self.scale_exponent, other.scale_exponent)
        a0, a1 = self._bounds_at(k)
        b0, b1 = other._bounds_at(k)
        return a0 <= b0 and b1 <= a1

    def is_disjoint(self, other: "DyadicInterval") -> bool:
        k = min(self.scale_exponent, other.scale_exponent)
        a0, a1 = self._bounds_at(k)
        b0, b1 = other._bounds_at(k)
        return a1 <= b0 or b1 <= a0

    def left_half(self) -> "DyadicInterval":
        return DyadicInterval(self.scale_exponent - 1, 2 * self.position)

    def right_half(self) -> "DyadicInterval":
        return DyadicInterval(self.scale_exponent - 1, 2 * self.position + 1)

    def parent(self) -> "DyadicInterval":
        return DyadicInterval(self.scale_exponent + 1, self.position // 2)

    def in_unit_torus(self) -> bool:
        return (
            self.scale_exponent <= 0
            and 0 <= self.position < (1 << -self.scale_exponent)
        )

    def cell_range(self, grid: "Grid") -> tuple[int, int]:
        """Indices [start, stop) of the finest cells covered on `grid`."""
        if self.scale_exponent < -grid.depth:
            raise ResolutionError(f"{self} is below grid resolution 2^-{grid.depth}")
        width = 1 << (grid.depth + self.scale_exponent)
        return self.position * width, (self.position + 1) * width


@dataclass(frozen=True, order=True)
class DyadicRectangle:
    """A product of dyadic intervals, one per axis."""

    coordinates: tuple[DyadicInterval, ...]

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    @property
    def area(self) -> float:
        out = 1.0
        for iv in self.coordinates:
            out *= iv.length
        return out

    def contains(self, other: "DyadicRectangle") -> bool:
        return all(a.contains(b) for a, b in zip(self.coordinates, other.coordinates))

    def cell_slices(self, grid: "Grid") -> tuple[slice, ...]:
        return tuple(slice(*iv.cell_range(grid)) for iv in self.coordinates)

    def sort_key(self):
        return (
            tuple(iv.scale_exponent for iv in self.coordinates),
            tuple(iv.position for iv in self.coordinates),
        )


@dataclass(frozen=True)
class Grid:
    """Periodic domain [0,1)^d sampled at N = 2^depth points per axis."""

    depth: int
    dim: int = 1

    def __post_init__(self):
        if self.depth < 1 or self.dim < 1:
            raise ValueError("need depth >= 1 and dim >= 1")

    @property
    def n_points(self) -> int:
        return 1 << self.depth

    @property
    def cell_width(self) -> float:
        return 2.0 ** -self.depth

    @property
    def weight(self) -> float:
        """Quadrature weight per sample."""
        return 2.0 ** (-self.depth * self.dim)

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_points,) * self.dim

    def points(self) -> np.ndarray:
        """Sample coordinates (left endpoints) along one axis."""
        return np.arange(self.n_points) / self.n_points

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        axes = [self.points() for _ in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


@dataclass
class Signal:
    """A complex-valued function sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def inner(self, other: "Signal") -> complex:
        """<f, g> = sum f * conj(g) * 2^(-n d)."""
        return complex(np.sum(self.values * np.conj(other.values)) * self.grid.weight)

    def norm2(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.weight))

    def mean(self) -> complex:
        return complex(np.mean(self.values))

    def copy(self) -> "Signal":
        return Signal(self.grid, self.values.copy())

    def __add__(self, other):
        return Signal(self.grid, self.values + _vals(other))

    def __sub__(self, other):
        return Signal(self.grid, self.values - _vals(other))

    def __mul__(self, other):
        return Signal(self.grid, self.values * _vals(other))

    def __rmul__(self, scalar):
        return Signal(self.grid, scalar * self.values)

    def conj(self) -> "Signal":
        return Signal(self.grid, np.conj(self.values))


def _vals(x):
    return x.values if isinstance(x, Signal) else x


def zeros(grid: Grid) -> Signal:
    return Signal(grid, np.zeros(grid.shape, dtype=complex))


def constant(grid: Grid, value=1.0) -> Signal:
    return Signal(grid, np.full(grid.shape, value, dtype=complex))


def random_signal(grid: Grid, rng: np.random.Generator, real: bool = False) -> Signal:
    vals = rng.standard_normal(grid.shape)
    if not real:
        vals = vals + 1j * rng.standard_normal(grid.shape)
    return Signal(grid, vals)


def haar_function(eps: int, interval: DyadicInterval, grid: Grid) -> Signal:
    """Sampled L2-normalized Haar function h^eps_I on interval I.

    h^0_I is -|I|^(-1/2) on the left half of I, +|I|^(-1/2) on the right half;
    h^1_I is the normalized indicator |I|^(-1/2) 1_I.
    """
    if grid.dim != 1:
        raise ValueError("haar_function is one-dimensional; use haar_tensor for d=2")
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    min_scale = -grid.depth + (1 if eps == 0 else 0)
    if interval.scale_exponent < min_scale:
        raise ResolutionError("scale below grid resolution")
    if not interval.in_unit_torus():
        raise ValueError(f"{interval} is not inside [0,1)")
    f = zeros(grid)
    amp = interval.length ** -0.5
    if eps == 1:
        a, b = interval.cell_range(grid)
        f.values[a:b] = amp
    else:
        a, b = interval.left_half().cell_range(grid)
        f.values[a:b] = -amp
        a, b = interval.right_half().cell_range(grid)
        f.values[a:b] = amp
    return f


def shifted_haar_g(interval: DyadicInterval, grid: Grid) -> Signal:
    """g_I = -h_{I_left} + h_{I_right}, the odd companion of h_I; ||g_I||_2 = sqrt(2)."""
    if interval.scale_exponent < -grid.depth + 2:
        raise ResolutionError("scale below grid resolution")
    left = haar_function(0, interval.left_half(), grid)
    right = haar_function(0, interval.right_half(), grid)
    return right - left


def haar_tensor(rect: DyadicRectangle, grid: Grid, eps: tuple[int, ...] = None) -> Signal:
    """Tensor Haar function on a dyadic rectangle (d = len(rect))."""
    if grid.dim != rect.dim:
        raise ValueError("rectangle dimension does not match grid")
    if eps is None:
        eps = (0,) * rect.dim
    axis_grid = Grid(grid.depth, 1)
    factors = [
        haar_function(e, iv, axis_grid).values for e, iv in zip(eps, rect.coordinates)
    ]
    vals = factors[0]
    for fac in factors[1:]:
        vals = np.multiply.outer(vals, fac)
    return Signal(grid, vals)


def enumerate_intervals(depth: int, min_length: float) -> list[DyadicInterval]:
    """All dyadic intervals in [0,1) with min_length <= |I| <= 1, sorted by (scale, position)."""
    if min_length < 2.0 ** -depth:
        raise ResolutionError("min_length below grid resolution")
    out = []
    k = 0
    while 2.0 ** k >= min_length:
        out.extend(DyadicInterval(k, j) for j in range(1 << -k))
        k -= 1
    out.sort(key=lambda iv: (iv.scale_exponent, iv.position))
    return out


def enumerate_rectangles(grid: Grid, min_side: float) -> list[DyadicRectangle]:
    """All dyadic rectangles in [0,1)^d with every side in [min_side, 1].

    Deterministic lexicographic order by (scale vector, position vector).
    """
    axis = enumerate_intervals(grid.depth, min_side)
    rects = []

    def rec(prefix, d):
        if d == grid.dim:
            rects.append(DyadicRectangle(tuple(prefix)))
            return
        for iv in axis:
            rec(prefix + [iv], d + 1)

    rec([], 0)
    rects.sort(key=DyadicRectangle.sort_key)
    return rects


@dataclass(frozen=True)
class RectangleCollection:
    """A finite set of dyadic rectangles on one grid."""

    members: tuple[DyadicRectangle, ...]
    grid: Grid

    def __post_init__(self):
        for r in self.members:
            if r.dim != self.grid.dim:
                raise ValueError("rectangle dimension does not match grid")

    def shadow_mask(self) -> np.ndarray:
        mask = np.zeros(self.grid.shape, dtype=bool)
        for r in self.members:
            mask[r.cell_slices(self.grid)] = True
        return mask

    def shadow_measure(self) -> float:
        return float(np.count_nonzero(self.shadow_mask())) * self.grid.weight


def shadow(coll: RectangleCollection) -> tuple[np.ndarray, float]:
    """Cell mask of sh(U) = union of members, and its measure."""
    mask = coll.shadow_mask()
    return mask, float(np.count_nonzero(mask)) * coll.grid.weight
