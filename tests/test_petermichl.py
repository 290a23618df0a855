from dataclasses import dataclass

import numpy as np
import pytest

import dyadiclab as dl
from dyadiclab.dyadic import Grid, Signal, zeros
from dyadiclab import paraproducts as pp

rng = np.random.default_rng(8)


# ---------------------------------------------------------------------------
# oracle: the Petermichl average evaluated on the whole window, node by node


@dataclass
class LineWindow:
    """Non-periodic window [-pad, pad+1) sampled at 2^depth cells per unit;
    unit-interval data is embedded with zero padding."""

    depth: int
    pad: int

    def __post_init__(self):
        # power-of-two pad keeps every dyadic scale aligned with the array
        if self.pad & (self.pad - 1):
            raise ValueError("pad must be a power of two")

    @property
    def cell(self) -> float:
        return 2.0 ** -self.depth

    @property
    def n_cells(self) -> int:
        return (2 * self.pad + 1) << self.depth

    @property
    def left(self) -> float:
        return -float(self.pad)

    def coords(self) -> np.ndarray:
        return self.left + np.arange(self.n_cells) * self.cell

    def embed(self, f: Signal) -> np.ndarray:
        if f.grid.depth != self.depth:
            raise ValueError("resolution mismatch")
        out = np.zeros(self.n_cells, dtype=complex)
        start = self.pad << self.depth
        out[start : start + f.grid.n_points] = f.values
        return out

    def restrict(self, values: np.ndarray) -> Signal:
        start = self.pad << self.depth
        g = Grid(self.depth, 1)
        return Signal(g, values[start : start + g.n_points].copy())


def _window_shift_G(win: LineWindow, values: np.ndarray) -> np.ndarray:
    """G on the window: sum over dyadic I inside the window, |I| >= 4 cells."""
    n = win.depth
    L = win.n_cells
    out = np.zeros(L, dtype=complex)
    cell = win.cell
    # scale exponent k: |I| = 2^k, from 4 cells up to the largest power of two <= pad
    k_min = -n + 2
    k_max = int(np.log2(win.pad)) if win.pad > 1 else 0
    for k in range(k_min, k_max + 1):
        size = 1 << (n + k)  # cells per interval
        m = L // size  # aligned intervals fully inside
        if m == 0:
            continue
        f_blocks = values[: m * size].reshape(m, size)
        half = size // 2
        quarter = size // 4
        lsum = f_blocks[:, :half].sum(axis=1) * cell
        rsum = f_blocks[:, half:].sum(axis=1) * cell
        amp = 2.0 ** (-k / 2)  # |I|^{-1/2}
        coef = (rsum - lsum) * amp  # <f, h_I>
        # g_I = -h_{I_left} + h_{I_right}: amplitude sqrt(2)/sqrt(|I|) on quarters
        gamp = np.sqrt(2.0) * amp
        block_out = np.zeros((m, size), dtype=complex)
        block_out[:, :quarter] = (coef * gamp)[:, None]
        block_out[:, quarter:half] = (-coef * gamp)[:, None]
        block_out[:, half : half + quarter] = (-coef * gamp)[:, None]
        block_out[:, half + quarter :] = (coef * gamp)[:, None]
        out[: m * size] += block_out.ravel()
    return out


def _window_translate(win: LineWindow, values: np.ndarray, y: float) -> np.ndarray:
    """(Tr_y f)(x) = f(x - y) by linear interpolation, zero outside the window."""
    x = win.coords()
    xp = x - y
    re = np.interp(xp, x, values.real, left=0.0, right=0.0)
    im = np.interp(xp, x, values.imag, left=0.0, right=0.0)
    return re + 1j * im


def _window_dilate(win: LineWindow, values: np.ndarray, s: float) -> np.ndarray:
    """(Dil_s^2 f)(x) = s^{-1/2} f(x/s) by linear interpolation."""
    x = win.coords()
    xp = x / s
    re = np.interp(xp, x, values.real, left=0.0, right=0.0)
    im = np.interp(xp, x, values.imag, left=0.0, right=0.0)
    return (re + 1j * im) * s ** -0.5


def oracle_petermichl_average(f: Signal, Y: float = 8.0, s_steps: int = 64,
                              y_steps: int = 64, pad: int | None = None,
                              y_measure: str = "uniform") -> Signal:
    """Every node interpolates, applies G and interpolates back over all
    (2 pad + 1) 2^n cells of the window; only [0, 1) is kept."""
    n = f.grid.depth
    if pad is None:
        pad = 1 << int(np.ceil(np.log2(max(4.0, Y + 1.0))))
    win = LineWindow(n, pad)
    base = win.embed(f)
    y_nodes, y_w, s_nodes, s_w = pp.petermichl_quadrature(Y, s_steps, y_steps, win.cell, y_measure)
    acc = np.zeros(win.n_cells, dtype=complex)
    for yi, wy in zip(y_nodes, y_w):
        shifted = _window_translate(win, base, yi)
        for sj, ws in zip(s_nodes, s_w):
            v = _window_dilate(win, shifted, sj)
            v = _window_shift_G(win, v)
            v = _window_dilate(win, v, 1.0 / sj)
            acc += (wy * ws) * _window_translate(win, v, -yi)
    return win.restrict(acc)


def _bump(grid, width=0.08, center=0.5):
    x = grid.points()
    z = (x - center) / width
    vals = z * np.exp(-z * z)
    return Signal(grid, vals - vals.mean())


def test_window_embedding_roundtrip():
    g = Grid(5, 1)
    win = LineWindow(5, 4)
    f = dl.random_signal(g, rng)
    assert np.max(np.abs(win.restrict(win.embed(f)).values - f.values)) < 1e-15
    with pytest.raises(ValueError):
        LineWindow(5, 3)  # pad must be a power of two


def test_window_shift_G_matches_torus_on_interior_scales():
    # for a signal supported well inside [0,1), the window G agrees with the
    # torus G on the scales both contain
    g = Grid(6, 1)
    f = _bump(g, width=0.05)
    win = LineWindow(6, 4)
    from_window = win.restrict(_window_shift_G(win, win.embed(f)))
    on_torus = pp.dyadic_shift_G(f)
    # window includes coarser intervals ([0,1) etc. differ); compare after
    # removing the two coarsest torus scales from both
    diff = from_window - on_torus
    # the difference is a combination of g_I for |I| >= 1/2 plus window-only
    # scales, hence smooth at fine scales; check fine-scale agreement through
    # Haar coefficients
    dc = dl.haar_analysis(diff)
    fine = max(np.max(np.abs(dc.band(p))) for p in range(3, 6))
    assert fine < 1e-10


def test_quadrature_measures():
    y, wy, s, ws = pp.petermichl_quadrature(8.0, 16, 32, 1.0 / 64, "uniform")
    assert len(y) == 32 and len(s) == 16
    assert abs(wy.sum() * ws.sum() - 1.0) < 1e-12
    assert np.all(np.diff(y) > 0) and y[0] > 0 and y[-1] < 8.0
    assert np.all((s >= 1.0) & (s <= 2.0))
    y2, wy2, *_ = pp.petermichl_quadrature(8.0, 16, 32, 1.0 / 64, "log")
    assert y2[0] >= 1.0 / 64
    with pytest.raises(ValueError):
        pp.petermichl_quadrature(8.0, 4, 4, 0.1, "bogus")


@pytest.mark.parametrize("Y", [1e-4, 1.0 / 64])
def test_log_quadrature_needs_Y_above_its_lower_end(Y):
    # dy/y runs from y0 up to Y; at Y <= y0 the interval would be reversed
    with pytest.raises(ValueError, match="log measure"):
        pp.petermichl_quadrature(Y, 4, 4, 1.0 / 64, "log")
    with pytest.raises(ValueError, match="log measure"):
        pp.apply_petermichl_average(_bump(Grid(6, 1)), Y=Y, s_steps=4, y_steps=4, y_measure="log")
    y, wy, _, ws = pp.petermichl_quadrature(Y, 4, 4, 1.0 / 64, "uniform")
    assert np.all((y > 0) & (y < Y)) and abs(wy.sum() * ws.sum() - 1.0) < 1e-12


def test_average_annihilates_constants():
    # a constant on the whole window is killed exactly (every g_I is mean
    # zero); the unit-interval embedding sees its own edges, so the statement
    # is about the window-wide constant
    win = LineWindow(5, 4)
    const = np.ones(win.n_cells, dtype=complex)
    assert np.max(np.abs(_window_shift_G(win, const))) < 1e-12
    for s in (1.0, 1.37, 2.0):
        v = _window_dilate(win, const, s)
        out = _window_shift_G(win, v)
        # dilation clips at the window edge; interior stays annihilated
        inner = slice(win.n_cells // 4, 3 * win.n_cells // 4)
        assert np.max(np.abs(out[inner])) < 1e-10


def test_fit_converges_and_steps_help():
    g = Grid(7, 1)
    f = _bump(g)
    rep32 = pp.petermichl_fit_on_signal(f, Y=8.0, s_steps=32, y_steps=32)
    rep16 = pp.petermichl_fit_on_signal(f, Y=8.0, s_steps=16, y_steps=16)
    assert rep32["relative_error"] < 0.05
    assert rep32["relative_error"] < rep16["relative_error"]
    assert rep32["fitted_c"] != 0.0


def test_fit_rejects_a_signal_with_no_hilbert_transform():
    with pytest.raises(ValueError, match="Hilbert"):
        pp.petermichl_fit_on_signal(zeros(Grid(3, 1)), Y=2.0, s_steps=2, y_steps=2)


def test_kernel_antisymmetry():
    g = Grid(5, 1)
    rep = pp.petermichl_average(g, Y=8.0, s_steps=16, y_steps=64)
    K = rep["matrix"].entries
    defect = np.linalg.norm(K + K.T) / np.linalg.norm(K)
    assert defect < 0.05


def test_translation_covariance_interior():
    g = Grid(6, 1)
    f = _bump(g, width=0.05, center=0.4)
    shifted_in = Signal(g, np.roll(f.values, 1))
    out = pp.apply_petermichl_average(f, Y=4.0, s_steps=12, y_steps=256)
    out_shifted = pp.apply_petermichl_average(shifted_in, Y=4.0, s_steps=12, y_steps=256)
    expected = np.roll(out.values, 1)
    # compare away from the window boundary
    sl = slice(8, 56)
    rel = np.linalg.norm(out_shifted.values[sl] - expected[sl]) / np.linalg.norm(expected[sl])
    assert rel < 0.01


def test_log_measure_is_available_and_recorded():
    g = Grid(6, 1)
    f = _bump(g)
    rep = pp.petermichl_fit_on_signal(f, Y=4.0, s_steps=8, y_steps=8, y_measure="log")
    assert rep["y_measure"] == "log"
    assert np.isfinite(rep["relative_error"])


# ---------------------------------------------------------------------------
# the support-restricted average against the whole-window oracle


def _random_complex(grid):
    return Signal(grid, rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points))


def _relative_gap(f, Y, s_steps, y_steps, pad=None, y_measure="uniform"):
    # the public average takes the default window; another pad goes through the kernel
    if pad is None:
        got = pp.apply_petermichl_average(f, Y, s_steps, y_steps, y_measure).values
    else:
        got = pp._petermichl_values(f.values[:, None], f.grid.depth, Y, s_steps, y_steps, pad,
                                    y_measure)[0][:, 0]
    ref = oracle_petermichl_average(f, Y, s_steps, y_steps, pad, y_measure).values
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("y_measure", ["uniform", "log"])
@pytest.mark.parametrize("Y", [2.0, 4.0, 8.0])
def test_average_matches_window_oracle(Y, y_measure):
    f = _random_complex(Grid(6, 1))
    assert _relative_gap(f, Y=Y, s_steps=8, y_steps=12, y_measure=y_measure) <= 1e-13


@pytest.mark.parametrize("pad", [1, 4, 32])
def test_average_matches_window_oracle_explicit_pad(pad):
    # pad 1 and 4 push most translates past the window's right edge
    f = _random_complex(Grid(6, 1))
    assert _relative_gap(f, Y=8.0, s_steps=8, y_steps=12, pad=pad) <= 1e-13


def test_average_matches_window_oracle_at_the_window_edge():
    # the default window for Y = 8 is [-16, 17); the last nodes dilate the
    # support [y, y + 1) out to s (y + 1) > 17, so both dilations read past
    # the edge and the cells in [16, 17) see only scales of at most one unit
    Y, steps = 8.0, 16
    y, _, s, _ = pp.petermichl_quadrature(Y, steps, steps, 1.0 / 64, "uniform")
    assert s[-1] * (y[-1] + 1.0) > 17.0
    f = _random_complex(Grid(6, 1))
    assert _relative_gap(f, Y=Y, s_steps=steps, y_steps=steps) <= 1e-13


def test_average_rejects_coarse_grids():
    with pytest.raises(dl.ResolutionError):
        pp.apply_petermichl_average(_random_complex(Grid(2, 1)))


def test_average_reports_the_pad_it_used():
    # the default window at Y = 8 is the least power of two >= 9
    g = Grid(4, 1)
    rep = pp.petermichl_average(g, Y=8.0, s_steps=4, y_steps=6)
    assert rep["pad"] == 16
    explicit, pad = pp._petermichl_values(np.eye(g.n_points), g.depth, 8.0, 4, 6, 16, "uniform")
    assert pad == 16
    assert np.array_equal(rep["matrix"].entries, explicit)


def test_batched_matrix_equals_single_calls():
    g = Grid(4, 1)
    rep = pp.petermichl_average(g, Y=4.0, s_steps=6, y_steps=10)
    for c in range(g.n_points):
        e = zeros(g)
        e.values[c] = 1.0
        col = pp.apply_petermichl_average(e, Y=4.0, s_steps=6, y_steps=10).values
        assert np.max(np.abs(rep["matrix"].entries[:, c] - col)) <= 1e-14 * np.max(np.abs(col))


# ---------------------------------------------------------------------------
# the batched kernel: s groups, row chunks, y blocks and the real split


def _kernel_calls(monkeypatch):
    """Record the row width of each `_dilated_shift_rows` call."""
    calls = []
    inner = pp._dilated_shift_rows

    def recording(shifted, m0, iy, s, width, n, pad):
        calls.append(width)
        return inner(shifted, m0, iy, s, width, n, pad)

    monkeypatch.setattr(pp, "_dilated_shift_rows", recording)
    return calls


@pytest.mark.parametrize("depth, pad", [(3, None), (3, 1), (6, 1)])
@pytest.mark.parametrize("s_steps", [5, 7])
def test_average_matches_window_oracle_on_uneven_s_groups(monkeypatch, depth, pad, s_steps):
    # 5 and 7 s nodes split into groups of 2 1 1 1 and 2 2 2 1, each group
    # with its own row width; n = 3 has the narrowest rows and pad 1 the
    # shortest window
    calls = _kernel_calls(monkeypatch)
    f = _random_complex(Grid(depth, 1))
    assert _relative_gap(f, Y=2.0, s_steps=s_steps, y_steps=3, pad=pad) <= 1e-13
    assert len(set(calls)) == len(calls) == 4


@pytest.mark.parametrize("s_steps, y_steps", [(64, 1), (1, 40)])
def test_average_matches_window_oracle_across_chunks(monkeypatch, s_steps, y_steps):
    # at n = 10 a complex column's two real halves leave a chunk fewer rows
    # than the 16 s nodes of the widest group, and fewer indices than 40
    # translates: the rows of one group, and the y nodes, run in several calls
    calls = _kernel_calls(monkeypatch)
    f = _random_complex(Grid(10, 1))
    assert _relative_gap(f, Y=8.0, s_steps=s_steps, y_steps=y_steps) <= 1e-13
    assert len(calls) > min(4, s_steps)


def test_window_interp_is_np_interp_bit_for_bit():
    # the bracket and the formula are np.interp's, also for points one ulp
    # either side of a grid point, where the floor of (q + pad) 2^n can miss
    n, pad = 6, 4
    x = LineWindow(n, pad).coords()
    data = rng.standard_normal(x.size)
    q = np.concatenate([rng.uniform(-pad - 1.0, pad + 2.0, 4000), x,
                        np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    got = pp._window_interp(q[None], np.array([0]), data[None, None], n, pad)[0, 0]
    assert np.array_equal(got, np.interp(q, x, data, left=0.0, right=0.0))


def test_real_input_runs_as_the_complex_one():
    # a zero imaginary part is dropped, so the two run the same real rows
    g = Grid(5, 1)
    values = rng.standard_normal((g.n_points, 3))
    real, pad = pp._petermichl_values(values, 5, 4.0, 6, 5, None, "uniform")
    cplx, _ = pp._petermichl_values(values.astype(complex), 5, 4.0, 6, 5, None, "uniform")
    assert pad == 8 and np.array_equal(real, cplx)
    # and a complex column is its real part plus i times its imaginary part
    mixed, _ = pp._petermichl_values(values + 1j * values[:, ::-1], 5, 4.0, 6, 5, None, "uniform")
    assert np.max(np.abs(mixed - (real + 1j * real[:, ::-1]))) <= 1e-14 * np.max(np.abs(real))


def test_average_memory_is_set_by_the_chunk_not_the_node_count():
    # 2 x 128 nodes at n = 10 are two groups of 128 rows, 1232 and 1738
    # cells wide: about 2 x 10^5 window indices a group.  The chunks and y
    # blocks keep the peak near 7.5 MiB; one chunk a group takes 21 MiB
    import tracemalloc

    g = Grid(10, 1)
    f = _bump(g)
    pp.apply_petermichl_average(f, Y=8.0, s_steps=2, y_steps=2)
    tracemalloc.start()
    try:
        pp.apply_petermichl_average(f, Y=8.0, s_steps=2, y_steps=128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
