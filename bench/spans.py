"""Span tracer for the benchmark's traced run.

The tracer wraps library functions from outside the library: every module
namespace of the `dyadiclab` package that binds a traced function (for
example `aak` and `hankel`, which import `operator_norm` with `from ... import`)
gets the wrapper, so calls are seen whichever name they go through.
`numpy.linalg.svd` and the `numpy.fft` transforms are wrapped to count calls
and work.  `install()` and `uninstall()` put the wrappers in and take them
out again; the benchmark installs them only around the timed job calls, so
its output checks are neither traced nor counted.

Each span records its name, start, end and parent span.  A span opened on a
worker thread whose own stack is empty takes as parent the innermost open
span of the thread that created the tracer (the thread pool of `experiments.run`
runs trials under its span).  Self time is a span's duration minus the
part of it that the union of its children's intervals covers.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# module -> functions whose calls and self time the traced run reports
LAYERS = {
    "aak": ("parrott_min", "extend_hankel_step", "recover_bounded_symbol"),
    "norms": ("operator_norm", "bmo_dyadic", "bmo_rect", "bmo_product", "bmo_minus1",
              "coefficient_book"),
    "transforms": ("haar_analysis", "haar_synthesis", "build_meyer_family"),
    "hankel": ("commutator_matrix", "block_identity_check", "hankel_operator_1d",
               "little_hankel", "nehari_ratio"),
    "paraproducts": ("para_haar_matrix", "commutator_gleft_matrix", "decompose_commutator_Gleft",
                     "apply_petermichl_average", "meyer_para_multi"),
    "journe": ("journe_damped_check", "enlarged_set", "carleson_family", "lower_bound_experiment"),
    "dyadic": ("haar_function", "haar_tensor"),
    "experiments": ("run",),
}

FFT_ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# counter name -> unit, in the order they are reported
COUNTERS = {
    "numpy.svd.calls": "count",
    "numpy.svd.flops": "flop_computed",
    "numpy.fft.calls": "count",
    "numpy.fft.points": "count",
}


def layer_metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric the tracer produces."""
    out = []
    for module, funcs in LAYERS.items():
        for func in funcs:
            out.append((f"{module}.{func}.calls", "count"))
            out.append((f"{module}.{func}.self_s", "s"))
    return out + list(COUNTERS.items())


def svd_flops(a, compute_uv: bool = True, full_matrices: bool = True) -> float:
    """Floating-point operations of one (possibly stacked) SVD, computed from
    the shape with the Golub-Van Loan R-SVD counts; complex input counts 4x."""
    a = np.asarray(a)
    m, n = a.shape[-2], a.shape[-1]
    big, small = max(m, n), min(m, n)
    if not compute_uv:
        flops = 4.0 * big * small ** 2 - 4.0 * small ** 3 / 3.0
    elif full_matrices:
        flops = 4.0 * big ** 2 * small + 22.0 * small ** 3
    else:
        flops = 6.0 * big * small ** 2 + 20.0 * small ** 3
    batch = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
    return flops * batch * (4.0 if np.iscomplexobj(a) else 1.0)


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._root_stack = self._stack()
        self._patches = self._plan_patches()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _plan_patches(self) -> list[tuple[object, str, object]]:
        """(namespace, attribute, wrapper) for every binding of a traced function."""
        package = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and (name == "dyadiclab" or name.startswith("dyadiclab."))]
        patches = []
        for module, funcs in LAYERS.items():
            defining = sys.modules[f"dyadiclab.{module}"]
            for func in funcs:
                original = getattr(defining, func)
                wrapper = self._span_wrapper(f"{module}.{func}", original)
                for namespace in package:
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            patches.append((namespace, attr, wrapper))
        patches.append((np.linalg, "svd", self._svd_wrapper(np.linalg.svd)))
        for name in FFT_ENTRY_POINTS:
            if hasattr(np.fft, name):
                patches.append((np.fft, name, self._fft_wrapper(getattr(np.fft, name))))
        return patches

    def install(self) -> None:
        self._saved = [(ns, attr, getattr(ns, attr)) for ns, attr, _ in self._patches]
        for ns, attr, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((span_id, parent, name, start, end))
        return traced

    def _count(self, calls_key: str, calls: float, work_key: str, work: float) -> None:
        with self._lock:
            self.counters[calls_key] += calls
            self.counters[work_key] += work

    def _svd_wrapper(self, fn):
        @functools.wraps(fn)
        def counted(a, full_matrices=True, compute_uv=True, *args, **kwargs):
            self._count("numpy.svd.calls", 1, "numpy.svd.flops",
                        svd_flops(a, compute_uv, full_matrices))
            return fn(a, full_matrices, compute_uv, *args, **kwargs)
        return counted

    def _fft_wrapper(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self._count("numpy.fft.calls", 1, "numpy.fft.points", out.size)
            return out
        return counted

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """calls and self time per traced function, plus the numpy counters."""
        children = defaultdict(list)
        for span_id, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for module, funcs in LAYERS.items():
            for func in funcs:
                out[f"{module}.{func}.calls"] = 0
                out[f"{module}.{func}.self_s"] = 0.0
        for span_id, _, name, start, end in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - _covered(children.get(span_id, ()), start, end)
        for key in COUNTERS:
            out[key] = self.counters.get(key, 0)
        return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
