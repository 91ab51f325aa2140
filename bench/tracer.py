"""Outside-in layer tracer for psdo.

The tracer replaces a fixed list of psdo functions, and the two
numpy.linalg entry points psdo reaches for spectral norms and SVDs,
with timing wrappers. psdo itself is not modified: a function imported
with `from psdo.symexpr import evaluate` is a separate binding in each
importing module, so every binding in every loaded psdo module (and
every value of a module-level dict, such as verify.SUITES) that holds
an original is replaced.

Spans live in memory. Each open call is a frame on a stack; when it
closes, its duration is added to its parent's child time, and its self
time is its duration minus its child time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np
import numpy.linalg

# span name -> (module, attribute)
PSDO_TARGETS = {
    "symexpr.evaluate": ("psdo.symexpr", "evaluate"),
    "quantize.op_circle": ("psdo.quantize", "op_circle"),
    "quantize.op_mellin": ("psdo.quantize", "op_mellin"),
    "quantize.op_edge": ("psdo.quantize", "op_edge"),
    "fredholm.finite_section": ("psdo.fredholm", "finite_section"),
    "fredholm.winding_oracle": ("psdo.fredholm", "winding_oracle"),
    "calculus.infinitesimal": ("psdo.calculus", "infinitesimal"),
    "calculus.extract_symbol": ("psdo.calculus", "extract_symbol"),
    "symbols.check_twisted_homogeneity": ("psdo.symbols", "check_twisted_homogeneity"),
    "localization.local_norm": ("psdo.localization", "local_norm"),
    "cli.main": ("psdo.cli", "main"),
}
QUANTIZERS = ("quantize.op_circle", "quantize.op_mellin", "quantize.op_edge")


def _work(shape: tuple[int, ...]) -> tuple[int, int]:
    """(largest matrix side, m n min(m, n) summed over the batch): the
    dimension and the SVD work count of a (batched) matrix argument."""
    m, n = shape[-2:]
    batch = int(np.prod(shape[:-2], dtype=np.int64))
    return max(m, n), batch * m * n * min(m, n)


class Tracer:
    def __init__(self):
        self._originals: dict[int, object] = {}  # id -> original, kept alive
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop the spans and counters of the previous pass."""
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[list] = []  # [span index, child seconds]
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.dim_max: Counter = Counter()
        self.dim3_sum: Counter = Counter()
        self._quantizer_args: set = set()
        self.quantizer_repeats = 0

    def _timed(self, name: str, fn, args, kwargs):
        stack = self._stack
        index = len(self.spans)
        self.spans.append(None)
        parent = stack[-1][0] if stack else -1
        frame = [index, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.spans[index] = (name, start, end, parent)
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]

    def _note_quantizer(self, name: str, args, kwargs) -> None:
        # The argument key is built before the call's span opens; its cost
        # is charged to the parent as child time, not as the parent's work.
        start = time.perf_counter()
        key = (name, repr(args), repr(sorted(kwargs.items())))
        if key in self._quantizer_args:
            self.quantizer_repeats += 1
        else:
            self._quantizer_args.add(key)
        if self._stack:
            self._stack[-1][1] += time.perf_counter() - start

    def _note_dims(self, name: str, shape: tuple[int, ...]) -> None:
        d, work = _work(shape)
        self.dim_max[name] = max(self.dim_max[name], d)
        self.dim3_sum[name] += work

    # -- wrappers ----------------------------------------------------------

    def _wrap_psdo(self, name: str, fn):
        if name in QUANTIZERS:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._note_quantizer(name, args, kwargs)
                return self._timed(name, fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self._timed(name, fn, args, kwargs)
        return wrapper

    def _wrap_norm(self, fn):
        @functools.wraps(fn)
        def norm(x, ord=None, axis=None, keepdims=False):
            if ord == 2 and axis is None and np.ndim(x) == 2:
                self._note_dims("linalg.norm2", np.shape(x))
                return self._timed("linalg.norm2", fn, (x, ord), {"keepdims": keepdims})
            return fn(x, ord=ord, axis=axis, keepdims=keepdims)
        return norm

    def _wrap_svd(self, fn):
        @functools.wraps(fn)
        def svd(a, *args, **kwargs):
            self._note_dims("linalg.svd", np.shape(a))
            return self._timed("linalg.svd", fn, (a,) + args, kwargs)
        return svd

    # -- patching ----------------------------------------------------------

    @staticmethod
    def _psdo_modules() -> list:
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "psdo" or n.startswith("psdo."))]

    def _bindings(self):
        """Yield (container, key, value, label) for every module attribute
        and every value of a module-level dict in the loaded psdo modules."""
        for module in self._psdo_modules():
            for key, value in list(vars(module).items()):
                yield module, key, value, f"{module.__name__}.{key}"
                if isinstance(value, dict) and key != "__builtins__":
                    for k, v in list(value.items()):
                        yield value, k, v, f"{module.__name__}.{key}[{k!r}]"

    def install(self) -> None:
        """Wrap every target at every binding."""
        for module, _ in PSDO_TARGETS.values():
            importlib.import_module(module)
        verify = importlib.import_module("psdo.verify")
        wrappers: dict[int, object] = {}
        for name, (module, attr) in PSDO_TARGETS.items():
            fn = getattr(sys.modules[module], attr)
            self._originals[id(fn)] = fn
            wrappers[id(fn)] = self._wrap_psdo(name, fn)
        for suite, fn in verify.SUITES.items():
            name = f"verify.{suite}"
            self._originals[id(fn)] = fn
            wrappers[id(fn)] = self._wrap_psdo(name, fn)
        for attr, wrap in (("norm", self._wrap_norm), ("svd", self._wrap_svd)):
            fn = getattr(numpy.linalg, attr)
            self._originals[id(fn)] = fn
            wrappers[id(fn)] = wrap(fn)
            self._set(numpy.linalg, attr, wrappers[id(fn)])
        for container, key, value, _ in list(self._bindings()):
            if id(value) in wrappers:
                self._set(container, key, wrappers[id(value)])

    @staticmethod
    def _assign(container, key, value) -> None:
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)

    def _set(self, container, key, value) -> None:
        old = container[key] if isinstance(container, dict) else getattr(container, key)
        self._patched.append((container, key, old))
        self._assign(container, key, value)

    def uninstall(self) -> None:
        """Put every original back."""
        for container, key, old in reversed(self._patched):
            self._assign(container, key, old)
        self._patched.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Bindings that still hold an original after install(): each one
        is a call path the trace would miss. Empty when patching is whole."""
        missed = [label for _, _, value, label in self._bindings()
                  if id(value) in self._originals]
        missed += [f"numpy.linalg.{a}" for a in ("norm", "svd")
                   if id(getattr(numpy.linalg, a)) in self._originals]
        return missed
