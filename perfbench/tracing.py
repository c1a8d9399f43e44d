"""Benchmark-side spans around the public calls of each ``repro`` layer.

The program is not edited: :func:`instrument` swaps each target for a
wrapper while a traced job runs and restores the originals afterwards.
A span records its name, start, end and parent; spans stay in memory
and are reduced to per-layer self times and counts when the job ends.

A layer's *self time* is the duration of its spans minus the part
covered by child spans, so nested calls (an LVF2 fit that warm-starts
from a Norm2 fit, a batch fit that falls back to lone fits) are never
counted twice and the layer times add up to at most the job's wall.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    work: float = 0.0


@dataclass
class SpanRecorder:
    """In-memory span store of one job (one recorder per job)."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time in seconds."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                child_time[record.parent] += record.end - record.start
        totals: dict[str, float] = {}
        for record, covered in zip(self.spans, child_time):
            own = (record.end - record.start) - covered
            totals[record.name] = totals.get(record.name, 0.0) + own
        return totals

    def durations(self, name: str) -> list[float]:
        """Inclusive durations of every span called ``name``."""
        return [r.end - r.start for r in self.spans if r.name == name]

    def count(self, name: str) -> int:
        return sum(1 for r in self.spans if r.name == name)

    def work(self, name: str) -> float:
        """Summed work units (rows, samples) recorded on ``name``."""
        return sum(r.work for r in self.spans if r.name == name)


class NullRecorder:
    """Untraced runs: spans cost one context-manager entry."""

    @contextmanager
    def span(self, name: str):
        yield None


def _rows(args, result) -> float:
    return float(len(args[1]))  # args[0] is the class


def _sim_samples(args, result) -> float:
    return float(result.delay.size)


def _estimate_samples(args, result) -> float:
    return float(result.n_samples)


#: (span name, module, attribute path, work counter).  These are the
#: public entry points of each layer the benchmark reports on.
TARGETS = (
    ("models.fit_batch", "repro.models.lvf2", "LVF2Model.fit_batch", _rows),
    ("models.fit_lvf2", "repro.models.lvf2", "LVF2Model.fit", None),
    ("models.fit_norm2", "repro.models.norm2", "Norm2Model.fit", None),
    ("models.fit_lesn", "repro.models.lesn", "LESNModel.fit", None),
    ("models.fit_lvf", "repro.models.lvf", "LVFModel.fit", None),
    (
        "circuits.simulate",
        "repro.circuits.gate",
        "GateTimingEngine.simulate_arc",
        _sim_samples,
    ),
    ("runtime.pool_run", "repro.runtime.pool.pool", "run_pool", None),
    ("liberty.write", "repro.liberty.library", "Library.to_text", None),
    ("liberty.parse", "repro.liberty.library", "read_library", None),
    ("liberty.validate", "repro.liberty.validate", "validate_library", None),
    ("ssta.sum", "repro.ssta.ops", "sum_models", None),
    ("binning.eval", "repro.binning.metrics", "evaluate_models", None),
    ("binning.eval", "repro.binning.metrics", "evaluate_distribution", None),
    ("binning.eval", "repro.binning.metrics", "binning_error", None),
    ("binning.eval", "repro.binning.metrics", "yield_error", None),
    ("binning.eval", "repro.binning.metrics", "sigma_yield", None),
    ("binning.eval", "repro.binning.metrics", "cdf_rmse", None),
    ("binning.eval", "repro.binning.bins", "sigma_binning", None),
    (
        "yield_est.estimate",
        "repro.yield_est.base",
        "estimate_yield",
        _estimate_samples,
    ),
)


def _spanned(func, name, recorder, work):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as record:
            result = func(*args, **kwargs)
            if work is not None and record is not None:
                record.work = work(args, result)
            return result

    return wrapper


class _SpannedClassMethod:
    """Classmethod stand-in that keeps ``__func__`` identity.

    ``ArcCharacterization.fit_grid`` recognises its default fitter by
    ``fitter.__func__ is LVF2Model.fit.__func__``; a plain
    ``classmethod(wrapper)`` would fail that test and silently move
    the traced job onto another code path.
    """

    def __init__(self, func, name, recorder, work):
        self._func = func
        self._call = _spanned(func, name, recorder, work)

    def __get__(self, obj, owner):
        return _BoundSpanned(self._func, self._call, owner)


class _BoundSpanned:
    __slots__ = ("__func__", "__self__", "_call")

    def __init__(self, func, call, owner):
        self.__func__ = func
        self.__self__ = owner
        self._call = call

    def __call__(self, *args, **kwargs):
        return self._call(self.__self__, *args, **kwargs)


def _patch(module_name, path, make, undo) -> None:
    """Replace ``module.path`` with ``make(original)``; log in ``undo``."""
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, attr = path.split(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[attr]
        undo.append((owner, attr, raw))
        setattr(owner, attr, make(raw))
        return
    original = getattr(module, path)
    patched = make(original)
    # ``from x import f`` copies the reference, so every module holding
    # the same function object gets the wrapper.
    for holder in list(sys.modules.values()):
        if not getattr(holder, "__name__", "").startswith(
            ("repro", "workloads")
        ):
            continue
        for attr, value in list(vars(holder).items()):
            if value is original:
                undo.append((holder, attr, original))
                setattr(holder, attr, patched)


@contextmanager
def _patched(patches):
    undo: list[tuple[object, str, object]] = []
    try:
        for module_name, path, make in patches:
            _patch(module_name, path, make, undo)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def instrument(recorder):
    """Wrap every target in ``recorder`` spans for the ``with`` body."""

    def maker(name, work):
        def make(raw):
            if isinstance(raw, classmethod):
                return _SpannedClassMethod(raw.__func__, name, recorder, work)
            return _spanned(raw, name, recorder, work)

        return make

    return _patched(
        (module_name, path, maker(name, work))
        for name, module_name, path, work in TARGETS
    )


def capture(module_name: str, name: str, sink: list):
    """Append the return value of every ``module.name`` call to
    ``sink`` for the ``with`` body."""

    def make(func):
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            sink.append(result)
            return result

        return wrapper

    return _patched([(module_name, name, make)])
