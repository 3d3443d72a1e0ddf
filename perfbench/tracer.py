"""In-memory span tracer for the traced pass of the benchmark.

Spans are recorded only from the benchmark's own files: around the library
calls the workloads make, and around the public names one library module
calls in another (patched on the calling module for the duration of the
traced pass). Nothing under src/ is edited. Each span keeps its name, start,
end, parent span and operation id; counters are kept per operation so a
fixed window of operations gives counts that repeat exactly for a seed.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self._stack: list[int] = []
        self.op_id = -1
        self.op_counts: dict[int, Counter] = {}
        self._tallies: dict[str, list[int]] = {}

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.op_counts.setdefault(self.op_id, Counter())[key] += n

    def tally(self, key: str) -> list[int]:
        """A one-element counter cell for hot call sites, cheaper than count().

        Cells are credited to the operation that is running when it ends;
        increments made outside an operation are dropped.
        """
        return self._tallies.setdefault(key, [0])

    @contextmanager
    def operation(self, op_id: int):
        """Root span shared by every span of one operation."""
        for cell in self._tallies.values():
            cell[0] = 0
        self.op_id = op_id
        idx = self.begin("op")
        try:
            yield
        finally:
            self.finish(idx)
            for key, cell in self._tallies.items():
                if cell[0]:
                    self.count(key, cell[0])
                    cell[0] = 0
            self.op_id = -1

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def durations_ns(self) -> list[int]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_ns(self) -> list[int]:
        """Span duration minus the time its child spans cover.

        Spans of one thread nest, so children of a span never overlap and
        their durations add up to the covered time.
        """
        dur = self.durations_ns()
        covered = [0] * len(dur)
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += dur[idx]
        return [d - c for d, c in zip(dur, covered)]

    def counts(self, ops) -> Counter:
        total = Counter()
        for op_id in ops:
            total.update(self.op_counts.get(op_id, {}))
        return total

    def dump(self, path) -> None:
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        data = {
            "names": names,
            "columns": ["name", "start_ns", "end_ns", "parent", "op"],
            "name": [index[n] for n in self.names],
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
            "op": self.op,
            "op_counts": {str(k): dict(v) for k, v in self.op_counts.items()},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, separators=(",", ":"))


def _size(size) -> int:
    if size is None:
        return 1
    if isinstance(size, tuple):
        return math.prod(size)
    return int(size)


class _CountingGenerator:
    """Forwards to a numpy Generator, counting and timing its normal draws."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer) -> None:
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, size=None, *args, **kwargs):
        tracer = self._tracer
        idx = tracer.begin("simulate.draw")
        try:
            out = self._gen.standard_normal(size, *args, **kwargs)
        finally:
            tracer.finish(idx)
        tracer.count("simulate.normals_drawn", _size(size))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _record_episode(tracer: Tracer):
    def on_result(summary, args, kwargs):
        tracer.count("simulate.episodes")
        for exp, n in summary.counts.items():
            tracer.count(f"simulate.steps.{exp}", n)
        tracer.count(f"simulate.stop.{summary.stop_reason or 'horizon'}")

    return on_result


def _record_renewal(tracer: Tracer):
    def on_result(result, args, kwargs):
        tracer.count("metrics.por_renewal_calls")
        tracer.count("metrics.renewal_cycles", args[2] if len(args) > 2 else kwargs["cycles"])

    return on_result


def _record_calibration(tracer: Tracer):
    def on_result(result, args, kwargs):
        tracer.count("calibrate.evaluations", result.evaluations)

    return on_result


def _generator_factory(tracer: Tracer, name: str, fn):
    def build(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            gen = fn(*args, **kwargs)
        finally:
            tracer.finish(idx)
        tracer.count("simulate.generators_built")
        return _CountingGenerator(gen, tracer)

    return build


def _counted(tracer: Tracer, key: str, fn):
    cell = tracer.tally(key)

    def counted(*args, **kwargs):
        cell[0] += 1
        return fn(*args, **kwargs)

    return counted


@contextmanager
def installed(tracer: Tracer):
    """Patch the cross-module public names for the duration of a traced pass.

    Each name is replaced on the module that calls it, so the library's own
    calls go through the wrapper: metrics calls simulate.episode_summary and
    engine.resolve_truncation, simulate builds its generators, and calibrate
    calls metrics.estimate_por_renewal.
    """
    # the package exports a function named calibrate, so fetch the modules
    calibrate, metrics, simulate = (importlib.import_module(f"mecusum.{name}")
                                    for name in ("calibrate", "metrics", "simulate"))

    patches = [
        (metrics, "episode_summary",
         tracer.wrap("simulate.episode_summary", metrics.episode_summary,
                     _record_episode(tracer))),
        (simulate, "observation_generator",
         _generator_factory(tracer, "simulate.observation_generator",
                            simulate.observation_generator)),
        (simulate, "control_generator",
         _generator_factory(tracer, "simulate.control_generator",
                            simulate.control_generator)),
        (calibrate, "estimate_por_renewal",
         tracer.wrap("metrics.estimate_por_renewal", calibrate.estimate_por_renewal,
                     _record_renewal(tracer))),
        # one call per sub-level entry of every renewal cycle: a count, not
        # a span, to keep the tracing cost of calibrate small
        (metrics, "resolve_truncation",
         _counted(tracer, "engine.resolve_truncation_calls", metrics.resolve_truncation)),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, replacement in patches:
            setattr(module, name, replacement)
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def library_api(tracer: Tracer) -> SimpleNamespace:
    """Traced versions of the public entry points the workloads call."""
    import mecusum

    names = {
        "estimate_arlfa": "metrics.estimate_arlfa",
        "estimate_wadd": "metrics.estimate_wadd",
        "calibrate": "calibrate.calibrate",
        "init": "engine.init",
        "step": "engine.step",
    }
    api = SimpleNamespace()
    for attr, span in names.items():
        on_result = _record_calibration(tracer) if attr == "calibrate" else None
        setattr(api, attr, tracer.wrap(span, getattr(mecusum, attr), on_result))
    return api
