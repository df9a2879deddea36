"""Spans around the program's public calls, recorded from outside.

The program has no tracing of its own, so the benchmark wraps the
public methods at each layer boundary (service, scheduler, artifact
cache, performance model, host queue, accelerator, pass plan, batch
plan, native driver, sharded runner).  Each call made while tracing is
on becomes a span ``(name, start, end, parent)``; a layer's self time
is its spans' time minus the time of the spans they caused.  Counts are
read from the wrapped calls' return values, at the same boundaries.

An installed wrapper costs an extra call even while tracing is off, so
end-to-end metrics come only from runs that never install the wrappers.
The traced run alternates chunks with tracing on and off, and reports
their throughput ratio as ``bench.tracing_overhead``.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

#: (module, class or None, attribute, span name).  A module-level
#: function is patched in every module that imported it by name.
TARGETS = (
    ("repro.runtime.service", "StencilService", "submit", "service.submit"),
    ("repro.runtime.service", "StencilService", "submit_batch", "service.submit_batch"),
    ("repro.runtime.service", "StencilService", "run_pending", "service.run_pending"),
    ("repro.runtime.scheduler", "StencilScheduler", "execute_job", "scheduler.execute_job"),
    ("repro.runtime.scheduler", "StencilScheduler", "execute_batch", "scheduler.execute_batch"),
    ("repro.runtime.scheduler", "StencilScheduler", "execute_sharded", "scheduler.execute_sharded"),
    ("repro.runtime.artifacts", "ArtifactCache", "get", "artifacts.get"),
    ("repro.models.performance", "PerformanceModel", "predict_measured", "model.predict"),
    ("repro.models.performance", "PerformanceModel", "predict_batch", "model.predict"),
    ("repro.models.performance", "PerformanceModel", "predict_sharded", "model.predict"),
    ("repro.runtime.host", "CommandQueue", "enqueue_write_buffer", "host.transfer"),
    ("repro.runtime.host", "CommandQueue", "enqueue_read_buffer", "host.transfer"),
    ("repro.runtime.host", "CommandQueue", "enqueue_kernel", "host.enqueue_kernel"),
    ("repro.runtime.host", "CommandQueue", "enqueue_batch_kernel", "host.enqueue_kernel"),
    ("repro.runtime.host", "StencilProgram", "execute", "host.program_execute"),
    ("repro.runtime.host", "StencilProgram", "execute_batch", "host.program_execute"),
    ("repro.core.accelerator", "FPGAAccelerator", "run", "accelerator.run"),
    ("repro.core.accelerator", "FPGAAccelerator", "run_batch", "accelerator.run_batch"),
    ("repro.core.plan", None, "get_pass_plan", "plan.get_pass_plan"),
    ("repro.core.plan", "PassPlan", "to_driver_tables", "plan.tables"),
    ("repro.core.batch", "BatchPlan", "pack", "batch.pack"),
    ("repro.core.batch", "BatchPlan", "unpack", "batch.unpack"),
    ("repro.core.native", "NativeDriver", "run_pass", "native.run_pass"),
    ("repro.core.native", "NativeDriver", "run_batch_pass", "native.run_pass"),
    ("repro.core.native", "NativeStencil", "stage", "native.stage"),
    ("repro.runtime.sharded", "ShardedRunner", "run", "sharded.run"),
)

#: Modules that import ``get_pass_plan`` by name.
_FUNCTION_IMPORTERS = {
    "get_pass_plan": ("repro.core.accelerator", "repro.core.batch"),
}

LAYERS = (
    "service", "scheduler", "artifacts", "model", "host", "accelerator",
    "plan", "batch", "native", "sharded",
)


def _count_job(counts: dict, out) -> None:
    counts["dispatches"] = counts.get("dispatches", 0) + out.dispatches


def _count_run(counts: dict, out) -> None:
    _, stats = out
    _count_stats(counts, stats, 1)


def _count_run_batch(counts: dict, out) -> None:
    _count_stats(counts, out.stats, len(out.outputs))


def _count_stats(counts: dict, stats, grids: int) -> None:
    for key, value in (
        ("passes", stats.passes * grids),
        ("cells_processed", stats.cells_processed),
        ("cells_written", stats.cells_written),
        ("computed_bytes", stats.bytes_transferred),
    ):
        counts[key] = counts.get(key, 0) + value


def _count_sharded(counts: dict, out) -> None:
    counts["exchange_bytes"] = (
        counts.get("exchange_bytes", 0) + out.stats.exchange_bytes
    )


_COUNTERS = {
    "scheduler.execute_job": _count_job,
    "scheduler.execute_batch": _count_job,
    "accelerator.run": _count_run,
    "accelerator.run_batch": _count_run_batch,
    "sharded.run": _count_sharded,
}


class Tracer:
    """Records spans while :attr:`on`; single-threaded use only."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every target; call once per process."""
        for module_name, cls_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            wrapped = self._wrap(getattr(owner, attr), span)
            setattr(owner, attr, wrapped)
            if cls_name is None:
                for importer in _FUNCTION_IMPORTERS.get(attr, ()):
                    setattr(importlib.import_module(importer), attr, wrapped)

    def _wrap(self, fn, name: str):
        tracer = self
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(tracer.counts, out)
            return out

        return wrapper

    def take(self) -> list:
        """Return and forget the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list) -> tuple[dict[str, list], float]:
    """Per span name ``[calls, inclusive_s, self_s]``, and the root time.

    A span nested directly in one of the same name (a public method
    calling another public method of the same kind) adds its self time
    but not a second call or a second inclusive interval.  The sum of
    all self times equals the root time by construction.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    roots = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        d = end - start
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[2] += d - child[i]
        if parent < 0 or spans[parent][0] != name:
            entry[0] += 1
            entry[1] += d
        if parent < 0:
            roots += d
    return out, roots
