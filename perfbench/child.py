"""One benchmark process: cold warm-up, one set-up, one workload run, or
the memory-copy roof.  ``run.py`` starts each in a fresh interpreter:

    python3 perfbench/child.py <mode> <workload> <run_dir> [n_chunks trace]

and reads one JSON object from its last line of output.  Inputs and
goldens come from ``<run_dir>/inputs.npz``, written before any timing.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import probe
from workloads import WORKLOADS


def _load(run_dir: str) -> dict[str, np.ndarray]:
    with np.load(Path(run_dir) / "inputs.npz") as npz:
        return {key: npz[key] for key in npz.files}


def _repro_loaded() -> bool:
    return any(m == "repro" or m.startswith("repro.") for m in sys.modules)


def warmup(workload: str, run_dir: str) -> dict:
    """Cold process: fill the run-private library cache; time the compile."""
    w = WORKLOADS[workload]
    data = _load(run_dir)
    from repro.core import FPGAAccelerator

    spec, config = w.spec_config()
    before, _ = probe.measure()
    t0 = time.perf_counter()
    FPGAAccelerator(spec, config).close()
    compile_s = time.perf_counter() - t0
    after, _ = probe.measure()
    client = w.client(data)
    client.open()
    outcomes = client.unit(0)
    ok = all(client.exact(outcomes))
    client.close()
    return {
        "ok": ok,
        "compile_s": compile_s * probe.scale(before, after),
        "compile_raw_s": compile_s,
    }


def setup(workload: str, run_dir: str) -> dict:
    """Time from just before the first ``repro`` import to the first result."""
    w = WORKLOADS[workload]
    data = _load(run_dir)
    clean = not _repro_loaded()
    before, _ = probe.measure()
    t0 = time.perf_counter()
    client = w.client(data)
    client.open()
    outcomes = client.unit(0)
    raw = time.perf_counter() - t0
    ok = clean and all(client.exact(outcomes))
    after, _ = probe.measure()
    client.close()
    return {"ok": ok, "raw_s": raw, "scale": probe.scale(before, after)}


def copy_bandwidth() -> dict:
    """Memory-copy roof with arrays at least four times the last-level cache."""
    llc = _llc_bytes()
    n = max(4 * llc, 64 << 20) // 4
    src = np.ones(n, dtype=np.float32)
    dst = np.zeros_like(src)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return {
        "ok": bool(dst[-1] == 1.0),
        "copy_gb_s": 2 * src.nbytes / statistics.median(times) / 1e9,
        "array_mb": src.nbytes / 2**20,
        "llc_mb": llc / 2**20,
    }


def _llc_bytes() -> int:
    """Size of the largest CPU cache, from sysfs (32 MiB when unknown)."""
    best = 0
    for size in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = size.read_text().strip()
        mult = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
        digits = text.rstrip("KM")
        if digits.isdigit():
            best = max(best, int(digits) * mult)
    return best or 32 << 20


def _rss_mb() -> float:
    """Current resident set size, from /proc (0 where unavailable)."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * resource.getpagesize() / 2**20


def _events(client) -> int:
    scheduler = getattr(client, "scheduler", None) or client.service.scheduler
    return sum(len(w.queue.events) for w in scheduler.workers)


def _artifact_stats(client) -> tuple[int, int]:
    service = getattr(client, "service", None)
    if service is None:
        return 0, 0
    stats = service.artifacts.stats
    return stats["hits"], stats["misses"]


def measure(workload: str, run_dir: str, n_chunks: int, trace: bool) -> dict:
    """Run ``n_chunks`` timed chunks of fixed work, each between two probes.

    With ``trace``, odd chunks run with the span wrappers on and even
    chunks with them off; only the untraced chunks feed the end-to-end
    figures of this run.
    """
    w = WORKLOADS[workload]
    data = _load(run_dir)
    tracer = None
    if trace:
        from spans import Tracer, summarize

        tracer = Tracer()
        tracer.install()
    client = w.client(data)
    client.open()
    warm_ok = True
    for unit in range(w.units_per_chunk):  # untimed: caches fill, lazy set-up ends
        warm_ok = all(client.exact(client.unit(unit))) and warm_ok
    unit = w.units_per_chunk
    rss_start = _rss_mb()

    chunks = []
    prev_ms, busy = probe.measure()
    calib, busy_ratios = [prev_ms], [busy]
    for c in range(n_chunks):
        traced = tracer is not None and c % 2 == 1
        events0 = _events(client)
        hits0, misses0 = _artifact_stats(client)
        latencies, outcomes = [], []
        if traced:
            tracer.on = True
        t_chunk = time.perf_counter()
        for _ in range(w.units_per_chunk):
            t0 = time.perf_counter()
            outs = client.unit(unit)
            latencies.append(time.perf_counter() - t0)
            outcomes.extend(outs)
            unit += 1
        raw = time.perf_counter() - t_chunk
        if traced:
            tracer.on = False
        good = client.exact(outcomes)
        record = {
            "traced": traced,
            "raw_s": raw,
            "units_raw_s": sum(latencies),
            "latencies": latencies,
            "attempted": len(outcomes),
            "good": sum(good),
            "good_cells": sum(
                w.cells(key, data) for (_, key), g in zip(outcomes, good) if g
            ),
            "events": _events(client) - events0,
        }
        record.update(w.request_stats([r for r, _ in outcomes]))
        hits1, misses1 = _artifact_stats(client)
        record["artifact_hits"] = hits1 - hits0
        record["artifact_misses"] = misses1 - misses0
        if traced:
            spans = tracer.take()
            record["spans"], record["root_s"] = summarize(spans)
            record["counts"], tracer.counts = tracer.counts, {}
        del outcomes
        next_ms, busy = probe.measure()
        record["scale"] = probe.scale(prev_ms, next_ms)
        calib.append(next_ms)
        busy_ratios.append(busy)
        prev_ms = next_ms
        chunks.append(record)

    result = {
        "ok": warm_ok,
        "chunks": chunks,
        "calib_ms": statistics.median(calib),
        "busy_ratio": statistics.median(busy_ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rss_growth_mb": _rss_mb() - rss_start,
    }
    if tracer is not None:
        _write_spans(run_dir, spans)
    if trace and workload == "small-serial":
        result["handoff_us"] = _handoff_us(client)
    client.close()
    return result


def _write_spans(run_dir: str, spans: list) -> None:
    """Keep the last traced chunk's spans for inspection."""
    with open(Path(run_dir) / "spans.json", "w") as fh:
        json.dump(
            [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in spans],
            fh,
        )


def _handoff_us(client, n: int = 300, rounds: int = 2) -> float:
    """Threaded submit -> result minus synchronous submit + run_pending.

    The same small request through a service with its dispatch thread
    running and through the synchronous one; the difference per request
    is the cost of handing work to the dispatch thread and back.
    """
    from repro.runtime.service import StencilService

    threaded = StencilService(2)
    sync = client.service
    spec, config = client.spec, client.config
    grid = client.data["small"][0]
    iters = 4

    def threaded_one():
        threaded.submit("gold", spec, config, grid, iters).result()

    def sync_one():
        ticket = sync.submit("gold", spec, config, grid, iters)
        sync.run_pending()
        ticket.result()

    threaded_one()
    totals = {threaded_one: 0.0, sync_one: 0.0}
    for _ in range(rounds):
        for fn in (threaded_one, sync_one):
            before, _ = probe.measure()
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            raw = time.perf_counter() - t0
            after, _ = probe.measure()
            totals[fn] += raw * probe.scale(before, after)
    threaded.close()
    return (totals[threaded_one] - totals[sync_one]) / (n * rounds) * 1e6


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "copy":
        out = copy_bandwidth()
    elif mode == "warmup":
        out = warmup(argv[1], argv[2])
    elif mode == "setup":
        out = setup(argv[1], argv[2])
    elif mode == "measure":
        out = measure(argv[1], argv[2], int(argv[3]), argv[4] == "1")
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
