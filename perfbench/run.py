"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload small-serial --seed 1 --seconds 10 --trace 0

From the repository root.  The last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give every metric with its unit and, for times, the raw value
beside the probe-scaled one.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones from a traced run.  Exits
non-zero when a result is not bit-exact or a step fails.

Each run works in a private directory under ``.perfbench_runs/``: its
inputs and goldens, its ``TMPDIR`` (so the compiled-library cache is
the run's own) and its ``REPRO_AUTOTUNE_DIR``.  Steps, each in a fresh
process:

1. warm-up: compiles the native libraries cold (``native.compile_s``);
2. set-up, five times (``--trace 0``): import to first bit-exact result;
3. the workload: a fixed number of chunks of fixed work, each chunk
   between two host-speed probes (see ``probe.py``);
4. the memory-copy roof (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

#: Timed chunks per requested second (a chunk is ~0.3 s of work here).
CHUNKS_PER_SECOND = 3
SETUPS = 5
#: Wall-clock budget of one run; each child gets what is left of it.
BUDGET_S = 170.0

END_TO_END = [
    ("setup_s", "s"),
    ("throughput_jobs_s", "1/s"),
    ("gcell_s", "GCell/s"),
    ("latency_p50_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
]

_LAYER_SELF = [(f"{layer}.self_us", "us") for layer in LAYERS]

PER_LAYER = _LAYER_SELF + [
    ("service.submit_us", "us"),
    ("service.run_pending_us", "us"),
    ("service.latency_p99_ms", "ms"),
    ("service.latency_n", "count"),
    ("service.handoff_us", "us"),
    ("service.rss_growth_mb", "MB"),
    ("service.degraded_share", "ratio"),
    ("service.batch_size_mean", "count"),
    ("service.coalesced_share", "ratio"),
    ("scheduler.execute_job_us", "us"),
    ("scheduler.execute_batch_us", "us"),
    ("scheduler.execute_sharded_us", "us"),
    ("scheduler.dispatches_per_job", "count"),
    ("artifacts.get_us", "us"),
    ("artifacts.hit_rate", "ratio"),
    ("model.predict_calls_per_job", "count"),
    ("model.predict_us", "us"),
    ("host.enqueue_kernel_us", "us"),
    ("host.transfer_us", "us"),
    ("host.program_execute_us", "us"),
    ("host.events_per_job", "count"),
    ("accelerator.run_us", "us"),
    ("accelerator.run_batch_us", "us"),
    ("accelerator.kernel_share", "ratio"),
    ("accelerator.passes_per_job", "count"),
    ("accelerator.redundancy_ratio", "ratio"),
    ("plan.get_pass_plan_us", "us"),
    ("plan.tables_us", "us"),
    ("batch.pack_us", "us"),
    ("batch.unpack_us", "us"),
    ("native.run_pass_us", "us"),
    ("native.computed_gb_s", "GB/s"),
    ("native.copy_gb_s", "GB/s"),
    ("native.compile_s", "s"),
    ("sharded.run_us", "us"),
    ("sharded.exchange_bytes_per_job", "bytes"),
    ("bench.calib_ms", "ms"),
    ("bench.calib_busy_ratio", "ratio"),
    ("bench.tracing_overhead", "ratio"),
    ("bench.layer_sum_share", "ratio"),
    ("bench.traced_request_us", "us"),
]


class BenchError(Exception):
    pass


def _child(args: list[str], env: dict, deadline: float) -> dict:
    """Run ``child.py`` in a fresh interpreter; return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time budget spent before {args[0]}")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{args[0]} timed out after {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(
            f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _end_to_end(measured: dict, setups: list[dict]) -> tuple[dict, dict]:
    """Scaled end-to-end metrics and their raw counterparts."""
    chunks = [c for c in measured["chunks"] if not c["traced"]]
    scaled_s = sum(c["raw_s"] * c["scale"] for c in chunks)
    raw_s = sum(c["raw_s"] for c in chunks)
    good = sum(c["good"] for c in chunks)
    cells = sum(c["good_cells"] for c in chunks)
    lat = [x * c["scale"] for c in chunks for x in c["latencies"]]
    lat_raw = [x for c in chunks for x in c["latencies"]]
    scaled = {
        "setup_s": statistics.median(s["raw_s"] * s["scale"] for s in setups),
        "throughput_jobs_s": good / scaled_s,
        "gcell_s": cells / scaled_s / 1e9,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "success_rate": good / sum(c["attempted"] for c in chunks),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    raw = {
        "setup_s": statistics.median(s["raw_s"] for s in setups),
        "throughput_jobs_s": good / raw_s,
        "gcell_s": cells / raw_s / 1e9,
        "latency_p50_ms": statistics.median(lat_raw) * 1e3,
    }
    return scaled, raw


def _per_layer(measured: dict, warm: dict, copy: dict) -> dict:
    """Per-layer metrics from the traced chunks (times probe-scaled)."""
    chunks = measured["chunks"]
    traced = [c for c in chunks if c["traced"]]
    plain = [c for c in chunks if not c["traced"]]
    n_req = sum(c["attempted"] for c in traced)
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    raw_incl: dict[str, float] = {}
    counts: dict[str, int] = {}
    for c in traced:
        for name, (k, inclusive, own) in c["spans"].items():
            calls[name] = calls.get(name, 0) + k
            incl[name] = incl.get(name, 0.0) + inclusive * c["scale"]
            raw_incl[name] = raw_incl.get(name, 0.0) + inclusive
            self_s[name] = self_s.get(name, 0.0) + own * c["scale"]
        for key, value in c["counts"].items():
            counts[key] = counts.get(key, 0) + value

    def per_call_us(name: str) -> float:
        k = calls.get(name, 0)
        return incl.get(name, 0.0) / k * 1e6 if k else 0.0

    def per_req_us(seconds: float) -> float:
        return seconds / n_req * 1e6

    def layer_self(layer: str) -> float:
        return sum(v for n, v in self_s.items() if n.split(".")[0] == layer)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def throughput(cs: list[dict]) -> float:
        return sum(c["good"] for c in cs) / sum(c["raw_s"] * c["scale"] for c in cs)

    all_req = sum(c["attempted"] for c in chunks)
    request_ms = [
        x * c["scale"] * 1e3 for c in plain for x in c.get("request_s", [])
    ]
    units_s = sum(c["units_raw_s"] for c in traced)
    kernel_raw = raw_incl.get("native.run_pass", 0.0) + raw_incl.get(
        "native.stage", 0.0
    )
    batched = sum(c.get("batched", 0) for c in chunks)
    has_service = "request_s" in chunks[0]
    dispatch_calls = calls.get("scheduler.execute_job", 0) + calls.get(
        "scheduler.execute_batch", 0
    )
    hits = sum(c["artifact_hits"] for c in chunks)
    misses = sum(c["artifact_misses"] for c in chunks)

    out = {
        name: per_req_us(layer_self(name.split(".")[0]))
        for name, _ in _LAYER_SELF
    }
    out.update({
        "service.submit_us": per_call_us("service.submit"),
        "service.run_pending_us": per_call_us("service.run_pending"),
        "service.latency_p99_ms": (
            statistics.quantiles(request_ms, n=100)[98]
            if len(request_ms) > 1 else 0.0
        ),
        "service.latency_n": len(request_ms),
        "service.handoff_us": measured.get("handoff_us", 0.0),
        "service.rss_growth_mb": measured["rss_growth_mb"],
        "service.degraded_share": ratio(sum(c.get("degraded", 0) for c in chunks), all_req),
        "service.batch_size_mean": ratio(
            sum(c.get("batch_size_sum", 0) for c in chunks) + all_req - batched,
            all_req,
        ) if has_service else 0.0,
        "service.coalesced_share": ratio(batched, all_req),
        "scheduler.execute_job_us": per_call_us("scheduler.execute_job"),
        "scheduler.execute_batch_us": per_call_us("scheduler.execute_batch"),
        "scheduler.execute_sharded_us": per_call_us("scheduler.execute_sharded"),
        "scheduler.dispatches_per_job": ratio(counts.get("dispatches", 0), dispatch_calls),
        "artifacts.get_us": per_call_us("artifacts.get"),
        "artifacts.hit_rate": ratio(hits, hits + misses),
        "model.predict_calls_per_job": ratio(calls.get("model.predict", 0), n_req),
        "model.predict_us": per_call_us("model.predict"),
        "host.enqueue_kernel_us": per_call_us("host.enqueue_kernel"),
        "host.transfer_us": per_req_us(incl.get("host.transfer", 0.0)),
        "host.program_execute_us": per_call_us("host.program_execute"),
        "host.events_per_job": ratio(sum(c["events"] for c in chunks), all_req),
        "accelerator.run_us": per_call_us("accelerator.run"),
        "accelerator.run_batch_us": per_call_us("accelerator.run_batch"),
        "accelerator.kernel_share": ratio(kernel_raw, units_s),
        "accelerator.passes_per_job": ratio(counts.get("passes", 0), n_req),
        "accelerator.redundancy_ratio": ratio(
            counts.get("cells_processed", 0), counts.get("cells_written", 0)
        ),
        "plan.get_pass_plan_us": per_call_us("plan.get_pass_plan"),
        "plan.tables_us": per_call_us("plan.tables"),
        "batch.pack_us": per_call_us("batch.pack"),
        "batch.unpack_us": per_call_us("batch.unpack"),
        "native.run_pass_us": per_call_us("native.run_pass"),
        "native.computed_gb_s": ratio(counts.get("computed_bytes", 0), kernel_raw) / 1e9,
        "native.copy_gb_s": copy["copy_gb_s"],
        "native.compile_s": warm["compile_s"],
        "sharded.run_us": per_call_us("sharded.run"),
        "sharded.exchange_bytes_per_job": ratio(counts.get("exchange_bytes", 0), n_req),
        "bench.calib_ms": measured["calib_ms"],
        "bench.calib_busy_ratio": measured["busy_ratio"],
        "bench.tracing_overhead": throughput(traced) / throughput(plain),
        "bench.layer_sum_share": ratio(sum(c["root_s"] for c in traced), units_s),
        "bench.traced_request_us": per_req_us(
            sum(c["units_raw_s"] * c["scale"] for c in traced)
        ),
    })
    return out


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> int:
    deadline = time.monotonic() + BUDGET_S
    sys.path.insert(0, str(SRC))
    import numpy as np

    import selfcheck
    from workloads import WORKLOADS

    selfcheck.run_all(ROOT / "BENCHMARK.json", WORKLOADS, END_TO_END, PER_LAYER)
    workload = WORKLOADS[workload_name]

    run_dir = RUNS / f"{workload_name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    (run_dir / "autotune").mkdir()
    try:
        inputs = workload.inputs(seed)
        np.savez(run_dir / "inputs.npz", **inputs, **workload.goldens(inputs))
        del inputs
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        env["TMPDIR"] = str(run_dir / "tmp")
        env["REPRO_AUTOTUNE_DIR"] = str(run_dir / "autotune")
        env["PYTHONHASHSEED"] = "0"
        rd = str(run_dir)

        warm = _child(["warmup", workload_name, rd], env, deadline)
        setups = []
        if not trace:
            setups = [
                _child(["setup", workload_name, rd], env, deadline)
                for _ in range(SETUPS)
            ]
        n_chunks = max(2, round(seconds * CHUNKS_PER_SECOND))
        n_chunks += n_chunks % 2 if trace else 0
        measured = _child(
            ["measure", workload_name, rd, str(n_chunks), "1" if trace else "0"],
            env,
            deadline,
        )
        copy = _child(["copy"], env, deadline) if trace else {"ok": True}
        spans = run_dir / "spans.json"
        if spans.exists():
            spans.replace(RUNS / f"spans-{workload_name}.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(c["attempted"] for c in measured["chunks"])
    failed = attempted - sum(c["good"] for c in measured["chunks"])
    correct = (
        failed == 0
        and warm["ok"]
        and measured["ok"]
        and copy["ok"]
        and all(s["ok"] for s in setups)
    )

    notes = {}
    if trace:
        values = _per_layer(measured, warm, copy)
        units = dict(PER_LAYER)
        notes["native.copy_gb_s"] = (
            f"arrays {copy['array_mb']:.0f} MiB each, LLC {copy['llc_mb']:.0f} MiB"
        )
    else:
        values, raw = _end_to_end(measured, setups)
        units = dict(END_TO_END)
        notes = {name: f"raw {value:.6g}" for name, value in raw.items()}
    print(f"# {workload_name} seed={seed} trace={int(trace)} "
          f"chunks={len(measured['chunks'])} attempted={attempted} failed={failed}")
    for name, value in values.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:34s} {value:14.6g} {units[name]}{extra}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    from selfcheck import SelfCheckError
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, SelfCheckError) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
