#!/usr/bin/env python
"""Emit ``BENCH_serving.json``: the overload sweep through the service.

Drives offered load at 0.5x / 1x / 2x / 4x the measured saturation rate
through :class:`~repro.runtime.StencilService` with randomized fault
plans armed, and records per-factor terminations, backpressure actions
(shed / queue-timeout), coalescing and latency percentiles.

``--gate`` turns the artifact into a CI gate:

* **bounded termination** — zero unterminated requests, zero silent
  corruptions, zero untyped failures at every factor;
* **p99 bounded at 2x saturation** — the p99 wall latency at twice the
  saturation rate must stay under a queue-depth-derived bound (overload
  makes latency plateau at the bounded queue, not grow without limit);
* **coalescing engaged** — at least one request rode a warm cached
  artifact (the sweep reuses one workload, so a cold cache every job
  would mean the single-flight LRU cache is broken).

Usage::

    PYTHONPATH=src python benchmarks/emit_serving.py                 # full
    PYTHONPATH=src python benchmarks/emit_serving.py --smoke --gate  # CI

The JSON lands in the repository root by default (``--out`` overrides).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

from repro.analysis.resilience import SEED, run_overload_campaign

#: p99 at 2x saturation must stay under this many ideal queue drains
#: (the queue is bounded at ``max_queue_depth``, so latency must
#: plateau around depth/rate; the factor absorbs retry backoff, fault
#: recovery and CI scheduler noise).  A floor keeps the bound
#: meaningful on very fast machines where a drain is microseconds.
P99_DRAIN_FACTOR = 20.0
P99_FLOOR_S = 0.5


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="fewer jobs per factor (CI smoke)")
    ap.add_argument("--gate", action="store_true",
                    help="fail on invariant/latency/coalescing regressions")
    ap.add_argument("--out", type=Path,
                    default=Path(__file__).resolve().parent.parent
                    / "BENCH_serving.json")
    args = ap.parse_args()

    jobs = 12 if args.smoke else 24
    campaign = run_overload_campaign(
        seed=SEED,
        factors=(0.5, 1.0, 2.0, 4.0),
        jobs_per_factor=jobs,
        devices=2,
        max_queue_depth=8,
    )
    cells = campaign["cells"]
    rate = campaign["saturation_rate_jobs_s"]
    depth = campaign["max_queue_depth"]
    p99_bound_s = max(P99_DRAIN_FACTOR * (depth + 2) / rate, P99_FLOOR_S)

    for c in cells:
        print(f"  {c.factor:>4g}x ({c.offered_rate_jobs_s:.1f}/s): "
              f"{c.completed:2d}/{c.offered} bit-exact, "
              f"{c.shed} shed, {c.queue_timeouts} q-timeout, "
              f"{c.deadline_misses} deadline, {c.degraded} degraded, "
              f"{c.coalesced} coalesced, {c.retries} retries, "
              f"{c.violations + c.unterminated} violations, "
              f"p99 {c.p99_ms:.1f} ms")

    violations = sum(c.violations + c.unterminated for c in cells)
    coalesced = sum(c.coalesced for c in cells)
    at_2x = next(c for c in cells if c.factor == 2.0)
    backpressure = sum(
        c.shed + c.queue_timeouts for c in cells if c.factor >= 2.0
    )

    payload = {
        "generated_by": "benchmarks/emit_serving.py",
        "smoke": args.smoke,
        **{k: v for k, v in campaign.items() if k != "cells"},
        "cells": [dataclasses.asdict(c) for c in cells],
        "p99_bound_s": p99_bound_s,
        "p99_at_2x_s": at_2x.p99_ms / 1e3,
        "violations": violations,
        "coalesced_total": coalesced,
        "backpressure_actions_past_saturation": backpressure,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    print(f"saturation {rate:.1f} jobs/s; p99@2x "
          f"{at_2x.p99_ms:.1f} ms (bound {p99_bound_s * 1e3:.1f} ms); "
          f"{coalesced} coalesced; {violations} violations")

    if args.gate:
        if violations:
            raise SystemExit(
                f"overload invariant violated: {violations} request(s) "
                "hung, failed untyped, or returned corrupt bits"
            )
        if at_2x.p99_ms / 1e3 > p99_bound_s:
            raise SystemExit(
                f"p99 at 2x saturation {at_2x.p99_ms:.1f} ms exceeds the "
                f"{p99_bound_s * 1e3:.1f} ms bound: latency is growing "
                "past the bounded queue instead of plateauing"
            )
        if coalesced == 0:
            raise SystemExit(
                "no request coalesced onto a warm artifact: the "
                "single-flight LRU cache is not engaging"
            )


if __name__ == "__main__":
    main()
