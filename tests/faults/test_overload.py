"""Overload chaos: offered load past saturation through the service.

The invariant under test (the serving-layer extension of the chaos
invariant): every submitted request terminates within the wall-clock
bound with either a bit-exact result or a typed error — no hangs, no
silent drops, no corruption — even when the offered load is several
times the saturation rate and random fault plans are armed.  CI runs a
small fixed-seed sweep; ``benchmarks/emit_serving.py`` runs the full
factor grid and gates p99 and coalescing on top.
"""

from __future__ import annotations

import pytest

from repro.analysis.resilience import (
    OVERLOAD_TYPED,
    run_overload_campaign,
)
from repro.experiments import EXPERIMENTS

FIXED_SEEDS = (2018, 385)


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_overload_invariant_holds_fixed_seeds(seed: int) -> None:
    campaign = run_overload_campaign(
        seed=seed,
        factors=(1.0, 4.0),
        jobs_per_factor=8,
        devices=2,
        max_queue_depth=4,
    )
    for cell in campaign["cells"]:
        assert cell.unterminated == 0, (
            f"request hung past the bound (seed {seed}, {cell.factor}x)"
        )
        assert cell.violations == 0, (
            f"silent corruption or untyped failure (seed {seed}, "
            f"{cell.factor}x)"
        )
        # conservation: every offered request is accounted for exactly once
        accounted = (
            cell.completed
            + cell.shed
            + cell.queue_timeouts
            + cell.deadline_misses
            + cell.other_typed
        )
        assert accounted == cell.offered


def test_overload_without_faults_is_clean_at_low_load() -> None:
    campaign = run_overload_campaign(
        seed=7,
        factors=(0.5,),
        jobs_per_factor=6,
        devices=2,
        max_queue_depth=8,
        with_faults=False,
    )
    (cell,) = campaign["cells"]
    assert cell.completed == cell.offered
    assert cell.violations == cell.unterminated == 0
    assert cell.coalesced >= cell.offered - 1  # one cold build at most


def test_backpressure_engages_past_saturation() -> None:
    campaign = run_overload_campaign(
        seed=11,
        factors=(4.0,),
        jobs_per_factor=16,
        devices=1,
        max_queue_depth=4,
        with_faults=False,
    )
    (cell,) = campaign["cells"]
    assert cell.violations == cell.unterminated == 0
    # the pacing really offered the overload it claims
    assert cell.offered_rate_jobs_s >= 2 * campaign["saturation_rate_jobs_s"]
    # 4x offered load against a depth-4 queue must visibly push back
    assert cell.shed + cell.queue_timeouts > 0


def test_overload_experiment_is_registered() -> None:
    assert "overload" in EXPERIMENTS
    assert "ShedError" in OVERLOAD_TYPED
    assert "QueueTimeoutError" in OVERLOAD_TYPED
