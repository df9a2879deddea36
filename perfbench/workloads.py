"""The four benchmark workloads: seeded inputs and one closed-loop client each.

Every workload is one client in one process, with no threads of its
own: it sends its next unit of work only after the previous one
returned.  The service runs with ``start=False`` and is drained with
``run_pending()``, so no dispatch thread or lock handoff enters the
timed numbers (the threaded path is traced separately as
``service.handoff_us``).

Every request carries an explicit ``BlockingConfig``: the autotuner
picks its winner by timing, which would change the work between runs.

This module imports the program (``repro``) only inside
:meth:`Client.open`, so the set-up timer can start before the first
``repro`` import.
"""

from __future__ import annotations

import numpy as np

# -- the work, pinned ------------------------------------------------------- #

SMALL_SHAPE = (16, 64)
WIDE_SHAPE = (24, 96)
SMALL_ITERS = 4
LARGE_SHAPE = (64, 128, 256)
LARGE_ITERS = 8
BURST = 64
SMALL_POOL = 16
LARGE_POOL = 2
TENANT_WEIGHTS = {"gold": 3, "bronze": 1}


def _small_spec_config():
    from repro.core import BlockingConfig, StencilSpec

    return (
        StencilSpec.star(2, 1),
        BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2),
    )


def _large_spec_config():
    from repro.core import BlockingConfig, StencilSpec

    return (
        StencilSpec.star(3, 4),
        BlockingConfig(
            dims=3, radius=4, bsize_x=128, bsize_y=64, parvec=8, partime=2
        ),
    )


def _burst_slot(j: int) -> tuple[str, str]:
    """Tenant and shape of request ``j`` of a burst (fixed, not seeded)."""
    tenant = "bronze" if j % 4 == 0 else "gold"
    shape = "wide" if j % 4 == 3 else "small"
    return tenant, shape


def _grids(rng: np.random.Generator, n: int, shape) -> np.ndarray:
    return rng.random((n, *shape), dtype=np.float32)


class Workload:
    """One named workload: what it runs and why it is in the benchmark."""

    name = ""
    why = ""
    #: Client units per timed chunk, ~0.3 s of work: long next to the
    #: ~10 ms probes that scale it, short next to the host's drift.
    units_per_chunk = 1
    iterations = SMALL_ITERS

    def spec_config(self):
        return _small_spec_config()

    def cells(self, key: str, data: dict[str, np.ndarray]) -> int:
        """Useful cell updates of the request whose golden is ``key``."""
        group = key.removeprefix("gold_").split(".")[0]
        return data[group][0].size * self.iterations

    def request_stats(self, results: list) -> dict:
        """Service-layer counts of one chunk's requests."""
        return {
            "degraded": sum(r.degraded for r in results),
            "batched": sum(r.batched for r in results),
            "batch_size_sum": sum(r.batch_size for r in results),
            "request_s": [r.wall_elapsed_s for r in results],
        }

    def inputs(self, seed: int) -> dict[str, np.ndarray]:
        """The grids, generated from ``seed`` alone."""
        raise NotImplementedError

    def goldens(self, inputs: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Reference outputs, computed before any timing."""
        raise NotImplementedError

    def client(self, data: dict[str, np.ndarray]) -> "Client":
        raise NotImplementedError


class Client:
    """A closed-loop client.  ``unit(i)`` sends unit ``i`` and returns one
    ``(result, golden_key)`` per request -- a ``ServiceResult`` or a
    ``ShardedJobResult``.  Results are compared by the caller, outside
    the timed intervals."""

    def __init__(self, data: dict[str, np.ndarray]):
        self.data = data

    def open(self) -> None:
        raise NotImplementedError

    def unit(self, i: int) -> list:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def exact(self, outcomes: list) -> list[bool]:
        """Per outcome: completed and bit-exact to its golden."""
        return [
            result.status == "completed"
            and np.array_equal(result.result, self.data[key])
            for result, key in outcomes
        ]


class _ServiceClient(Client):
    def open(self) -> None:
        from repro.runtime.service import StencilService, TenantQuota

        self.service = StencilService(
            2,
            start=False,
            quotas={t: TenantQuota(weight=w) for t, w in TENANT_WEIGHTS.items()},
        )

    def close(self) -> None:
        self.service.close()


class _SmallSerial(_ServiceClient):
    def open(self) -> None:
        super().open()
        self.spec, self.config = _small_spec_config()

    def unit(self, i: int):
        k = i % SMALL_POOL
        ticket = self.service.submit(
            "gold", self.spec, self.config, self.data["small"][k], SMALL_ITERS
        )
        self.service.run_pending()
        return [(ticket.result(), f"gold_small.{k}")]


class _BurstMixed(_ServiceClient):
    def open(self) -> None:
        super().open()
        self.spec, self.config = _small_spec_config()

    def unit(self, i: int):
        requests, keys = [], []
        for j in range(BURST):
            tenant, shape = _burst_slot(j)
            k = (i * BURST + j) % SMALL_POOL
            grid = self.data[shape][k]
            requests.append(
                dict(
                    tenant=tenant,
                    spec=self.spec,
                    config=self.config,
                    grid=grid,
                    iterations=SMALL_ITERS,
                )
            )
            keys.append(f"gold_{shape}.{k}")
        tickets = self.service.submit_batch(requests)
        self.service.run_pending()
        return [(t.result(), k) for t, k in zip(tickets, keys)]


class _LargeSolve(_ServiceClient):
    def open(self) -> None:
        super().open()
        self.spec, self.config = _large_spec_config()

    def unit(self, i: int):
        k = i % LARGE_POOL
        ticket = self.service.submit(
            "gold", self.spec, self.config, self.data["large"][k], LARGE_ITERS
        )
        self.service.run_pending()
        return [(ticket.result(), f"gold_large.{k}")]


class _ShardedSolve(Client):
    def open(self) -> None:
        from repro.runtime.scheduler import ShardedJob, StencilScheduler

        self.spec, self.config = _large_spec_config()
        self.scheduler = StencilScheduler(2)
        self._job = ShardedJob

    def unit(self, i: int):
        k = i % LARGE_POOL
        result = self.scheduler.execute_sharded(
            self._job(
                f"sharded/{i}",
                self.spec,
                self.config,
                self.data["large"][k],
                LARGE_ITERS,
                shards=2,
            )
        )
        return [(result, f"gold_large.{k}")]

    def close(self) -> None:
        self.scheduler.close()


def _golden_runs(data, spec_config, iterations, groups):
    from repro.core import reference_run

    spec, _ = spec_config()
    return {
        f"gold_{group}.{k}": reference_run(grid, spec, iterations)
        for group in groups
        for k, grid in enumerate(data[group])
    }


class SmallSerial(Workload):
    name = "small-serial"
    why = (
        "one small 2D request at a time: the kernel is a small share, so "
        "service, scheduler, model and host overhead decide the result"
    )
    units_per_chunk = 1500

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        return {"small": _grids(rng, SMALL_POOL, SMALL_SHAPE)}

    def goldens(self, inputs):
        return _golden_runs(inputs, _small_spec_config, SMALL_ITERS, ["small"])

    def client(self, data):
        return _SmallSerial(data)


class BurstMixed(Workload):
    name = "burst-mixed"
    why = (
        "64-request bursts from two weighted tenants in two shapes: the "
        "same layers through coalescing, run_batch and pressure degradation"
    )
    units_per_chunk = 32

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 2])
        return {
            "small": _grids(rng, SMALL_POOL, SMALL_SHAPE),
            "wide": _grids(rng, SMALL_POOL, WIDE_SHAPE),
        }

    def goldens(self, inputs):
        return _golden_runs(
            inputs, _small_spec_config, SMALL_ITERS, ["small", "wide"]
        )

    def client(self, data):
        return _BurstMixed(data)


class LargeSolve(Workload):
    name = "large-solve"
    why = (
        "one 3D radius-4 grid of 2M cells per request: control-plane cost "
        "is under 1%, so kernel and pass-driver changes show here"
    )
    units_per_chunk = 4
    iterations = LARGE_ITERS

    def spec_config(self):
        return _large_spec_config()

    def inputs(self, seed):
        rng = np.random.default_rng([seed, 3])
        return {"large": _grids(rng, LARGE_POOL, LARGE_SHAPE)}

    def goldens(self, inputs):
        return _golden_runs(inputs, _large_spec_config, LARGE_ITERS, ["large"])

    def client(self, data):
        return _LargeSolve(data)


class ShardedSolve(LargeSolve):
    name = "sharded-solve"
    why = (
        "the large-solve grid split over 2 devices: the only path through "
        "sharded execution and halo exchange"
    )

    def client(self, data):
        return _ShardedSolve(data)

    def request_stats(self, results):
        return {}


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SmallSerial(), BurstMixed(), LargeSolve(), ShardedSolve())
}
