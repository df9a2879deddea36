"""Functional simulator of the paper's FPGA stencil accelerator.

The simulated design (paper Fig. 2) is::

    DDR --> [Read kernel] --> PE_0 --> PE_1 --> ... --> PE_{partime-1}
                                 --> [Write kernel] --> DDR

* The **read kernel** streams each overlapped spatial block (compute region
  plus ``partime * rad`` halo per blocked side, clamped at grid borders)
  from external memory, ``parvec`` cells per cycle.
* Each **PE** advances the stream by one time step, buffering ``2 * rad``
  rows (2D) or planes (3D) of the block in an on-chip shift register.
* The **write kernel** stores the compute region of the final PE's output.
* One *pass* through the chain advances the whole grid by ``partime``
  steps; ``ceil(iterations / partime)`` passes run back to back.

This simulator reproduces those semantics exactly — including the clamp
boundary condition and the paper's fixed floating-point accumulation order
— so its float32 output is bit-identical to :func:`repro.core.reference.
reference_run` (a tested invariant).  Alongside the numerics it counts the
architectural quantities (cells processed incl. redundant halo work, memory
words moved, vector operations, shift-register footprint) that feed the
performance model.

Execution is plan-driven: a :class:`repro.core.plan.PassPlan` (cached per
``(config, grid_shape, boundary)``) carries the per-block gather segments,
clamp-duplicate counts, per-stage shrink windows and write slices, so a
pass is pure execution — slice copies into a preallocated stream-padded
scratch buffer, in-place stencil accumulation, no per-stage ``np.pad`` and
no fancy-indexing gathers.  Blocks within a pass are independent, so the
optional ``workers=N`` mode fans them out over a thread pool with
deterministic (disjoint-slice) write-back.  While a fault plan is armed
the simulator instead runs the hardened per-block path, hopping each block
through real channels with per-stage checksums.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core import engines
from repro.core.batch import BatchPlan, BatchResult
from repro.core.blocking import BlockingConfig
from repro.core.channels import Channel
from repro.core.native import (
    NativeDriver,
    NativeStencil,
    native_kernel_for,
    native_vector_driver_for,
)
from repro.core.pe import (
    fill_stream_halo,
    pe_step,
    pe_step_padded,
    refresh_border_duplicates,
    stencil_terms,
)
from repro.core.plan import BlockPlan, PassPlan, get_pass_plan
from repro.core.shift_register import shift_register_words
from repro.core.stencil import StencilSpec
from repro.errors import ConfigurationError, FaultDetectedError, WatchdogTimeoutError
from repro.faults import hooks as fault_hooks
from repro.faults.checksum import crc32_array


@dataclass
class AcceleratorStats:
    """Architectural counters collected by :class:`FPGAAccelerator`.

    All counts are totals over the whole run unless suffixed ``_per_pass``.
    ``cells_processed`` uses the hardware's fixed block footprint (each
    block occupies ``bsize`` pipeline slots per blocked axis regardless of
    clamping), which is what the performance model needs.

    **Partial final pass.** When ``iterations % partime != 0`` the last
    pass advances only the remaining time steps, but the hardware still
    runs the *full* pipeline: all ``partime`` PEs are instantiated and the
    trailing ones forward data unchanged.  The counters follow the
    hardware: ``pe_invocations``, ``cells_processed``, ``words_read`` /
    ``words_written`` and ``vector_ops`` charge every pass at its full
    fixed footprint (``blocks x partime`` PE slots), while
    ``steps_executed`` counts the time steps actually advanced.
    """

    passes: int = 0
    steps_executed: int = 0
    blocks_per_pass: int = 0
    cells_written: int = 0
    cells_processed: int = 0
    words_read: int = 0
    words_written: int = 0
    vector_ops: int = 0
    shift_register_words_per_pe: int = 0
    pe_invocations: int = 0
    grid_shape: tuple[int, ...] = field(default_factory=tuple)
    #: CRC32 of the final output; only computed when a fault plan is armed
    #: or the caller supplied a golden CRC (the fault-free path stays
    #: untouched).
    output_crc32: int | None = None
    #: Pass-granular recovery accounting (``checkpoint=`` hook of
    #: :meth:`FPGAAccelerator.run`).  ``rollbacks`` counts restores from
    #: a checkpoint, ``replayed_passes`` the completed passes that were
    #: discarded and re-executed (the tail cost of each rollback), and
    #: ``checkpoints`` the periodic snapshots taken.  All three stay 0
    #: when ``checkpoint=None``; the ordinary counters above are restored
    #: on rollback, so a recovered run's totals equal a fault-free run's.
    rollbacks: int = 0
    replayed_passes: int = 0
    checkpoints: int = 0

    @property
    def redundancy_ratio(self) -> float:
        """Processed / written cells (>= 1; the overlapped-blocking cost)."""
        if self.cells_written == 0:
            return 1.0
        return self.cells_processed / self.cells_written

    @property
    def bytes_transferred(self) -> int:
        """External-memory traffic in bytes (float32 words)."""
        return 4 * (self.words_read + self.words_written)


def _aligned_f32(n: int, align: int = 64) -> np.ndarray:
    """A float32 buffer of ``n`` elements whose base is ``align``-byte
    aligned (NumPy only guarantees 16).  The view keeps the oversized
    backing array alive; the vectorized driver's per-worker ping/pong
    scratch bases then stay on cache-line boundaries because
    ``scratch_floats`` is rounded to a 64-byte multiple at table-build
    time."""
    pad = align // 4
    raw = np.empty(n + pad, dtype=np.float32)
    off = (-raw.ctypes.data) % align // 4
    return raw[off : off + n]


class _Scratch:
    """Per-worker pool of preallocated, shape-exact scratch buffers.

    Keyed by ``(role, shape)`` so every buffer handed to the hot loop is
    C-contiguous (a strided view into one max-sized buffer would knock
    NumPy off its contiguous ufunc fast paths).  A plan has only a
    handful of distinct block footprints and window shapes, so the pool
    stays tiny and every pass after the first allocates nothing.
    """

    def __init__(self) -> None:
        self._bufs: dict[tuple, np.ndarray] = {}

    def get(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._bufs.get((role, shape))
        if buf is None:
            buf = np.empty(shape, dtype=np.float32)
            self._bufs[(role, shape)] = buf
        return buf


class FPGAAccelerator:
    """Functional model of the blocked, PE-chained stencil accelerator.

    Parameters
    ----------
    spec:
        The stencil to compute.
    config:
        Blocking/vectorization/temporal-parallelism knobs; must agree with
        ``spec`` on ``dims`` and ``radius``.
    boundary:
        ``"clamp"`` (the paper's) or ``"periodic"``.
    workers:
        Blocks within a pass are independent; ``workers > 1`` executes
        them on a thread pool (each worker owns its scratch buffers, and
        write-back targets disjoint output slices, so results are
        deterministic and bit-identical to the serial schedule).  Armed
        fault-injection runs always execute serially — the channel
        transport and injector bookkeeping are deliberately sequential.
    engine:
        ``"auto"`` (default) walks the ladder of
        :mod:`repro.core.engines`, ``native-vector -> native -> numpy``,
        and keeps the first rung that builds: whole passes execute
        through the generated vectorized fused pass driver (rows padded
        to ``config.parvec & -config.parvec`` SIMD lanes, ``#pragma omp
        simd`` inner loops, final stage fused into the output grid) when
        a C compiler is available, else through the per-stage native
        microkernel, else on the pure-NumPy path.  Naming a rung pins
        it, and a pinned rung that cannot be built raises
        :class:`ConfigurationError`.  ``"native-scalar"`` pins the
        per-stage microkernel *compiled with auto-vectorization
        disabled*: the benchmarking baseline SIMD speedups are measured
        against, never selected by ``"auto"``.  All engines are
        bit-identical (tested); the knob exists for benchmarking and for
        environments without a toolchain.  :attr:`resolved_engine`
        reports the rung that was kept.

    Notes
    -----
    Worker pools are created once per accelerator and reused by every
    :meth:`run` call: the fused driver owns a persistent pthread pool
    (blocks claimed by work-stealing off one atomic counter) and the
    per-stage path keeps one ``ThreadPoolExecutor`` plus per-worker
    scratch buffers alive across runs.  Because those resources are
    shared, a single accelerator instance must not execute two ``run``
    calls concurrently — use one instance per thread (as
    :class:`repro.runtime.scheduler.StencilScheduler` does).
    :meth:`close` releases the pools early; otherwise they are freed
    with the accelerator.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import StencilSpec, BlockingConfig, FPGAAccelerator
    >>> spec = StencilSpec.star(2, 1)
    >>> cfg = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
    >>> acc = FPGAAccelerator(spec, cfg)
    >>> grid = np.ones((16, 48), dtype=np.float32)
    >>> out, stats = acc.run(grid, iterations=4)
    >>> bool(np.allclose(out, 1.0))   # constant field is a fixed point
    True
    >>> stats.passes
    2
    """

    #: Spin attempts a channel transport tolerates before the watchdog
    #: declares the FIFO wedged (armed mode only).
    STALL_WATCHDOG = 256

    def __init__(
        self,
        spec: StencilSpec,
        config: BlockingConfig,
        boundary: str = "clamp",
        stall_watchdog: int | None = None,
        workers: int = 1,
        engine: str = "auto",
    ):
        if spec.dims != config.dims:
            raise ConfigurationError(
                f"stencil is {spec.dims}D but config is {config.dims}D"
            )
        if spec.radius != config.radius:
            raise ConfigurationError(
                f"stencil radius {spec.radius} != config radius {config.radius}"
            )
        if boundary not in ("clamp", "periodic"):
            raise ConfigurationError(
                f"boundary must be 'clamp' or 'periodic', got {boundary!r}"
            )
        if stall_watchdog is not None and stall_watchdog < 1:
            raise ConfigurationError(
                f"stall_watchdog must be >= 1, got {stall_watchdog}"
            )
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        engines.check(engine, baseline=True)
        self.spec = spec
        self.config = config
        self.boundary = boundary
        self.workers = workers
        self.stall_watchdog = (
            stall_watchdog if stall_watchdog is not None else self.STALL_WATCHDOG
        )
        self._terms = stencil_terms(spec, spec.dims)
        self.engine = engine
        # The first rung that builds is the only engine object kept: the
        # pass driver, the per-stage kernel, or None for the NumPy path.
        # ``resolved_engine`` names it; armed fault-injection runs take
        # the serial channel path regardless.
        self._engine: NativeDriver | NativeStencil | None = None
        for rung in engines.LADDER if engine == engines.AUTO else (engine,):
            self._engine = self._build(rung)
            if self._engine is not None or rung == "numpy":
                self.resolved_engine = rung
                break
        else:
            raise ConfigurationError(
                f"engine={engine!r} could not be built (no C compiler, "
                "compile failure, or REPRO_NO_NATIVE set)",
                param="engine",
                value=engine,
                constraint="a pinned native engine needs a working C compiler",
            )
        # Persistent per-accelerator execution resources, created lazily
        # on first use and reused by every run() (satellite of the fused
        # driver's own persistent pthread pool).
        self._exec_pool: ThreadPoolExecutor | None = None
        self._scratches: list[_Scratch] = []
        self._driver_scratch: np.ndarray | None = None
        self._closed = False

    @classmethod
    def for_workload(
        cls,
        spec: StencilSpec,
        shape: tuple[int, ...],
        boundary: str = "clamp",
        iterations: int = 1,
        engine: str = "auto",
        workers: int = 1,
    ) -> "FPGAAccelerator":
        """An accelerator whose blocking config is picked by the autotuner.

        Consults the persistent plan-selection cache in
        :mod:`repro.runtime.autotune` (micro-benchmarking model-ranked
        candidates on a cold key, reloading the persisted winner on a
        warm one; :envvar:`REPRO_NO_AUTOTUNE` degrades to the analytical
        model's choice).  Imported lazily — the core layer stays
        importable without the runtime package and pinning a config by
        hand never touches the tuner.
        """
        from repro.runtime.autotune import resolve_config

        config = resolve_config(
            spec, shape, boundary=boundary, iterations=iterations,
            engine=engine,
        )
        return cls(
            spec, config, boundary=boundary, workers=workers, engine=engine
        )

    def _build(self, rung: str) -> NativeDriver | NativeStencil | None:
        """One rung's engine object, or ``None`` (always for numpy)."""
        if rung == "native-vector":
            parvec = self.config.parvec
            return native_vector_driver_for(
                self.spec, self.workers, parvec & -parvec
            )
        if rung in ("native", engines.SCALAR_BASELINE):
            return native_kernel_for(
                self.spec, scalar=rung == engines.SCALAR_BASELINE
            )
        return None

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the worker pools."""
        return self._closed

    def close(self) -> None:
        """Release the persistent worker pools (idempotent).

        Joins the fused driver's pthread pool and shuts down the
        per-stage thread pool.  A closed accelerator is *terminal*:
        :meth:`run` raises a typed :class:`ConfigurationError` instead
        of silently degrading (or, worse, touching a parked pool) —
        long-running services rely on this to turn a
        use-after-release bug into a visible error rather than a
        deadlock.
        """
        if self._closed:
            return
        self._closed = True
        if isinstance(self._engine, NativeDriver):
            self._engine.close()
        self._engine = None
        if self._exec_pool is not None:
            self._exec_pool.shutdown()
            self._exec_pool = None
        self._scratches = []
        self._driver_scratch = None

    # ------------------------------------------------------------------ #

    def run(
        self,
        grid: np.ndarray,
        iterations: int,
        expected_crc: int | None = None,
        checkpoint=None,
    ) -> tuple[np.ndarray, AcceleratorStats]:
        """Advance ``grid`` by ``iterations`` time steps.

        Returns ``(result, stats)``; the input array is not modified.  If
        ``iterations`` is not a multiple of ``partime`` the final pass runs
        only the remaining steps (the hardware equivalent: trailing PEs
        forward data unchanged).

        ``expected_crc`` is the golden-CRC check: when given, the CRC32
        of the float32 result must match it or
        :class:`~repro.errors.FaultDetectedError` is raised.  While a
        :class:`repro.faults.FaultPlan` is armed, the run additionally
        carries per-block checksums across every PE-chain hop (and a
        stall watchdog on each hop), so injected SEUs, corrupted channel
        items, and wedged FIFOs are caught before the corrupt block
        reaches external memory.

        ``checkpoint`` enables pass-granular recovery: a
        :class:`~repro.runtime.checkpoint.CheckpointPolicy` (or an int
        ``k``, shorthand for ``CheckpointPolicy(every=k)``) snapshots the
        grid every ``k`` completed passes, and a detected fault rolls
        back to the last good snapshot and re-executes only the tail
        (cost surfaced via ``stats.rollbacks`` / ``stats.replayed_passes``
        / ``stats.checkpoints``).  With ``checkpoint=None`` (default) the
        run takes exactly the pre-checkpoint path — no snapshots, no
        copies, no overhead — and detected faults propagate to the
        caller as before.
        """
        if self._closed:
            raise ConfigurationError(
                "accelerator is closed; create a new instance",
                param="closed",
                value=True,
                constraint="run() requires an open accelerator "
                "(close() released the worker pools)",
            )
        spec, config = self.spec, self.config
        if grid.ndim != spec.dims:
            raise ConfigurationError(
                f"grid is {grid.ndim}D but stencil is {spec.dims}D"
            )
        if iterations < 0:
            raise ConfigurationError(f"iterations must be >= 0, got {iterations}")
        grid = np.ascontiguousarray(grid, dtype=np.float32)

        plan = get_pass_plan(config, grid.shape, self.boundary)
        stats = AcceleratorStats(
            blocks_per_pass=len(plan.blocks),
            shift_register_words_per_pe=shift_register_words(config),
            grid_shape=grid.shape,
        )
        if iterations == 0:
            result = grid.copy()
            self._golden_check(result, expected_crc, stats)
            return result, stats

        mgr = None
        if checkpoint is not None:
            # Imported lazily: repro.runtime imports this module, so a
            # top-level import would cycle — and the checkpoint=None hot
            # path must not even pay for the import.
            from repro.runtime.checkpoint import as_manager

            mgr = as_manager(checkpoint)
            mgr.seed(grid, stats)

        driver = self._engine if isinstance(self._engine, NativeDriver) else None
        # Ping-pong output buffers: two allocations per run (passes
        # alternate between them) instead of one ``np.empty_like`` per
        # pass.  Both are this run's own arrays, so the returned result
        # never aliases accelerator state or a checkpoint snapshot.
        pong = (np.empty_like(grid), np.empty_like(grid))
        current = grid
        remaining = iterations
        while True:
            try:
                while remaining > 0:
                    steps = min(config.partime, remaining)
                    out = pong[0] if current is not pong[0] else pong[1]
                    self._run_pass(current, out, plan, steps, stats, driver)
                    current = out
                    remaining -= steps
                    stats.passes += 1
                    stats.steps_executed += steps
                    if mgr is not None:
                        mgr.maybe_snapshot(current, stats, remaining)
                self._golden_check(current, expected_crc, stats)
                break
            except FaultDetectedError as err:
                # WatchdogTimeoutError is a FaultDetectedError, so a
                # wedged-channel watchdog mid-pass rolls back too.
                if mgr is None:
                    raise
                current = mgr.rollback(stats, err)
                remaining = iterations - stats.steps_executed
        return current, stats

    @staticmethod
    def _golden_check(
        result: np.ndarray, expected_crc: int | None, stats: AcceleratorStats
    ) -> None:
        """Verify the result against a caller-supplied golden CRC."""
        if expected_crc is None and fault_hooks.ACTIVE is None:
            return
        stats.output_crc32 = crc32_array(result)
        if expected_crc is not None and stats.output_crc32 != expected_crc:
            raise fault_hooks.report_detection(
                FaultDetectedError(
                    f"golden-CRC mismatch: result CRC {stats.output_crc32:#010x} "
                    f"!= expected {expected_crc:#010x}"
                )
            )

    # ------------------------------------------------------------------ #

    def run_batch(
        self,
        grids: Sequence[np.ndarray],
        iterations: int,
        expected_crcs: Sequence[int | None] | None = None,
        checkpoint=None,
    ) -> BatchResult:
        """Advance ``len(grids)`` same-shape grids by ``iterations`` steps.

        The batched analogue of :meth:`run` for many *small* grids: all
        grids are packed into one contiguous slab and — on the fused
        native driver — every pass over the whole batch is a single
        ctypes call with one scratch allocation, the pool's atomic claim
        counter ranging over ``(grid, block)`` pairs.  Per-job overhead
        (plan lookup, dispatch, accounting) is paid once per batch
        instead of once per grid.  The NumPy/per-stage fallback executes
        the same slab loop grid by grid.  Either way the outputs are
        bit-identical to ``len(grids)`` separate :meth:`run` calls (a
        tested invariant): batching changes scheduling, never numerics.

        Semantics per batch:

        * **deadline** — callers (the scheduler) budget the batch as one
          job; there is no per-grid deadline inside a batch.
        * **checkpoint** — snapshots cover the whole slab: a rollback
          rewinds every grid to the last good batch pass.  (Armed runs
          take the per-grid path below, where each grid recovers
          independently under a fresh manager of the same policy.)
        * **faults** — while a fault plan is armed the batch executes
          grid by grid through the hardened channel path, and a detected
          fault in one grid fails *only that entry* of the returned
          :class:`~repro.core.batch.BatchResult`; the remaining grids
          complete bit-exact.

        ``expected_crcs`` optionally supplies a golden CRC32 per grid
        (``None`` entries skip the check); mismatches fail the affected
        entries only.  ``stats`` aggregates counters over the whole
        batch (per-pass quantities scale by the batch size).
        """
        if self._closed:
            raise ConfigurationError(
                "accelerator is closed; create a new instance",
                param="closed",
                value=True,
                constraint="run_batch() requires an open accelerator "
                "(close() released the worker pools)",
            )
        if len(grids) == 0:
            raise ConfigurationError(
                "run_batch() needs at least one grid",
                param="grids", value=0, constraint="len(grids) >= 1",
            )
        if iterations < 0:
            raise ConfigurationError(
                f"iterations must be >= 0, got {iterations}"
            )
        if expected_crcs is not None and len(expected_crcs) != len(grids):
            raise ConfigurationError(
                f"expected_crcs has {len(expected_crcs)} entries for "
                f"{len(grids)} grids",
                param="expected_crcs", value=len(expected_crcs),
                constraint="len(expected_crcs) == len(grids)",
            )
        spec, config = self.spec, self.config
        arrays = [np.ascontiguousarray(g, dtype=np.float32) for g in grids]
        if arrays[0].ndim != spec.dims:
            raise ConfigurationError(
                f"grid is {arrays[0].ndim}D but stencil is {spec.dims}D"
            )
        bplan = BatchPlan(
            config, tuple(arrays[0].shape), len(arrays), self.boundary
        )
        plan = bplan.plan
        n_grids = bplan.n_grids
        stats = AcceleratorStats(
            blocks_per_pass=n_grids * len(plan.blocks),
            shift_register_words_per_pe=shift_register_words(config),
            grid_shape=bplan.grid_shape,
        )

        if fault_hooks.ACTIVE is not None:
            return self._run_batch_armed(
                arrays, iterations, expected_crcs, checkpoint, stats
            )

        errors: list[Exception | None] = [None] * n_grids
        if iterations == 0:
            outputs: list[np.ndarray | None] = [a.copy() for a in arrays]
            self._batch_golden(outputs, errors, expected_crcs, stats)
            return BatchResult(outputs, errors, stats)

        slab = bplan.pack(arrays)
        mgr = None
        if checkpoint is not None:
            from repro.runtime.checkpoint import as_manager

            mgr = as_manager(checkpoint)
            mgr.seed(slab, stats)

        driver = self._engine if isinstance(self._engine, NativeDriver) else None
        pong = (np.empty_like(slab), np.empty_like(slab))
        current = slab
        remaining = iterations
        while True:
            try:
                while remaining > 0:
                    steps = min(config.partime, remaining)
                    out = pong[0] if current is not pong[0] else pong[1]
                    if driver is not None:
                        tables, scratch = self._driver_inputs(
                            driver, plan, steps
                        )
                        driver.run_batch_pass(
                            current, out, tables, plan.periodic,
                            scratch, n_grids, bplan.grid_stride,
                        )
                    else:
                        self._fan_out(
                            self._exec_grids, current, out, plan, steps,
                            n_grids,
                        )
                    self._account_pass(stats, plan, n_grids)
                    current = out
                    remaining -= steps
                    stats.passes += 1
                    stats.steps_executed += steps
                    if mgr is not None:
                        mgr.maybe_snapshot(current, stats, remaining)
                break
            except FaultDetectedError as err:
                if mgr is None:
                    raise
                current = mgr.rollback(stats, err)
                remaining = iterations - stats.steps_executed
        outputs = list(bplan.unpack(current))
        self._batch_golden(outputs, errors, expected_crcs, stats)
        return BatchResult(outputs, errors, stats)

    def _exec_grids(
        self,
        slab_src: np.ndarray,
        slab_out: np.ndarray,
        plan: PassPlan,
        windows,
        grid_indices,
        scratch: _Scratch,
    ) -> None:
        """Fallback batched pass: the per-stage engine, grid by grid.

        Each slab entry is itself C-contiguous, so the per-grid views
        feed :meth:`_exec_blocks` exactly like a standalone grid — the
        fallback is bit-exact versus per-grid runs by construction.
        """
        block_range = range(len(plan.blocks))
        for g in grid_indices:
            self._exec_blocks(
                slab_src[g], slab_out[g], plan, windows, block_range, scratch
            )

    def _run_batch_armed(
        self,
        arrays: list[np.ndarray],
        iterations: int,
        expected_crcs,
        checkpoint,
        stats: AcceleratorStats,
    ) -> BatchResult:
        """Armed batch: hardened per-grid execution, per-grid failures.

        Fault injection is deliberately sequential (channel transport
        and injector bookkeeping), so an armed batch degrades to the
        per-grid channel path — each grid under its *own* checkpoint
        manager (same policy), so one grid's exhausted rollback budget
        never consumes another's.  A detected fault fails only the
        affected entry; counters of completed grids still aggregate.
        """
        outputs: list[np.ndarray | None] = []
        errors: list[Exception | None] = []
        policy = None
        if checkpoint is not None:
            from repro.runtime.checkpoint import CheckpointManager, as_manager

            policy = (
                checkpoint.policy
                if isinstance(checkpoint, CheckpointManager)
                else as_manager(checkpoint).policy
            )
        for g, grid in enumerate(arrays):
            crc = expected_crcs[g] if expected_crcs is not None else None
            try:
                out, s = self.run(
                    grid, iterations, expected_crc=crc,
                    checkpoint=policy,
                )
            except FaultDetectedError as err:
                outputs.append(None)
                errors.append(err)
                continue
            outputs.append(out)
            errors.append(None)
            for name in (
                "passes", "steps_executed", "cells_written",
                "cells_processed", "words_read", "words_written",
                "vector_ops", "pe_invocations", "rollbacks",
                "replayed_passes", "checkpoints",
            ):
                setattr(stats, name, getattr(stats, name) + getattr(s, name))
        return BatchResult(outputs, errors, stats)

    @staticmethod
    def _batch_golden(
        outputs: list[np.ndarray | None],
        errors: list[Exception | None],
        expected_crcs,
        stats: AcceleratorStats,
    ) -> None:
        """Per-grid golden-CRC check: mismatches fail only their entry."""
        if expected_crcs is None:
            return
        for g, crc in enumerate(expected_crcs):
            if crc is None or outputs[g] is None:
                continue
            got = crc32_array(outputs[g])
            if got != crc:
                errors[g] = fault_hooks.report_detection(
                    FaultDetectedError(
                        f"golden-CRC mismatch on batch grid {g}: result CRC "
                        f"{got:#010x} != expected {crc:#010x}"
                    )
                )
                outputs[g] = None

    # ------------------------------------------------------------------ #

    def _run_pass(
        self,
        src: np.ndarray,
        out: np.ndarray,
        plan: PassPlan,
        steps: int,
        stats: AcceleratorStats,
        driver: NativeDriver | None,
    ) -> None:
        """One pass: every block flows through ``steps`` chained PE stages.

        Disarmed, the whole pass executes in one ctypes call through the
        fused native driver (its persistent pthread pool work-steals
        blocks), or — per-stage fallback — blocks execute the cached
        plan against preallocated scratch buffers (fanned out over the
        thread pool when ``workers > 1``).  When a fault plan is armed,
        the pass instead moves each block between stages through real
        :class:`~repro.core.channels.Channel` objects carrying per-block
        checksums — the hardened design's detection path; the numerics
        are bit-identical every way.
        """
        inj = fault_hooks.ACTIVE
        if inj is not None:
            windows = plan.windows(steps)
            self._run_pass_armed(src, out, plan, windows, steps, inj)
        elif driver is not None:
            tables, scratch = self._driver_inputs(driver, plan, steps)
            driver.run_pass(src, out, tables, plan.periodic, scratch)
        else:
            self._fan_out(
                self._exec_blocks, src, out, plan, steps, len(plan.blocks)
            )
        self._account_pass(stats, plan)

    def _fan_out(
        self, fn, src: np.ndarray, out: np.ndarray, plan: PassPlan,
        steps: int, units: int,
    ) -> None:
        """Per-stage pass: ``fn`` over ``units`` blocks (or batch grids),
        dealt round-robin to ``min(workers, units)`` persistent scratch
        pools — on the thread pool when there is more than one."""
        windows = plan.windows(steps)
        n_workers = min(self.workers, units)
        while len(self._scratches) < n_workers:
            self._scratches.append(_Scratch())
        if n_workers == 1:
            fn(src, out, plan, windows, range(units), self._scratches[0])
            return
        if self._exec_pool is None:
            self._exec_pool = ThreadPoolExecutor(self.workers)
        futures = [
            self._exec_pool.submit(
                fn, src, out, plan, windows, range(w, units, n_workers),
                self._scratches[w],
            )
            for w in range(n_workers)
        ]
        for f in futures:
            f.result()

    def _driver_inputs(self, driver: NativeDriver, plan: PassPlan, steps: int):
        """The driver tables of a ``steps``-stage pass and a scratch
        slab big enough for every worker's ping-pong buffers (grown on
        demand, reused across passes and runs)."""
        tables = plan.to_driver_tables(steps, driver.vector_width)
        need = driver.workers * 2 * tables.scratch_floats
        if self._driver_scratch is None or self._driver_scratch.size < need:
            self._driver_scratch = _aligned_f32(need)
        return tables, self._driver_scratch

    def _account_pass(
        self, stats: AcceleratorStats, plan: PassPlan, grids: int = 1
    ) -> None:
        """Charge one pass's fixed-footprint counters (``grids`` times).

        The hardware runs the full fixed footprint every pass — all
        partime PE slots, all bsize pipeline slots — even on a partial
        final pass (see AcceleratorStats).  A batched pass is ``grids``
        identical per-grid passes back to back, so every counter scales
        linearly.
        """
        stats.cells_written += grids * plan.cells_written_per_pass
        stats.cells_processed += grids * plan.cells_processed_per_pass
        stats.words_read += grids * plan.cells_processed_per_pass
        stats.words_written += grids * plan.cells_written_per_pass
        stats.vector_ops += grids * plan.vector_ops_per_pass
        stats.pe_invocations += grids * len(plan.blocks) * self.config.partime

    #: Target cells per streamed-axis chunk of one stage update (~256 KiB
    #: of float32): keeps the per-term scratch traffic inside the cache
    #: hierarchy instead of streaming the whole block once per term.
    CHUNK_CELLS = 65536

    def _exec_blocks(
        self,
        src: np.ndarray,
        out: np.ndarray,
        plan: PassPlan,
        windows,
        block_indices,
        scratch: _Scratch,
    ) -> None:
        """Execute a subset of a pass's blocks against one scratch pool.

        Each stage accumulates into a window-shaped contiguous buffer,
        chunked along the streamed axis (all chunks read the stage input
        ``padded`` and only then overwrite the block, so chunking never
        perturbs neighbor reads — and per-element FLOP order is exactly
        the reference's).
        """
        spec = self.spec
        rad = self.config.radius
        blocked_axes = self.config.blocked_axes
        periodic = plan.periodic
        boundary = self.boundary
        terms = self._terms
        native = self._engine if isinstance(self._engine, NativeStencil) else None
        for bi in block_indices:
            bp = plan.blocks[bi]
            n0 = bp.footprint[0]
            padded = scratch.get("padded", (n0 + 2 * rad,) + bp.footprint[1:])
            cur = padded[rad : rad + n0]
            # --- read kernel: segment copies straight into the scratch
            bp.gather_into(src, cur)
            slab_cells = 1
            for extent in bp.footprint[1:]:
                slab_cells *= extent
            chunk = max(1, self.CHUNK_CELLS // slab_cells)
            # --- PE chain: one time step per stage, shrinking window
            for window in windows[bi]:
                fill_stream_halo(padded, n0, rad, boundary)
                wshape = tuple(hi - lo for lo, hi in window)
                acc = scratch.get("acc", wshape)
                if native is not None:
                    native.stage(padded, window, acc)
                else:
                    z_lo, z_hi = window[0]
                    for z0 in range(z_lo, z_hi, chunk):
                        z1 = min(z0 + chunk, z_hi)
                        pe_step_padded(
                            padded,
                            spec,
                            ((z0, z1),) + window[1:],
                            out=acc[z0 - z_lo : z1 - z_lo],
                            tmp=scratch.get("tmp", (z1 - z0,) + wshape[1:]),
                            terms=terms,
                        )
                cur[tuple(slice(lo, hi) for lo, hi in window)] = acc
                if not periodic:
                    for local_axis, axis in enumerate(blocked_axes):
                        refresh_border_duplicates(
                            cur, axis, bp.dup_lo[local_axis], bp.dup_hi[local_axis]
                        )
            # --- write kernel: store the compute region
            out[bp.write_sl] = cur[bp.read_sl]

    def _run_pass_armed(
        self,
        src: np.ndarray,
        out: np.ndarray,
        plan: PassPlan,
        windows,
        steps: int,
        inj,
    ) -> None:
        """Hardened pass: per-block checksums hop across every chain stage.

        Uses the same cached plan geometry as the fast path but moves the
        block payload through real channels between stages (read kernel ->
        PE_0 -> ... -> write kernel), re-encoding the checksum after every
        PE update so in-flight corruption and SEUs at rest are detected at
        the next hop.
        """
        spec = self.spec
        blocked_axes = self.config.blocked_axes
        periodic = plan.periodic
        names = (
            ["read->pe0"]
            + [f"pe{i - 1}->pe{i}" for i in range(1, steps)]
            + [f"pe{steps - 1}->write"]
        )
        chans = [Channel(1, name=n) for n in names]
        for bi, bp in enumerate(plan.blocks):
            # contiguous private buffer: the injector flips bits in place
            cur = np.empty(bp.footprint, dtype=np.float32)
            bp.gather_into(src, cur)
            crc = crc32_array(cur)  # read kernel's per-block checksum
            inj.touch_sram(cur, site="block-buffer")
            for s, window in enumerate(windows[bi], start=1):
                cur = self._transport(chans[s - 1], cur, crc)
                new_vals = pe_step(cur, spec, window, self.boundary)
                cur[tuple(slice(lo, hi) for lo, hi in window)] = new_vals
                if not periodic:
                    for local_axis, axis in enumerate(blocked_axes):
                        refresh_border_duplicates(
                            cur, axis, bp.dup_lo[local_axis], bp.dup_hi[local_axis]
                        )
                crc = crc32_array(cur)  # re-encode after the update
                inj.touch_sram(cur, site="block-buffer")
            cur = self._transport(chans[steps], cur, crc)
            out[bp.write_sl] = cur[bp.read_sl]

    def _transport(self, chan: Channel, payload: np.ndarray, crc: int) -> np.ndarray:
        """Move a block through a channel hop with checksum verification.

        Armed-mode only.  The write port spins under back-pressure (a
        :class:`repro.faults.ChannelStallFault` can wedge it); spinning
        past ``stall_watchdog`` raises
        :class:`~repro.errors.WatchdogTimeoutError`.  The consumer
        re-checksums what arrives, so in-flight corruption (or an SEU
        injected since the checksum was encoded) raises
        :class:`~repro.errors.FaultDetectedError`.
        """
        spins = 0
        while not chan.try_write(payload):
            spins += 1
            if spins > self.stall_watchdog:
                raise fault_hooks.report_detection(
                    WatchdogTimeoutError(
                        f"channel {chan.name!r} write stalled for {spins} "
                        f"attempts (watchdog {self.stall_watchdog})"
                    )
                )
        spins = 0
        while True:
            ok, item = chan.try_read()
            if ok:
                break
            spins += 1
            if spins > self.stall_watchdog:
                raise fault_hooks.report_detection(
                    WatchdogTimeoutError(
                        f"channel {chan.name!r} read stalled for {spins} "
                        f"attempts (watchdog {self.stall_watchdog})"
                    )
                )
        if crc32_array(item) != crc:
            raise fault_hooks.report_detection(
                FaultDetectedError(
                    f"per-block checksum mismatch after {chan.name!r}: "
                    "block data corrupted in flight or at rest"
                )
            )
        return item

    @staticmethod
    def _gather(src: np.ndarray, index_arrays: list[np.ndarray]) -> np.ndarray:
        """Gather the (clamped) block footprint; axis 0 streams in full.

        Fancy indexing already materializes a fresh array, so the result
        never aliases ``src`` — no extra copy is needed (the hardened
        armed path mutates the returned block in place between hops).
        """
        if src.ndim == 2:
            (ix,) = index_arrays
            return src[:, ix]
        iy, ix = index_arrays
        return src[:, iy[:, None], ix[None, :]]


#: Re-exported for introspection/tests: the plan types the engine executes.
__all__ = [
    "AcceleratorStats",
    "FPGAAccelerator",
    "BlockPlan",
    "PassPlan",
    "get_pass_plan",
]
