"""Tests for the generated native microkernels (repro.core.native)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BlockingConfig, FPGAAccelerator, StencilSpec, make_grid
from repro.core.native import (
    DISABLE_ENV,
    kernel_source,
    native_available,
    native_kernel_for,
)
from repro.core.pe import pe_step_padded
from repro.errors import ConfigurationError

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler available"
)


def test_kernel_source_is_deterministic_and_exact() -> None:
    spec = StencilSpec.star(3, 2)
    src = kernel_source(spec)
    assert src == kernel_source(spec)
    # coefficients are hex-float literals: exact float32 round-trip
    assert float(np.float32(spec.center)).hex() + "f" in src
    assert "-ffp-contract" not in src  # flags live in the compile step


@needs_native
@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("radius", [1, 3])
def test_native_stage_bit_identical_to_pe_step_padded(
    dims: int, radius: int
) -> None:
    spec = StencilSpec.star(dims, radius)
    kernel = native_kernel_for(spec)
    assert kernel is not None
    rng = np.random.default_rng(7)
    interior = (12, 20) if dims == 2 else (8, 14, 20)
    padded = rng.standard_normal(
        (interior[0] + 2 * radius,) + interior[1:]
    ).astype(np.float32)
    window = tuple(
        (radius, n - radius) if ax else (0, n)
        for ax, n in enumerate(interior)
    )
    expected = pe_step_padded(padded, spec, window)
    out = np.empty(expected.shape, dtype=np.float32)
    kernel.stage(padded, window, out)
    assert np.array_equal(out, expected)


@needs_native
def test_native_kernel_cached_per_spec() -> None:
    spec = StencilSpec.star(2, 1)
    assert native_kernel_for(spec) is native_kernel_for(StencilSpec.star(2, 1))


def test_disable_env_forces_fallback(monkeypatch) -> None:
    monkeypatch.setenv(DISABLE_ENV, "1")
    assert not native_available()
    assert native_kernel_for(StencilSpec.star(2, 4)) is None
    spec = StencilSpec.star(2, 1)
    cfg = BlockingConfig(dims=2, radius=1, bsize_x=16, parvec=2, partime=2)
    acc = FPGAAccelerator(spec, cfg)  # auto engine falls back silently
    assert acc._engine is None
    with pytest.raises(ConfigurationError):
        FPGAAccelerator(spec, cfg, engine="native")


def test_engine_knob_validation() -> None:
    spec = StencilSpec.star(2, 1)
    cfg = BlockingConfig(dims=2, radius=1, bsize_x=16, parvec=2, partime=2)
    with pytest.raises(ConfigurationError):
        FPGAAccelerator(spec, cfg, engine="cuda")
    assert FPGAAccelerator(spec, cfg, engine="numpy")._engine is None


@needs_native
def test_engine_selection_and_run_equivalence() -> None:
    spec = StencilSpec.star(3, 2)
    cfg = BlockingConfig(
        dims=3, radius=2, bsize_x=24, bsize_y=20, parvec=4, partime=2
    )
    grid = make_grid((6, 25, 37), "mixed", seed=2)
    fast = FPGAAccelerator(spec, cfg, engine="native")
    slow = FPGAAccelerator(spec, cfg, engine="numpy")
    assert fast._engine is not None
    for iters in (1, 3, 4):
        out_fast, _ = fast.run(grid, iters)
        out_slow, _ = slow.run(grid, iters)
        assert np.array_equal(out_fast, out_slow)
