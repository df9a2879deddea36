"""Property-based equivalence: accelerator == reference, bit for bit.

This is the central correctness property of the reproduction (DESIGN.md
§5): for *any* stencil radius, blocking configuration and grid shape, the
functional FPGA simulator must produce float32 results identical to the
golden sequential engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockingConfig,
    FPGAAccelerator,
    StencilSpec,
    make_grid,
    reference_run,
)
from repro.core.native import native_available


@st.composite
def config_2d(draw):
    radius = draw(st.integers(1, 4))
    partime = draw(st.integers(1, 4))
    parvec = draw(st.sampled_from([1, 2, 4]))
    halo = partime * radius
    # bsize must exceed 2*halo and be a parvec multiple
    extra = draw(st.integers(1, 8)) * parvec
    bsize_x = ((2 * halo) // parvec + 1) * parvec + extra
    cfg = BlockingConfig(
        dims=2, radius=radius, bsize_x=bsize_x, parvec=parvec, partime=partime
    )
    ny = draw(st.integers(1, 24))
    nx = draw(st.integers(1, 90))
    iters = draw(st.integers(0, 2 * partime + 1))
    seed = draw(st.integers(0, 2**16))
    boundary = draw(st.sampled_from(["clamp", "periodic"]))
    return cfg, (ny, nx), iters, seed, boundary


@st.composite
def config_3d(draw):
    radius = draw(st.integers(1, 3))
    partime = draw(st.integers(1, 3))
    parvec = draw(st.sampled_from([1, 2, 4]))
    halo = partime * radius
    bsize_x = ((2 * halo) // parvec + 1) * parvec + draw(st.integers(1, 4)) * parvec
    bsize_y = 2 * halo + draw(st.integers(1, 12))
    cfg = BlockingConfig(
        dims=3,
        radius=radius,
        bsize_x=bsize_x,
        bsize_y=bsize_y,
        parvec=parvec,
        partime=partime,
    )
    nz = draw(st.integers(1, 8))
    ny = draw(st.integers(1, 30))
    nx = draw(st.integers(1, 40))
    iters = draw(st.integers(0, 2 * partime))
    seed = draw(st.integers(0, 2**16))
    boundary = draw(st.sampled_from(["clamp", "periodic"]))
    return cfg, (nz, ny, nx), iters, seed, boundary


@given(config_2d())
def test_accelerator_equals_reference_2d(params) -> None:
    cfg, shape, iters, seed, boundary = params
    spec = StencilSpec.star(2, cfg.radius)
    grid = make_grid(shape, "random", seed=seed)
    expected = reference_run(grid, spec, iters, boundary=boundary)
    actual, _ = FPGAAccelerator(spec, cfg, boundary=boundary).run(grid, iters)
    assert np.array_equal(expected, actual)


@settings(max_examples=25)
@given(config_3d())
def test_accelerator_equals_reference_3d(params) -> None:
    cfg, shape, iters, seed, boundary = params
    spec = StencilSpec.star(3, cfg.radius)
    grid = make_grid(shape, "random", seed=seed)
    expected = reference_run(grid, spec, iters, boundary=boundary)
    actual, _ = FPGAAccelerator(spec, cfg, boundary=boundary).run(grid, iters)
    assert np.array_equal(expected, actual)


@settings(max_examples=20)
@given(config_2d(), st.integers(2, 4))
def test_engines_and_workers_bit_identical(params, workers) -> None:
    """The NumPy fallback, the per-stage native microkernel, the fused
    vectorized pass driver (both when a compiler is available) and the
    block-parallel schedule are pure execution choices: same bits."""
    cfg, shape, iters, seed, boundary = params
    spec = StencilSpec.star(2, cfg.radius)
    grid = make_grid(shape, "random", seed=seed)
    base, _ = FPGAAccelerator(spec, cfg, boundary=boundary).run(grid, iters)
    via_numpy, _ = FPGAAccelerator(
        spec, cfg, boundary=boundary, engine="numpy"
    ).run(grid, iters)
    parallel, _ = FPGAAccelerator(
        spec, cfg, boundary=boundary, workers=workers
    ).run(grid, iters)
    assert np.array_equal(base, via_numpy)
    assert np.array_equal(base, parallel)
    if native_available():
        per_stage, _ = FPGAAccelerator(
            spec, cfg, boundary=boundary, engine="native"
        ).run(grid, iters)
        assert np.array_equal(base, per_stage)
        acc = FPGAAccelerator(
            spec, cfg, boundary=boundary, engine="native-vector",
            workers=workers,
        )
        fused, _ = acc.run(grid, iters)
        acc.close()
        assert np.array_equal(base, fused)


@pytest.mark.skipif(not native_available(), reason="no C compiler")
@pytest.mark.parametrize(
    "dims, radius, parvec", [(2, 2, 6), (3, 1, 6), (2, 4, 12), (3, 4, 12)]
)
@pytest.mark.parametrize("boundary", ["clamp", "periodic"])
def test_native_vector_at_non_power_of_two_parvec(
    dims, radius, parvec, boundary
) -> None:
    """A ``parvec`` that is not a power of two runs the vectorized driver
    at ``parvec & -parvec`` lanes, bit-exact to the reference."""
    spec = StencilSpec.star(dims, radius)
    partime = 2
    halo = partime * radius
    cfg = BlockingConfig(
        dims=dims,
        radius=radius,
        bsize_x=((2 * halo) // parvec + 2) * parvec,
        bsize_y=2 * halo + 6 if dims == 3 else None,
        parvec=parvec,
        partime=partime,
    )
    grid = make_grid((13, 70) if dims == 2 else (5, 29, 46), "random", seed=1)
    iters = 2 * partime + 1  # partial final pass
    acc = FPGAAccelerator(
        spec, cfg, boundary=boundary, engine="native-vector", workers=2
    )
    out, _ = acc.run(grid, iters)
    acc.close()
    assert acc.resolved_engine == "native-vector"
    assert np.array_equal(
        out, reference_run(grid, spec, iters, boundary=boundary)
    )


@given(
    radius=st.integers(1, 4),
    partime=st.integers(1, 4),
    iters=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_result_independent_of_blocking(radius, partime, iters, seed) -> None:
    """Two different valid blocking configs give the same bits: blocking is
    purely an execution-schedule choice, never a numerical one."""
    spec = StencilSpec.star(2, radius)
    grid = make_grid((12, 64), "random", seed=seed)
    halo = partime * radius
    cfg_a = BlockingConfig(
        dims=2, radius=radius, bsize_x=2 * halo + 8, parvec=1, partime=partime
    )
    cfg_b = BlockingConfig(
        dims=2, radius=radius, bsize_x=2 * halo + 24, parvec=2, partime=partime
    )
    out_a, _ = FPGAAccelerator(spec, cfg_a).run(grid, iters)
    out_b, _ = FPGAAccelerator(spec, cfg_b).run(grid, iters)
    assert np.array_equal(out_a, out_b)
