"""The engine ladder (repro.core.engines) and its use by every layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BlockingConfig, FPGAAccelerator, StencilSpec
from repro.core.engines import ENGINES, LADDER, check, slower
from repro.errors import ConfigurationError
from repro.runtime.scheduler import (
    BatchStencilJob,
    ShardedJob,
    StencilJob,
    StencilScheduler,
)

SPEC = StencilSpec.star(2, 1)
CONFIG = BlockingConfig(dims=2, radius=1, bsize_x=32, parvec=4, partime=2)
GRID = np.zeros((8, 32), dtype=np.float32)

#: One constructor per layer that takes an engine name.
LAYERS = {
    "FPGAAccelerator": lambda e: FPGAAccelerator(SPEC, CONFIG, engine=e),
    "StencilJob": lambda e: StencilJob("j", SPEC, CONFIG, GRID, engine=e),
    "BatchStencilJob": lambda e: BatchStencilJob(
        "b", SPEC, CONFIG, (GRID,), engine=e
    ),
    "ShardedJob": lambda e: ShardedJob("s", SPEC, CONFIG, GRID, engine=e),
    "StencilScheduler": lambda e: StencilScheduler(1, engine=e),
}


def _error(build, name: str) -> ConfigurationError:
    with pytest.raises(ConfigurationError) as exc:
        build(name)
    return exc.value


@pytest.mark.parametrize("name", ["native-driver", "simd"])
@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_layer_rejects_unknown_engines_alike(layer, name) -> None:
    err = _error(LAYERS[layer], name)
    assert type(err) is ConfigurationError
    assert (err.param, err.value) == ("engine", name)
    assert str(err).endswith(f"got {name!r}")


def test_slower_walks_the_ladder_down_to_numpy() -> None:
    walk = [LADDER[0]]
    while (nxt := slower(walk[-1])) is not None:
        walk.append(nxt)
    assert walk == ["native-vector", "native", "numpy"]
    assert slower("auto") == "native"  # auto is the top rung
    assert ENGINES == ("auto", *LADDER)


def test_scalar_baseline_is_accelerator_only() -> None:
    assert check("native-scalar", baseline=True) == "native-scalar"
    for layer in ("StencilJob", "StencilScheduler"):
        with pytest.raises(ConfigurationError):
            LAYERS[layer]("native-scalar")
    with pytest.raises(ConfigurationError):
        slower("native-scalar")
