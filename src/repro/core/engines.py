"""The execution-engine ladder: the one module that spells engine names.

``auto`` walks the ladder fastest first and keeps the first rung that
builds on this machine:

* ``native-vector`` — the generated, vectorized fused pass driver: one
  ctypes call per pass over a persistent pthread pool, rows padded to
  ``parvec & -parvec`` SIMD lanes (the largest power of two dividing
  the paper's ``parvec``);
* ``native`` — the generated per-stage C microkernel;
* ``numpy`` — the pure-NumPy path, always available.

Every rung is bit-identical, so stepping down trades speed, never
results.  ``native-scalar`` — the per-stage kernel compiled with
auto-vectorization off — is a benchmark baseline: only
:class:`~repro.core.FPGAAccelerator` accepts it and it is not on the
ladder.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

AUTO = "auto"

#: Fastest first; ``auto`` resolves to the first rung that builds.
LADDER = ("native-vector", "native", "numpy")

#: Every name a runtime layer accepts.
ENGINES = (AUTO, *LADDER)

#: Benchmark-only baseline, accepted by the accelerator alone.
SCALAR_BASELINE = "native-scalar"

#: Engines that may hold a compiled library and worker pool: what a
#: board whose every device fell to ``numpy`` can release.
FAST_PATH = frozenset({AUTO, "native-vector", "native"})


def check(name: str, *, baseline: bool = False) -> str:
    """Return ``name`` if it is a known engine, else raise typed.

    ``baseline=True`` additionally admits :data:`SCALAR_BASELINE`.
    """
    allowed = ENGINES + ((SCALAR_BASELINE,) if baseline else ())
    if name not in allowed:
        raise ConfigurationError(
            f"engine must be one of {', '.join(map(repr, allowed))}, "
            f"got {name!r}",
            param="engine",
            value=name,
            constraint=f"engine in {allowed}",
        )
    return name


def slower(name: str) -> str | None:
    """The rung below ``name`` (``auto`` counts as the top rung);
    ``None`` below ``numpy``."""
    check(name)
    i = LADDER.index(LADDER[0] if name == AUTO else name) + 1
    return LADDER[i] if i < len(LADDER) else None
