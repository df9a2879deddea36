"""The benchmark's own checks, run at the start of every run.

* The same seed gives identical inputs (and another seed other inputs).
* Every workload and metric name matches ``[A-Za-z0-9_.-]+``, and the
  metrics ``run.py`` reports are exactly those ``BENCHMARK.json`` lists.
* The host-speed probe imports nothing from the program under test.

Run alone with ``python3 perfbench/selfcheck.py`` from the repository
root; exits non-zero on the first failed check.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class SelfCheckError(Exception):
    pass


def check_seeds(workloads) -> None:
    for w in workloads.values():
        a, b, other = w.inputs(7), w.inputs(7), w.inputs(8)
        if a.keys() != b.keys() or any(
            not np.array_equal(a[k], b[k]) for k in a
        ):
            raise SelfCheckError(f"{w.name}: seed 7 gave two different inputs")
        if all(np.array_equal(a[k], other[k]) for k in a):
            raise SelfCheckError(f"{w.name}: seeds 7 and 8 gave the same inputs")


def check_names(bench: dict, workloads, end_to_end, per_layer) -> None:
    declared = {
        "workloads": [w["name"] for w in bench["workloads"]],
        "end_to_end": [m["name"] for m in bench["end_to_end"]],
        "per_layer": [m["name"] for m in bench["per_layer"]],
    }
    emitted = {
        "workloads": list(workloads),
        "end_to_end": [name for name, _ in end_to_end],
        "per_layer": [name for name, _ in per_layer],
    }
    for kind, names in declared.items():
        bad = [n for n in names + emitted[kind] if not NAME.fullmatch(n)]
        if bad:
            raise SelfCheckError(f"{kind}: invalid names {bad}")
        if sorted(names) != sorted(emitted[kind]):
            raise SelfCheckError(
                f"{kind}: BENCHMARK.json lists {sorted(names)}, "
                f"run.py reports {sorted(emitted[kind])}"
            )
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, unit in end_to_end + per_layer:
        if units[name] != unit:
            raise SelfCheckError(f"{name}: unit {unit!r} != {units[name]!r}")


def check_probe_imports() -> None:
    tree = ast.parse((HERE / "probe.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            if module.split(".")[0] in ("repro", "workloads", "spans"):
                raise SelfCheckError(f"probe.py imports {module}")


def run_all(bench_path: Path, workloads, end_to_end, per_layer) -> None:
    bench = json.loads(bench_path.read_text())
    check_names(bench, workloads, end_to_end, per_layer)
    check_seeds(workloads)
    check_probe_imports()


if __name__ == "__main__":
    from run import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    try:
        run_all(HERE.parent / "BENCHMARK.json", WORKLOADS, END_TO_END, PER_LAYER)
    except (SelfCheckError, OSError, KeyError, ValueError) as err:
        print(f"self-check failed: {err}", file=sys.stderr)
        sys.exit(1)
    print("self-checks passed")
