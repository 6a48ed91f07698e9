"""Per-layer ledger: host self time from cProfile, counts from the
program's own metrics registry.

The traced run profiles the unchanged CLI with ``python -m cProfile``,
so the program carries no tracing code of its own.  Self time (cProfile's
``tottime``) is aggregated per ``repro.<pkg>.<module>``; calls into C
builtins (``sum``, ``min``, list methods, ...) are their own ``builtins``
row.
"""

from __future__ import annotations

import json
import pstats
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable

#: Layers reported as ``<layer>.self_s``.  ``apps`` sums every module
#: under ``repro.apps``; the rest are single modules.
LAYERS = (
    "simx.engine", "simx.rate", "simx.resources",
    "machine.node", "machine.cpu", "machine.cache", "machine.smm",
    "sched.scheduler", "sched.task",
    "mpi.comm", "mpi.network", "mpi.collectives",
    "apps", "builtins",
)

#: The vector kernels of ``VecRateExecutor``: they run only with 32 or
#: more items resident in one rate executor.
VEC_KERNELS = ("_sync_vec", "_soonest_eta_vec")

#: Counters read from ``--metrics --metrics-format json``.
REGISTRY_COUNTS = (
    "engine.events.scheduled", "engine.events.fired", "net.messages",
    "sched.segments_placed", "smm.entries",
)


def module_of(filename: str) -> str:
    """``.../src/repro/mpi/comm.py`` → ``mpi.comm``; C calls → builtins."""
    if filename == "~":
        return "builtins"
    parts = Path(filename).with_suffix("").parts
    if "repro" in parts:
        rel = parts[len(parts) - parts[::-1].index("repro"):]
        return ".".join(rel) or "repro"
    return "other"


def aggregate(prof_paths: Iterable[Path]) -> Dict:
    """Self time and calls per module, plus the vector-kernel call count,
    summed over several profiles (one per CLI command of a sweep)."""
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    vec_calls = 0
    total = 0.0
    for path in prof_paths:
        for (fn, _line, name), (_cc, nc, tt, _ct, _callers) in \
                pstats.Stats(str(path)).stats.items():
            mod = module_of(fn)
            self_s[mod] += tt
            calls[mod] += nc
            total += tt
            if mod == "simx.rate" and name in VEC_KERNELS:
                vec_calls += nc
    modules = {m: {"self_s": self_s[m], "calls": calls[m],
                   "share": self_s[m] / total if total else 0.0}
               for m in sorted(self_s, key=self_s.get, reverse=True)}
    return {"total_self_s": total, "modules": modules,
            "vec_kernel_calls": vec_calls}


def layer_self_s(agg: Dict) -> Dict[str, float]:
    out = {}
    for layer in LAYERS:
        out[layer] = sum(v["self_s"] for m, v in agg["modules"].items()
                         if m == layer or m.startswith(layer + "."))
    return out


def registry_counts(stdout_text: str) -> Dict[str, int]:
    """Counters from the JSON the CLI prints after its table."""
    start = stdout_text.rfind("\n{")
    snap = json.loads(stdout_text[start + 1:] if start >= 0 else stdout_text)
    return {name: int(snap.get(name, {}).get("value", 0))
            for name in REGISTRY_COUNTS}


def merge_counts(parts: Iterable[Dict[str, int]]) -> Dict[str, int]:
    out = {name: 0 for name in REGISTRY_COUNTS}
    for part in parts:
        for name, v in part.items():
            out[name] += v
    return out
