"""Cell records: canonical bytes, expected digests, and paper accuracy.

Every path the benchmark drives writes a manifest, and every manifest
cell reduces to the same canonical ``{id, status, value, seed}`` record,
so the in-process, ``--jobs 2`` and served answers for one sweep compare
byte for byte.

Run ``python3 sweepbench/cells.py`` to re-pin the expected digests in
``expected/`` from the in-process path, only after a change that is
meant to move simulated values.  Every pinned seed pins every sweep.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from statistics import mean
from typing import Dict, Iterable, Optional

DEFAULT_SEED = 1
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

_NAS_ID = re.compile(
    r"^(?P<bench>[A-Z]+)\.(?P<cls>[A-Z]) n=(?P<nodes>\d+) "
    r"rpn=(?P<rpn>\d+) smm=(?P<smm>\d)$")


def canonical(cid: str, status: str, value, seed) -> bytes:
    return json.dumps({"id": cid, "status": status, "value": value,
                       "seed": seed}, sort_keys=True,
                      separators=(",", ":")).encode()


def digest(record: bytes) -> str:
    return hashlib.sha256(record).hexdigest()[:16]


def records_from_manifest(doc: Dict) -> Dict[str, bytes]:
    """``{cell id: canonical bytes}`` for any manifest the CLI writes.

    Runner and served manifests carry the runx record per cell.  The
    in-process (``mode: direct``) manifest carries labels and measured
    values instead; NAS cells map onto the runx payload
    ``{"values": [...]}`` with the seed the matrix planned for them.
    """
    cells = doc.get("cells", [])
    if doc.get("mode") != "direct":
        return {c["id"]: canonical(c["id"], c.get("status"), c.get("value"),
                                   c.get("seed"))
                for c in cells if "id" in c}
    matrix = doc.get("matrix", [])
    return {c["label"]: canonical(c["label"], "ok",
                                  {"values": c.get("values_s")},
                                  matrix[i].get("base_seed"))
            for i, c in enumerate(cells)
            if _NAS_ID.match(c["label"]) and i < len(matrix)}


def load_expected(seed: int, commands: Iterable[str]
                  ) -> Optional[Dict[str, str]]:
    """Pinned ``{cell id: digest}`` for the sweep's commands, or None
    when this seed has no pin for one of them."""
    path = EXPECTED_DIR / f"seed{seed}.json"
    if not path.exists():
        return None
    pinned = json.loads(path.read_text())["commands"]
    out: Dict[str, str] = {}
    for cmd in commands:
        if cmd not in pinned:
            return None
        out.update(pinned[cmd])
    return out


def check(got: Dict[str, bytes], expected: Dict[str, str]) -> list:
    """Ids of cells that are missing, unexpected, or differ."""
    bad = [cid for cid, d in expected.items()
           if cid not in got or digest(got[cid]) != d]
    bad += [cid for cid in got if cid not in expected]
    return sorted(bad)


def failed_cells(records: Dict[str, bytes]) -> list:
    return sorted(cid for cid, rec in records.items()
                  if json.loads(rec)["status"] != "ok")


def paper_err_pct(records: Dict[str, bytes]) -> Optional[float]:
    """Mean |simulated − paper| long-SMI slowdown (smm2/smm0 − 1), in
    percentage points, over the NAS cells `repro.paperdata` covers."""
    from repro.apps.nas.params import NasClass
    from repro.paperdata import paper_cell

    by_cfg: Dict[tuple, Dict[int, float]] = {}
    for cid, rec in records.items():
        m = _NAS_ID.match(cid)
        values = (json.loads(rec).get("value") or {}).get("values")
        if not m or not values:
            continue
        cfg = (m["bench"], m["cls"], int(m["nodes"]), int(m["rpn"]))
        by_cfg.setdefault(cfg, {})[int(m["smm"])] = mean(values)
    errs = []
    for (bench, cls, nodes, rpn), sim in sorted(by_cfg.items()):
        paper = paper_cell(bench, rpn, NasClass(cls), nodes)
        if paper is None or 0 not in sim or 2 not in sim:
            continue
        sim_slow = sim[2] / sim[0] - 1.0
        paper_slow = paper[2] / paper[0] - 1.0
        errs.append(abs(sim_slow - paper_slow) * 100.0)
    return mean(errs) if errs else None


def _pin(seed: int, commands) -> None:
    import run

    b = run.Bench(seed)
    pinned = {}
    for cmd in commands:
        got = b.inproc(cmd, b.work("pin"))
        if got.rc != 0 or not got.records:
            raise SystemExit(f"{cmd} failed (exit {got.rc})")
        pinned[cmd] = {cid: digest(rec) for cid, rec in got.records.items()}
    EXPECTED_DIR.mkdir(exist_ok=True)
    path = EXPECTED_DIR / f"seed{seed}.json"
    path.write_text(json.dumps({"seed": seed, "commands": pinned},
                               indent=1, sort_keys=True) + "\n")
    print(f"pinned {sum(map(len, pinned.values()))} cells to {path}")


#: Seeds with pinned digests, the default seed among them.
PINNED_SEEDS = range(100)


if __name__ == "__main__":
    import run

    for seed in PINNED_SEEDS:
        _pin(seed, run.MPI_SWEEP)
