"""The benchmark's own tests, on a tiny sweep (``table2 --quick``).

    python3 -m pytest -q sweepbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import cells  # noqa: E402
import compare  # noqa: E402
import proc  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = ("table2",)


def _run(workload: str, trace: int, seed: int = 1) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", workload, "--seed", str(seed),
                         "--seconds", "0.1", "--trace", str(trace)]) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.fixture(autouse=True)
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MPI_SWEEP", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


#: A seed with no pinned digests.
UNPINNED = 1000


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    """Two traced tiny runs on an unpinned seed, and their documents."""
    out = tmp_path_factory.mktemp("out")
    mp = pytest.MonkeyPatch()
    mp.setattr(run, "MPI_SWEEP", TINY)
    mp.setattr(run, "OUT", out)
    try:
        results = [_run("mpi_inproc", trace=1, seed=UNPINNED)
                   for _ in range(2)]
    finally:
        mp.undo()
    docs = [json.loads(p.read_text())
            for p in sorted((out / "results").glob("*.json"))]
    return results, docs


def _assert_metrics(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["metrics"].keys() == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", ["mpi_inproc", "mpi_served"])
def test_end_to_end_metrics_printed_with_units(workload):
    result = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    _assert_metrics(result, BENCHMARK["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_per_layer_metrics_printed_with_units(traced_twice):
    result = traced_twice[0][0]
    assert result["correct"]
    _assert_metrics(result, BENCHMARK["per_layer"])
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["engine.events.fired"] > 0
    assert m["mpi.comm.self_s"] > 0
    assert m["runx.attempts"] > 0
    assert m["simx.rate.vec_kernel_calls"] == 0
    assert m["cell_error_rate"] == 0
    assert m["paper_err_pct"] > 0


def test_simulated_counts_repeat_across_traced_runs(traced_twice):
    a, b = ({k: r["metrics"][k]["value"]
             for k in ("simx.rate.vec_kernel_calls", "paper_err_pct",
                       *run.ledger.REGISTRY_COUNTS)}
            for r in traced_twice[0])
    assert a == b


def test_unpinned_seed_is_marked(traced_twice):
    assert UNPINNED not in cells.PINNED_SEEDS
    assert [d["pinned"] for d in traced_twice[1]] == [False, False]


def test_corrupted_expected_digest_is_a_cell_error(monkeypatch):
    real = cells.load_expected

    def corrupted(seed, commands):
        pinned = real(seed, commands)
        if pinned is not None:
            pinned[min(pinned)] = "0" * 16
        return pinned

    monkeypatch.setattr(cells, "load_expected", corrupted)
    result = _run("mpi_inproc", trace=1)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["cell_error_rate"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mpi_inproc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_rss_walk_skips_children_that_have_not_run_exec():
    """A fork before its exec shares the parent's pages: not counted."""
    pid = os.fork()
    if pid == 0:
        time.sleep(2)
        os._exit(0)
    spawned = subprocess.Popen(["sleep", "2"])
    try:
        time.sleep(0.2)
        kids = proc._children()
        assert spawned.pid in kids[os.getpid()]
        assert pid not in kids[os.getpid()]
    finally:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        spawned.kill()
        spawned.wait()


def _doc(workload: str, sweep_s: float, failed: int) -> dict:
    return {"workload": workload, "trace": 0, "failed": failed,
            "header": {"loadavg_before": [0.0], "loadavg_after": [0.0]},
            "metrics": {"setup_s": 1.0, "sweep_s": sweep_s,
                        "peak_rss_mb": 100.0}}


@pytest.mark.parametrize("change_failed, verdict", [(0, "improved"),
                                                    (1, "worse")])
def test_compare_counts_no_gain_with_more_failed_cells(
        tmp_path, capsys, change_failed, verdict):
    """A change that runs faster but fails cells reads worse, exit 1."""
    for side, sweep_s, bad in (("parent", 10.0, 0),
                               ("change", 5.0, change_failed)):
        (tmp_path / side).mkdir()
        for i in range(10):
            doc = _doc("mpi_inproc", sweep_s + i * 0.01, bad if i == 0 else 0)
            (tmp_path / side / f"{i}.json").write_text(json.dumps(doc))
    rc = compare.main([str(tmp_path / "parent"), str(tmp_path / "change")])
    line = next(x for x in capsys.readouterr().out.splitlines()
                if x.startswith("mpi_inproc") and " sweep_s " in x)
    assert line.split()[-1] == verdict
    assert rc == (1 if verdict == "worse" else 0)
