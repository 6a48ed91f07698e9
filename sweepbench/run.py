"""Same-host end-to-end sweep benchmark for ``repro-smm``.

Usage (from the repository root)::

    python3 sweepbench/run.py --workload mpi_inproc --seed 1 --seconds 5 --trace 0

Each workload is one closed-loop client running one sweep at a time
through the CLI itself (``python -m repro.cli``), so the paths under the
commands can change without any edit here.  ``--trace 0`` measures the
end-to-end metrics, repeating the sweep for about ``--seconds`` and
reporting medians; ``--trace 1`` is the separate traced run that
attributes host time to layers (``ledger.py``).  The last line of
standard output is the result object; the full document, with the
comparability header and every sample, goes to ``sweepbench/out/``.
See ``sweepbench/README.md`` for the workloads and metric map.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import cells  # noqa: E402
import ledger  # noqa: E402
from proc import Launch, TreeRss  # noqa: E402

#: The sweep, sized so that a timed run holds several of it and a traced
#: run stays inside the run budget on a 2-core host running at half
#: speed.  Table 1 (BT, 33 s in-process) does not fit.
MPI_SWEEP = ("table2", "table3")

SETUP_PROBES = 5
#: Timed metrics are scaled to the host speed at which the calibration
#: loop takes this long: about its time on the reference host (2 cores
#: of an Intel Xeon) when that is quiet.
CALIB_REF_S = 2.0
#: Calibration processes run at once: as many as the workload keeps busy
#: (the in-process CLI; the daemon's two workers).
CALIB_COPIES = {"mpi_inproc": 1, "mpi_served": 2}
IMPORT_PROBES = 3
#: Every run ends well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0
DAEMON_STOP_GRACE_S = 20.0

E2E = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in ledger.LAYERS},
    "simx.rate.vec_kernel_calls": "count",
    **{name: "count" for name in ledger.REGISTRY_COUNTS},
    "host_us_per_event": "us",
    "import_s": "s",
    "daemon_ready_s": "s",
    "runx.attempts": "count",
    "runx.cell_s.p50": "s",
    "runx.cell_s.tail": "s",
    "runx.overhead_s": "s",
    "serve.submit_cold_s": "s",
    "serve.submit_warm_s": "s",
    "serve.cache.hit_ratio": "ratio",
    "serve.jobs.requeued": "count",
    "serve.workers.restarts": "count",
    "cell_error_rate": "ratio",
    "paper_err_pct": "pp",
    "trace.overhead_x": "ratio",
}


def is_harness_log(line: str) -> bool:
    """``-v`` logs one line per cell from ``repro.harness`` just before
    running it: the first one ends set-up."""
    return " repro.harness." in line


@dataclass
class Cmd:
    """One CLI command of a sweep, timed from outside."""

    setup_s: float
    run_s: float
    wall_s: float
    records: Dict[str, bytes]
    rc: int
    #: per-cell host seconds (in-process: gaps between the per-cell log
    #: lines; runner: the manifest's ``duration_s``)
    cell_s: Dict[str, float] = field(default_factory=dict)
    attempts: int = 0
    stdout: str = ""
    manifest: Optional[Dict] = None


def _manifest(path: Path) -> Optional[Dict]:
    return json.loads(path.read_text()) if path.exists() else None


class Bench:
    """One benchmark run: the seed, the child environment, the deadline
    and the work directory every program process runs in."""

    def __init__(self, seed: int):
        self.seed = seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.work_root = OUT / "work" / str(os.getpid())
        self._n = 0

    # -- plumbing -------------------------------------------------------------
    def left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError("run budget exhausted")
        return left

    def work(self, tag: str) -> Path:
        self._n += 1
        path = self.work_root / f"{self._n}-{tag}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    @staticmethod
    def cli(*args) -> List[str]:
        return [sys.executable, "-m", "repro.cli", *map(str, args)]

    # -- in-process ------------------------------------------------------------
    def _inproc_launch(self, cmd: str, work: Path,
                       profile: bool = False) -> Launch:
        args = ["-v", cmd, "--quick", "--seed", self.seed,
                "--manifest", work / f"{cmd}.json"]
        if not profile:
            return Launch(self.cli(*args), work, self.env,
                          ready_line=is_harness_log)
        argv = [sys.executable, "-m", "cProfile", "-o",
                str(work / f"{cmd}.prof"), "-m", "repro.cli",
                *map(str, args), "--metrics", "--metrics-format", "json"]
        return Launch(argv, work, self.env, ready_line=is_harness_log,
                      stdout_path=work / f"{cmd}.out")

    def inproc(self, cmd: str, work: Path, rss: Optional[TreeRss] = None,
               profile: bool = False) -> Cmd:
        p = self._inproc_launch(cmd, work, profile)
        if rss is not None:
            rss.roots.append(p.proc.pid)
        setup = p.wait_ready(self.left())
        rc = p.wait(self.left())
        doc = _manifest(work / f"{cmd}.json") if rc == 0 else None
        records = cells.records_from_manifest(doc) if doc else {}
        marks = [t for t, line in p.lines if is_harness_log(line)]
        cell_s = {}
        if len(marks) == len(records):
            ends = marks[1:] + [p.t_exit]
            cell_s = {cid: e - s for cid, s, e in zip(records, marks, ends)}
        out = work / f"{cmd}.out"
        return Cmd(setup, p.t_exit - p.ready_at, p.t_exit - p.t_launch,
                   records, rc, cell_s=cell_s,
                   stdout=out.read_text() if profile else "", manifest=doc)

    # -- runner (--jobs 2), for the traced runx metrics ----------------------
    def jobs2(self, cmd: str, work: Path) -> Cmd:
        manifest = work / f"{cmd}.json"
        p = Launch(self.cli(cmd, "--quick", "--seed", self.seed,
                            "--jobs", 2, "--manifest", manifest),
                   work, self.env)
        rc = p.wait(self.left())
        doc = _manifest(manifest)
        records = cells.records_from_manifest(doc) if doc else {}
        runs = [c for c in (doc or {}).get("cells", []) if "id" in c]
        return Cmd(0.0, p.t_exit - p.t_launch, p.t_exit - p.t_launch,
                   records, rc,
                   cell_s={c["id"]: c["duration_s"] for c in runs},
                   attempts=sum(c.get("attempts", 1) for c in runs),
                   manifest=doc)

    def probe(self, workload: str, cmd: str) -> float:
        """One set-up sample: launch the sweep's first command (or the
        daemon) and stop it at the ready signal."""
        work = self.work("probe")
        try:
            if workload == "mpi_served":
                daemon, ready_s = self.daemon(work)
                daemon.stop(DAEMON_STOP_GRACE_S)
                return ready_s
            p = self._inproc_launch(cmd, work)
            try:
                return p.wait_ready(self.left())
            finally:
                p.kill()
        finally:
            shutil.rmtree(work, ignore_errors=True)

    # -- served ----------------------------------------------------------------
    @staticmethod
    def status(work: Path) -> Dict:
        """``status`` over the daemon's socket.  The client connects from
        the work directory because a unix socket path is limited to 108
        bytes and the checkout may sit deep."""
        from repro.serve import ServeClient

        cwd = os.getcwd()
        os.chdir(work)
        try:
            return ServeClient(socket_path="state/serve.sock",
                               timeout_s=10.0).status()
        finally:
            os.chdir(cwd)

    def daemon(self, work: Path, rss: Optional[TreeRss] = None):
        """Start ``serve --workers 2``; return it and the seconds until
        the socket answered with both workers idle."""
        from repro.serve import ServeError

        p = Launch(self.cli("serve", "--workers", 2, "--state-dir", "state"),
                   work, self.env)
        if rss is not None:
            rss.roots.append(p.proc.pid)
        while True:
            try:
                workers = self.status(work)["workers"]
                if workers and all(w["state"] == "idle" for w in workers):
                    return p, time.monotonic() - p.t_launch
            except ServeError:
                pass
            if p.proc.poll() is not None or self.left() < 1:
                p.kill()
                raise RuntimeError(f"daemon never ready: {p.describe()}")
            time.sleep(0.005)

    def submit(self, cmd: str, work: Path, tag: str, rss: TreeRss) -> Cmd:
        manifest = work / f"{cmd}.{tag}.json"
        p = Launch(self.cli("submit", cmd, "--quick", "--seed", self.seed,
                            "--socket", "state/serve.sock",
                            "--manifest", manifest.name), work, self.env)
        rss.roots.append(p.proc.pid)
        rc = p.wait(self.left())
        doc = _manifest(manifest) if rc == 0 else None
        records = cells.records_from_manifest(doc) if doc else {}
        return Cmd(0.0, p.t_exit - p.t_launch, p.t_exit - p.t_launch,
                   records, rc, manifest=doc)

    def served(self, work: Path, rss: TreeRss) -> Dict:
        """Fresh daemon → cold submits → identical resubmits → status."""
        daemon, ready_s = self.daemon(work, rss)
        try:
            cold = [self.submit(c, work, "cold", rss) for c in MPI_SWEEP]
            warm = [self.submit(c, work, "warm", rss) for c in MPI_SWEEP]
            status = self.status(work)
        finally:
            daemon.stop(DAEMON_STOP_GRACE_S)
        return {"ready_s": ready_s, "cold": cold, "warm": warm,
                "counters": status.get("counters", {}),
                "engine": status.get("engine", {})}

    # -- start-up --------------------------------------------------------------
    def import_probe(self) -> float:
        p = Launch([sys.executable, "-c", "import repro.runx.cells"], ROOT,
                   self.env)
        if p.wait(self.left()) != 0:
            raise RuntimeError(f"import failed: {p.describe()}")
        return p.t_exit - p.t_launch


# -- correctness ---------------------------------------------------------------

class Checker:
    """Expected digests for one seed: the pinned file where one exists,
    else the first answer checked, which every workload makes an
    in-process one.  An unpinned run therefore only shows that its paths
    agree with each other; its document records ``pinned: false``."""

    def __init__(self, seed: int, commands):
        self.pinned = cells.load_expected(seed, commands)
        # Cell ids do not depend on the seed: the default seed's pinned
        # ids are the cells every sweep must answer.
        self.ids = set(cells.load_expected(cells.DEFAULT_SEED, commands)
                       or ())
        self.attempted = 0
        self.bad: List[str] = []

    def verify(self, answers: List[Dict[str, bytes]]) -> None:
        """Check every answered sweep; every expected cell is attempted."""
        expected = self.pinned
        if expected is None:
            first = answers[0]
            expected = {cid: cells.digest(first[cid]) if cid in first
                        else "missing" for cid in self.ids}
        for records in answers:
            bad = set(cells.check(records, expected))
            bad |= set(cells.failed_cells(records))
            self.attempted += len(expected)
            self.bad += sorted(bad)


def merged(cmds: List[Cmd]) -> Dict[str, bytes]:
    out: Dict[str, bytes] = {}
    for c in cmds:
        out.update(c.records)
    return out


# -- workloads -------------------------------------------------------------------

def timed(workload: str, b: Bench, seconds: float) -> Dict:
    """Repeat the sweep for about ``seconds``, timing the calibration
    loop before the first sweep and after each one.  The medians of the
    wall times are scaled by ``CALIB_REF_S`` over the loop's mean time,
    so they read as seconds on the reference host at its quiet speed;
    the document keeps the wall times and loop times."""
    commands = MPI_SWEEP
    checker = Checker(b.seed, commands)
    samples: Dict[str, List[float]] = {
        "setup_s": [], "sweep_s": [], "resubmit_s": [], "peak_rss_mb": [],
        "calib_s": [calib.measure(CALIB_COPIES[workload])]}
    answers: List[Dict[str, bytes]] = []
    samples["setup_s"] += [b.probe(workload, commands[0])
                           for _ in range(SETUP_PROBES)]
    t0 = time.monotonic()
    laps: List[float] = []
    # Start another sweep only while it would end nearer the measuring
    # time than stopping now does, so a run never overruns by much more
    # than half a sweep.
    while not laps or (time.monotonic() - t0 + median(laps) / 2
                       < seconds):
        lap0 = time.monotonic()
        work = b.work(workload)
        with TreeRss() as rss:
            if workload == "mpi_served":
                s = b.served(work, rss)
                samples["setup_s"].append(s["ready_s"])
                samples["sweep_s"].append(sum(c.run_s for c in s["cold"]))
                samples["resubmit_s"].append(sum(c.run_s for c in s["warm"]))
                answers += [merged(s["cold"]), merged(s["warm"])]
            else:
                got = [b.inproc(c, work, rss) for c in commands]
                samples["setup_s"] += [c.setup_s for c in got]
                samples["sweep_s"].append(sum(c.run_s for c in got))
                answers.append(merged(got))
        samples["peak_rss_mb"].append(rss.peak_mb)
        shutil.rmtree(work, ignore_errors=True)
        samples["calib_s"].append(calib.measure(CALIB_COPIES[workload]))
        laps.append(time.monotonic() - lap0)
    if workload == "mpi_served" and checker.pinned is None:
        # Nothing pinned covers this seed: answer it in-process, untimed,
        # so the path under test has a reference.
        work = b.work("reference")
        answers.insert(0, merged([b.inproc(c, work) for c in commands]))
    checker.verify(answers)
    scale = CALIB_REF_S / mean(samples["calib_s"])
    metrics = {"setup_s": median(samples["setup_s"]) * scale,
               "sweep_s": median(samples["sweep_s"]) * scale,
               "peak_rss_mb": median(samples["peak_rss_mb"])}
    return {"metrics": metrics, "units": E2E, "checker": checker,
            "speed_scale": scale,
            "samples": {k: v for k, v in samples.items() if v}}


def _tail(values: List[float]) -> tuple:
    """The highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    if len(vals) <= 10:
        return vals[-1], 100.0
    k = len(vals) - 11
    return vals[k], 100.0 * (k + 1) / len(vals)


def traced(workload: str, b: Bench) -> Dict:
    commands = MPI_SWEEP
    checker = Checker(b.seed, commands)
    m: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    m["import_s"] = median(b.import_probe() for _ in range(IMPORT_PROBES))
    answers: List[Dict[str, bytes]] = []
    doc: Dict = {}

    # A path other than in-process, once, untraced: the runner at --jobs 2
    # on mpi_inproc, the served pass on mpi_served.
    work = b.work("path")
    if workload == "mpi_inproc":
        got = [b.jobs2(c, work) for c in commands]
        answers.append(merged(got))
        durations = {cid: s for c in got for cid, s in c.cell_s.items()}
        tail, pct = _tail(list(durations.values()))
        m["runx.attempts"] = sum(c.attempts for c in got)
        m["runx.cell_s.p50"] = median(durations.values())
        m["runx.cell_s.tail"] = tail
        doc["runx_tail_percentile"] = pct
    elif workload == "mpi_served":
        with TreeRss() as rss:
            s = b.served(work, rss)
        answers += [merged(s["cold"]), merged(s["warm"])]
        path_sweep_s = sum(c.run_s for c in s["cold"])
        warm_cells = [c for w in s["warm"]
                      for c in (w.manifest or {}).get("cells", [])]
        m["daemon_ready_s"] = s["ready_s"]
        m["serve.submit_cold_s"] = path_sweep_s
        m["serve.submit_warm_s"] = sum(c.run_s for c in s["warm"])
        m["serve.cache.hit_ratio"] = (
            sum(1 for c in warm_cells if c.get("cached")) / len(warm_cells)
            if warm_cells else 0.0)
        m["serve.jobs.requeued"] = s["counters"].get("serve.jobs.requeued", 0)
        m["serve.workers.restarts"] = s["counters"].get(
            "serve.workers.restarts", 0)
        doc["serve_counters"] = s["counters"]
        doc["serve_engine"] = s["engine"]
    shutil.rmtree(work, ignore_errors=True)

    # The same cells in-process: untraced, then under cProfile with the
    # program's metrics registry on.  Tracing is passive, so both answer
    # with the same bytes.
    work = b.work("inproc")
    plain = [b.inproc(c, work) for c in commands]
    plain_rec = merged(plain)
    answers.insert(0, plain_rec)
    if workload == "mpi_inproc":
        path_sweep_s = sum(c.run_s for c in plain)
        inproc_s = {cid: s for c in plain for cid, s in c.cell_s.items()}
        m["runx.overhead_s"] = sum(
            d - inproc_s[cid] for cid, d in durations.items()
            if cid in inproc_s)
    pwork = b.work("profiled")
    prof = [b.inproc(c, pwork, profile=True) for c in commands]
    answers.append(merged(prof))
    checker.verify(answers)
    agg = ledger.aggregate(pwork / f"{c}.prof" for c in commands)
    counts = ledger.merge_counts(ledger.registry_counts(c.stdout)
                                 for c in prof)
    for layer, v in ledger.layer_self_s(agg).items():
        m[f"{layer}.self_s"] = v
    m["simx.rate.vec_kernel_calls"] = agg["vec_kernel_calls"]
    m.update(counts)
    fired = counts["engine.events.fired"]
    m["host_us_per_event"] = path_sweep_s / fired * 1e6 if fired else 0.0
    overhead = (sum(c.wall_s for c in prof)
                / sum(c.wall_s for c in plain))
    m["trace.overhead_x"] = overhead
    err = cells.paper_err_pct(plain_rec)
    m["paper_err_pct"] = err if err is not None else 0.0
    m["cell_error_rate"] = len(checker.bad) / max(1, checker.attempted)
    shutil.rmtree(work, ignore_errors=True)
    shutil.rmtree(pwork, ignore_errors=True)
    doc["ledger"] = {
        "modules": agg["modules"],
        "total_self_s": agg["total_self_s"],
        "registry": counts,
        "tracing_overhead_x": overhead,
        # Layer shares recorded when the benchmark was introduced.
        "start_shares": json.loads(
            (HERE / "start_shares.json").read_text()).get(workload),
    }
    return {"metrics": m, "units": PER_LAYER, "checker": checker, **doc}


# -- entry point -------------------------------------------------------------------

WORKLOADS = ("mpi_inproc", "mpi_served")


def git_rev() -> Optional[str]:
    """HEAD of the checkout's own ``.git``, read without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def header() -> Dict:
    import numpy
    from repro.runx.forkshare import snapshot_mode
    from repro.simx.rate import current_engine

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "src_digest": src_digest(),
        "repro_engine": current_engine(),
        "repro_snapshot": snapshot_mode(),
        "loadavg_before": list(os.getloadavg()),
        "started_unix": time.time(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").exists():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # REPRO_ENGINE / REPRO_SNAPSHOT and every other knob stay at their
    # defaults, in the children and in the header's resolution of them.
    for k in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[k]
    sys.path.insert(0, str(ROOT / "src"))
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    head = header()
    b = Bench(args.seed)
    if args.trace:
        res = traced(args.workload, b)
    else:
        res = timed(args.workload, b, args.seconds)
    head["loadavg_after"] = list(os.getloadavg())
    checker: Checker = res.pop("checker")
    units = res.pop("units")
    doc = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "header": head,
        "attempted": checker.attempted, "failed": len(checker.bad),
        "pinned": checker.pinned is not None,
        "bad_cells": checker.bad[:50], **res,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
     f"{stamp}-{os.getpid()}.json").write_text(json.dumps(doc, indent=1))
    shutil.rmtree(b.work_root, ignore_errors=True)
    if checker.pinned is None:
        print(f"note: seed {args.seed} has no pinned digests; the paths "
              "were checked only against each other", file=sys.stderr)
    print(json.dumps({
        "correct": not checker.bad,
        "attempted": checker.attempted,
        "failed": len(checker.bad),
        "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
