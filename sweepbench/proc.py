"""Launching the program under test and watching it from outside.

Every process is started in its own session so the benchmark can stop
the whole tree (the CLI plus any worker it spawned) with one signal, and
is always waited for.  Timings use ``time.monotonic``.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: How often the RSS sampler walks the process tree.  The served
#: daemon's workers live for the whole sweep and each ``submit`` client
#: for at least half a second, so 50 ms catches every overlap of them.
#: A walk costs about 1 ms of CPU; at 20 ms the sampler slowed a 2-core
#: sweep by 5%.
RSS_PERIOD_S = 0.05


class Launch:
    """One program process, its stderr lines timestamped on arrival.

    ``ready_line`` decides when set-up is over: a predicate over a
    stderr line.
    """

    def __init__(self, argv: Sequence[str], cwd: Path, env: Dict[str, str],
                 ready_line: Optional[Callable[[str], bool]] = None,
                 stdout_path: Optional[Path] = None):
        self.ready_line = ready_line
        self.lines: List[tuple] = []  # (monotonic time, line)
        self.ready_at: Optional[float] = None
        self._ready = threading.Event()
        self._out = open(stdout_path, "w") if stdout_path else None
        self.t_launch = time.monotonic()
        self.proc = subprocess.Popen(
            list(argv), cwd=cwd, env=env, text=True,
            stdout=self._out or subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.t_exit: Optional[float] = None

    def _read(self) -> None:
        for line in self.proc.stderr:
            now = time.monotonic()
            self.lines.append((now, line.rstrip("\n")))
            if (self.ready_at is None and self.ready_line is not None
                    and self.ready_line(line)):
                self.ready_at = now
                self._ready.set()
        self._ready.set()  # stderr closed: the process is exiting

    def wait_ready(self, timeout_s: float) -> float:
        """Seconds from launch until the ready signal; raises if the
        process exits or the deadline passes first."""
        self._ready.wait(timeout_s)
        if self.ready_at is None:
            raise RuntimeError(f"never ready: {self.describe()}")
        return self.ready_at - self.t_launch

    def wait(self, timeout_s: float) -> int:
        try:
            rc = self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(f"timed out after {timeout_s:.0f}s: "
                               f"{self.describe()}") from None
        self.t_exit = time.monotonic()
        self._close()
        return rc

    def kill(self) -> None:
        """SIGKILL the whole session, reap the leader, and wait (bounded)
        until every other member of its process group is gone too."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.t_exit = time.monotonic()
        deadline = self.t_exit + 5.0
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        self._close()

    def stop(self, grace_s: float) -> None:
        """SIGTERM (graceful drain for the daemon), SIGKILL after grace."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGTERM)
            try:
                self.proc.wait(timeout=grace_s)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def _close(self) -> None:
        self._reader.join(timeout=5)
        if self._out is not None:
            self._out.close()
            self._out = None

    def describe(self) -> str:
        tail = "\n".join(line for _, line in self.lines)[-400:]
        return f"{' '.join(self.proc.args)} (rc={self.proc.poll()}) {tail}"


def _hwm_kb(pid: int) -> int:
    """The process's own peak RSS so far (``VmHWM``)."""
    try:
        with open(f"/proc/{pid}/status") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


#: ``PF_FORKNOEXEC`` in the flags of ``/proc/<pid>/stat``: forked, and
#: has not run exec yet.
_FORKNOEXEC = 0x40


def _children() -> Dict[int, List[int]]:
    """Each process's children that have run exec.  A child that has not
    (the program spawning a command, such as ``platform.processor()``
    running ``uname -p``) still shares its parent's pages, and under
    vfork its very address space, so its ``VmHWM`` would count the
    parent twice."""
    kids: Dict[int, List[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fp:
                stat = fp.read()
        except OSError:
            continue
        # Fields 4 (ppid) and 9 (flags) follow the parenthesised name.
        fields = stat.rpartition(")")[2].split()
        if int(fields[6]) & _FORKNOEXEC:
            continue
        kids.setdefault(int(fields[1]), []).append(int(name))
    return kids


class TreeRss:
    """Peak summed RSS of every live process under a set of roots.

    Each sample sums the live processes' own peaks (``VmHWM``), so growth
    between samples is not lost and processes alive at once count
    together.  Roots are added as the benchmark launches them (the
    daemon, then each ``submit`` client).
    """

    def __init__(self):
        self.roots: List[int] = []
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "TreeRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def sample(self) -> None:
        roots = list(self.roots)
        if not roots:
            return
        kids = _children()
        seen, stack, total = set(), roots, 0
        while stack:
            pid = stack.pop()
            if pid in seen:
                continue
            seen.add(pid)
            total += _hwm_kb(pid)
            stack.extend(kids.get(pid, ()))
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(RSS_PERIOD_S):
            self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0
