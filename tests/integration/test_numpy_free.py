"""The simulator path imports no numpy.

numpy is an optional extra for the host-native tools
(``apps.convolve_native``, ``apps.cachegrind``); the CLI, the cell
executors and the serve worker must neither need it nor pay its import
time.  Checked in a fresh interpreter so no other test's imports count.
"""

import os
import subprocess
import sys

_PROBE = """
import sys
import repro.cli
import repro.runx.cells
import repro.serve.workproc
from repro.runx.cells import run_cell

out = run_cell("nas", {"bench": "EP", "cls": "A", "nodes": 1, "rpn": 1,
                       "smm": 0, "reps": 1}, 1)
assert out["values"], out
print("numpy" in sys.modules)
"""


def test_simulator_path_never_imports_numpy():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
