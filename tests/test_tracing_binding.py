"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` replaces functions on the package's modules by
name, so removing a module or a name it looks up breaks the benchmark.
``Tracer.install`` patches module globals, so it runs in a subprocess.
The A2 adjoint column's work counts pin the engine's current
elimination work; a change that alters that work updates them.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import Tracer
import gkmfactor as gk
from gkmfactor import _kernels_py, kernels, rootsystem

tracer = Tracer()
tracer.install()
assert kernels.IntRREF is not _kernels_py.IntRREF
rs = rootsystem.build("A", 2)
gk.stalk_ranks(gk.Truncation(rs, rs.highest_root))
counts = {k: v for k, (v, unit) in tracer.snapshot().items() if unit == "count"}
# Each eliminated row is counted once: the kernel's own nullspace and
# rank helpers must not go through the traced IntRREF.
assert counts["kernels.rows_added"] == 483, counts
assert counts["kernels.rows_independent"] == 171, counts
assert counts["kernels.nullspace_calls"] == 20, counts
assert counts["stalks.run_column.calls"] == 1, counts
"""


def test_tracer_installs_on_the_package():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
