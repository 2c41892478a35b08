"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracing.py`` replaces functions on the package's modules by
name, so removing a module or a name it looks up breaks the benchmark.
``Tracer.install`` patches module globals, so it runs in a subprocess.
The A2 adjoint column's work counts pin the engine's current
elimination work; a change that alters that work updates them.

``stalk_ranks`` makes one ``run_column`` call, which runs the recursion
over a rank-2 subtorus in degrees 0..D - 2 and certifies every rank
against one Freudenthal weight table: 40 rows added, 30 independent, 10
nullspace calls and 39 nullspace cells.  Running degrees 0..D and
checking that D - 1 and D held no generator took 103 rows added, 77
independent, 20 nullspace calls and 110 nullspace cells.  The
two-variable engine, with one boundary slot per (upward edge, neighbor
generator) and ``x`` and ``y`` acting as per-edge integers, runs the
very systems the ``n``-variable engine (now ``tests/nvar_oracle.py``)
ran on the projected graph, so those counts did not move when it
replaced that engine.  The same column through degree D in its own
three variables, ``nvar_oracle.run_column(build_graph(tr), D)``, adds
202 rows, 171 of them independent, in 20 nullspace calls over 528
cells.  Those three-variable counts are those of carrying
sections as module generators: with full per-degree section bases they
were 483 rows added and 1815 nullspace cells.  The rows added are those
of the staged S_1 products, where pass ``i`` multiplies by ``x_i`` only
the rows of stage at least ``i``: multiplying every row of the reduced
basis of ``M_(d-1)`` by every variable fed 273.  Each extension system
has one row per pivot slot of ``M_d``: with one per boundary slot that
any image touches, 221 rows were added and 648 nullspace cells.  The
polynomial product count pins one multiplication path: boundary values
are scaled slot-wise by a variable's per-edge integer, and a projected
section slot ``x^a y^b`` by ``s_x**a * s_y**b`` from those integers, so
the column takes no products.  Reducing those monomials through an
eliminating reducer took 6 (3 in three variables), and a second,
polynomial-product path for the extension system took 129.  The 15
``reducer_for`` calls are one per upward edge of each vertex.
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
assert counts["kernels.rows_added"] == 40, counts
assert counts["kernels.rows_independent"] == 30, counts
assert counts["kernels.nullspace_calls"] == 10, counts
assert counts["kernels.nullspace_cells"] == 39, counts
assert counts["weights.freudenthal_weight_table.calls"] == 1, counts
assert counts["poly.poly_mul.calls"] == 0, counts
assert counts["poly.reducer_for.calls"] == 15, counts
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
