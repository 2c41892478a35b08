"""The exact integer elimination kernel, as the package looks it up.

The implementation lives in :mod:`gkmfactor._kernels_py`; this module
only re-exports it.  It has one echelon class, ``IntRREF``, the
incremental semi-echelon basis (residuals as inserted, no
back-substitution), which the generator search in ``stalks.run_column``
instantiates.  ``nullspace_of_rows`` runs the same class over the
system's columns, each tagged with a marker entry: a column that
reduces to zero on the equations leaves in its markers the unique
primitive relation between it and the independent columns before it,
which is the kernel vector the canonical reduced echelon form gives
that free column.  Callers reach these names through this module at
call time (``kernels.IntRREF()``, ``kernels.nullspace_of_rows(...)``),
so a profiler can replace them here, as ``perfbench/tracing.py``
replaces ``kernels.IntRREF`` with a counting subclass.  The
implementation's own calls stay unaffected: ``rank_of_rows`` and
``nullspace_of_rows`` build the plain class of ``_kernels_py``, so
none of their rows is counted twice.
"""

from __future__ import annotations

from ._kernels_py import BACKEND, IntRREF, nullspace_of_rows, rank_of_rows

__all__ = ["BACKEND", "IntRREF", "nullspace_of_rows", "rank_of_rows"]
