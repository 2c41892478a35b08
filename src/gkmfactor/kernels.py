"""The exact integer elimination kernel, as the package looks it up.

The implementation lives in :mod:`gkmfactor._kernels_py`; this module
only re-exports it.  ``IntRREF`` is the incremental semi-echelon basis
(residuals as inserted, no back-substitution), which the generator
search in ``stalks.run_column`` instantiates; the canonical reduced
echelon class stays inside the implementation, behind
``nullspace_of_rows``.  Callers reach these names through this module at
call time (``kernels.IntRREF()``, ``kernels.nullspace_of_rows(...)``),
so a profiler can replace them here, as ``perfbench/tracing.py``
replaces ``kernels.IntRREF`` with a counting subclass.  The
implementation's own calls stay unaffected: ``rank_of_rows`` and
``nullspace_of_rows`` build the plain classes of ``_kernels_py``, so
none of their rows is counted twice.
"""

from __future__ import annotations

from ._kernels_py import BACKEND, IntRREF, nullspace_of_rows, rank_of_rows

__all__ = ["BACKEND", "IntRREF", "nullspace_of_rows", "rank_of_rows"]
