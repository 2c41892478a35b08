"""The exact integer elimination kernel, as the package looks it up.

The implementation lives in :mod:`gkmfactor._kernels_py`; this module
only re-exports it.  Callers reach these names through this module at
call time (``kernels.IntRREF()``, ``kernels.nullspace_of_rows(...)``),
so a profiler can replace them here, as ``perfbench/tracing.py``
replaces ``kernels.IntRREF`` with a counting subclass.  The
implementation's own calls stay unaffected: ``rank_of_rows`` and
``nullspace_of_rows`` keep building the plain ``IntRREF`` of
``_kernels_py``, so none of their rows is counted twice.
"""

from __future__ import annotations

from ._kernels_py import BACKEND, IntRREF, nullspace_of_rows, rank_of_rows

__all__ = ["BACKEND", "IntRREF", "nullspace_of_rows", "rank_of_rows"]
