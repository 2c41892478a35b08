"""Outside-in spans and work counts around gkmfactor's public calls.

Nothing inside the library changes.  Each traced function is replaced
by a wrapper on every binding that callers look up: several modules
import functions by name (``from .stalks import stalk_ranks`` in
``transition``, ``efficiency``, ``suites`` and ``cli``; ``build_graph``
in five modules; ``poly_mul`` and ``reducer_for`` in ``stalks``), so the
wrapper replaces the function wherever the package holds it.
``kernels.IntRREF``, ``kernels.nullspace_of_rows``,
``kernels.rank_of_rows`` and ``rootsystem.w_orbit_signed`` are looked
up on their module at call time, so that binding is enough for them.

Besides the functions the metrics name, the public entry points one
module calls in another are wrapped, so that their time is charged to
their own module.  A span's self time is its duration minus the time
of the spans it encloses; a module's ``self_s`` sums the self time of
its spans.  A function's ``.s`` is its inclusive time over outermost
calls.  Counting hooks run after a span closes and are charged to no
module.
"""

import importlib
import time
from collections import Counter

PACKAGE_MODULES = (
    "kernels", "linalg", "poly", "rootsystem", "momentgraph", "stalks",
    "weights", "transition", "efficiency", "suites", "cli",
)

TRACED = {
    "kernels": ("nullspace_of_rows", "rank_of_rows"),
    "poly": ("reducer_for", "poly_mul"),
    "rootsystem": ("build", "w_orbit_signed", "w_orbit", "weights_of"),
    "momentgraph": ("build_graph", "export_graph", "import_graph"),
    "stalks": ("run_column", "stalk_ranks", "multiplicity_matrix"),
    "weights": (
        "weight_multiplicity", "kostant_partition", "freudenthal_weight_table",
        "tensor_weight_dim",
    ),
    "transition": ("transition_bundle", "verify_bundle"),
    "efficiency": ("series_report",),
    "suites": ("run_suite",),
    "cli": ("run",),
}


def _bits(rows):
    return max((abs(v).bit_length() for row in rows for v in row.values()), default=0)


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.inclusive = Counter()
        self.self_s = Counter()
        self.max_entry_bits = 0
        self._stack = []
        self._depth = Counter()

    def wrap(self, module, name, fn, after=None):
        key = f"{module}.{name}"
        counts, stack, depth = self.counts, self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[key + ".calls"] += 1
            depth[key] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{key}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                dt = clock() - t0
                self.self_s[module] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                depth[key] -= 1
                if not depth[key]:
                    self.inclusive[key] += dt
            if after is not None:
                t1 = clock()
                after(args, result)
                if stack:
                    stack[-1] += clock() - t1
            return result

        return wrapper

    # Counting hooks: (args, result) -> None.

    def _rows_bits(self, rows):
        self.max_entry_bits = max(self.max_entry_bits, _bits(rows))

    def _after_add(self, args, col):
        self.counts["kernels.rows_added"] += 1
        if col is not None:
            self.counts["kernels.rows_independent"] += 1
            self._rows_bits([args[0].pivots[col]])

    def _after_nullspace(self, args, kernel):
        rows, ncols = args
        self.counts["kernels.rows_added"] += len(rows)
        self.counts["kernels.rows_independent"] += ncols - len(kernel)
        self.counts["kernels.nullspace_cells"] += len(rows) * ncols
        self._rows_bits(kernel)

    def _after_rank(self, args, rank):
        self.counts["kernels.rows_added"] += len(args[0])
        self.counts["kernels.rows_independent"] += rank

    def _after_run_column(self, args, result):
        self.counts["stalks.section_dims_total"] += sum(result.section_dims)

    def _hooks(self):
        c = self.counts
        return {
            "kernels.nullspace_of_rows": self._after_nullspace,
            "kernels.rank_of_rows": self._after_rank,
            "stalks.run_column": self._after_run_column,
            "rootsystem.w_orbit_signed": lambda a, r: c.update({"rootsystem.orbit_points": len(r)}),
            "momentgraph.build_graph": lambda a, g: c.update({"momentgraph.graph_edges": len(g.edges)}),
            "momentgraph.export_graph": lambda a, s: c.update({"momentgraph.export_bytes": len(s.encode())}),
            "cli.run": lambda a, code: c.update({
                "cli.output_bytes": len(a[1].getvalue().encode()),
                "cli.nonzero_exits": int(code != 0),
            }),
        }

    def install(self):
        """Replace every package binding of the traced functions."""
        modules = [importlib.import_module("gkmfactor")] + [
            importlib.import_module(f"gkmfactor.{m}") for m in PACKAGE_MODULES
        ]
        hooks = self._hooks()
        for modname, names in TRACED.items():
            mod = importlib.import_module(f"gkmfactor.{modname}")
            for name in names:
                orig = getattr(mod, name)
                wrapped = self.wrap(modname, name, orig, hooks.get(f"{modname}.{name}"))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
        kernels = importlib.import_module("gkmfactor.kernels")
        kernels.IntRREF = self._traced_rref(kernels.IntRREF)

    def _traced_rref(self, base):
        """``IntRREF`` whose inserts and returned rows are counted."""
        return type(base.__name__, (base,), {
            "add": self.wrap("kernels", "IntRREF.add", base.add, self._after_add),
            "pivot_row": self.wrap("kernels", "IntRREF.pivot_row", base.pivot_row,
                                   lambda a, row: self._rows_bits([row])),
            "pivot_items": self.wrap("kernels", "IntRREF.pivot_items", base.pivot_items,
                                     lambda a, items: self._rows_bits([r for _, r in items])),
        })

    def snapshot(self):
        """Per-layer metrics as ``{name: [value, unit]}``."""
        c, incl, own = self.counts, self.inclusive, self.self_s
        added = c["kernels.rows_added"]
        runs, lookups = c["stalks.run_column.calls"], c["stalks.stalk_ranks.calls"]
        return {
            "kernels.rows_added": [added, "count"],
            "kernels.rows_independent": [c["kernels.rows_independent"], "count"],
            "kernels.useful_ratio": [c["kernels.rows_independent"] / added if added else 0.0, "1"],
            "kernels.nullspace_calls": [c["kernels.nullspace_of_rows.calls"], "count"],
            "kernels.nullspace_cells": [c["kernels.nullspace_cells"], "count"],
            "kernels.max_entry_bits": [self.max_entry_bits, "bit"],
            "kernels.self_s": [own["kernels"], "s"],
            "stalks.run_column.calls": [runs, "count"],
            "stalks.stalk_ranks.calls": [lookups, "count"],
            "stalks.cache_hit_ratio": [1 - runs / lookups if lookups else 0.0, "1"],
            "stalks.escalations": [c["stalks.run_column.raised.DegreeBoundError"], "count"],
            "stalks.section_dims_total": [c["stalks.section_dims_total"], "count"],
            "stalks.self_s": [own["stalks"], "s"],
            "poly.reducer_for.calls": [c["poly.reducer_for.calls"], "count"],
            "poly.poly_mul.calls": [c["poly.poly_mul.calls"], "count"],
            "poly.self_s": [own["poly"], "s"],
            "weights.weight_multiplicity.calls": [c["weights.weight_multiplicity.calls"], "count"],
            "weights.kostant_partition.calls": [c["weights.kostant_partition.calls"], "count"],
            "weights.freudenthal_weight_table.calls": [c["weights.freudenthal_weight_table.calls"], "count"],
            "weights.self_s": [own["weights"], "s"],
            "rootsystem.w_orbit_signed.calls": [c["rootsystem.w_orbit_signed.calls"], "count"],
            "rootsystem.orbit_points": [c["rootsystem.orbit_points"], "count"],
            "rootsystem.w_orbit_signed.s": [incl["rootsystem.w_orbit_signed"], "s"],
            "rootsystem.build.s": [incl["rootsystem.build"], "s"],
            "momentgraph.build_graph.calls": [c["momentgraph.build_graph.calls"], "count"],
            "momentgraph.graph_edges": [c["momentgraph.graph_edges"], "count"],
            "momentgraph.build_graph.s": [incl["momentgraph.build_graph"], "s"],
            "momentgraph.export_bytes": [c["momentgraph.export_bytes"], "B"],
            "momentgraph.export_graph.s": [incl["momentgraph.export_graph"], "s"],
            "momentgraph.import_graph.s": [incl["momentgraph.import_graph"], "s"],
            "transition.transition_bundle.calls": [c["transition.transition_bundle.calls"], "count"],
            "transition.self_s": [own["transition"], "s"],
            "transition.verify_bundle.s": [incl["transition.verify_bundle"], "s"],
            "efficiency.series_report.s": [incl["efficiency.series_report"], "s"],
            "suites.run_suite.s": [incl["suites.run_suite"], "s"],
            "cli.run.calls": [c["cli.run.calls"], "count"],
            "cli.self_s": [own["cli"], "s"],
            "cli.output_bytes": [c["cli.output_bytes"], "B"],
            "cli.nonzero_exits": [c["cli.nonzero_exits"], "count"],
        }
