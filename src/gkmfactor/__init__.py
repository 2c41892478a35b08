"""Exact computational toolkit for simply-laced root systems: moment
graphs of truncated affine Grassmannians, canonical-sheaf stalk ranks
under GKM congruences, weight multiplicities, transition-matrix blocks
and geometric-efficiency bounds.

All arithmetic is exact (Python integers and fractions); the sparse
elimination hot path runs on one pure Python integer kernel (see
:mod:`gkmfactor.kernels`).
"""

from .momentgraph import (
    MomentGraph,
    Truncation,
    build_graph,
    export_graph,
    import_graph,
)
from .rootsystem import RootSystem, build, resolve_coweight
from .stalks import (
    MultiplicityMatrix,
    multiplicity_matrix,
    stalk_ranks,
)
from .transition import TransitionBundle, transition_bundle, verify_bundle
from .weights import (
    QPolynomial,
    kostant_partition,
    tensor_decompose,
    tensor_weight_dim,
    weight_multiplicity,
)

__version__ = "0.1.0"

__all__ = [
    "MomentGraph",
    "MultiplicityMatrix",
    "QPolynomial",
    "RootSystem",
    "TransitionBundle",
    "Truncation",
    "build",
    "build_graph",
    "export_graph",
    "import_graph",
    "kostant_partition",
    "multiplicity_matrix",
    "resolve_coweight",
    "stalk_ranks",
    "tensor_decompose",
    "tensor_weight_dim",
    "transition_bundle",
    "verify_bundle",
    "weight_multiplicity",
]
