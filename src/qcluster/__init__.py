"""Exact-arithmetic engine for classical and quantum cluster algebras.

Layers, bottom to top: the sparse Laurent kernel and the scalar ring
Z[q^(1/2), q^(-1/2)] built on it (qlaurent), the based quantum torus and
commutative Laurent polynomials on the same kernel (torus), exchange
matrices / compatible pairs / seeds (seeds), the exchange
relations (mutation), exchange-graph exploration (explorer), and a JSON
command-line front end (cli).  Everything is exact integer arithmetic;
there is no floating point anywhere.
"""

from .errors import (
    ClusterError,
    FrameMismatchError,
    IncompatibleError,
    NotDivisibleError,
    NotSymmetrizableError,
)
from .explorer import (
    ExchangeGraph,
    GraphStatus,
    LaurentReport,
    LaurentRow,
    canonical_form,
    canonical_key,
    explore,
    export_dot,
    export_json,
    laurent_report,
)
from .mutation import (
    SeedVerification,
    classical_mutate,
    mutate,
    quantum_mutate,
    verify_quantum_seed,
)
from .qlaurent import QLaurent
from .seeds import (
    ClassicalSeed,
    ExchangeMatrix,
    QuantumSeed,
    check_compatibility,
    dump_seed,
    find_skew_symmetrizer,
    lambda_mutate,
    load_seed,
    matrix_mutate,
    principal_extension,
    principal_lambda,
    principal_seed,
    specialize_seed,
)
from .torus import CommLaurent, SkewMatrix, TorusElement, reorder_weight

__version__ = "0.1.0"

__all__ = [
    "ClusterError",
    "FrameMismatchError",
    "IncompatibleError",
    "NotDivisibleError",
    "NotSymmetrizableError",
    "QLaurent",
    "SkewMatrix",
    "TorusElement",
    "CommLaurent",
    "reorder_weight",
    "ExchangeMatrix",
    "ClassicalSeed",
    "QuantumSeed",
    "find_skew_symmetrizer",
    "check_compatibility",
    "matrix_mutate",
    "lambda_mutate",
    "principal_lambda",
    "principal_extension",
    "principal_seed",
    "specialize_seed",
    "load_seed",
    "dump_seed",
    "classical_mutate",
    "quantum_mutate",
    "mutate",
    "verify_quantum_seed",
    "SeedVerification",
    "canonical_form",
    "canonical_key",
    "explore",
    "ExchangeGraph",
    "GraphStatus",
    "laurent_report",
    "LaurentReport",
    "LaurentRow",
    "export_dot",
    "export_json",
    "__version__",
]
