"""Ternary-tree fermion encodings and their Clifford maps to Jordan-Wigner.

The pieces fit together like this: pauli holds the signed string type and
the packed x/z bit planes that batches of strings travel in, tree turns
trees into generator sets held as their leaf runs (packed as one batch to
be certified), engine runs the gate rules on packed batches (clifford: on
one string as one column), straighten synthesizes the tree-to-chain
circuits and checks them, oracle conjugates the same batches exactly,
each string's matrix held as one unit entry per row, and cli fronts the
lot.
"""

__version__ = "0.1.0"

from .clifford import (
    Circuit,
    Gate,
    circuit_format,
    circuit_parse,
    conjugate_circuit,
    invert_circuit,
    peephole_cancel,
)
from .oracle import (
    OracleError,
    oracle_conjugate,
)
from .pauli import (
    PauliString,
    pauli_format,
)
from .straighten import (
    Certificate,
    MapResult,
    StraightenResult,
    TransformReport,
    certificate_format,
    certificate_parse,
    certify,
    fix_signs,
    fork_move,
    map_between,
    oracle_check,
    relabel,
    straighten,
    straighten_fork,
    verify_transform,
)
from .tree import (
    TERMINAL,
    GeneratorSet,
    TernaryTree,
    ValidationReport,
    check_generator_set,
    full_ternary,
    jw_chain,
    random_tree,
    tree_augment,
    tree_format,
    tree_generators,
    tree_leaves,
    tree_parse,
)

__all__ = [
    "Certificate",
    "Circuit",
    "Gate",
    "GeneratorSet",
    "MapResult",
    "OracleError",
    "PauliString",
    "StraightenResult",
    "TERMINAL",
    "TernaryTree",
    "TransformReport",
    "ValidationReport",
    "certificate_format",
    "certificate_parse",
    "certify",
    "check_generator_set",
    "circuit_format",
    "circuit_parse",
    "conjugate_circuit",
    "fix_signs",
    "fork_move",
    "full_ternary",
    "invert_circuit",
    "jw_chain",
    "map_between",
    "oracle_check",
    "oracle_conjugate",
    "pauli_format",
    "peephole_cancel",
    "random_tree",
    "relabel",
    "straighten",
    "straighten_fork",
    "tree_augment",
    "tree_format",
    "tree_generators",
    "tree_leaves",
    "tree_parse",
    "verify_transform",
]
