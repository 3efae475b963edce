"""Exact calculus for triangular limit-algebra towers.

The library models towers of upper-triangular matrix algebras joined by
triangularity-preserving unital embeddings, entirely in exact
arithmetic: supernatural bookkeeping, ordered-partition combinatorics,
embedding calculus, shift automorphisms with their factorization and
isomorphism invariants, the diagonal-spectrum order, and a small
floating-point lane for the diagonal-normalizer matrix facts.

Every public name is importable from here, and loads on first use
(PEP 562): ``import tuhf`` imports no submodule, and ``tuhf.OrderedPartition``
or ``from tuhf import OrderedPartition`` imports ``tuhf.partitions`` and
what it needs.  So a command or a script pays only for the modules it
uses, and a missing numpy fails where the first module that needs it
loads, not at ``import tuhf``.
"""

import importlib

# The public names, by the module that defines them.
_EXPORTS = {
    "errors": ("DomainError", "FormatError", "TuhfError"),
    "supernatural": (
        "INF", "SupernaturalNumber", "factorize", "is_prime", "multiply",
        "rational_pair_witness",
    ),
    "partitions": (
        "Order", "OrderedPartition", "OrderedSubpartition", "compare", "compose",
        "format_partition", "interleaved_runs", "ordered_partitions",
        "parse_partition", "psize_oracle", "restrict_prefix", "runs_of",
    ),
    "embeddings": (
        "RegularEmbedding", "alternating", "compare_embeddings", "compose_embeddings",
        "identity_embedding", "image_of_unit", "nest", "standard", "tensor_embed",
    ),
    "matrices": (
        "ComplexUpperTriangular", "DiagonalUnitary", "PartialPermutationMatrix",
        "apply_to_matrix", "conjugate_by_diagonal", "format_matrix",
        "normalizer_split", "parse_matrix", "recompose", "straighten_level",
    ),
    "towers": (
        "Descriptor", "TensorTower", "TowerSpec", "format_descriptor",
        "format_tower", "load_tower", "parse_descriptor",
    ),
    "gelfand": (
        "GelfandPoint", "RelationPair", "gelfand_compare",
        "gelfand_compare_via_projections", "parse_point", "projection_chain",
        "relation_member",
    ),
    "automorphisms": (
        "FiniteAutoData", "ShiftWord", "alternating_iso", "combine_tensor_autos",
        "common_infinite_primes", "detect_interval_form", "dirichlet_dimension_check",
        "factor_automorphism", "factor_report", "format_auto_data", "format_word",
        "lift_block_words", "load_auto_data", "materialize_word",
        "normalize_for_prime", "normalize_for_word", "out_rank", "parse_word",
        "shift_auto", "torsion_check", "validate_word", "word_action",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"checks", "cli"}

__all__ = list(_OWNER)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is not None:
        return getattr(importlib.import_module("." + module, __name__), name)
    # The seeded suites load on first use, as ``tuhf.checks`` or through
    # ``check all``, so that no other command pays for their import; every
    # other submodule resolves the same way.
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _OWNER.keys() | _SUBMODULES)
