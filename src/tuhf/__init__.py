"""Exact calculus for triangular limit-algebra towers.

The library models towers of upper-triangular matrix algebras joined by
triangularity-preserving unital embeddings, entirely in exact
arithmetic: supernatural bookkeeping, ordered-partition combinatorics,
embedding calculus, shift automorphisms with their factorization and
isomorphism invariants, the diagonal-spectrum order, and a small
floating-point lane for the diagonal-normalizer matrix facts.
"""

from .errors import DomainError, FormatError, TuhfError
from .supernatural import (
    INF,
    SupernaturalNumber,
    common_infinite_count,
    factorize,
    is_prime,
    multiply,
    rational_pair_witness,
)
from .partitions import (
    Order,
    OrderedPartition,
    OrderedSubpartition,
    Run,
    compare,
    compose,
    format_partition,
    interleaved_runs,
    ordered_partitions,
    parse_partition,
    psize_oracle,
    restrict_prefix,
    runs_of,
)
from .embeddings import (
    EmbeddingOrder,
    RegularEmbedding,
    alternating,
    compare_embeddings,
    compose_embeddings,
    identity_embedding,
    image_of_unit,
    nest,
    regularize,
    standard,
    tensor_embed,
)
from .matrices import (
    ComplexUpperTriangular,
    DiagonalUnitary,
    PartialPermutationMatrix,
    apply_to_matrix,
    conjugate_by_diagonal,
    format_matrix,
    normalizer_split,
    parse_matrix,
    recompose,
    straighten_level,
)
from .towers import (
    Descriptor,
    TensorTower,
    TowerSpec,
    format_descriptor,
    format_tower,
    load_tower,
    parse_descriptor,
)
from .gelfand import (
    GelfandOrder,
    GelfandPoint,
    RelationPair,
    gelfand_compare,
    gelfand_compare_via_projections,
    parse_point,
    projection_chain,
    relation_member,
)
from .automorphisms import (
    FiniteAutoData,
    ShiftWord,
    alternating_iso,
    combine_tensor_autos,
    common_infinite_primes,
    detect_interval_form,
    dirichlet_dimension_check,
    factor_automorphism,
    factor_report,
    format_auto_data,
    format_word,
    lift_block_words,
    load_auto_data,
    materialize_word,
    normalize_for_prime,
    normalize_for_word,
    out_rank,
    parse_word,
    shift_auto,
    torsion_check,
    validate_word,
    word_action,
)

__version__ = "0.1.0"
