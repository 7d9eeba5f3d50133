"""Exact Schur-basis expansions of Petrie symmetric functions.

The Petrie symmetric function G(k, m) is the degree-m piece of
prod_i (1 + x_i + ... + x_i^(k-1)), equivalently the sum of the monomial
symmetric functions over partitions of m with all parts below k.  This
package computes its Schur expansion through four independent k-Petrie
coefficient algorithms, multiplies by power sums via the
Murnaghan-Nakayama rule, classifies when those products stay signed
multiplicity free, expands modular Schur functions, and cross-checks every
fast path against a brute-force polynomial oracle.
"""

from .abacus import (
    AbacusProfile,
    GammaShift,
    RimHookSequence,
    gamma_shift_on_removal,
    gammas_distinct,
    k_core,
    ninv,
    profile,
    rim_hook_sequence,
)
from .errors import (
    BlockViolation,
    InternalInvariantFailure,
    MalformedPartition,
    NotARimHook,
    NotASizeKRimHook,
    PetrieError,
    PreconditionViolated,
    SizeMismatch,
    TooManyParts,
)
from .modular_schur import TransitionMatrix, modular_schur_expansion, transition_matrix
from .oracle import (
    MonomialVector,
    kostka_number,
    monomial_to_schur,
    petrie_monomial_vector,
    poly_multiply_extract,
    power_sum_monomial_vector,
    schur_monomial_vector,
)
from .partitions import (
    Partition,
    SkewShape,
    add_rim_hooks,
    as_partition,
    conjugate,
    contains,
    dominates,
    format_partition,
    is_rim_hook,
    parse_partition,
    partitions_of,
    remove_rim_hooks,
    rim_hook_columns,
    rim_hook_height,
)
from .petrie_numbers import pet_det, pet_generalized, pet_grinberg, pet_rimhook
from .schur_ring import (
    SchurExpansion,
    SmfVerdict,
    SweepReport,
    classify_smf,
    is_signed_multiplicity_free,
    multiply_power_sum,
    petrie_schur_expansion,
    petrie_times_power_sum,
    sweep_smf,
    witness_non_smf,
)

__version__ = "0.1.0"
