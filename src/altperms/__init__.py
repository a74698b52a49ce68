"""Alternating permutations containing a length-3 monotone pattern exactly once:
exhaustive enumeration, exact closed forms, and the constructive bijection
between hosts and their boundary-constrained block decompositions.
"""

from .perm_core import (
    AlternationClass,
    Occurrence,
    Pattern,
    PATTERN_123,
    PATTERN_321,
    Perm,
    check_pattern,
    classify,
    complement,
    count_occurrences,
    format_perm,
    is_alternating,
    is_permutation,
    middle_counts,
    parse_perm,
    perm,
    reverse,
    standardize,
    suffix_class,
)
from .enumeration import GenerationFilter, count, euler_zigzag, generate, table1_oracle
from .formulas import (
    OutOfValidityRange,
    SequenceSpec,
    a_n,
    boundary_count,
    catalan,
    closed_form_even_123,
    closed_form_even_321,
    closed_form_odd,
    convolution_even_321,
    convolution_odd_321,
    decomposition_sum,
    table1_formula,
)
from .decompose import (
    DecompositionRecord,
    InvalidRecord,
    InvariantViolation,
    NotAlternating,
    NotExactlyOne,
    enumerate_by_decomposition,
    format_record,
    locate_unique_321,
    parse_record,
    reconstruct,
    split,
    validate_record,
)

__version__ = "0.1.0"
