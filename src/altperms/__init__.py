"""Alternating permutations containing a length-3 monotone pattern exactly once:
exhaustive enumeration, exact closed forms, and the constructive bijection
between hosts and their boundary-constrained block decompositions.

The package namespace loads on first use (PEP 562): `import altperms.cli`
compiles only the modules the CLI imports, and the first public name read
from `altperms` binds all of them at once.
"""

#: Each public name, under the module that defines it.
_HOMES = {
    "perm_core": (
        "AlternationClass", "InvariantViolation", "Occurrence", "Pattern", "PATTERN_123", "PATTERN_321",
        "Perm", "check_pattern", "classify", "complement", "count_occurrences", "format_perm",
        "is_alternating", "is_permutation", "middle_counts", "parse_perm", "perm", "reverse",
        "standardize", "suffix_class",
    ),
    "enumeration": ("GenerationFilter", "count", "generate", "table1_oracle"),
    "formulas": (
        "OutOfValidityRange", "SequenceSpec", "a_n", "boundary_count", "catalan", "closed_form_even_123",
        "closed_form_even_321", "closed_form_odd", "convolution_even_321", "convolution_odd_321",
        "decomposition_sum", "euler_zigzag", "table1_formula",
    ),
    "decompose": (
        "DecompositionRecord", "InvalidRecord", "NotAlternating", "NotExactlyOne",
        "enumerate_by_decomposition", "format_record", "locate_unique_321", "parse_record",
        "reconstruct", "split", "validate_record",
    ),
}

__all__ = [name for names in _HOMES.values() for name in names]
__version__ = "0.1.0"


def __getattr__(name: str):
    """Bind every public name at once, not just `name`: code that patches or
    wraps the package namespace finds all of them there after the first read."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import decompose, enumeration, formulas, perm_core  # each also becomes a package attribute

    namespace = globals()
    for home, names in _HOMES.items():
        module = namespace[home]
        namespace.update({attr: getattr(module, attr) for attr in names})
    return namespace[name]
