"""Pseudo-random arrays and array codes from folded shift-register sequences.

The package constructs doubly-periodic binary arrays with the perfect
window property by folding the cycles of uniform-exponent polynomials
over GF(2) along CRT diagonals, and verifies them by independent
criteria: a brute-force window census, shift-and-add closure, the
set-polynomial divisibility test, and the determinant/trace criterion.
"""

from .gf2poly import (
    BinaryPolynomial,
    InternalCheckError,
    ParseError,
    PolynomialClass,
    classify,
    count_irreducible_with_exponent,
    enumerate_irreducible,
    exponent,
    factor,
    format_poly,
    gcd,
    is_irreducible,
    lcm,
    ord2,
    parse,
)
from .gf2field import FieldContext, FieldElement, bezout, crt_solve
from .lfsr import (
    CyclicSequence,
    ZeroFactor,
    berlekamp_massey,
    bitadd,
    bitmul,
    generate,
    zero_factor,
)
from .folding import (
    CodeParams,
    TorusArray,
    fold,
    fold_zero_factor,
    read_arrays,
    unfold,
    write_arrays,
)
from .verify import VerdictReport, Witness, shift_add_closure, verify_prac, window_census
from .criteria import (
    ConstructionRecord,
    PositionSet,
    classify_construction,
    conjecture_search,
    det_test,
    setpoly_test,
    sufficient_conditions,
    trace_independence_test,
    vee,
    window_positions,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryPolynomial",
    "CodeParams",
    "ConstructionRecord",
    "CyclicSequence",
    "FieldContext",
    "FieldElement",
    "InternalCheckError",
    "ParseError",
    "PolynomialClass",
    "PositionSet",
    "TorusArray",
    "VerdictReport",
    "Witness",
    "ZeroFactor",
    "berlekamp_massey",
    "bezout",
    "bitadd",
    "bitmul",
    "classify",
    "classify_construction",
    "conjecture_search",
    "count_irreducible_with_exponent",
    "crt_solve",
    "det_test",
    "enumerate_irreducible",
    "exponent",
    "factor",
    "fold",
    "format_poly",
    "fold_zero_factor",
    "gcd",
    "generate",
    "is_irreducible",
    "lcm",
    "ord2",
    "parse",
    "read_arrays",
    "setpoly_test",
    "shift_add_closure",
    "sufficient_conditions",
    "trace_independence_test",
    "unfold",
    "vee",
    "verify_prac",
    "window_census",
    "window_positions",
    "write_arrays",
    "zero_factor",
]
