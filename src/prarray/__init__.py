"""Pseudo-random arrays and array codes from folded shift-register sequences.

The package constructs doubly-periodic binary arrays with the perfect
window property by folding the cycles of uniform-exponent polynomials
over GF(2) along CRT diagonals, and verifies them by independent
criteria: a brute-force window census, shift-and-add closure, the
set-polynomial divisibility test, and the determinant criterion in its
trace form.

It has two layers.  The int algebra (``gf2poly``, ``gf2field``,
``lfsr``'s sequence operations and ``criteria``) works on Python ints
and never imports numpy: the vee product, the classification of
product constructions, enumeration by exponent and the rank criteria.
The numpy grid oracle (``zero_factor``, ``folding`` and ``verify``:
zero factors, folds, array files, the census and the closure) builds
and checks whole codes, each one read-only (m, r1, r2) uint8 grid
stack, an array being one (r1, r2) grid of it.  Its names are resolved
here on first use, so ``import prarray`` leaves numpy unloaded until a
caller reaches the oracle.
"""

from importlib import import_module

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
    gcd,
    is_irreducible,
    lcm,
    ord2,
    parse,
)
from .gf2field import FieldContext, FieldElement
from .lfsr import CyclicSequence, ZeroFactor, berlekamp_massey, generate, zero_factor
from .criteria import (
    CodeParams,
    ConstructionRecord,
    PositionSet,
    VerdictReport,
    Witness,
    bezout,
    classify_construction,
    conjecture_search,
    det_test,
    setpoly_test,
    sufficient_conditions,
    trace_independence_test,
    vee,
    window_positions,
)

# oracle names and the module that defines them, imported on first use
_ORACLE = {
    "fold": "folding",
    "fold_zero_factor": "folding",
    "read_arrays": "folding",
    "unfold": "folding",
    "write_arrays": "folding",
    "shift_add_closure": "verify",
    "verify_prac": "verify",
    "window_census": "verify",
}


def __getattr__(name):
    if name in _ORACLE:
        return getattr(import_module(f".{_ORACLE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    "VerdictReport",
    "Witness",
    "ZeroFactor",
    "berlekamp_massey",
    "bezout",
    "classify",
    "classify_construction",
    "conjecture_search",
    "count_irreducible_with_exponent",
    "det_test",
    "enumerate_irreducible",
    "exponent",
    "factor",
    "fold",
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
