"""Analytic criteria for pseudo-random array codes.

The central construction is the product polynomial ``vee(f1, f2)`` whose
roots are all pairwise products of roots of f1 and f2.  It is computed
by two independent routes that must agree:

(a) the characteristic polynomial (Berkowitz, division-free) of the
    Kronecker product of the two companion matrices;
(b) the least common multiple of Berlekamp-Massey minimal polynomials
    of bitwise products of shifted generator sequences.

The decision procedures are exact:

* ``setpoly_test``   -- does an irreducible f divide the set polynomial
  of the window positions?  Equivalently: are the powers of a root of f
  at those positions linearly independent over GF(2)?
* ``trace_independence_test`` -- the dual basis form of det_test for a
  single irreducible polynomial: the same rank computation as
  ``setpoly_test``, reported two ways;
* ``det_test``       -- determinant criterion over several quotient
  fields at once (works for products of irreducibles); the trace-form
  route, a different computation on the same window-cell elements;
* ``sufficient_conditions``   -- the divisibility/distinct-residue
  conditions that guarantee a PRA/PRAC (sufficient, not necessary).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .gf2field import bezout
from .gf2poly import (
    BinaryPolynomial,
    InternalCheckError,
    _bit_reverse,
    _powmod,
    _trace_mask,
    _x_order,
    classify,
    enumerate_irreducible,
    is_irreducible,
    lcm as poly_lcm,
)
from .folding import CodeParams, fold_zero_factor
from .lfsr import _ZERO_FACTOR_DEGREE_CAP, berlekamp_massey, bitmul, generate, zero_factor
from .verify import _CENSUS_AREA_CAP, VerdictReport, Witness, window_census

_TYPE_RANK = {"reducible": 0, "INP": 1, "primitive": 2}
# admissible (unordered input types) -> allowed product types
_TYPE_TABLE = {
    ("reducible", "reducible"): {"reducible"},
    ("reducible", "INP"): {"reducible"},
    ("reducible", "primitive"): {"reducible"},
    ("INP", "INP"): {"reducible", "INP"},
    ("INP", "primitive"): {"reducible", "INP"},
    ("primitive", "primitive"): {"INP"},
}


@dataclass(frozen=True)
class PositionSet:
    """Sequence positions of the upper-left n1 x n2 window, row-major."""

    params: CodeParams
    positions: tuple

    def __str__(self):
        return "{" + ", ".join(str(p) for p in sorted(self.positions)) + "}"


@dataclass(frozen=True)
class ConstructionRecord:
    """A classified product construction f1, f2 -> g = vee(f1, f2)."""

    f1: BinaryPolynomial
    f2: BinaryPolynomial
    g: BinaryPolynomial
    types: tuple
    params: CodeParams

    def to_kv(self):
        return {
            "f1": str(self.f1),
            "f1.type": self.types[0],
            "f2": str(self.f2),
            "f2.type": self.types[1],
            "g": str(self.g),
            "g.compact": self.g.compact(),
            "g.type": self.types[2],
            "params.r1": str(self.params.r1),
            "params.r2": str(self.params.r2),
            "params.n1": str(self.params.n1),
            "params.n2": str(self.params.n2),
        }


def _uniform_class(f, who):
    cls = classify(f)
    if not cls.is_uniform:
        raise ValueError(f"{who} must have a uniform exponent (got kind {cls.kind})")
    return cls


def _base_type(kind):
    return "reducible" if kind == "reducible-uniform" else kind


def _companion_rows(f):
    # rows of the companion matrix whose characteristic polynomial is f
    n = f.degree
    rows = []
    for i in range(n):
        r = 1 << (i - 1) if i else 0
        if f.bits >> i & 1:
            r |= 1 << (n - 1)
        rows.append(r)
    return rows


def _kronecker(a_rows, na, b_rows, nb):
    rows = []
    for ia in range(na):
        for ib in range(nb):
            r = 0
            arow = a_rows[ia]
            for ja in range(na):
                if arow >> ja & 1:
                    r |= b_rows[ib] << (ja * nb)
            rows.append(r)
    return rows


def _charpoly(rows, n):
    """Characteristic polynomial over GF(2) by the Berkowitz method."""
    vec = 1  # coefficient vector, leading coefficient at bit 0
    for m in range(1, n + 1):
        top = n - m
        a = rows[top] >> top & 1
        r_mask = (rows[top] >> (top + 1)) & ((1 << (m - 1)) - 1)
        c_mask = 0
        for i in range(m - 1):
            c_mask |= (rows[top + 1 + i] >> top & 1) << i
        sub = [(rows[top + 1 + i] >> (top + 1)) & ((1 << (m - 1)) - 1) for i in range(m - 1)]
        t = 1 | (a << 1)
        w = c_mask
        for s in range(2, m + 1):
            t |= ((r_mask & w).bit_count() & 1) << s
            if s < m:
                nw = 0
                for i in range(m - 1):
                    if (sub[i] & w).bit_count() & 1:
                        nw |= 1 << i
                w = nw
        prod = 0
        tt = t
        shift = 0
        while tt:
            if tt & 1:
                prod ^= vec << shift
            tt >>= 1
            shift += 1
        vec = prod & ((1 << (m + 1)) - 1)
    return BinaryPolynomial(_bit_reverse(vec, n + 1))


def _vee_by_matrix(f1, f2):
    a_rows = _companion_rows(f1)
    b_rows = _companion_rows(f2)
    rows = _kronecker(a_rows, f1.degree, b_rows, f2.degree)
    return _charpoly(rows, f1.degree * f2.degree)


def _impulse(f, length):
    seed = [0] * (f.degree - 1) + [1]
    return generate(f, seed, length)


def _vee_by_sequences(f1, f2, e1, e2):
    # lcm of minimal polynomials of products of shifted base sequences;
    # shifts 0..deg-1 of each base span all generated sequences
    target = f1.degree * f2.degree
    need = max(2 * target, 2)
    base1 = _impulse(f1, e1)
    base2 = _impulse(f2, e2)
    acc = BinaryPolynomial(1)
    for s in range(f1.degree):
        a = base1.rotate(s)
        for t in range(f2.degree):
            prod = bitmul(a, base2.rotate(t))
            acc = poly_lcm(acc, berlekamp_massey(prod.take(need)))
            if acc.degree == target:
                return acc
    raise InternalCheckError(
        f"sequence products spanned degree {acc.degree}, expected {target}"
    )


def vee(f1, f2):
    """Polynomial whose roots are products of roots of f1 and f2.

    Both inputs need uniform exponents and the exponents must be
    coprime.  Computed by two independent methods which must agree.
    """
    c1 = _uniform_class(f1, "f1")
    c2 = _uniform_class(f2, "f2")
    if math.gcd(c1.exponent, c2.exponent) != 1:
        raise ValueError(
            f"exponents {c1.exponent} and {c2.exponent} are not coprime"
        )
    by_matrix = _vee_by_matrix(f1, f2)
    by_sequences = _vee_by_sequences(f1, f2, c1.exponent, c2.exponent)
    if by_matrix != by_sequences:
        raise InternalCheckError(
            f"vee methods disagree: matrix {by_matrix}, sequences {by_sequences}"
        )
    return by_matrix


def window_positions(params):
    """CRT images of the upper-left n1 x n2 window cells, row-major."""
    pos = tuple(_cell_positions(params))
    if len(set(pos)) != len(pos):
        raise InternalCheckError("window positions collide")
    return PositionSet(params, pos)


def _rank_with_kernel(vectors):
    """(rank, kernel_combination) of GF(2) vectors; the combination is a
    bitmask over the input indices witnessing the first dependency (the
    least index whose vector lies in the span of the earlier ones), or 0."""
    pivots = {}
    first = 0
    for idx, v in enumerate(vectors):
        combo = 1 << idx
        while v:
            lead = v.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (v, combo)
                break
            pv, pc = pivots[lead]
            v ^= pv
            combo ^= pc
        else:
            first = first or combo
    return len(pivots), first


def _window_vectors(fb, positions):
    """x^p mod fb for each position p: the window-cell field elements
    that every rank test here ranks, as raw ints."""
    return [_powmod(2, p, fb) for p in positions]


def _cell_positions(params):
    """Exponent i*nu*r2 + j*mu*r1 of beta^i * gamma^j at each window cell,
    row-major, where mu*r1 + nu*r2 = 1: the k with k = i mod r1 and
    k = j mod r2."""
    g, mu, nu = bezout(params.r1, params.r2)
    if g != 1:
        raise ValueError("r1 and r2 must be coprime")
    if params.n1 > params.r1 or params.n2 > params.r2:
        raise ValueError("residues out of range")
    e = params.r1 * params.r2
    return [
        (i * nu * params.r2 + j * mu * params.r1) % e
        for i in range(params.n1)
        for j in range(params.n2)
    ]


def setpoly_test(f, pos, exhaustive=False):
    """Does folding the sequences of irreducible f give a PRAC, by the
    set-polynomial divisibility criterion?

    Pass iff f does not divide the set polynomial of the positions,
    i.e. iff the powers of a root of f at those positions are linearly
    independent over GF(2).
    """
    if not is_irreducible(f):
        raise ValueError("the set-polynomial criterion needs an irreducible polynomial")
    positions = pos.positions
    if len(positions) != f.degree:
        raise ValueError(
            f"need {f.degree} positions for degree {f.degree}, got {len(positions)}"
        )
    vectors = _window_vectors(f.bits, positions)
    rank, combo = _rank_with_kernel(vectors)
    passed = rank == len(positions)
    witness = None
    detail = {"positions": sorted(positions), "rank": rank}
    if not passed:
        subset = sorted(
            (positions[i] for i in range(len(positions)) if combo >> i & 1),
            reverse=True,
        )
        terms = "+".join("x^%d" % p if p > 1 else ("x" if p == 1 else "1") for p in subset)
        witness = Witness(
            "set-polynomial", f"f divides the set-polynomial factor {terms}"
        )
        detail["dependent_positions"] = sorted(subset)
    if exhaustive:
        if len(positions) > 20:
            raise ValueError("exhaustive subset scan is capped at 20 positions")
        acc = 0
        hit = False
        gray = 0
        for m in range(1, 1 << len(positions)):
            gray_next = m ^ (m >> 1)
            acc ^= vectors[(gray ^ gray_next).bit_length() - 1]
            gray = gray_next
            if acc == 0:
                hit = True
                break
        if hit == passed:
            raise InternalCheckError("rank shortcut disagrees with the subset scan")
        detail["exhaustive_subsets"] = (1 << len(positions)) - 1
    return VerdictReport("set-polynomial", passed, pos.params, witness, detail)


def det_test(factors, params):
    """Determinant criterion for folding the sequences of a product of
    distinct same-degree, same-exponent irreducible polynomials."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    if len(set(factors)) != len(factors):
        raise ValueError("factors must be distinct")
    n = factors[0].degree
    if n < 2:
        raise ValueError("factors must have degree at least 2")
    if any(p.degree != n for p in factors):
        raise ValueError("factors must share one degree")
    k = len(factors)
    if k * n != params.window_area:
        raise ValueError(
            f"k*n = {k * n} must equal n1*n2 = {params.window_area}"
        )
    e = params.r1 * params.r2
    for p in factors:
        if not is_irreducible(p):
            raise ValueError(f"modulus {p} is not irreducible")
        order = _x_order(p.bits)
        if order != e:
            raise ValueError(f"factor {p} has exponent {order}, need {e}")
    positions = _cell_positions(params)
    cols = []
    for p in factors:
        cols.extend(_trace_columns(p.bits, n, _window_vectors(p.bits, positions)))
    rank, combo = _rank_with_kernel(cols)
    passed = rank == k * n
    witness = None
    if not passed:
        cols = [i for i in range(k * n) if combo >> i & 1]
        witness = Witness(
            "determinant",
            "dependent columns (factor, power): "
            + " ".join(f"({c // n},{c % n})" for c in cols),
        )
    return VerdictReport(
        "determinant",
        passed,
        params,
        witness,
        {"matrix_size": k * n, "rank": rank, "factors": [str(p) for p in factors]},
    )


def _trace_columns(fb, n, vectors):
    """Columns v = 0..n-1 of one factor: bit c of column v is
    Tr(x^v * vectors[c]) in GF(2)[x]/(fb)."""
    # bit k of seq is Tr(x^k); the trace sequence obeys f's recurrence
    seq = _trace_mask(fb, n)
    taps = fb ^ (1 << n)
    for k in range(n, 2 * n - 1):
        seq |= ((seq >> (k - n) & taps).bit_count() & 1) << k
    return [
        sum(((w & seq >> v).bit_count() & 1) << c for c, w in enumerate(vectors))
        for v in range(n)
    ]


def trace_independence_test(f, params):
    """Dual form of the determinant criterion for one irreducible f:
    the window-cell root powers beta^i * gamma^j must be linearly
    independent over GF(2)."""
    if not is_irreducible(f):
        raise ValueError("the trace criterion needs an irreducible polynomial")
    n = f.degree
    if n < 2:
        raise ValueError("degree must be at least 2")
    if n != params.window_area:
        raise ValueError(f"degree {n} must equal n1*n2 = {params.window_area}")
    e = params.r1 * params.r2
    order = _x_order(f.bits)
    if order != e:
        raise ValueError(f"{f} has exponent {order}, need {e}")
    rank, combo = _rank_with_kernel(_window_vectors(f.bits, _cell_positions(params)))
    passed = rank == n
    witness = None
    if not passed:
        cells = [
            (i // params.n2, i % params.n2) for i in range(n) if combo >> i & 1
        ]
        witness = Witness(
            "determinant",
            "dependent window cells: " + " ".join(str(c) for c in cells),
        )
    return VerdictReport(
        "determinant",
        passed,
        params,
        witness,
        {"method": "trace-basis", "rank": rank},
    )


def sufficient_conditions(params):
    """Divisibility and distinct-residue conditions that guarantee the
    folded code is a PRA (when r1*r2 = 2^(n1*n2)-1) or a PRAC."""
    r1, r2, n1, n2 = params.r1, params.r2, params.n1, params.n2
    total = (1 << params.window_area) - 1
    residues = sorted({pow(2, i, r1) for i in range(n1)})
    checks = [
        ("gcd(r1,r2) = 1", math.gcd(r1, r2) == 1),
        (f"r1*r2 divides 2^{params.window_area}-1", total % (r1 * r2) == 0),
        (f"r1 divides 2^{n1}-1", ((1 << n1) - 1) % r1 == 0),
        (f"2^i mod r1 distinct for i < {n1}", len(residues) == n1),
    ]
    failed = [name for name, ok in checks if not ok]
    passed = not failed
    case = "PRA" if r1 * r2 == total else "PRAC"
    witness = None
    if failed:
        witness = Witness("sufficient-conditions", "violated: " + "; ".join(failed))
    return VerdictReport(
        "sufficient-conditions",
        passed,
        params,
        witness,
        {"case": case, "residues_mod_r1": residues},
    )


def classify_construction(f1, f2):
    """Classify (f1, f2, vee(f1, f2)) and enforce the admissible type
    combinations (the product is never primitive).

    Inputs must have degree at least 2: with a degree-1 input the
    product equals the other factor, and the type table does not apply.
    """
    if f1.degree < 2 or f2.degree < 2:
        raise ValueError("construction classification needs degrees >= 2")
    c1 = _uniform_class(f1, "f1")
    c2 = _uniform_class(f2, "f2")
    g = vee(f1, f2)
    cg = classify(g)
    t1, t2, tg = _base_type(c1.kind), _base_type(c2.kind), _base_type(cg.kind)
    if tg == "primitive":
        raise InternalCheckError("product polynomial classified as primitive")
    key = tuple(sorted((t1, t2), key=_TYPE_RANK.get))
    if tg not in _TYPE_TABLE[key]:
        raise InternalCheckError(f"type combination ({t1},{t2}) -> {tg} is not admissible")
    params = CodeParams(c1.exponent, c2.exponent, f1.degree, f2.degree)
    return ConstructionRecord(f1, f2, g, (t1, t2, tg), params)


@dataclass(frozen=True)
class ConjectureEntry:
    k: int
    factors: tuple
    product: BinaryPolynomial
    verdict: VerdictReport
    census_agrees: bool | None


@dataclass(frozen=True)
class ConjectureSearchResult:
    in_range: bool
    entries: tuple
    counterexamples: tuple


def conjecture_search(n1, n2, r1, r2, kmax):
    """Fold products of k irreducible polynomials whose individual
    foldings are (r1,r2;n1,n2)-PRACs and test each product as an
    (r1,r2;n1,k*n2)-PRAC.

    ``in_range`` records whether n1 < r1 < 2*n1; out-of-range searches
    are allowed but their failures are expected to be possible.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be at least 1, got {kmax}")
    in_range = n1 < r1 < 2 * n1
    candidates = enumerate_irreducible(n1 * n2, r1 * r2)
    entries = []
    passing = []
    for f in candidates:
        entry = _conjecture_entry(1, (f,), f, CodeParams(r1, r2, n1, n2))
        entries.append(entry)
        if entry.verdict.passed:
            passing.append(f)
    for k in range(2, kmax + 1):
        for combo in itertools.combinations(passing, k):
            product = combo[0]
            for f in combo[1:]:
                product = product * f
            entries.append(
                _conjecture_entry(k, combo, product, CodeParams(r1, r2, n1, k * n2))
            )
    counterexamples = tuple(
        e for e in entries if in_range and e.k >= 2 and not e.verdict.passed
    )
    return ConjectureSearchResult(in_range, tuple(entries), counterexamples)


def _conjecture_entry(k, combo, product, params):
    verdict = det_test(list(combo), params)
    agrees = None
    if (
        params.window_area <= _CENSUS_AREA_CAP
        and product.degree <= _ZERO_FACTOR_DEGREE_CAP
    ):
        arrays = fold_zero_factor(zero_factor(product), params.r1, params.r2)
        census = window_census(arrays, params.n1, params.n2, params)
        agrees = census.passed == verdict.passed
        if not agrees:
            raise InternalCheckError(
                f"determinant and census verdicts disagree for {product}"
            )
    return ConjectureEntry(k, combo, product, verdict, agrees)
