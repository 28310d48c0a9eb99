"""Analytic criteria for pseudo-random array codes.

The central construction is the product polynomial ``vee(f1, f2)`` whose
roots are all pairwise products of roots of f1 and f2.  It is computed
by two independent routes that must agree:

(a) the minimal polynomial of xy in GF(2)[x,y]/(f1(x), f2(y)): the
    first linear dependency, found by the shared GF(2) kernel, among
    the n1*n2 + 1 powers of xy (a Krylov sequence in the tensor ring);
(b) the least common multiple of Berlekamp-Massey minimal polynomials
    of bitwise products of shifted generator sequences, each read from
    a prefix of 2*n1*n2 bits.

Both cost a polynomial in the degrees, not in the exponents.

The decision procedures are exact:

* ``setpoly_test``   -- does an irreducible f divide the set polynomial
  of the window positions?  Equivalently: are the powers of a root of f
  at those positions linearly independent over GF(2)?
* ``det_test``       -- determinant criterion over several quotient
  fields at once (works for products of irreducibles); the trace-form
  route, a different computation on the same window-cell elements, and
  the cross-check of the set-polynomial test;
* ``sufficient_conditions``   -- the divisibility/distinct-residue
  conditions that guarantee a PRA/PRAC (sufficient, not necessary).

The rank routes share two caches per (f, params): ``_cell_vectors``,
the elements x^p mod f at the window-cell positions p, stepped with one
multiplication a cell, and ``_cell_rank``, their rank.  The
set-polynomial test reports that rank (``trace_independence_test``
reports it again, for the benchmark harness only); ``det_test`` ranks
the elements' trace columns instead.  Whether f is
irreducible and the order of x depend on f alone: each criterion reads
them from ``gf2poly``, which keeps them for its last eight polynomials,
so the consecutive cases of one f compute them once.

The module works on ints alone.  It also defines the types every
verdict is reported in (``CodeParams``, ``Witness``, ``VerdictReport``)
and the census's area cap, so that ``folding`` and ``verify`` import
them from here and not the other way round: numpy and the grid oracle
load only inside ``_fold_census``, the one step that folds and
censuses a code.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .gf2poly import (
    BinaryPolynomial,
    InternalCheckError,
    _gf2_kernel,
    _is_irreducible_int,
    _mulmod,
    _powmod,
    _trace_mask,
    _x_order,
    classify,
    enumerate_irreducible,
    lcm as poly_lcm,
)
from .lfsr import _ZERO_FACTOR_DEGREE_CAP, CyclicSequence, berlekamp_massey, generate

_CENSUS_AREA_CAP = 28  # the census's occupancy table stays under 32 MiB


@dataclass(frozen=True)
class CodeParams:
    """Array code parameters: r1 x r2 arrays, n1 x n2 windows."""

    r1: int
    r2: int
    n1: int
    n2: int

    def __post_init__(self):
        if min(self.r1, self.r2, self.n1, self.n2) < 1:
            raise ValueError("parameters must be positive")

    @property
    def window_area(self):
        return self.n1 * self.n2

    @property
    def nonzero_windows(self):
        return (1 << self.window_area) - 1

    def codeword_count(self):
        """Required code size: (2^(n1*n2) - 1) / (r1*r2)."""
        total = self.nonzero_windows
        if total % (self.r1 * self.r2):
            raise ValueError("r1*r2 does not divide 2^(n1*n2) - 1")
        return total // (self.r1 * self.r2)

    def violation(self):
        """First violated size/divisibility condition, or None."""
        if math.gcd(self.r1, self.r2) != 1:
            return f"gcd(r1, r2) = {math.gcd(self.r1, self.r2)} != 1"
        if not (self.r1 > self.n1 or self.r1 == self.n1 == 1):
            return f"need r1 > n1 (or r1 = n1 = 1), got r1={self.r1}, n1={self.n1}"
        if not (self.r2 > self.n2 or self.r2 == self.n2 == 1):
            return f"need r2 > n2 (or r2 = n2 = 1), got r2={self.r2}, n2={self.n2}"
        if self.nonzero_windows % (self.r1 * self.r2):
            return f"r1*r2 = {self.r1 * self.r2} does not divide 2^{self.window_area} - 1"
        return None

    def __str__(self):
        return f"({self.r1},{self.r2};{self.n1},{self.n2})"


@dataclass(frozen=True)
class Witness:
    """Where a verification failed."""

    kind: str
    message: str
    array_index: int | None = None
    position: tuple | None = None
    window_bits: str | None = None
    code: int | None = None

    def to_kv(self):
        out = {"witness.kind": self.kind, "witness.message": self.message}
        if self.array_index is not None:
            out["witness.array"] = str(self.array_index)
        if self.position is not None:
            out["witness.position"] = ",".join(str(v) for v in self.position)
        if self.window_bits is not None:
            out["witness.window"] = self.window_bits
        if self.code is not None:
            out["witness.code"] = str(self.code)
        return out


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of one verification criterion."""

    criterion: str
    passed: bool
    params: CodeParams | None = None
    witness: Witness | None = None
    detail: dict = field(default_factory=dict)

    @property
    def verdict(self):
        return "pass" if self.passed else "fail"

    def to_kv(self):
        out = {"criterion": self.criterion, "verdict": self.verdict}
        if self.params is not None:
            out.update(
                {
                    "params.r1": str(self.params.r1),
                    "params.r2": str(self.params.r2),
                    "params.n1": str(self.params.n1),
                    "params.n2": str(self.params.n2),
                }
            )
        if self.witness is not None:
            out.update(self.witness.to_kv())
        for key, val in sorted(self.detail.items()):
            if key == "stages":
                val = ";".join(f"{s['criterion']}={s['verdict']}" for s in val)
            elif isinstance(val, (list, tuple)):
                val = ";".join(str(v) for v in val)
            out[f"detail.{key}"] = str(val)
        return out

    def to_text(self):
        head = f"{self.verdict.upper()} {self.criterion}"
        if self.params is not None:
            head += f" {self.params}"
        lines = [head]
        if self.witness is not None:
            lines.append(f"  witness: {self.witness.message}")
            if self.witness.position is not None:
                lines.append(f"  at array {self.witness.array_index}, position {self.witness.position}")
            if self.witness.window_bits is not None:
                lines.append(f"  window bits: {self.witness.window_bits}")
        for key, val in sorted(self.detail.items()):
            if key == "stages":
                for stage in val:
                    lines.append(f"  stage {stage['criterion']}: {stage['verdict']}")
            else:
                lines.append(f"  {key}: {val}")
        return "\n".join(lines)


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


def _vee_by_matrix(f1, f2):
    """Minimal polynomial of xy in GF(2)[x,y]/(f1(x), f2(y)): the first
    GF(2) dependency among the powers 1, xy, (xy)^2, ...  An element is
    one int of n1 blocks of n2 bits, block i the coefficient of x^i as
    a polynomial in y, so multiplying by xy is the Kronecker product of
    the two companion matrices."""
    n1, n2 = f1.degree, f2.degree
    n = n1 * n2
    full = (1 << n) - 1
    block_ones = full // ((1 << n2) - 1)  # bit 0 of every block
    taps1 = [i * n2 for i in range(n1) if f1.bits >> i & 1]
    taps2 = [j for j in range(n2) if f2.bits >> j & 1]
    powers = [1]
    for _ in range(n):
        v = powers[-1] << 1  # times y: y^n2 leaves each block
        wrap = v >> n2 & block_ones
        v ^= wrap << n2
        for j in taps2:
            v ^= wrap << j
        top = v >> (n - n2)  # times x: x^n1 leaves the top block
        v = v << n2 & full
        for i in taps1:
            v ^= top << i
        powers.append(v)
    _, kernel = _gf2_kernel(powers)
    g = kernel[0]
    # coprime exponents make the n products of roots distinct
    if g.bit_length() - 1 != n:
        raise InternalCheckError(f"xy has a minimal polynomial of degree "
                                 f"{g.bit_length() - 1}, expected {n}")
    return BinaryPolynomial(g)


def _vee_by_sequences(f1, f2):
    """lcm of the Berlekamp-Massey polynomials of products of an
    f1-sequence and an f2-sequence.  The shifts 0..deg-1 of each impulse
    sequence span its sequences, and a product has linear complexity at
    most n1*n2, so the first 2*n1*n2 bits of each product suffice."""
    target = f1.degree * f2.degree
    need = 2 * target
    mask = (1 << need) - 1
    base1, base2 = (
        generate(f, [0] * (f.degree - 1) + [1], need + f.degree).bits for f in (f1, f2)
    )
    acc = BinaryPolynomial(1)
    for s in range(f1.degree):
        a = base1 >> s & mask
        for t in range(f2.degree):
            prod = a & base2 >> t
            acc = poly_lcm(acc, berlekamp_massey(CyclicSequence(prod, need)))
            if acc.degree == target:
                return acc
    raise InternalCheckError(
        f"sequence products spanned degree {acc.degree}, expected {target}"
    )


def _vee_and_classes(f1, f2):
    """(vee(f1, f2), class of f1, class of f2): the input gate classifies
    each input once, and callers that report the kinds reuse it."""
    c1 = _uniform_class(f1, "f1")
    c2 = _uniform_class(f2, "f2")
    if math.gcd(c1.exponent, c2.exponent) != 1:
        raise ValueError(
            f"exponents {c1.exponent} and {c2.exponent} are not coprime"
        )
    by_matrix = _vee_by_matrix(f1, f2)
    by_sequences = _vee_by_sequences(f1, f2)
    if by_matrix != by_sequences:
        raise InternalCheckError(
            f"vee methods disagree: matrix {by_matrix}, sequences {by_sequences}"
        )
    return by_matrix, c1, c2


def vee(f1, f2):
    """Polynomial whose roots are products of roots of f1 and f2.

    Both inputs need uniform exponents and the exponents must be
    coprime; then the n1*n2 products are distinct and g has degree
    n1*n2.  Computed by both routes, (a) the minimal polynomial of xy
    and (b) Berlekamp-Massey on sequence products, which must agree.
    """
    return _vee_and_classes(f1, f2)[0]


def window_positions(params):
    """CRT images of the upper-left n1 x n2 window cells, row-major."""
    pos = tuple(_cell_positions(params))
    if len(set(pos)) != len(pos):
        raise InternalCheckError("window positions collide")
    return PositionSet(params, pos)


def bezout(a, b):
    """(g, x, y) with g = gcd(a, b) = a*x + b*y, for positive a, b."""
    if a < 1 or b < 1:
        raise ValueError("bezout needs positive integers")
    r0, r1 = a, b
    x0, x1 = 1, 0
    y0, y1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return r0, x0, y0


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


@functools.lru_cache(maxsize=64)
def _cell_vectors(fb, params):
    """x^p mod f at each window position p, row-major, as raw ints; f
    must be irreducible.  Stepped with one _mulmod a cell: cell (i, j+1)
    is cell (i, j) times x^(mu*r1), and row i+1 starts at row i times
    x^(nu*r2), exponents mod e = r1*r2.  A step whose position passes e
    also takes x^-e, which is 1 when the order of x divides e."""
    positions = _cell_positions(params)
    e = params.r1 * params.r2
    _, mu, nu = bezout(params.r1, params.r2)
    # x^-e, as x^(2^n - 1) = 1 for irreducible f other than x (whose
    # one cell takes no step); setpoly_test allows any order of x
    unwrap = _powmod(2, -e % ((1 << (fb.bit_length() - 1)) - 1), fb)

    def steps(d):
        # (x^d, x^(d - e)), indexed by whether the step passes e
        step = _powmod(2, d, fb)
        return step, _mulmod(step, unwrap, fb)

    right, down = steps(mu * params.r1 % e), steps(nu * params.r2 % e)
    vectors = []
    start = 1
    for i in range(params.n1):
        row = i * params.n2
        if i:
            start = _mulmod(start, down[positions[row] < positions[row - params.n2]], fb)
        cur = start
        vectors.append(cur)
        for k in range(row + 1, row + params.n2):
            cur = _mulmod(cur, right[positions[k] < positions[k - 1]], fb)
            vectors.append(cur)
    return tuple(vectors)


@functools.lru_cache(maxsize=64)
def _cell_rank(fb, params):
    """(rank, kernel) of the window-cell vectors, which the
    set-polynomial and trace tests both report."""
    return _gf2_kernel(_cell_vectors(fb, params))


def setpoly_test(f, pos, exhaustive=False):
    """Does folding the sequences of irreducible f give a PRAC, by the
    set-polynomial divisibility criterion?

    Pass iff f does not divide the set polynomial of the positions,
    i.e. iff the powers of a root of f at those positions are linearly
    independent over GF(2).  The positions must be the window cells of
    ``pos.params``, row-major, as ``window_positions`` gives them.
    """
    if not _is_irreducible_int(f.bits):
        raise ValueError("the set-polynomial criterion needs an irreducible polynomial")
    positions = pos.positions
    if len(positions) != f.degree:
        raise ValueError(
            f"need {f.degree} positions for degree {f.degree}, got {len(positions)}"
        )
    if list(positions) != _cell_positions(pos.params):
        raise ValueError(f"positions {pos} are not the window cells of {pos.params}")
    vectors = _cell_vectors(f.bits, pos.params)
    rank, kernel = _cell_rank(f.bits, pos.params)
    passed = rank == len(positions)
    witness = None
    detail = {"positions": sorted(positions), "rank": rank}
    if not passed:
        subset = sorted(positions[i] for i in range(len(positions)) if kernel[0] >> i & 1)
        factor = BinaryPolynomial(sum(1 << p for p in subset))
        witness = Witness("set-polynomial", f"f divides the set-polynomial factor {factor}")
        detail["dependent_positions"] = subset
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
        if not _is_irreducible_int(p.bits):
            raise ValueError(f"modulus {p} is not irreducible")
        if _x_order(p.bits) != e:
            raise ValueError(f"factor {p} has exponent {_x_order(p.bits)}, need {e}")
    cols = []
    for p in factors:
        cols.extend(_trace_columns(p.bits, n, _cell_vectors(p.bits, params)))
    rank, kernel = _gf2_kernel(cols)
    passed = rank == k * n
    witness = None
    if not passed:
        cols = [i for i in range(k * n) if kernel[0] >> i & 1]
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
    """Determinant criterion for one irreducible f, by its dual form:
    the window-cell root powers beta^i * gamma^j must be linearly
    independent over GF(2).  That is the rank ``setpoly_test`` reads
    from ``_cell_rank``, here with the determinant criterion's
    preconditions and report; the trace-form cross-check is
    ``det_test``.  No command calls it: it is kept only as the
    benchmark harness's hook, until the harness reads spans that the
    library records itself."""
    if not _is_irreducible_int(f.bits):
        raise ValueError("the trace criterion needs an irreducible polynomial")
    n = f.degree
    if n < 2:
        raise ValueError("degree must be at least 2")
    if n != params.window_area:
        raise ValueError(f"degree {n} must equal n1*n2 = {params.window_area}")
    e = params.r1 * params.r2
    if _x_order(f.bits) != e:
        raise ValueError(f"{f} has exponent {_x_order(f.bits)}, need {e}")
    rank, kernel = _cell_rank(f.bits, params)
    passed = rank == n
    witness = None
    if not passed:
        cells = [
            (i // params.n2, i % params.n2) for i in range(n) if kernel[0] >> i & 1
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
    g, c1, c2 = _vee_and_classes(f1, f2)
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
    params = CodeParams(r1, r2, n1, n2)  # refuses a non-positive parameter
    if math.gcd(r1, r2) != 1:
        raise ValueError("r1 and r2 must be coprime")
    in_range = n1 < r1 < 2 * n1
    candidates = enumerate_irreducible(n1 * n2, r1 * r2)
    entries = []
    passing = []
    for f in candidates:
        entry = _conjecture_entry(1, (f,), f, params)
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
    census = _fold_census(product, params)
    agrees = None if census is None else census.passed == verdict.passed
    if agrees is False:
        raise InternalCheckError(f"determinant and census verdicts disagree for {product}")
    return ConjectureEntry(k, combo, product, verdict, agrees)


def _fold_census(f, params):
    """Window census of the folded zero factor of f, whose exponent r1*r2
    every caller has established, or None when the window area or deg(f)
    is above the brute-force caps.  The grid oracle is imported here."""
    if params.window_area > _CENSUS_AREA_CAP or f.degree > _ZERO_FACTOR_DEGREE_CAP:
        return None
    from .folding import fold_zero_factor
    from .lfsr import _zero_factor_walk
    from .verify import window_census

    zf = _zero_factor_walk(f, params.r1 * params.r2)
    arrays = fold_zero_factor(zf, params.r1, params.r2)
    return window_census(arrays, params.n1, params.n2, params)
