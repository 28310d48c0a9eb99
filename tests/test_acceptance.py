"""Acceptance suite: one test per criterion, each with a runtime budget.

Every check here is an exact combinatorial identity (tolerance zero).
A summary line per criterion is printed in the terminal summary.
"""

import math
from contextlib import contextmanager
from time import perf_counter

from conftest import ACCEPTANCE_LOG, canonical, column, grid_lines, row

from prarray.criteria import (
    classify_construction,
    det_test,
    setpoly_test,
    sufficient_conditions,
    trace_independence_test,
    vee,
    window_positions,
)
from prarray.folding import CodeParams, fold, fold_zero_factor
from prarray.gf2poly import (
    BinaryPolynomial,
    _divisors,
    count_irreducible_with_exponent,
    enumerate_irreducible,
    exponent,
    factor,
    is_irreducible,
    ord2,
    parse,
)
from prarray.lfsr import CyclicSequence, generate, zero_factor
from prarray.verify import shift_add_closure, verify_prac, window_census


@contextmanager
def criterion(num, desc, budget_s):
    start = perf_counter()
    try:
        yield
    except BaseException:
        ACCEPTANCE_LOG.append((num, desc, "FAIL", perf_counter() - start))
        raise
    elapsed = perf_counter() - start
    within = elapsed < budget_s
    ACCEPTANCE_LOG.append((num, desc, "PASS" if within else "FAIL", elapsed))
    assert within, f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"


def test_criterion_01_span4_folding():
    with criterion(1, "3x5 folding of the span-4 M-sequence is a (3,5;2,2)-PRA", 1.0):
        s = CyclicSequence.from_bits("000111101011001")
        arr = fold(s, 3, 5)
        assert grid_lines(arr) == ["01010", "10001", "11011"]
        params = CodeParams(3, 5, 2, 2)
        assert window_census([arr], 2, 2, params).passed
        assert shift_add_closure([arr], params).passed


def test_criterion_02_three_cycle_code():
    with criterion(2, "degree-6 exponent-21 cycles fold to a (3,7;2,3)-PRAC", 1.0):
        f = parse("x^6+x^5+x^4+x^2+1")
        zf = zero_factor(f)
        known = [
            "000001010010011001011",
            "010000111101101010111",
            "001000110111111001110",
        ]
        got = {canonical(c) for c in zf.cycles}
        want = {canonical(CyclicSequence.from_bits(p)) for p in known}
        assert got == want
        arrays = fold_zero_factor(zf, 3, 7)
        assert verify_prac(arrays, CodeParams(3, 7, 2, 3)).passed


def test_criterion_03_13x35_study_grid(sect5_polys):
    with criterion(3, "13x35 pass/fail grid for the four exponent-455 polynomials", 10.0):
        p43 = CodeParams(13, 35, 4, 3)
        p34 = CodeParams(13, 35, 3, 4)
        pos43 = window_positions(p43)
        pos34 = window_positions(p34)
        expected = {
            "f1": (False, False),
            "f2": (False, True),
            "f3": (True, False),
            "f4": (True, True),
        }
        for name, f in sect5_polys.items():
            sp = (setpoly_test(f, pos43).passed, setpoly_test(f, pos34).passed)
            assert sp == expected[name], name
            tr = (
                trace_independence_test(f, p43).passed,
                trace_independence_test(f, p34).passed,
            )
            assert tr == sp, name
            arrays = fold_zero_factor(zero_factor(f), 13, 35)
            assert len(arrays) == 9
            ce = (
                window_census(arrays, 4, 3, p43).passed,
                window_census(arrays, 3, 4, p34).passed,
            )
            assert ce == sp, name


def test_criterion_04_product_polynomial_goldens():
    with criterion(4, "product polynomial golden values, both methods agreeing", 5.0):
        cases = [
            ("x^4+x+1", "x^3+x+1", "x^12+x^9+x^5+x^4+x^3+x+1"),
            ("x^4+x+1", "x^3+x^2+1", "x^12+x^8+x^6+x^5+x^3+x^2+1"),
            ("x^4+x^3+1", "x^3+x+1", "x^12+x^10+x^9+x^7+x^6+x^4+1"),
            ("x^4+x^3+1", "x^3+x^2+1", "x^12+x^11+x^9+x^8+x^7+x^3+1"),
            ("x^4+x^3+x^2+x+1", "x^6+x^3+1", "x^24+x^21+x^15+x^12+x^9+x^3+1"),
            ("x^4+x^3+x^2+x+1", "x^3+x^2+1", "x^12+x^11+x^10+x^8+x^5+x^4+x^3+x^2+1"),
        ]
        for f1, f2, g in cases:
            assert vee(parse(f1), parse(f2)) == parse(g)
        # degree-60 product of the full degree-6 and degree-10 polynomials
        f1 = parse("x^6+x^5+x^4+x^3+x^2+x+1")
        f2 = parse("x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^3+x^2+x+1")
        g = vee(f1, f2)
        assert g.degree == 60
        parts = factor(g)
        assert parts == sorted(
            [
                parse(
                    "x^30+x^28+x^27+x^26+x^23+x^21+x^20+x^19+x^16+x^14"
                    "+x^13+x^12+x^9+x^8+x^7+x^4+x^2+x+1"
                ),
                parse(
                    "x^30+x^29+x^28+x^26+x^23+x^22+x^21+x^18+x^17+x^16"
                    "+x^14+x^11+x^10+x^9+x^7+x^4+x^3+x^2+1"
                ),
            ]
        )
        for p in parts:
            assert exponent(p) == 77


def test_criterion_05_seven_thirteen_code():
    with criterion(5, "all six degree-12 exponent-91 polynomials give (7,13;3,4)-PRACs", 30.0):
        polys = enumerate_irreducible(12, 91)
        assert len(polys) == 6
        params = CodeParams(7, 13, 3, 4)
        for f in polys:
            assert det_test([f], params).passed
            assert sufficient_conditions(params).passed
            arrays = fold_zero_factor(zero_factor(f), 7, 13)
            assert len(arrays) == 45
            assert window_census(arrays, 3, 4, params).passed


def test_criterion_06_degree6_products(deg6_exp21):
    with criterion(6, "(3,7;2,6) product passes; primitive pair fails (7,9;3,4)", 10.0):
        g1, g2 = deg6_exp21
        params = CodeParams(3, 7, 2, 6)
        assert det_test([g1, g2], params).passed
        arrays = fold_zero_factor(zero_factor(g1 * g2), 3, 7)
        assert len(arrays) == 195
        assert window_census(arrays, 2, 6, params).passed
        assert not det_test(
            [parse("x^6+x^5+1"), parse("x^6+x+1")], CodeParams(7, 9, 3, 4)
        ).passed


def test_criterion_07_counting_identities():
    with criterion(7, "irreducible counts match enumeration for every odd e <= 1023", 60.0):
        for e in range(3, 1024, 2):
            n = ord2(e)
            assert len(enumerate_irreducible(n, e)) == count_irreducible_with_exponent(e), e
        # product structure of coprime primitive orders, window area <= 12
        for n1, n2 in [(2, 3), (2, 5), (3, 4)]:
            e1, e2 = (1 << n1) - 1, (1 << n2) - 1
            assert math.gcd(e1, e2) == 1
            k1 = count_irreducible_with_exponent(e1)
            k2 = count_irreducible_with_exponent(e2)
            assert count_irreducible_with_exponent(e1 * e2) == k1 * k2
            assert len(enumerate_irreducible(n1 * n2, e1 * e2)) == k1 * k2


def _uniform_pool(max_degree):
    """Uniform-exponent polynomials (irreducible and reducible) by degree."""
    pool = {d: [] for d in range(2, max_degree + 1)}
    groups = {}
    for d in range(2, max_degree + 1):
        for bits in range(1 << d | 1, 1 << (d + 1), 2):
            f = BinaryPolynomial(bits)
            if is_irreducible(f):
                pool[d].append(f)
                groups.setdefault((d, exponent(f)), []).append(f)
    for (d, _), members in groups.items():
        if len(members) < 2 or 2 * d > max_degree:
            continue
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pool[2 * d].append(members[i] * members[j])
    return pool


def test_criterion_08_classification_sweep():
    with criterion(8, "every coprime product construction lands in the type table", 120.0):
        pool = _uniform_pool(8)
        checked = 0
        for d1 in range(2, 9):
            for d2 in range(d1, 9):
                if d1 * d2 > 16:
                    continue
                for f1 in pool[d1]:
                    e1 = exponent(f1)
                    for f2 in pool[d2]:
                        if d1 == d2 and f2.bits <= f1.bits:
                            continue
                        if math.gcd(e1, exponent(f2)) != 1:
                            continue
                        record = classify_construction(f1, f2)
                        assert record.types[2] != "primitive"
                        checked += 1
        assert checked >= 50, checked


def test_criterion_09_three_way_agreement():
    with criterion(
        9, "set-polynomial, trace, determinant and census verdicts agree (degree <= 14)", 300.0
    ):
        combos = 0
        for d in range(2, 15):
            for bits in range(1 << d | 1, 1 << (d + 1), 2):
                f = BinaryPolynomial(bits)
                if not is_irreducible(f):
                    continue
                e = exponent(f)
                cases = []
                for r1 in _divisors(e):
                    r2 = e // r1
                    if math.gcd(r1, r2) != 1:
                        continue
                    for n1 in _divisors(d):
                        params = CodeParams(r1, r2, n1, d // n1)
                        if params.violation() is None:
                            cases.append(params)
                if not cases:
                    continue
                zf = zero_factor(f)
                folded = {}
                for params in cases:
                    sp = setpoly_test(f, window_positions(params)).passed
                    tr = trace_independence_test(f, params).passed
                    dt = det_test([f], params).passed
                    key = (params.r1, params.r2)
                    if key not in folded:
                        folded[key] = fold_zero_factor(zf, *key)
                    ce = window_census(
                        folded[key], params.n1, params.n2, params
                    ).passed
                    assert sp == tr == dt == ce, (f, params)
                    combos += 1
        assert combos > 40000, combos


def _cyclic_recursion_holds(seq, f):
    n = f.degree
    for k in range(len(seq)):
        acc = 0
        for i in range(1, n + 1):
            if f.bits >> i & 1:
                acc ^= seq.bit(k - i)
        if acc != seq.bit(k):
            return False
    return True


def test_criterion_10_large_codes_analytic_only():
    with criterion(10, "window areas 48 and 60: determinant plus structure checks", 30.0):
        import random

        rng = random.Random(42)
        big = [
            # (f1, f2, r1, r2, n1, n2)
            (
                parse("x^3+x^2+1") * parse("x^3+x+1"),
                parse("x^4+x^3+1") * parse("x^4+x+1"),
                7, 15, 6, 8,
            ),
            (
                parse("x^6+x^5+x^4+x^3+x^2+x+1"),
                parse("x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^3+x^2+x+1"),
                7, 11, 6, 10,
            ),
        ]
        for f1, f2, r1, r2, n1, n2 in big:
            g = vee(f1, f2)
            # census at window area n1*n2 is out of brute-force range,
            # so: product identities, determinant, and sampled structure
            assert g.degree == n1 * n2 == f1.degree * f2.degree
            assert exponent(g) == r1 * r2
            parts = factor(g)
            assert all(is_irreducible(p) for p in parts)
            assert det_test(parts, CodeParams(r1, r2, n1, n2)).passed
            for _ in range(10):
                seed = [rng.randint(0, 1) for _ in range(g.degree)]
                if not any(seed):
                    seed[0] = 1
                s = generate(g, seed, r1 * r2)
                arr = fold(s, r1, r2)
                for j in range(r2):
                    col = column(arr, j)
                    assert col.bits == 0 or _cyclic_recursion_holds(col, f1)
                for i in range(r1):
                    line = row(arr, i)
                    assert line.bits == 0 or _cyclic_recursion_holds(line, f2)
