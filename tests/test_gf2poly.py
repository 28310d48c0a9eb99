import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prarray.gf2poly import (
    ONE,
    X,
    BinaryPolynomial,
    ParseError,
    classify,
    count_irreducible_with_exponent,
    enumerate_irreducible,
    exponent,
    factor,
    gcd,
    is_irreducible,
    ord2,
    parse,
)


def P(text):
    return parse(text)


class TestParse:
    def test_compact_form(self):
        f = P("1011101001111")
        assert str(f) == "x^12+x^10+x^9+x^8+x^6+x^3+x^2+x+1"

    def test_unit(self):
        assert P("1") == ONE

    def test_notation_equivalence(self):
        assert P("x^2+x+1") == P("111")

    def test_whitespace_tolerated(self):
        assert P(" x^4 + x + 1 ") == P("10011")

    def test_study_polynomials_both_notations(self):
        pairs = [
            ("1011101001111", "x^12+x^10+x^9+x^8+x^6+x^3+x^2+x+1"),
            ("1100101101111", "x^12+x^11+x^8+x^6+x^5+x^3+x^2+x+1"),
            ("1110001011111", "x^12+x^11+x^10+x^6+x^4+x^3+x^2+x+1"),
            ("1010011011111", "x^12+x^10+x^7+x^6+x^4+x^3+x^2+x+1"),
        ]
        for compact, symbolic in pairs:
            assert P(compact) == P(symbolic)
            assert P(compact).compact() == compact
            assert str(P(symbolic)) == symbolic

    def test_zero(self):
        assert P("0").is_zero
        assert P("0").degree == -1

    @pytest.mark.parametrize("bad", ["", "x^", "x2", "2x", "x^1+x^2", "x+x", "1+1", "y+1"])
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse("x^3+zz+1")
        assert err.value.position == 4


class TestArithmetic:
    def test_multiply_cubics(self):
        assert P("x^3+x^2+1") * P("x^3+x+1") == P("x^6+x^5+x^4+x^3+x^2+x+1")

    def test_multiply_quartics(self):
        assert P("x^4+x^3+1") * P("x^4+x+1") == P("x^8+x^7+x^5+x^4+x^3+x+1")

    def test_multiplicative_identity(self):
        f = P("x^5+x^2+1")
        assert f * ONE == f

    def test_divmod_exact(self):
        q, r = divmod(P("x^6+x^5+x^4+x^3+x^2+x+1"), P("x^3+x+1"))
        assert q == P("x^3+x^2+1") and r.is_zero

    def test_divmod_self(self):
        f = P("x^4+x+1")
        assert divmod(f, f) == (ONE, P("0"))

    def test_divmod_small_numerator(self):
        q, r = divmod(P("x^2"), P("x^3+x+1"))
        assert q.is_zero and r == P("x^2")

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P("x^2"), P("0"))

    def test_divmod_reconstruction(self):
        rng = random.Random(11)
        for _ in range(300):
            a = BinaryPolynomial(rng.randrange(0, 1 << 40))
            b = BinaryPolynomial(rng.randrange(1, 1 << 20))
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


class TestGcd:
    def test_coprime_irreducibles(self):
        assert gcd(P("x^3+x+1"), P("x^3+x^2+1")) == ONE

    def test_self(self):
        f = P("x^4+x+1")
        assert gcd(f, f) == f

    def test_common_factor(self):
        f1, f2 = P("x^3+x+1"), P("x^3+x^2+1")
        assert gcd(f1 * f2, f2) == f2

    def test_both_zero(self):
        with pytest.raises(ValueError):
            gcd(P("0"), P("0"))


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible(P("x^6+x^5+x^4+x^2+1"))
        assert not is_irreducible(P("x^6+x^5+x^4+x^3+x^2+x+1"))
        assert is_irreducible(P("x^2+x+1"))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(ONE)

    def test_agrees_with_factor_up_to_degree_12(self):
        # singleton factorization with multiplicity one <=> irreducible
        for bits in range(2, 1 << 13):
            f = BinaryPolynomial(bits)
            facs = factor(f)
            assert is_irreducible(f) == (facs == [f]), f


def trial_factor(f):
    """Irreducible factors of f with multiplicity, in increasing order,
    by trial division with every polynomial of degree <= deg(f)/2."""
    out = []
    g = X
    while f.degree > 0:
        if 2 * g.degree > f.degree:
            out.append(f)
            break
        q, r = divmod(f, g)
        if r.is_zero:
            out.append(g)
            f = q
        else:
            g = BinaryPolynomial(g.bits + 1)
    return out


class TestAgainstTrialDivision:
    def test_every_polynomial_up_to_degree_10(self):
        irreducible_count = 0
        for bits in range(2, 1 << 11):
            f = BinaryPolynomial(bits)
            divisors = [BinaryPolynomial(g) for g in range(2, 1 << (f.degree // 2 + 1))]
            irreducible = all(not (f % g).is_zero for g in divisors)
            assert is_irreducible(f) == irreducible, f
            assert factor(f) == trial_factor(f), f
            irreducible_count += irreducible
        # Gauss's count by degree 1..10: 2, 1, 2, 3, 6, 9, 18, 30, 56, 99
        assert irreducible_count == 226


class TestFactor:
    def test_inp_product(self):
        f = P("x^24+x^21+x^15+x^12+x^9+x^3+1")
        assert factor(f) == sorted([P("x^12+x^9+1"), P("x^12+x^3+1")])

    def test_degree48_product(self):
        parts = [
            P("x^12+x^8+x^6+x^5+x^3+x^2+1"),
            P("x^12+x^9+x^5+x^4+x^3+x+1"),
            P("x^12+x^10+x^9+x^7+x^6+x^4+1"),
            P("x^12+x^11+x^9+x^8+x^7+x^3+1"),
        ]
        prod = parts[0]
        for p in parts[1:]:
            prod = prod * p
        assert factor(prod) == sorted(parts)

    def test_irreducible_is_singleton(self):
        f = P("x^4+x+1")
        assert factor(f) == [f]

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            factor(ONE)

    def test_remultiplication_random_degree_24(self):
        rng = random.Random(7)
        for _ in range(250):
            bits = rng.randrange(2, 1 << 25)
            f = BinaryPolynomial(bits)
            prod = ONE
            for p in factor(f):
                assert is_irreducible(p)
                prod = prod * p
            assert prod == f

    def test_multiplicity(self):
        f = P("x^2+x+1")
        g = P("x^3+x+1")
        assert factor(f * f * g) == sorted([f, f, g])


class TestExponent:
    @pytest.mark.parametrize(
        "poly,e",
        [
            ("x^6+x^5+x^4+x^2+1", 21),
            ("x^12+x^10+x^9+x+1", 91),
            ("x^4+x^3+x^2+x+1", 5),
            ("x^2+x+1", 3),
        ],
    )
    def test_examples(self, poly, e):
        assert exponent(P(poly)) == e

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ValueError):
            exponent(P("x^3+x"))

    def test_repeated_factors_rejected(self):
        f = P("x^2+x+1")
        with pytest.raises(ValueError):
            exponent(f * f)

    def test_divides_order_of_field(self):
        for bits in range(1 << 2 | 1, 1 << 11, 2):
            f = BinaryPolynomial(bits)
            if f.degree < 2 or not is_irreducible(f):
                continue
            assert ((1 << f.degree) - 1) % exponent(f) == 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, (1 << 11) - 1))
    def test_matches_least_period_of_x(self, bits):
        # degree <= 10, squarefree, f(0) = 1: walk x^e until it is 1 mod f
        f = BinaryPolynomial(bits | 1)
        facs = factor(f)
        assume(len(set(facs)) == len(facs))
        cur, e = X % f, 1
        while cur != ONE:
            cur = (cur * X) % f
            e += 1
        assert exponent(f) == e

    def test_degree67_primitive(self):
        assert exponent(P("x^67+x^5+x^2+x+1")) == (1 << 67) - 1

    def test_above_degree_cap_small_order(self):
        # x^130+...+x+1 is irreducible because 2 is primitive mod 131
        assert exponent(BinaryPolynomial((1 << 131) - 1)) == 131

    def test_above_degree_cap_large_order_refused(self):
        f = P("x^129+x^5+1")
        assert is_irreducible(f)
        with pytest.raises(ValueError, match="degree 128"):
            exponent(f)


class TestClassify:
    def test_primitive(self):
        assert classify(P("x^6+x^5+1")).kind == "primitive"

    def test_inp(self):
        cls = classify(P("x^4+x^3+x^2+x+1"))
        assert cls.kind == "INP" and cls.exponent == 5

    def test_reducible_uniform(self):
        cls = classify(P("x^3+x+1") * P("x^3+x^2+1"))
        assert cls.kind == "reducible-uniform" and cls.exponent == 7

    def test_reducible_nonuniform(self):
        cls = classify(P("x^2+x+1") * P("x^3+x+1"))
        assert cls.kind == "reducible-nonuniform"

    def test_uniform_products_of_equal_exponent_pairs(self):
        # distinct irreducibles sharing degree and exponent multiply to
        # a uniform-exponent reducible polynomial
        groups = {}
        for bits in range(1 << 4 | 1, 1 << 7, 2):
            f = BinaryPolynomial(bits)
            if is_irreducible(f):
                groups.setdefault((f.degree, exponent(f)), []).append(f)
        checked = 0
        for (_, e), members in groups.items():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    cls = classify(members[i] * members[j])
                    assert cls.kind == "reducible-uniform" and cls.exponent == e
                    checked += 1
        assert checked > 5

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            classify(ONE)
        with pytest.raises(ValueError):
            classify(P("x^2+x"))


class TestCounting:
    def test_ord2_examples(self):
        assert ord2(21) == 6
        assert ord2(5) == 4
        assert ord2(1) == 1

    def test_ord2_even_rejected(self):
        with pytest.raises(ValueError):
            ord2(6)

    @pytest.mark.parametrize("e,count", [(91, 6), (105, 4), (3, 1)])
    def test_count_examples(self, e, count):
        assert count_irreducible_with_exponent(e) == count

    def test_enumerate_examples(self):
        lst = enumerate_irreducible(12, 91)
        assert len(lst) == 6
        assert P("x^12+x^10+x^9+x+1") in lst
        lst = enumerate_irreducible(6, 21)
        assert set(lst) == {P("x^6+x^5+x^4+x^2+1"), P("x^6+x^4+x^2+x+1")}
        assert enumerate_irreducible(2, 3) == [P("x^2+x+1")]

    def test_enumerate_wrong_degree_is_empty(self):
        assert enumerate_irreducible(3, 5) == []

    def test_enumerate_exponent_cap(self):
        for degree, e in ((40, 1000000000039), (16, 65537)):
            with pytest.raises(ValueError, match="65535"):
                enumerate_irreducible(degree, e)

    def test_enumerate_members_have_degree_and_exponent(self):
        for e in range(3, 128, 2):
            n = ord2(e)
            lst = enumerate_irreducible(n, e)
            assert len(lst) == count_irreducible_with_exponent(e)
            for p in lst:
                assert p.degree == n
                assert is_irreducible(p)
                assert exponent(p) == e
