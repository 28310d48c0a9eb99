import hashlib
import random
from time import perf_counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    mulmod,
    reference_classify,
    reference_enumerate_irreducible,
    reference_ord2,
    serial_gcd,
    serial_mod,
    serial_mod_table,
    serial_mul,
    serial_powmod,
    serial_square,
    serial_x_steps,
    trace_map,
)
from prarray import gf2poly
from prarray.gf2field import FieldContext
from prarray.gf2poly import (
    ONE,
    X,
    BinaryPolynomial,
    ParseError,
    _coset_trace,
    _cyclotomic_int,
    _factorint,
    _gcd,
    _mod,
    _mod_table,
    _mul,
    _order,
    _order_certifies,
    _powmod,
    _rabin,
    _square,
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
        assert str(P("0")) == "0"

    @given(st.one_of(
        st.integers(0, 1 << 200),
        st.lists(st.integers(0, 5000), max_size=30).map(lambda ps: sum(1 << p for p in set(ps))),
    ))
    @settings(max_examples=300, deadline=None)
    def test_symbolic_form_matches_the_coefficient_scan(self, bits):
        terms = [
            "x^%d" % i if i > 1 else ("x" if i == 1 else "1")
            for i in range(bits.bit_length() - 1, -1, -1)
            if bits >> i & 1
        ]
        assert str(BinaryPolynomial(bits)) == ("+".join(terms) or "0")
        assert parse(str(BinaryPolynomial(bits))).bits == bits

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


# Bit lengths on both sides of each size rule in gf2poly: the spread
# table (8 bits), the reduction table (_TABLE_MIN) and the word
# (_WORD), then degrees up to 2000.
_EDGES = sorted(
    {w + d for w in (8, gf2poly._TABLE_MIN, gf2poly._WORD, 2 * gf2poly._WORD) for d in (-1, 0, 1, 2)}
    | {0, 1, 2}
    | {1999, 2000, 2001}
)


def _of_length(width):
    if width == 0:
        return st.just(0)
    return st.integers(0, (1 << (width - 1)) - 1).map(lambda low: (1 << (width - 1)) | low)


def polys(max_bits=2001):
    """Raw polynomials of degree -1 (zero) to max_bits - 1."""
    width = st.one_of(st.sampled_from([w for w in _EDGES if w <= max_bits]), st.integers(0, max_bits))
    return width.flatmap(_of_length)


def moduli(max_bits=2001):
    """Nonzero moduli: dense ones, trinomials x^n + x^k + 1, and x + 1."""
    trinomial = st.integers(2, max_bits - 1).flatmap(
        lambda n: st.integers(1, n - 1).map(lambda k: (1 << n) | (1 << k) | 1)
    )
    return st.one_of(polys(max_bits).filter(bool), trinomial, st.just(0b11))


class TestKernels:
    """The word-at-a-time kernels equal the bit-serial references."""

    @settings(max_examples=300, deadline=None)
    @given(polys(), polys())
    def test_mul(self, a, b):
        assert _mul(a, b) == serial_mul(a, b) == _mul(b, a)

    @settings(max_examples=300, deadline=None)
    @given(polys())
    def test_square(self, a):
        assert _square(a) == serial_square(a) == serial_mul(a, a)

    @settings(max_examples=300, deadline=None)
    @given(polys(), moduli())
    def test_mod(self, a, m):
        assert _mod(a, m) == serial_mod(a, m)

    @settings(max_examples=200, deadline=None)
    @given(moduli(), st.data())
    def test_mod_below_and_far_above_the_modulus(self, m, data):
        n = m.bit_length() - 1
        below = data.draw(st.integers(0, (1 << n) - 1))
        assert _mod(below, m) == below
        # degree at least twice the modulus degree
        far = data.draw(st.integers(2 * n, 2 * n + 300).flatmap(lambda d: _of_length(d + 1)))
        assert _mod(far, m) == serial_mod(far, m)
        assert mulmod(far, below, m) == serial_mod(serial_mul(far, below), m)
        # degree gaps on both sides of the table threshold
        gap = data.draw(st.integers(-2, 2).map(lambda d: gf2poly._TABLE_MIN + d))
        near = data.draw(_of_length(m.bit_length() + gap))
        assert _mod(near, m) == serial_mod(near, m)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.just(2), st.just(0), polys(700)),
        st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, (1 << 24) - 1)),
        moduli(600),
    )
    def test_powmod(self, base, e, m):
        assert _powmod(base, e, m) == serial_powmod(base, e, m)

    @pytest.mark.parametrize("a", [0, 1, 1 << 40, (1 << 3000) | 1])
    def test_mod_by_zero_raises(self, a):
        with pytest.raises(ZeroDivisionError):
            _mod(a, 0)

    @pytest.mark.parametrize("base", [2, 0b111])
    def test_powmod_negative_exponent_raises(self, base):
        # the bit loop of the reference never ends on e < 0
        with pytest.raises(ValueError, match="negative exponent -1"):
            _powmod(base, -1, 0b10011)

    def test_tables_kept_for_few_moduli(self):
        rng = random.Random(5)
        for _ in range(20):
            m = rng.getrandbits(300) | (1 << 300) | 1
            a = rng.getrandbits(600)
            assert _mod(a, m) == serial_mod(a, m)
        assert _mod_table.cache_info().currsize <= 8

    @pytest.mark.parametrize("n", range(1, 71))
    def test_squaring_and_x_powers_every_modulus_degree(self, n):
        # r^8 tables from degree 2 up to 64 (_WORD), _square and _mod
        # above that; x is a constant modulo a degree-1 m, and reads no
        # table
        rng = random.Random(n)
        exponents = (
            list(range(10))
            + [(1 << k) + d for k in range(1, n + 9) for d in (-1, 1)]
            + [n, (1 << n) - 1]
            + [rng.getrandbits(n + 8) for _ in range(4)]
        )
        for m in (1 << n | 1, 1 << n | rng.getrandbits(n), (1 << (n + 1)) - 1):
            gf2poly._eighth_power_tables.cache_clear()
            for e in exponents:
                assert _powmod(2, e, m) == serial_powmod(2, e, m), e
            assert gf2poly._eighth_power_tables.cache_info().currsize == (1 < n <= gf2poly._WORD)
            assert gf2poly._frobenius_images(m) == [serial_powmod(2, 2 * i, m) for i in range(n)]
            for r in (0, 1, (1 << n) - 1, rng.getrandbits(n)):
                assert _mod(_square(r), m) == serial_mod(serial_square(r), m)

    def test_eighth_power_tables_kept_for_few_moduli(self):
        # 20 moduli at each degree, with r^8 tables at every one
        rng = random.Random(6)
        for n in (2, 8, 24, 32, 33, 48, 64):
            for _ in range(20):
                m = rng.getrandbits(n) | (1 << n) | 1
                e = rng.getrandbits(n)
                assert _powmod(2, e, m) == serial_powmod(2, e, m)
            assert gf2poly._eighth_power_tables.cache_info().currsize <= 8

    def test_mod_table_matches_the_entry_loop(self):
        rng = random.Random(7)
        moduli = [0b11, 0b111, 0b1011] + [
            rng.getrandbits(k) | (1 << k) | 1 for k in (5, 8, 9, 31, 33, 64, 65, 300)
        ]
        for b in moduli:
            assert gf2poly._mod_table.__wrapped__(b) == serial_mod_table(b), b

    @pytest.mark.parametrize("k", range(1, 9))
    def test_table_map_is_the_xor_of_byte_lookups(self, k):
        rng = random.Random(k)
        tables = [[rng.getrandbits(64) for _ in range(256)] for _ in range(k)]
        apply = gf2poly._table_map(tables)
        for r in [0, 1, (1 << (8 * k)) - 1] + [rng.getrandbits(8 * k) for _ in range(200)]:
            want = 0
            for i, table in enumerate(tables):
                want ^= table[r >> (8 * i) & 255]
            assert apply(r) == want, r

    def test_x_steps_match_serial_stepping(self):
        # a byte a step, against one multiplication by x a step: every f
        # with f(0) = 1 up to degree 10 (orders 1 to 1023, some at most
        # 8), orders of every residue mod 8 above degree 64, random f of
        # degree 65-200 and both sides of the cap
        cap = gf2poly._EXPONENT_CAP
        rng = random.Random(8)
        polys = (
            list(range(3, 1 << 11, 2))
            + [(1 << e) | 1 for e in range(65, 73)]
            + [(1 << 131) - 1, _mul((1 << 67) | 0b100111, 0b1011)]
            + [rng.getrandbits(d) | (1 << d) | 1 for d in rng.sample(range(65, 201), 6)]
            + [(1 << cap) | 1, (1 << (cap + 1)) | 1]
        )
        for fb in polys:
            assert gf2poly._x_steps.__wrapped__(fb) == serial_x_steps(fb, cap), fb
        assert gf2poly._x_steps.__wrapped__((1 << 70) | 0b110) is None  # x divides f

    @pytest.mark.parametrize("n", range(33, 65))
    def test_rabin_between_word_halves_matches_sympy(self, n, monkeypatch):
        # Rabin's test reads x^(2^j) from _powmod's r^8 tables here; the
        # value at each checkpoint is checked bit-serially, and each
        # verdict against sympy
        import sympy

        def sympy_irreducible(f):
            coeffs = [int(c) for c in format(f, "b")]
            return sympy.Poly(coeffs, sympy.Symbol("x"), modulus=2).is_irreducible

        def irreducible_of_degree(d):
            # Berlekamp, which reads neither r^8 tables nor Rabin's test
            while True:
                f = rng.getrandbits(d) | (1 << d) | 1 if d > 1 else 0b11
                if len(factor(BinaryPolynomial(f))) == 1:
                    return f

        rng = random.Random(n)
        checkpoints = sorted({n // p for p in _factorint(n)})
        gcd_args = []
        gcd = gf2poly._gcd
        monkeypatch.setattr(gf2poly, "_gcd", lambda a, b: gcd_args.append(a) or gcd(a, b))

        def chain_checked(f, steps):
            # the first `steps` checkpoints saw x^(2^j) - x
            want = [serial_powmod(2, 1 << j, f) ^ 2 for j in checkpoints[:steps]]
            return gcd_args == want

        # a product of irreducibles of one checkpoint's degree fails there
        for i, d in enumerate(checkpoints):
            f = 1
            for _ in range(n // d):
                f = serial_mul(f, irreducible_of_degree(d))
            gcd_args.clear()
            assert _rabin(f) is False and not sympy_irreducible(f)
            assert chain_checked(f, i + 1), (n, d)
        f = irreducible_of_degree(n)
        gcd_args.clear()
        assert _rabin(f) is True and sympy_irreducible(f)
        assert chain_checked(f, len(checkpoints))
        for _ in range(3):
            f = rng.getrandbits(n) | (1 << n) | 1
            assert _rabin(f) == sympy_irreducible(f), f

    def test_rabin_above_degree_64_matches_berlekamp(self, monkeypatch):
        # above degree 64 each checkpoint squares the last one's power;
        # each power is checked bit-serially, and each verdict against
        # Berlekamp's factor, which reads neither
        rng = random.Random(160)

        def irreducible_of_degree(d):
            while True:
                f = rng.getrandbits(d) | (1 << d) | 1 if d > 1 else 0b11
                if len(factor(BinaryPolynomial(f))) == 1:
                    return f

        gcd_args = []
        gcd = gf2poly._gcd
        monkeypatch.setattr(gf2poly, "_gcd", lambda a, b: gcd_args.append(a) or gcd(a, b))
        verdicts = set()
        for n in (65, 66, 77, 96, 127, 128, 129, 143, 150, 157, 160):
            checkpoints = sorted({n // p for p in _factorint(n)})
            polys = [irreducible_of_degree(n), rng.getrandbits(n) | (1 << n) | 1]
            # a factor of each checkpoint's degree fails there; factors of
            # degrees n/2 - 1 and n/2 + 1 pass every checkpoint
            for d in {*checkpoints, n // 2 - 1, rng.randrange(1, n)}:
                polys.append(serial_mul(irreducible_of_degree(d), irreducible_of_degree(n - d)))
            for f in polys:
                gcd_args.clear()
                verdict = _rabin(f)
                seen = list(gcd_args)
                assert verdict == (len(factor(BinaryPolynomial(f))) == 1), (n, f)
                assert seen == [serial_powmod(2, 1 << j, f) ^ 2 for j in checkpoints[: len(seen)]]
                verdicts.add((verdict, len(seen)))
        assert {(True, 2), (False, 1), (False, 2)} <= verdicts


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

    def test_matches_serial_euclid(self):
        # zero operands, a much longer than b (the _mod table path) and
        # the reverse, equal sizes, and a shared factor g, up to degree 2000
        rng = random.Random(11)
        pairs = [(0, 0), (0, 1), (1, 0), (0, 0b1011), (0b1011, 0), (1 << 2000, 0b11)]
        for _ in range(300):
            da, db, dg = rng.randrange(2001), rng.randrange(2001), rng.randrange(60)
            a, b = rng.getrandbits(da + 1), rng.getrandbits(db + 1)
            g = rng.getrandbits(dg) | (1 << dg)
            pairs += [(a, b), (b, a), (serial_mul(a, g), serial_mul(b, g))]
        for a, b in pairs:
            assert _gcd(a, b) == serial_gcd(a, b), (a, b)


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
        assert classify(f).exponent == e

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


class TestOrder:
    """_order strips the primes of 2^n - 1 largest first; each order is
    checked by bit-serial powers of x."""

    def test_every_irreducible_up_to_degree_12(self):
        # the least divisor t of 2^n - 1 with a^t = 1, for x and one
        # random element a of each field
        rng = random.Random(12)
        checked = 0
        for fb in range(3, 1 << 13, 2):
            n = fb.bit_length() - 1
            if not is_irreducible(BinaryPolynomial(fb)):
                continue
            divisors = [d for d in range(1, 1 << n) if ((1 << n) - 1) % d == 0]
            for a in (2, rng.randrange(1, 1 << n)):
                want = next(d for d in divisors if serial_powmod(a, d, fb) == 1)
                assert _order(a, fb) == want, (fb, a)
            checked += 1
        assert checked == 746  # Gauss's count over degrees 1-12, less x

    @pytest.mark.parametrize("n", range(33, 65))
    def test_word_degrees_enumerated_and_primitive(self, n):
        # the polynomials the algebra benchmark enumerates at degree n,
        # each with order e, then the irreducibles from x^n + 1 up to the
        # first primitive one: x^t = 1 and x^(t/q) != 1 for each prime q
        # of t, with the primes from sympy
        import sympy

        def check(fb):
            t = _order(2, fb)
            assert serial_powmod(2, t, fb) == 1, (fb, t)
            for q in sympy.factorint(t):
                assert serial_powmod(2, t // q, fb) != 1, (fb, t, q)
            return t

        exponents = [e for e in list(range(3, 256, 2)) + list(range(257, 2048, 128))
                     if ord2(e) == n]
        for e in exponents:
            for f in enumerate_irreducible(n, e):
                assert check(f.bits) == e, f
        fb = (1 << n) | 1
        while not is_irreducible(BinaryPolynomial(fb)) or check(fb) != (1 << n) - 1:
            fb += 2


def _clear_fact_caches():
    for cached in (gf2poly._x_steps, gf2poly._is_irreducible_int, gf2poly._x_order,
                   gf2poly.classify):
        cached.cache_clear()


class TestOrderCertificate:
    """Above degree 64, the order t of x, when stepping finds it, decides
    irreducibility in place of Rabin's test."""

    def test_agrees_with_rabin_up_to_degree_14(self):
        # step x modulo every f of degree d with f(0) = 1 at once, with no
        # cap: x is a unit mod f, so its order is below 2^d
        orders = {}
        for d in range(2, 15):
            fbs = np.arange((1 << d) | 1, 1 << (d + 1), 2, dtype=np.int64)
            cur = np.full(len(fbs), 2, dtype=np.int64)
            order = np.zeros(len(fbs), dtype=np.int64)
            for t in range(1, 1 << d):
                order[(cur == 1) & (order == 0)] = t
                cur = (cur << 1) ^ (fbs & -(cur >> (d - 1)))
            assert order.all()
            orders.update(zip(fbs.tolist(), order.tolist()))
        assert len(orders) == 16382
        certified = [_order_certifies(fb, t) for fb, t in orders.items()]
        assert certified == [_rabin(fb) for fb in orders]
        assert sum(certified) > 1000

    @pytest.mark.parametrize(
        "bits, t, certified",
        [
            ((1 << 131) - 1, 131, True),  # 2 is primitive mod 131
            (_mul(0b111, 0b111), 6, False),  # (x^2+x+1)^2: t is even
            ((1 << 131) | 1, 131, False),  # (x+1) times the above: ord2(131) = 130
            # (x+1)(x^2+x+1)(x^3+x+1): ord2(21) = 6 = deg f, but x^7 = 1
            # modulo x+1 and x^3+x+1
            (_mul(_mul(0b11, 0b111), 0b1011), 21, False),
        ],
    )
    def test_one_input_per_condition(self, bits, t, certified):
        # t is the order of x modulo bits
        assert _powmod(2, t, bits) == 1
        assert all(_powmod(2, t // q, bits) != 1 for q in _factorint(t))
        assert _order_certifies(bits, t) is certified

    def test_above_degree_64_found_orders_skip_rabin(self, monkeypatch):
        def refused(fb):
            raise AssertionError("Rabin's test ran")

        monkeypatch.setattr(gf2poly, "_rabin", refused)
        _clear_fact_caches()
        f = BinaryPolynomial((1 << 131) - 1)
        assert is_irreducible(f) and classify(f).exponent == 131
        g = f * P("x^67+x^5+x^2+x+1")  # a primitive factor: order above the cap
        with pytest.raises(AssertionError, match="Rabin"):
            is_irreducible(g)

    def test_reducible_without_a_small_order_pays_steps_once(self):
        # no order up to the cap: Rabin and Berlekamp decide, and the
        # stepping result is shared by every caller
        f = P("x^67+x^5+x^2+x+1") * P("x^3+x+1")
        _clear_fact_caches()
        cls = classify(f)
        assert cls.kind == "reducible-nonuniform" and not is_irreducible(f)
        assert cls.exponent == ((1 << 67) - 1) * 7
        assert gf2poly._x_steps.cache_info().misses == 2  # f and its degree-67 factor


class TestCosetTraces:
    """enumerate_irreducible's trace maps come from cyclotomic cosets:
    modulo a divisor of x^e - 1, x^i has the conjugates x^(i 2^j mod e)."""

    def test_coset_sums_are_trace_maps(self):
        checked = 0
        for e in range(3, 256, 2):
            n = ord2(e)
            if n > 24:
                continue
            phi = _cyclotomic_int(e)
            for i in range(1, 2 * e, 2):
                want = trace_map(_powmod(2, i, phi), phi, n)
                assert _mod(_coset_trace(i, n, e), phi) == want, (e, i)
                checked += 1
        assert checked > 4000

    def test_enumeration_matches_the_stepped_trace_maps(self):
        # sha256 of enumerate_irreducible's output, one line per odd e <
        # 4096 with ord2(e) <= 200, as recorded when the trace maps
        # were still taken by squaring modulo the polynomial being split
        digest = hashlib.sha256()
        count = 0
        for e in range(1, 4096, 2):
            n = ord2(e)
            if n <= 200:
                polys = enumerate_irreducible(n, e)
                digest.update(f"{e}:{','.join(format(p.bits, 'x') for p in polys)}\n".encode())
                count += 1
        assert count == 863
        assert digest.hexdigest() == (
            "c8ee534c2d1eede901f052b66a5794a2fc1d3c082f29a4f2b009e13350ce6bf2"
        )


class TestFactorint:
    """The primes of 2^n - 1 come from the committed table and trial
    division below 10^6, with no third-party code at run time; sympy
    only checks them here."""

    def test_every_2n_minus_1_up_to_128_matches_sympy(self):
        import sympy

        for n in range(1, 129):
            assert _factorint((1 << n) - 1) == sympy.factorint((1 << n) - 1), n

    def test_table_holds_sorted_primes_above_the_trial_bound(self):
        import sympy

        table = gf2poly._CUNNINGHAM_PRIMES
        assert len(table) == 83 and table[0] > 10**6
        assert list(table) == sorted(set(table))
        assert all(sympy.isprime(p) for p in table)

    def test_product_of_two_primes_past_the_table_refused_promptly(self):
        import sympy

        p, q = 1000000000039, 10000000000037
        assert sympy.isprime(p) and sympy.isprime(q)
        assert p not in gf2poly._CUNNINGHAM_PRIMES and q not in gf2poly._CUNNINGHAM_PRIMES
        started = perf_counter()
        with pytest.raises(ValueError, match=f"cannot factor {p * q}"):
            _factorint(p * q)
        assert perf_counter() - started < 0.5


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

    def test_square_above_degree_cap_has_no_exponent(self):
        # a repeated factor leaves the exponent undefined, so the order
        # of x, refused at this degree, is never sought
        f = P("x^129+x^5+1")
        cls = classify(f * f)
        assert cls.kind == "reducible-nonuniform" and cls.exponent is None
        assert cls.factors == (f, f)

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

    @staticmethod
    def _fields(f):
        cls = classify(f)
        return cls.kind, cls.exponent, cls.factors

    def test_matches_berlekamp_on_every_polynomial_up_to_degree_12(self):
        for bits in range(3, 1 << 13, 2):
            f = BinaryPolynomial(bits)
            assert self._fields(f) == reference_classify(f), f

    def test_matches_berlekamp_on_products_and_squares_up_to_degree_40(self):
        rng = random.Random(40)

        def irreducible(d):
            while True:
                f = BinaryPolynomial(1 << d | rng.getrandbits(d - 1) << 1 | 1)
                if is_irreducible(f):
                    return f

        cases = []
        for _ in range(30):
            p = irreducible(rng.randint(2, 13))
            q = irreducible(rng.randint(2, 13))
            same = enumerate_irreducible(p.degree, exponent(p))
            if len(same) > 1:
                cases.append(same[0] * same[-1])  # uniform
            cases += [p * q, p * p, p * p * q, q * q * q, irreducible(rng.randint(13, 40))]
            d = rng.randint(13, 40)
            cases.append(BinaryPolynomial(1 << d | rng.getrandbits(d - 1) << 1 | 1))
        kinds = set()
        for f in cases:
            assert f.degree <= 40
            got = self._fields(f)
            assert got == reference_classify(f), f
            kinds.add(got[0])
        assert {"reducible-uniform", "reducible-nonuniform"} <= kinds

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

    def test_ord2_matches_stepping(self):
        assert [ord2(e) for e in range(1, 20002, 2)] == [
            reference_ord2(e) for e in range(1, 20002, 2)
        ]

    def test_ord2_of_a_large_prime_is_prompt(self):
        # stepping would take 5 * 10^11 steps; phi(e) = 2 * 500000000019
        started = perf_counter()
        assert ord2(1000000000039) == 500000000019
        assert count_irreducible_with_exponent(1000000000039) == 2
        assert perf_counter() - started < 1.0

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

    @pytest.mark.parametrize("degree, e", [(0, 1), (-3, 7), (0, 2), (-1, 1000000000039)])
    def test_enumerate_degree_below_one(self, degree, e):
        # refused before the exponent is looked at
        with pytest.raises(ValueError, match=f"degree must be at least 1, got {degree}"):
            enumerate_irreducible(degree, e)

    def test_enumerate_exponent_cap(self):
        for degree, e in ((40, 1000000000039), (16, 65537)):
            with pytest.raises(ValueError, match="65535"):
                enumerate_irreducible(degree, e)

    def test_enumerate_large_modulus(self):
        # 1537 = 29 * 53 and ord2(1537) = 364: one split of the degree-1456
        # cyclotomic polynomial leaves a factor, and one decimation of its
        # sequence in each of the other three cyclotomic cosets finds the rest
        lst = enumerate_irreducible(364, 1537)
        assert len(lst) == 4 == count_irreducible_with_exponent(1537)
        x_e_minus_1 = (1 << 1537) | 1
        for p in lst:
            assert p.degree == 364
            assert is_irreducible(p)
            assert exponent(p) == 1537
            assert serial_mod(x_e_minus_1, p.bits) == 0
            ctx = FieldContext(p)
            assert ctx.alpha**1537 == ctx.one
            assert all(ctx.alpha ** (1537 // q) != ctx.one for q in (29, 53))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 1023))
    def test_enumerate_matches_full_split(self, k):
        e = 2 * k + 1
        n = ord2(e)
        assert enumerate_irreducible(n, e) == reference_enumerate_irreducible(n, e)

    @pytest.mark.parametrize(
        "e, count",
        [
            (3, 1),  # n = e - 1: the cyclotomic polynomial is the factor
            (7, 2),  # Mersenne: every factor primitive
            (127, 18),
            (961, 6),  # 31^2, n = 155
            (1537, 4),  # 29 * 53, n = 364
            (16383, 756),  # 3 * 43 * 127, n = 14
        ],
    )
    def test_enumerate_named_cases_match_full_split(self, e, count):
        n = ord2(e)
        lst = enumerate_irreducible(n, e)
        assert len(lst) == count
        assert lst == reference_enumerate_irreducible(n, e)

    def test_enumerate_members_have_degree_and_exponent(self):
        for e in range(3, 128, 2):
            n = ord2(e)
            lst = enumerate_irreducible(n, e)
            assert len(lst) == count_irreducible_with_exponent(e)
            for p in lst:
                assert p.degree == n
                assert is_irreducible(p)
                assert exponent(p) == e
