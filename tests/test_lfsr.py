import functools
import itertools
import operator
import random

import numpy as np
import pytest
from conftest import (
    bit,
    canonical,
    delay,
    least_period,
    numpy_walk_zero_factor,
    reference_berlekamp_massey,
    repeat,
    seq,
    serial_generate,
    walk_zero_factor,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from prarray import lfsr
from prarray.gf2poly import (
    BinaryPolynomial,
    InternalCheckError,
    classify,
    enumerate_irreducible,
    exponent,
    is_irreducible,
    lcm,
    ord2,
    parse,
)
from prarray.lfsr import CyclicSequence, berlekamp_massey, generate, zero_factor


def bits_of(text):
    """A seed written as a 0/1 string, as the list of bits generate takes."""
    return [int(c) for c in text]


def canon_set(cycles):
    return {canonical(c) for c in cycles}


class TestGenerate:
    def test_degree6_cycle(self):
        s = generate(parse("x^6+x^5+x^4+x^2+1"), bits_of("000001"), 21)
        assert str(s) == "000001010010011001011"

    def test_all_zero_seed(self):
        s = generate(parse("x^4+x+1"), [0] * 4, 15)
        assert s.bits == 0

    def test_degree2(self):
        assert str(generate(parse("x^2+x+1"), [0, 1], 3)) == "011"

    def test_short_length_rejected(self):
        with pytest.raises(ValueError):
            generate(parse("x^4+x+1"), bits_of("0001"), 3)

    def test_span4_msequence(self):
        s = generate(parse("x^4+x+1"), bits_of("0001"), 15)
        assert str(s) == "000111101011001"

    @pytest.mark.parametrize("seeded", [False, True])
    def test_matches_the_shift_register(self, seeded):
        # x^n + 1 and a random f with f(0) = 1 at degrees 1-200 and 810,
        # lengths n to n + 300: n + 0..3 meet every residue mod 4
        rng = random.Random(9 + seeded)
        for n in [*range(1, 201), 810]:
            for fb in ((1 << n) | 1, rng.getrandbits(n) | (1 << n) | 1):
                seed = rng.getrandbits(n) if seeded else 0
                bits = [seed >> k & 1 for k in range(n)]
                for length in [n, n + 1, n + 2, n + 3, n + 300, rng.randrange(n, n + 301)]:
                    s = generate(BinaryPolynomial(fb), bits, length)
                    assert s.length == length
                    assert s.bits == serial_generate(fb, seed, length), (fb, seed, length)


class TestZeroFactor:
    def test_degree6_exponent21(self):
        zf = zero_factor(parse("x^6+x^5+x^4+x^2+1"))
        known = ["000001010010011001011", "010000111101101010111", "001000110111111001110"]
        assert zf.exponent == 21
        assert canon_set(zf.cycles) == canon_set(seq(p) for p in known)

    def test_primitive_single_cycle(self):
        zf = zero_factor(parse("x^2+x+1"))
        assert len(zf.cycles) == 1
        assert canonical(zf.cycles[0]) == canonical(seq("011"))

    def test_nine_cycles(self):
        zf = zero_factor(parse("x^3+x^2+1") * parse("x^3+x+1"))
        assert len(zf.cycles) == 9 and zf.exponent == 7
        names = canon_set(zf.cycles)
        assert canonical(seq("0011101")) in names
        assert canonical(seq("0010111")) in names

    def test_nonuniform_rejected(self):
        with pytest.raises(ValueError):
            zero_factor(parse("x^2+x+1") * parse("x^3+x+1"))

    @pytest.mark.parametrize(
        "poly",
        [
            "x^4+x+1",
            "x^6+x^5+x^4+x^2+1",
            "x^9+x^4+x^2+x+1",
        ],
    )
    def test_window_property(self, poly):
        f = parse(poly)
        zf = zero_factor(f)
        n = f.degree
        windows = set()
        total = 0
        for c in zf.cycles:
            for k in range(len(c)):
                w = tuple(bit(c, k + i) for i in range(n))
                assert any(w), "zero window in a zero factor"
                windows.add(w)
                total += 1
        assert total == (1 << n) - 1
        assert len(windows) == total

    def test_window_property_degree16(self):
        # a primitive degree-16 polynomial, found by filtering
        f = next(
            BinaryPolynomial(b)
            for b in range(1 << 16 | 1, 1 << 17, 2)
            if is_irreducible(BinaryPolynomial(b))
            and exponent(BinaryPolynomial(b)) == (1 << 16) - 1
        )
        zf = zero_factor(f)
        assert len(zf.cycles) == 1
        c = zf.cycles[0]
        windows = set()
        for k in range(len(c)):
            w = 0
            for i in range(16):
                w |= bit(c, k + i) << i
            windows.add(w)
        assert len(windows) == (1 << 16) - 1 and 0 not in windows


class TestZeroFactorReference:
    """The coset-seeded zero factor against the state-by-state walk and
    the numpy walk over a table of seen states."""

    def test_every_uniform_polynomial_up_to_degree_10(self):
        kinds = set()
        for bits in range(0b11, 1 << 11, 2):
            f = BinaryPolynomial(bits)
            cls = classify(f)
            if not cls.is_uniform:
                continue
            kinds.add(cls.kind)
            assert tuple(zero_factor(f).cycles) == walk_zero_factor(f), f
        assert "reducible-uniform" in kinds

    @pytest.mark.parametrize("n", [11, 12])
    def test_every_uniform_polynomial_of_degree(self, n):
        for bits in range(1 << n | 1, 1 << (n + 1), 2):
            f = BinaryPolynomial(bits)
            if classify(f).is_uniform:
                assert tuple(zero_factor(f).cycles) == walk_zero_factor(f), f

    @pytest.mark.parametrize("n", [13, 14])
    def test_every_uniform_polynomial_against_the_numpy_walk(self, n):
        kinds = set()
        for bits in range(1 << n | 1, 1 << (n + 1), 2):
            f = BinaryPolynomial(bits)
            cls = classify(f)
            if cls.is_uniform:
                kinds.add(cls.kind)
                want = numpy_walk_zero_factor(f, cls.exponent)
                assert np.array_equal(zero_factor(f).bits, want), f
        assert kinds == ({"primitive"} if n == 13 else {"primitive", "INP", "reducible-uniform"})

    @pytest.mark.parametrize("n, count", [(15, 20), (16, 155)])
    def test_every_reducible_uniform_polynomial_against_the_numpy_walk(self, n, count):
        # the products of k >= 2 distinct irreducibles of degree n/k
        # sharing one exponent
        products = []
        for k in range(2, n // 2 + 1):
            d = n // k
            if n % k:
                continue
            for e in range(3, 1 << d):
                if ((1 << d) - 1) % e == 0 and ord2(e) == d:
                    for combo in itertools.combinations(enumerate_irreducible(d, e), k):
                        products.append(functools.reduce(operator.mul, combo))
        assert len(products) == count
        for f in products:
            cls = classify(f)
            assert cls.kind == "reducible-uniform", f
            want = numpy_walk_zero_factor(f, cls.exponent)
            assert np.array_equal(zero_factor(f).bits, want), f

    def test_degree21_above_the_old_table_cap(self):
        # ord2(49) = 21: 42,799 cycles of 49 states
        f = enumerate_irreducible(21, 49)[0]
        zf = zero_factor(f)
        assert len(zf) == ((1 << 21) - 1) // 49
        assert tuple(zf.cycles) == walk_zero_factor(f)


class TestZeroFactorChecks:
    """Each check of the coset-seeded generator fails when its premise
    is false."""

    @pytest.mark.parametrize(
        "poly, e",
        # exponents 5 and 51: the one seed's row passes its seed again
        # after 5 and 51 steps; 51 is a multiple of no prime of 255
        [("x^4+x^3+x^2+x+1", 15), ("x^8+x^4+x^3+x+1", 255)],
    )
    def test_exponent_a_proper_multiple_of_the_period(self, poly, e):
        f = parse(poly)
        with pytest.raises(InternalCheckError, match=f"period {e}"):
            lfsr._coset_zero_factor(f, e, [f])

    def test_exponent_not_a_multiple_of_the_period(self):
        f = parse("x^4+x+1")  # primitive: 5 steps do not close a row
        with pytest.raises(InternalCheckError, match="does not close"):
            lfsr._coset_zero_factor(f, 5, [f])

    def test_exponent_not_dividing_2n_minus_1(self):
        f = parse("x^4+x+1")
        with pytest.raises(InternalCheckError, match="does not divide"):
            lfsr._coset_zero_factor(f, 7, [f])

    @pytest.mark.parametrize(
        "poly, factors",
        [
            ("x^4+x+1", ["x^4+x^3+1"]),
            ("x^6+x^5+x^4+x^2+1", ["x^3+x+1", "x^3+x^2+1"]),
            ("x^8+x^7+x^5+x^4+x^3+x+1", ["x^4+x+1"]),
            ("x^8+x^7+x^5+x^4+x^3+x+1", ["x^2+x+1", "x^6+x^5+x^4+x^2+1"]),
        ],
        ids=["other-irreducible", "other-product", "one-factor-short", "other-degrees"],
    )
    def test_factor_list_not_of_f(self, poly, factors):
        f = parse(poly)
        with pytest.raises(InternalCheckError, match="is not"):
            lfsr._coset_zero_factor(f, classify(f).exponent, [parse(p) for p in factors])

    def test_reducible_factor_puts_seeds_on_one_cycle(self):
        # (x^4+x+1)(x^4+x^3+1) passed as its own single factor
        f = parse("x^8+x^7+x^5+x^4+x^3+x+1")
        with pytest.raises(InternalCheckError):
            lfsr._coset_zero_factor(f, 15, [f])

    def test_zero_seed(self, monkeypatch):
        # x + 1 has one cycle of one state: a zero seed's row closes, and
        # an exponent of 1 has no prime to check the period at
        tables = lfsr._map_tables
        monkeypatch.setattr(
            lfsr, "_map_tables", lambda f, polys: (tables(f, polys)[0], np.zeros(len(polys), "<u4"))
        )
        with pytest.raises(InternalCheckError, match="one per cycle"):
            zero_factor(parse("x+1"))

    @pytest.mark.parametrize(
        "poly",
        # two irreducibles, and the product of the two of degree 6 and
        # exponent 21: 3 cycles in each factor's space
        ["x^6+x^5+x^4+x^2+1", "x^12+x^10+x^9+x+1", "x^12+x^11+x^9+x^8+x^6+x^4+x^3+x+1"],
    )
    def test_quotient_generator_x_puts_seeds_on_one_cycle(self, monkeypatch, poly):
        # with beta = x every seed of a factor's space is on one cycle
        monkeypatch.setattr(lfsr, "_quotient_generator", lambda p, e: 2)
        with pytest.raises(InternalCheckError, match="one per cycle"):
            zero_factor(parse(poly))


class TestCyclesView:
    """``ZeroFactor.cycles`` reads rows of the bit matrix as
    CyclicSequences only when they are read, and keeps none."""

    def test_length_builds_no_sequence(self, monkeypatch):
        built = []
        init = CyclicSequence.__init__
        monkeypatch.setattr(
            CyclicSequence, "__init__", lambda self, *args: built.append(args) or init(self, *args)
        )
        zf = zero_factor(parse("x^12+x^10+x^9+x+1"))  # 45 cycles of 91 states
        assert len(zf.cycles) == 45 and built == []
        assert zf.cycles[-1] == zf.cycles[44] and len(built) == 2
        assert len(tuple(zf.cycles)) == 45 and len(built) == 47
        assert len(zf.cycles) == 45 and len(built) == 47
        assert "cycles" not in vars(zf)

    @pytest.mark.parametrize(
        "poly",
        # two irreducibles, and (x^4+x+1)(x^4+x^3+1): 17 cycles of 15
        ["x^6+x^5+x^4+x^2+1", "x^12+x^10+x^9+x+1", "x^8+x^7+x^5+x^4+x^3+x+1"],
    )
    def test_reads_match_the_walk(self, poly):
        f = parse(poly)
        want = walk_zero_factor(f)
        cycles = zero_factor(f).cycles
        m = len(want)
        assert len(cycles) == m and tuple(cycles) == want and list(cycles) == list(want)
        assert [cycles[i] for i in range(-m, m)] == [want[i] for i in range(-m, m)]
        for part in (slice(None), slice(1, 4), slice(-2, None), slice(None, None, -2),
                     slice(3, 1), slice(m, None)):
            assert cycles[part] == want[part], part
        for i in (m, -m - 1):
            with pytest.raises(IndexError):
                cycles[i]
        assert want[-1] in cycles and cycles.index(want[-1]) == m - 1
        with pytest.raises(TypeError):
            cycles[0] = want[0]


class TestBitOps:
    """Sums of sequences, bit by bit on their packed ints: the sequences
    of f are closed under sums, and sums of periodic sequences satisfy
    the lcm of their recursions."""

    def test_add_self_is_zero(self):
        # an m-sequence plus itself is zero, and plus any other delay of
        # itself is a third delay of itself (shift and add)
        s = generate(parse("x^5+x^2+1"), bits_of("00001"), 31)
        delays = {delay(s.bits, 31, t) for t in range(31)}
        assert s.bits ^ s.bits == 0
        for t in range(1, 31):
            assert s.bits ^ delay(s.bits, 31, t) in delays

    def test_sums_of_f_sequences_are_f_sequences(self):
        # the recursion is linear: the sum of the runs from two seeds is
        # the run from the sum of the seeds
        rng = random.Random(6)
        product = parse("x^3+x^2+1") * parse("x^3+x+1")
        for f in (parse("x^4+x+1"), parse("x^6+x^5+x^4+x^2+1"), product):
            n = f.degree
            for _ in range(50):
                u = [rng.randrange(2) for _ in range(n)]
                v = [rng.randrange(2) for _ in range(n)]
                w = [a ^ b for a, b in zip(u, v)]
                assert generate(f, u, 60).bits ^ generate(f, v, 60).bits == generate(f, w, 60).bits

    def test_sum_is_xor_of_repeats(self):
        # a word of length 3 repeats with x^3 + 1 and one of length 5
        # with x^5 + 1, so the xor of their repeats to length 15 has a
        # minimal polynomial dividing the lcm of the two
        rng = random.Random(5)
        both = lcm(parse("x^3+1"), parse("x^5+1"))
        for _ in range(100):
            a, b = rng.randrange(1 << 3), rng.randrange(1 << 5)
            s = CyclicSequence(repeat(a, 3, 5) ^ repeat(b, 5, 3), 15)
            assert (both % berlekamp_massey(s)).is_zero

    @pytest.mark.parametrize("pair", [("x^2+x+1", "x^3+x+1"), ("x^3+x+1", "x^4+x+1")])
    def test_span_of_products_has_full_period(self, pair):
        # sums of products of sequences with coprime periods r1, r2 have
        # least period exactly r1*r2 (checked via the product polynomial)
        from prarray.criteria import vee

        f1, f2 = parse(pair[0]), parse(pair[1])
        g = vee(f1, f2)
        e = exponent(f1) * exponent(f2)
        zf = zero_factor(g)
        assert zf.exponent == e
        for c in zf.cycles:
            assert least_period(c) == e


class TestBerlekampMassey:
    def test_period3(self):
        assert berlekamp_massey(seq("011011011011")) == parse("x^2+x+1")

    def test_all_zero(self):
        assert berlekamp_massey(CyclicSequence(0, 16)) == parse("1")

    def test_msequence_recovery(self):
        s = generate(parse("x^4+x+1"), bits_of("0001"), 30)
        assert berlekamp_massey(s) == parse("x^4+x+1")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200) | st.integers(1, 40).flatmap(
        # a linear-recurring prefix: its span stops growing
        lambda n: st.lists(st.integers(0, 1), min_size=n, max_size=n).map(lambda s: s * 5)))
    def test_packed_matches_bit_by_bit_reference(self, bits):
        s = CyclicSequence(sum(b << k for k, b in enumerate(bits)), len(bits))
        assert berlekamp_massey(s) == reference_berlekamp_massey(bits)

    def test_divides_generator(self):
        # exhaustively for small degrees, sampled seeds for larger ones
        rng = random.Random(2)
        for bits in range(0b101, 1 << 11, 2):
            f = BinaryPolynomial(bits)
            n = f.degree
            if n < 2:
                continue
            if n <= 6:
                seeds = range(1 << n)
            else:
                seeds = [rng.randrange(1 << n) for _ in range(40)]
            for sd in seeds:
                s = generate(f, [sd >> i & 1 for i in range(n)], 4 * n)
                m = berlekamp_massey(s)
                assert (f % m).is_zero, (f, sd, m)
