import random

import pytest
from conftest import (
    bit,
    canonical,
    delay,
    least_period,
    reference_berlekamp_massey,
    repeat,
    seq,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from prarray.gf2poly import (
    BinaryPolynomial,
    classify,
    enumerate_irreducible,
    exponent,
    is_irreducible,
    lcm,
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


def walk_zero_factor(f):
    """Reference zero factor: walk the register state by state from
    each unseen state in increasing order.  A state holds
    a_k .. a_{k+n-1} at bits 0 .. n-1."""
    n = f.degree
    # a_{k+n} = sum of c_i a_{k+n-i}, and a_{k+n-i} sits at bit n - i
    taps = sum(1 << (n - i) for i in range(1, n + 1) if f.bits >> i & 1)
    seen = bytearray(1 << n)
    cycles = []
    for s0 in range(1, 1 << n):
        if seen[s0]:
            continue
        s, bits, k = s0, 0, 0
        while not seen[s]:
            seen[s] = 1
            bits |= (s & 1) << k
            k += 1
            s = (s >> 1) | (((s & taps).bit_count() & 1) << (n - 1))
        assert s == s0
        cycles.append(CyclicSequence(bits, k))
    return tuple(cycles)


class TestZeroFactorReference:
    """The batched zero factor against the state-by-state walk."""

    def test_every_uniform_polynomial_up_to_degree_10(self):
        kinds = set()
        for bits in range(0b11, 1 << 11, 2):
            f = BinaryPolynomial(bits)
            cls = classify(f)
            if not cls.is_uniform:
                continue
            kinds.add(cls.kind)
            assert zero_factor(f).cycles == walk_zero_factor(f), f
        assert "reducible-uniform" in kinds

    def test_degree21_above_the_old_table_cap(self):
        # ord2(49) = 21: 42,799 cycles of 49 states
        f = enumerate_irreducible(21, 49)[0]
        zf = zero_factor(f)
        assert len(zf) == ((1 << 21) - 1) // 49
        assert zf.cycles == walk_zero_factor(f)


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
            assert least_period(c) == c.least_period == e


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
