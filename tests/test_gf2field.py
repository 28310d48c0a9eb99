import random

import pytest

from conftest import field_inverse, minimal_polynomial, mulmod, reference_trace_mask, serial_trace
from prarray.criteria import CodeParams, _cell_positions, bezout, window_positions
from prarray.folding import _fold_indices
from prarray.gf2field import FieldContext
from prarray.gf2poly import BinaryPolynomial, _trace_mask, is_irreducible, parse


GF4 = FieldContext(parse("x^2+x+1"))
M4 = GF4.modulus.bits

# the fixed degree-12 modulus used by the worked root-power example
M12 = parse("x^12+x^7+x^6+x^5+x^3+x+1")


def first_irreducible(degree):
    for bits in range(1 << degree | 1, 1 << (degree + 1), 2):
        f = BinaryPolynomial(bits)
        if is_irreducible(f):
            return f
    raise AssertionError


def trace(a, f):
    """Tr(a) in GF(2)[x]/(f) by the trace mask the rank criteria read."""
    return (a & _trace_mask(f.bits, f.degree)).bit_count() & 1


class TestContext:
    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            FieldContext(parse("x^2+1"))

    def test_reduction(self):
        assert GF4.element(parse("x^2")) == GF4.element(parse("x+1"))
        assert GF4.element(parse("0")) == GF4.element(0)
        assert GF4.element(GF4.modulus).bits == 0


class TestArithmetic:
    """Field arithmetic on raw residues, by the gf2poly kernels."""

    def test_mul(self):
        assert mulmod(0b10, 0b10, M4) == 0b11

    def test_char2(self):
        # squaring is additive: (a + b)^2 = a^2 + b^2
        f = first_irreducible(6).bits
        for a in range(1 << 6):
            for b in range(1 << 6):
                assert mulmod(a ^ b, a ^ b, f) == mulmod(a, a, f) ^ mulmod(b, b, f)

    def test_one(self):
        for a in range(4):
            assert mulmod(a, 1, M4) == a

    def test_pow_exponent(self):
        ctx = FieldContext(parse("x^4+x^3+x^2+x+1"))
        assert ctx.alpha**5 == ctx.one

    def test_pow_zero(self):
        a = GF4.element(parse("x+1"))
        assert a**0 == GF4.one

    def test_inverse_everywhere(self):
        f = first_irreducible(6).bits
        for a in range(1, 1 << 6):
            assert mulmod(a, field_inverse(a, f), f) == 1


class TestOrder:
    def test_primitive_alpha(self):
        assert FieldContext(parse("x^4+x+1")).alpha.order() == 15

    def test_one(self):
        assert GF4.one.order() == 1

    def test_degree12_exponent(self):
        assert FieldContext(parse("x^12+x^10+x^9+x+1")).alpha.order() == 91

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            GF4.element(0).order()

    def test_order_divides_group_order(self):
        for n in range(2, 9):
            ctx = FieldContext(first_irreducible(n))
            group = (1 << n) - 1
            for bits in range(1, 1 << n):
                assert group % ctx.element(bits).order() == 0

    def test_past_the_factor_table_refused(self):
        # 2^129 - 1 leaves a 26-digit cofactor that neither the table of
        # primes of 2^n - 1, n <= 128, nor trial division below 10^6 splits
        ctx = FieldContext(parse("x^129+x^5+1"))
        with pytest.raises(ValueError, match="cannot factor"):
            ctx.alpha.order()


class TestTrace:
    """gf2poly._trace_mask, against the sum of Frobenius conjugates."""

    def test_mask_matches_the_trace_maps_up_to_degree_12(self):
        checked = 0
        for fb in range(0b101, 1 << 13, 2):
            n = fb.bit_length() - 1
            if is_irreducible(BinaryPolynomial(fb)):
                assert _trace_mask(fb, n) == reference_trace_mask(fb, n), fb
                checked += 1
        assert checked == 745  # the irreducibles of degree 2-12

    @pytest.mark.parametrize("n", range(33, 65))
    def test_mask_matches_the_trace_maps_at_word_degrees(self, n):
        rng = random.Random(n)
        for _ in range(2):
            fb = rng.getrandbits(n) | (1 << n) | 1
            while not is_irreducible(BinaryPolynomial(fb)):
                fb = rng.getrandbits(n) | (1 << n) | 1
            assert _trace_mask(fb, n) == reference_trace_mask(fb, n), fb

    def test_zero(self):
        assert trace(0, GF4.modulus) == 0

    def test_gf4_alpha(self):
        assert trace(0b10, GF4.modulus) == 1

    def test_one_in_each_degree(self):
        for n in range(2, 9):
            assert trace(1, first_irreducible(n)) == n % 2

    def test_linear_and_nontrivial(self):
        for n in range(2, 9):
            f = first_irreducible(n)
            assert [trace(a, f) for a in range(1 << n)] == [
                serial_trace(a, f.bits) for a in range(1 << n)
            ]
            assert any(trace(a, f) == 1 for a in range(1 << n))
            rng = random.Random(n)
            for _ in range(200):
                a, b = rng.randrange(1 << n), rng.randrange(1 << n)
                assert trace(a ^ b, f) == trace(a, f) ^ trace(b, f)


class TestMinimalPolynomial:
    def test_root_powers_in_fixed_degree12_field(self):
        ctx = FieldContext(M12)
        assert minimal_polynomial((ctx.alpha**273).bits, M12.bits) == parse("x^4+x+1")
        assert minimal_polynomial((ctx.alpha**585).bits, M12.bits) == parse("x^3+x+1")

    def test_one(self):
        assert minimal_polynomial(1, M4) == parse("x+1")

    def test_class_of_x_recovers_modulus(self):
        for bits in range(1 << 2 | 1, 1 << 9, 2):
            f = BinaryPolynomial(bits)
            if not is_irreducible(f):
                continue
            assert minimal_polynomial(FieldContext(f).alpha.bits, f.bits) == f


class TestSerialization:
    def test_element_tagged_with_modulus(self):
        a = GF4.element(parse("x+1"))
        assert str(a) == "11@111"

    def test_report_key_values(self):
        # witness coordinates and bits travel through the kv document
        from prarray.verify import window_census

        rep = window_census([[[0] * 5] * 3], 2, 2)
        kv = rep.to_kv()
        assert kv["verdict"] == "fail"
        assert kv["witness.position"] == "0,0"
        assert kv["witness.window"] == "0000"


class TestIntegers:
    def test_bezout_small(self):
        g, x, y = bezout(3, 5)
        assert g == 1 and 3 * x + 5 * y == 1

    def test_bezout_primes(self):
        g, x, y = bezout(7, 13)
        assert g == 1 and 7 * x + 13 * y == 1

    def test_bezout_equal(self):
        g, x, y = bezout(9, 9)
        assert g == 9 and 9 * x + 9 * y == 9

    def test_bezout_random(self):
        rng = random.Random(3)
        for _ in range(300):
            a, b = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
            g, x, y = bezout(a, b)
            assert a % g == 0 and b % g == 0 and a * x + b * y == g

    def test_bezout_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bezout(0, 5)

    # the two CRT maps the package runs: window positions at a window
    # as large as the array, and the fold's cell-to-sequence index
    @pytest.mark.parametrize("i,j,r1,r2,k", [(1, 2, 3, 5, 7), (0, 0, 3, 5, 0), (2, 4, 3, 5, 14)])
    def test_crt_examples(self, i, j, r1, r2, k):
        assert _cell_positions(CodeParams(r1, r2, r1, r2))[i * r2 + j] == k
        assert _fold_indices(r1, r2)[i * r2 + j] == k

    @pytest.mark.parametrize("r1,r2", [(3, 5), (7, 13), (13, 35), (1, 17), (99, 1010)])
    def test_crt_bijection(self, r1, r2):
        ks = _cell_positions(CodeParams(r1, r2, r1, r2))
        assert ks == _fold_indices(r1, r2).tolist()
        for i in range(r1):
            for j in range(r2):
                k = ks[i * r2 + j]
                assert 0 <= k < r1 * r2
                assert k % r1 == i and k % r2 == j
        assert len(set(ks)) == r1 * r2

    def test_crt_noncoprime(self):
        with pytest.raises(ValueError, match="coprime"):
            window_positions(CodeParams(6, 9, 6, 9))
