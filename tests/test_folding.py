import io
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prarray.folding import (
    CodeParams,
    TorusArray,
    fold,
    fold_zero_factor,
    read_arrays,
    unfold,
    write_arrays,
)
from prarray.gf2poly import BinaryPolynomial, _divisors, classify, parse
from prarray.lfsr import CyclicSequence, bitmul, generate, zero_factor


SPAN4 = CyclicSequence.from_bits("000111101011001")


def arr(*lines):
    return TorusArray.from_lines(lines)


class TestFold:
    def test_span4_into_3x5(self):
        assert fold(SPAN4, 3, 5) == arr("01010", "10001", "11011")

    def test_all_zero(self):
        assert fold(CyclicSequence(0, 15), 3, 5).is_zero

    def test_three_cycles_into_3x7(self, deg6_exp21):
        zf = zero_factor(deg6_exp21[0])
        folded = {a.canonical_packed() for a in fold_zero_factor(zf, 3, 7)}
        known = [
            arr("0000000", "1001011", "1001011"),
            arr("0010111", "1110010", "1100101"),
            arr("0010111", "1001011", "1011100"),
        ]
        assert folded == {a.canonical_packed() for a in known}

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            fold(CyclicSequence(1, 36), 6, 6)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fold(SPAN4, 3, 7)


def reference_fold(seq, r1, r2):
    """Cell by cell: bit k goes to cell (k mod r1, k mod r2)."""
    rows = [0] * r1
    for k in range(r1 * r2):
        if seq.bits >> k & 1:
            rows[k % r1] |= 1 << (k % r2)
    return TorusArray(rows, r2)


class TestFoldReference:
    def test_fold_zero_factor_matches_per_cycle_folds(self):
        # every uniform polynomial of degree 4..10, every coprime split
        checked = 0
        for bits in range(1 << 4 | 1, 1 << 11, 2):
            f = BinaryPolynomial(bits)
            cls = classify(f)
            if not cls.is_uniform:
                continue
            zf = zero_factor(f)
            e = cls.exponent
            for r1 in _divisors(e):
                r2 = e // r1
                if math.gcd(r1, r2) != 1:
                    continue
                arrays = fold_zero_factor(zf, r1, r2)
                assert arrays == tuple(reference_fold(c, r1, r2) for c in zf.cycles), (f, r1)
                assert arrays == tuple(fold(c, r1, r2) for c in zf.cycles), (f, r1)
                checked += 1
        assert checked > 500

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fold_unfold_bijection(self, data):
        r1 = data.draw(st.integers(1, 40))
        r2 = data.draw(st.integers(1, 40))
        assume(math.gcd(r1, r2) == 1)
        s = CyclicSequence(data.draw(st.integers(0, (1 << (r1 * r2)) - 1)), r1 * r2)
        a = fold(s, r1, r2)
        assert a == reference_fold(s, r1, r2)
        assert unfold(a) == s
        rows = data.draw(st.lists(st.integers(0, (1 << r2) - 1), min_size=r1, max_size=r1))
        b = TorusArray(rows, r2)
        assert fold(unfold(b), r1, r2) == b


class TestUnfold:
    def test_inverse_of_fold(self):
        assert unfold(arr("01010", "10001", "11011")) == SPAN4

    def test_all_zero(self):
        assert unfold(TorusArray([0, 0, 0], 5)).bits == 0

    def test_round_trip_random(self):
        rng = random.Random(9)
        for _ in range(50):
            s = CyclicSequence(rng.randrange(1 << 15), 15)
            assert unfold(fold(s, 3, 5)) == s

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            unfold(TorusArray([0, 0], 4))


class TestShift:
    def test_matches_displayed_shift(self):
        b = fold(SPAN4, 3, 5)
        assert b.shift(1, 2) == arr("11110", "10010", "01100")

    def test_identity(self):
        b = fold(SPAN4, 3, 5)
        assert b.shift(0, 0) == b
        assert b.shift(3, 5) == b

    def test_sum_with_shift(self):
        b = fold(SPAN4, 3, 5)
        assert b + b.shift(1, 2) == arr("10100", "00011", "10111")

    def test_diagonal_shift_is_sequence_delay(self):
        # delaying the sequence by one equals a (1,1) array shift
        rng = random.Random(4)
        pairs = [
            (r1, r2)
            for n in range(2, 2001)
            for r1 in range(1, n + 1)
            if n % r1 == 0
            for r2 in [n // r1]
            if math.gcd(r1, r2) == 1
        ]
        pairs += [(99, 101), (101, 99), (7, 1427), (3, 3331)]
        for r1, r2 in pairs:
            s = CyclicSequence(rng.randrange(1 << (r1 * r2)), r1 * r2)
            assert fold(s.rotate(1), r1, r2) == fold(s, r1, r2).shift(1, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_rotations_packed_order(self, r1, r2, data):
        # entry dh*r1 + dv packs shift(dv, dh), row i at bits [i*r2, (i+1)*r2)
        rows = data.draw(st.lists(st.integers(0, (1 << r2) - 1), min_size=r1, max_size=r1))
        a = TorusArray(rows, r2)
        for t, packed in enumerate(a.rotations_packed()):
            moved = a.shift(t % r1, t // r1)
            assert packed == sum(r << (i * r2) for i, r in enumerate(moved.rows))


class TestElementwise:
    def test_product_display(self):
        a = arr("0000000", "1111111", "1111111")
        b = arr("1001011", "1001011", "1001011")
        assert a.prod(b) == arr("0000000", "1001011", "1001011")

    def test_add_self(self):
        a = fold(SPAN4, 3, 5)
        assert (a + a).is_zero

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            arr("01", "10") + arr("010", "100")

    def test_fold_preserves_add_and_mul(self):
        rng = random.Random(12)
        for _ in range(60):
            u = CyclicSequence(rng.randrange(1 << 21), 21)
            v = CyclicSequence(rng.randrange(1 << 21), 21)
            fu, fv = fold(u, 3, 7), fold(v, 3, 7)
            w = CyclicSequence(u.bits ^ v.bits, 21)
            assert fu + fv == fold(w, 3, 7)
            m = CyclicSequence(u.bits & v.bits, 21)
            assert fu.prod(fv) == fold(m, 3, 7)


class TestRowColumnStructure:
    def test_period_r1_input_gives_constant_rows(self):
        s = CyclicSequence.from_bits("011" * 7)
        a = fold(s, 3, 7)
        assert a == arr("0000000", "1111111", "1111111")
        for j in range(7):
            assert str(a.column(j)) == "011"

    def test_period_r2_input_gives_constant_columns(self):
        s = CyclicSequence.from_bits("1001011" * 3)
        a = fold(s, 3, 7)
        assert a == arr("1001011", "1001011", "1001011")
        for i in range(3):
            assert str(a.row(i)) == "1001011"

    def test_general_prop(self):
        # rows of a folded period-r2 repetition all equal the repeated word
        rng = random.Random(21)
        for r1, r2 in [(3, 7), (4, 9), (5, 8)]:
            word = CyclicSequence(rng.randrange(1, 1 << r2), r2)
            a = fold(word.repeat(r1), r1, r2)
            for i in range(r1):
                assert a.row(i) == word
            for j in range(r2):
                col = a.column(j)
                assert col.bits in (0, (1 << r1) - 1)

    def test_product_of_row_and_column_patterns(self):
        rng = random.Random(22)
        for _ in range(30):
            r1, r2 = 4, 7
            u = CyclicSequence(rng.randrange(1, 1 << r2), r2)
            v = CyclicSequence(rng.randrange(1, 1 << r1), r1)
            rows_a = TorusArray([u.bits] * r1, r2)
            ones = (1 << r2) - 1
            rows_b = TorusArray(
                [ones if v.bit(i) else 0 for i in range(r1)], r2
            )
            prod = rows_a.prod(rows_b)
            for i in range(r1):
                assert prod.row(i).bits in (0, u.bits)
            for j in range(r2):
                assert prod.column(j).bits in (0, v.bits)

    def test_product_cycle_structure(self):
        prod = bitmul(CyclicSequence.from_bits("011"), CyclicSequence.from_bits("1001011"))
        a = fold(prod, 3, 7)
        s = generate(parse("x^6+x^5+x^4+x^2+1"), "000001", 21)
        assert a.canonical_packed() == fold(s, 3, 7).canonical_packed()


class TestCodeParams:
    def test_valid(self):
        assert CodeParams(7, 13, 3, 4).violation() is None
        assert CodeParams(7, 13, 3, 4).codeword_count() == 45

    def test_violations(self):
        assert "gcd" in CodeParams(6, 9, 2, 2).violation()
        assert "r1 > n1" in CodeParams(3, 7, 3, 2).violation()
        assert "does not divide" in CodeParams(5, 7, 2, 3).violation()

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            CodeParams(0, 5, 1, 1)


class TestArrayFiles:
    def test_round_trip_with_header(self, deg6_exp21):
        arrays = fold_zero_factor(zero_factor(deg6_exp21[0]), 3, 7)
        buf = io.StringIO()
        write_arrays(buf, arrays, CodeParams(3, 7, 2, 3))
        buf.seek(0)
        back, params = read_arrays(buf)
        assert back == arrays
        assert params == CodeParams(3, 7, 2, 3)

    def test_round_trip_without_header(self):
        arrays = (fold(SPAN4, 3, 5),)
        buf = io.StringIO()
        write_arrays(buf, arrays)
        buf.seek(0)
        back, params = read_arrays(buf)
        assert back == arrays and params is None

    def test_bad_line_reports_number(self):
        with pytest.raises(ValueError) as err:
            read_arrays(io.StringIO("010\n0x0\n"))
        assert "line 2" in str(err.value)

    def test_empty_file(self):
        arrays, params = read_arrays(io.StringIO(""))
        assert arrays == () and params is None
