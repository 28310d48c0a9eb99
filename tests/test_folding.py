import io
import math
import random

import numpy as np
import pytest
from conftest import (
    bit,
    column,
    delay,
    grid_lines,
    least_rotation,
    reference_write_arrays,
    repeat,
    row,
    seq,
    shift,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prarray import folding
from prarray.folding import (
    CodeParams,
    _fold_indices,
    fold,
    fold_zero_factor,
    read_arrays,
    unfold,
    write_arrays,
)
from prarray.gf2poly import BinaryPolynomial, _divisors, classify, parse
from prarray.lfsr import CyclicSequence, generate, zero_factor
from prarray.verify import verify_prac


SPAN4 = seq("000111101011001")


def arr(*lines):
    """The uint8 grid whose rows are the given 0/1 strings."""
    return np.array([[int(c) for c in line] for line in lines], dtype=np.uint8)


def same(a, b):
    return np.array_equal(a, b)


def grids(r1, r2):
    """r1 x r2 lists of 0/1 cells, drawn one row at a time."""
    rows = st.lists(st.integers(0, (1 << r2) - 1), min_size=r1, max_size=r1)
    return rows.map(lambda rs: [[r >> j & 1 for j in range(r2)] for r in rs])


class TestFold:
    def test_span4_into_3x5(self):
        assert same(fold(SPAN4, 3, 5), arr("01010", "10001", "11011"))

    def test_all_zero(self):
        assert not fold(CyclicSequence(0, 15), 3, 5).any()

    def test_three_cycles_into_3x7(self, deg6_exp21):
        zf = zero_factor(deg6_exp21[0])
        folded = {least_rotation(g) for g in fold_zero_factor(zf, 3, 7)}
        known = [
            arr("0000000", "1001011", "1001011"),
            arr("0010111", "1110010", "1100101"),
            arr("0010111", "1001011", "1011100"),
        ]
        assert folded == {least_rotation(a) for a in known}

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            fold(CyclicSequence(1, 36), 6, 6)

    def test_nonpositive_dimensions_rejected(self):
        # each product is the length, so only the dimension check refuses
        zf = zero_factor(parse("x^4+x+1"))
        with pytest.raises(ValueError, match="fold needs positive dimensions, got -3 and -5"):
            fold_zero_factor(zf, -3, -5)
        for r1, r2 in ((-1, -15), (-15, -1), (-3, -5)):
            with pytest.raises(ValueError, match="fold needs positive dimensions"):
                fold(SPAN4, r1, r2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fold(SPAN4, 3, 7)


def reference_fold(seq, r1, r2):
    """Cell by cell: bit k goes to cell (k mod r1, k mod r2)."""
    grid = [[0] * r2 for _ in range(r1)]
    for k in range(r1 * r2):
        if seq.bits >> k & 1:
            grid[k % r1][k % r2] = 1
    return np.array(grid, dtype=np.uint8)


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
                folded = fold_zero_factor(zf, r1, r2)
                assert same(folded, [reference_fold(c, r1, r2) for c in zf.cycles]), (f, r1)
                assert same(folded, [fold(c, r1, r2) for c in zf.cycles]), (f, r1)
                checked += 1
        assert checked > 500

    @pytest.mark.parametrize("r1, r2", [(1, 21), (21, 1)])
    def test_identity_fold_is_a_view(self, deg6_exp21, r1, r2):
        # with r1 or r2 equal to 1 the fold reads the zero factor's own
        # read-only matrix: no copy and no cached index
        zf = zero_factor(deg6_exp21[0])
        cached = _fold_indices.cache_info()
        grids = fold_zero_factor(zf, r1, r2)
        one = fold(zf.cycles[0], r1, r2)
        assert _fold_indices.cache_info() == cached
        assert same(grids, [reference_fold(c, r1, r2) for c in zf.cycles])
        assert same(one, reference_fold(zf.cycles[0], r1, r2))
        assert np.shares_memory(grids, zf.bits)
        for grid in (grids, grids[0], grids[-1], one):
            with pytest.raises(ValueError):
                grid[0, 0] = 1
            with pytest.raises(ValueError):
                grid.flags.writeable = True

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fold_unfold_bijection(self, data):
        r1 = data.draw(st.integers(1, 40))
        r2 = data.draw(st.integers(1, 40))
        assume(math.gcd(r1, r2) == 1)
        s = CyclicSequence(data.draw(st.integers(0, (1 << (r1 * r2)) - 1)), r1 * r2)
        a = fold(s, r1, r2)
        assert a.shape == (r1, r2) and a.dtype == np.uint8
        assert same(a, reference_fold(s, r1, r2))
        assert unfold(a) == s
        b = np.array(data.draw(grids(r1, r2)), dtype=np.uint8)
        assert same(fold(unfold(b), r1, r2), b)


class TestUnfold:
    def test_inverse_of_fold(self):
        assert unfold(arr("01010", "10001", "11011")) == SPAN4

    def test_all_zero(self):
        assert unfold(arr("00000", "00000", "00000")).bits == 0

    def test_round_trip_random(self):
        rng = random.Random(9)
        for _ in range(50):
            s = CyclicSequence(rng.randrange(1 << 15), 15)
            assert unfold(fold(s, 3, 5)) == s

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            unfold(arr("0000", "0000"))

    @pytest.mark.parametrize("r1, r2", [(1, 1), (1, 1021), (1021, 1)])
    def test_identity_unfold_builds_no_index(self, r1, r2):
        # with r1 or r2 equal to 1 the grid read row-major is the sequence
        rng = random.Random(r1 + 2 * r2)
        cells = [[rng.randrange(2) for _ in range(r2)] for _ in range(r1)]
        cached = _fold_indices.cache_info()
        seq = unfold(cells)
        assert _fold_indices.cache_info() == cached
        ell = r1 * r2
        assert (len(seq), seq.bits) == (ell, sum(cells[k % r1][k % r2] << k for k in range(ell)))


class TestShift:
    def test_matches_displayed_shift(self):
        b = fold(SPAN4, 3, 5)
        assert same(shift(b, 1, 2), arr("11110", "10010", "01100"))

    def test_identity(self):
        b = fold(SPAN4, 3, 5)
        assert same(shift(b, 0, 0), b)
        assert same(shift(b, 3, 5), b)

    def test_sum_with_shift(self):
        b = fold(SPAN4, 3, 5)
        assert same(b ^ shift(b, 1, 2), arr("10100", "00011", "10111"))

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
            ell = r1 * r2
            s = CyclicSequence(rng.randrange(1 << ell), ell)
            delayed = CyclicSequence(delay(s.bits, ell, 1), ell)
            assert same(fold(delayed, r1, r2), shift(fold(s, r1, r2), 1, 1))


class TestGridForm:
    """The grid helpers the tests share, and unfold, against their
    cell-by-cell definitions on 1-6 x 1-6 grids, coprime or not."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    def test_operations_match_cells(self, r1, r2, data):
        g = data.draw(grids(r1, r2))
        a = np.array(g, dtype=np.uint8)

        def lines(cell):
            return ["".join(str(cell(i, j)) for j in range(r2)) for i in range(r1)]

        assert grid_lines(a) == grid_lines(g) == lines(lambda i, j: g[i][j])
        dv, dh = data.draw(st.integers(-7, 7)), data.draw(st.integers(-7, 7))
        assert grid_lines(shift(a, dv, dh)) == lines(lambda i, j: g[(i - dv) % r1][(j - dh) % r2])

        j = data.draw(st.integers(-r2, 2 * r2))
        col = column(a, j)
        assert (len(col), col.bits) == (r1, sum(g[i][j % r2] << i for i in range(r1)))
        i = data.draw(st.integers(-r1, 2 * r1))
        line = row(a, i)
        assert (len(line), line.bits) == (r2, sum(g[i % r1][j] << j for j in range(r2)))
        if math.gcd(r1, r2) == 1:
            ell = r1 * r2
            want = (ell, sum(g[k % r1][k % r2] << k for k in range(ell)))
            for cells in (a, g, a.astype(bool)):
                seq = unfold(cells)
                assert (len(seq), seq.bits) == want
        else:
            with pytest.raises(ValueError, match="coprime"):
                unfold(a)

    def test_grids_are_read_only(self, deg6_exp21):
        # every grid the package makes, and the stacks it makes them from
        zf = zero_factor(deg6_exp21[0])
        made = (fold(SPAN4, 3, 5), fold(SPAN4, 1, 15), fold(SPAN4, 15, 1))
        for grid in [*made, fold_zero_factor(zf, 3, 7), zf.bits]:
            with pytest.raises(ValueError):
                grid[0, 0] = 1
            with pytest.raises(ValueError):
                grid.flags.writeable = True

    @pytest.mark.parametrize(
        "cells",
        [[], [[]], [0, 1], [[[0]]], [[0, 2]], [[0, -1]], [[0.0, 1.0]], [["0", "1"]]],
    )
    def test_constructor_refuses_non_grids(self, cells):
        # a single array enters the package only through unfold, which
        # refuses all but a nonempty 2-D grid of 0/1 cells: empty, 1-D
        # and 3-D grids, cells of 2 and -1, float and text cells
        with pytest.raises(ValueError, match="^unfold needs a nonempty 2-D grid$|^array cells"):
            unfold(cells)


class TestElementwise:
    def test_product_display(self):
        a = arr("0000000", "1111111", "1111111")
        b = arr("1001011", "1001011", "1001011")
        assert same(a & b, arr("0000000", "1001011", "1001011"))

    def test_add_self(self):
        a = fold(SPAN4, 3, 5)
        assert same(a ^ a, fold(CyclicSequence(0, 15), 3, 5))

    def test_fold_preserves_add_and_mul(self):
        rng = random.Random(12)
        for _ in range(60):
            u = CyclicSequence(rng.randrange(1 << 21), 21)
            v = CyclicSequence(rng.randrange(1 << 21), 21)
            fu, fv = fold(u, 3, 7), fold(v, 3, 7)
            w = CyclicSequence(u.bits ^ v.bits, 21)
            assert same(fu ^ fv, fold(w, 3, 7))
            m = CyclicSequence(u.bits & v.bits, 21)
            assert same(fu & fv, fold(m, 3, 7))


class TestRowColumnStructure:
    def test_period_r1_input_gives_constant_rows(self):
        s = seq("011" * 7)
        a = fold(s, 3, 7)
        assert same(a, arr("0000000", "1111111", "1111111"))
        for j in range(7):
            assert str(column(a, j)) == "011"

    def test_period_r2_input_gives_constant_columns(self):
        s = seq("1001011" * 3)
        a = fold(s, 3, 7)
        assert same(a, arr("1001011", "1001011", "1001011"))
        for i in range(3):
            assert str(row(a, i)) == "1001011"

    def test_general_prop(self):
        # rows of a folded period-r2 repetition all equal the repeated word
        rng = random.Random(21)
        for r1, r2 in [(3, 7), (4, 9), (5, 8)]:
            word = CyclicSequence(rng.randrange(1, 1 << r2), r2)
            a = fold(CyclicSequence(repeat(word.bits, r2, r1), r1 * r2), r1, r2)
            for i in range(r1):
                assert row(a, i) == word
            for j in range(r2):
                assert column(a, j).bits in (0, (1 << r1) - 1)

    def test_product_of_row_and_column_patterns(self):
        rng = random.Random(22)
        for _ in range(30):
            r1, r2 = 4, 7
            u = CyclicSequence(rng.randrange(1, 1 << r2), r2)
            v = CyclicSequence(rng.randrange(1, 1 << r1), r1)
            rows_a = np.array([[bit(u, j) for j in range(r2)]] * r1, dtype=np.uint8)
            rows_b = np.array([[bit(v, i)] * r2 for i in range(r1)], dtype=np.uint8)
            prod = rows_a & rows_b
            for i in range(r1):
                assert row(prod, i).bits in (0, u.bits)
            for j in range(r2):
                assert column(prod, j).bits in (0, v.bits)

    def test_product_cycle_structure(self):
        # the column pattern times the row pattern, both folded from
        # their repeats to 3 x 7, is a folded cycle of the degree-6
        # exponent-21 polynomial
        columns = fold(seq("011" * 7), 3, 7)
        rows = fold(seq("1001011" * 3), 3, 7)
        s = generate(parse("x^6+x^5+x^4+x^2+1"), [0, 0, 0, 0, 0, 1], 21)
        assert least_rotation(columns & rows) == least_rotation(fold(s, 3, 7))


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


class TestCodeIsOneStack:
    @pytest.mark.parametrize("r1, r2", [(7, 13), (1, 91), (91, 1)])
    def test_fold_and_read_give_one_read_only_stack(self, r1, r2):
        zf = zero_factor(parse("x^12+x^10+x^9+x+1"))
        folded = fold_zero_factor(zf, r1, r2)
        buf = io.StringIO()
        write_arrays(buf, folded)
        buf.seek(0)
        read, _ = read_arrays(buf)
        for grids in (folded, read):
            assert type(grids) is np.ndarray
            assert grids.shape == (45, r1, r2) and grids.dtype == np.uint8
            with pytest.raises(ValueError):
                grids[0, 0, 0] = 1
            with pytest.raises(ValueError):
                grids.flags.writeable = True
        assert np.array_equal(folded, read)
        assert same(folded, [fold(c, r1, r2) for c in zf.cycles])


class TestArrayFiles:
    def test_round_trip_with_header(self, deg6_exp21):
        arrays = fold_zero_factor(zero_factor(deg6_exp21[0]), 3, 7)
        buf = io.StringIO()
        write_arrays(buf, arrays, CodeParams(3, 7, 2, 3))
        buf.seek(0)
        back, params = read_arrays(buf)
        assert np.array_equal(back, arrays)
        assert params == CodeParams(3, 7, 2, 3)

    def test_round_trip_without_header(self):
        arrays = (fold(SPAN4, 3, 5),)
        buf = io.StringIO()
        write_arrays(buf, arrays)
        buf.seek(0)
        back, params = read_arrays(buf)
        assert back.shape == (1, 3, 5) and same(back[0], arrays[0]) and params is None

    def test_bad_line_reports_number(self):
        with pytest.raises(ValueError) as err:
            read_arrays(io.StringIO("010\n0x0\n"))
        assert "line 2" in str(err.value)

    def test_empty_file(self):
        grids, params = read_arrays(io.StringIO(""))
        assert grids.shape == (0, 0, 0) and grids.dtype == np.uint8 and params is None
        assert not grids.flags.writeable

    @given(
        st.integers(1, 6).flatmap(
            lambda r1: st.integers(1, 8).flatmap(
                lambda r2: st.lists(grids(r1, r2), min_size=1, max_size=6)
            )
        ),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_matches_per_array_writer(self, cells, one_stack, with_header):
        # the code goes in as one stack, or as the drawn lists of cells
        stack = np.array(cells, dtype=np.uint8)
        stack.flags.writeable = False
        m, r1, r2 = stack.shape
        header = CodeParams(r1, r2, 1, 1) if with_header else None
        buf, want = io.StringIO(), io.StringIO()
        write_arrays(buf, stack if one_stack else cells, header)
        reference_write_arrays(want, cells, header)
        assert buf.getvalue() == want.getvalue()
        buf.seek(0)
        back, params = read_arrays(buf)
        assert params == header
        # the file reads back as one read-only uint8 stack of the arrays
        assert back.shape == (m, r1, r2) and back.dtype == np.uint8
        assert not back.flags.writeable and np.array_equal(back, stack)

    def test_read_code_is_not_restacked(self, monkeypatch):
        # the 45 arrays read from a file are one stack; the closure
        # stacks only its 12 unit arrays
        arrays = fold_zero_factor(zero_factor(parse("x^12+x^10+x^9+x+1")), 7, 13)
        buf = io.StringIO()
        write_arrays(buf, arrays, CodeParams(7, 13, 3, 4))
        buf.seek(0)
        back, params = read_arrays(buf)
        stack = np.stack

        def no_restack(grids, *args, **kwargs):
            grids = list(grids)
            if len(grids) == len(back):
                raise AssertionError("the code read from the file was stacked again")
            return stack(grids, *args, **kwargs)

        monkeypatch.setattr(np, "stack", no_restack)
        assert verify_prac(back, params).passed

    def test_header_after_a_row_refused(self):
        with pytest.raises(ValueError, match="^line 3: header after an array row$"):
            read_arrays(io.StringIO("01\n\n# 1 2 1 1\n10\n"))

    def test_second_header_refused(self):
        with pytest.raises(ValueError, match="^line 3: a second header$"):
            read_arrays(io.StringIO("# 1 2 1 1\n\n# 1 2 1 1\n01\n"))

    def test_header_parameter_error_has_line_number(self):
        with pytest.raises(ValueError, match="^line 2: parameters must be positive$"):
            read_arrays(io.StringIO("\n# 0 5 1 1\n01\n"))

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("01\n0\n\n0x\n", "line 4: expected a 0/1 row", id="bad-char-after-ragged"),
            pytest.param("01\n\n011\n\n01\n0\n", "array lines must share one width",
                         id="ragged-after-mismatch"),
            pytest.param("01\n\n01\n0\n", "array lines must share one width", id="ragged"),
            pytest.param("01\n\n011\n", "arrays in one file must share dimensions", id="widths"),
            pytest.param("01\n\n01\n10\n", "arrays in one file must share dimensions", id="heights"),
        ],
    )
    def test_error_precedence(self, text, message):
        with pytest.raises(ValueError) as err:
            read_arrays(io.StringIO(text))
        assert str(err.value) == message

    @pytest.mark.parametrize("header", [None, CodeParams(7, 13, 3, 4)])
    def test_written_layout_read_in_one_pass(self, monkeypatch, header):
        arrays = fold_zero_factor(zero_factor(parse("x^12+x^10+x^9+x+1")), 7, 13)
        buf = io.StringIO()
        write_arrays(buf, arrays, header)

        def refused(lines):
            raise AssertionError("a written file went line by line")

        monkeypatch.setattr(folding, "_read_lines", refused)
        back, params = read_arrays(io.StringIO(buf.getvalue()))
        assert np.array_equal(back, arrays) and params == header
        assert not back.flags.writeable

    @pytest.mark.parametrize(
        "text",
        [
            "# 2 3 1 1\r\n011\r\n100\r\n\r\n110\r\n001\r\n",
            "011\n100\n\n\n110\n001\n",
            "011 \n100\n\n110\n001\n",
            "011\n100\n\n110\n001",
            "\n# 2 3 1 1\n011\n100\n\n110\n001\n",
            "#  2 3  1 1 \n011\n100\n\n110\n001\n\n",
            "  # 2 3 1 1\n\t011\n100\n\n110\n001\n",
        ],
        ids=["cr", "two-blanks", "trailing-space", "no-last-newline", "blank-first",
             "spaced-header", "indented"],
    )
    def test_other_layouts_read_line_by_line(self, text):
        assert folding._read_layout(text) is None
        back, params = read_arrays(io.StringIO(text))
        assert np.array_equal(back, [arr("011", "100"), arr("110", "001")])
        assert params == (None if "#" not in text else CodeParams(2, 3, 1, 1))

    @given(
        st.integers(1, 4).flatmap(
            lambda r1: st.integers(1, 5).flatmap(
                lambda r2: st.lists(grids(r1, r2), min_size=1, max_size=4)
            )
        ),
        st.booleans(),
        st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.sampled_from(["", "0", "1", "\n", " ", "#", "x", "\r"]),
                st.integers(0, 1),
            ),
            max_size=3,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_edited_files_read_as_line_by_line(self, cells, with_header, edits):
        # a written file with a few characters inserted, replaced or
        # dropped (new written over drop characters) reads as the line
        # loop reads it, or is refused with the loop's message
        m, r1, r2 = np.shape(cells)
        buf = io.StringIO()
        write_arrays(buf, cells, CodeParams(r1, r2, 1, 1) if with_header else None)
        text = buf.getvalue()
        for at, new, drop in edits:
            at %= len(text) + 1
            text = text[:at] + new + text[at + drop :]

        def outcome(read, arg):
            try:
                grids, params = read(arg)
            except ValueError as exc:
                return str(exc)
            assert not grids.flags.writeable and grids.dtype == np.uint8
            return grids.shape, grids.tobytes(), params

        assert outcome(read_arrays, io.StringIO(text)) == outcome(
            folding._read_lines, text.split("\n")
        )

    def test_write_takes_a_generator(self):
        grids = fold_zero_factor(zero_factor(parse("x^4+x+1")), 3, 5)
        buf, want = io.StringIO(), io.StringIO()
        write_arrays(buf, (g for g in grids))
        reference_write_arrays(want, grids)
        assert buf.getvalue() == want.getvalue()

    def test_empty_code_writes_the_header_alone(self):
        buf = io.StringIO()
        write_arrays(buf, [], CodeParams(3, 7, 2, 3))
        assert buf.getvalue() == "# 3 7 2 3\n"

    def test_mixed_shapes_refused(self):
        with pytest.raises(ValueError, match="^arrays must share dimensions$"):
            write_arrays(io.StringIO(), [arr("01"), arr("011")])
