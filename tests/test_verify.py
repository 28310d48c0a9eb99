import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prarray.folding import CodeParams, TorusArray, fold, fold_zero_factor
from prarray.gf2poly import (
    BinaryPolynomial,
    _divisors,
    classify,
    enumerate_irreducible,
    exponent,
    is_irreducible,
    parse,
)
from prarray.lfsr import CyclicSequence, zero_factor
from prarray.verify import (
    VerdictReport,
    Witness,
    shift_add_closure,
    verify_prac,
    window_census,
)


SPAN4 = CyclicSequence.from_bits("000111101011001")


@pytest.fixture
def pra_3x5():
    return fold(SPAN4, 3, 5)


@pytest.fixture
def prac_3x7(deg6_exp21):
    return fold_zero_factor(zero_factor(deg6_exp21[0]), 3, 7)


class TestCensus:
    def test_3x5_pra(self, pra_3x5):
        rep = window_census([pra_3x5], 2, 2)
        assert rep.passed
        assert rep.detail["windows_total"] == 15

    def test_3x7_prac(self, prac_3x7):
        assert window_census(prac_3x7, 2, 3).passed

    def test_all_zero_fails_with_witness(self):
        rep = window_census([TorusArray([0, 0, 0], 5)], 2, 2)
        assert not rep.passed
        assert rep.witness.kind == "zero-window"
        assert rep.witness.position == (0, 0)
        assert rep.witness.window_bits == "0000"

    def test_wrong_total_fails(self, pra_3x5):
        rep = window_census([pra_3x5, pra_3x5], 2, 2)
        assert not rep.passed and rep.witness.kind == "count"

    def test_duplicate_window_witness(self, pra_3x5):
        bad = TorusArray([pra_3x5.rows[0] ^ 1, *pra_3x5.rows[1:]], 5)
        rep = window_census([bad], 2, 2)
        assert not rep.passed
        assert rep.witness.kind in ("duplicate-window", "zero-window")
        assert rep.witness.position is not None

    def test_window_larger_than_array(self, pra_3x5):
        with pytest.raises(ValueError):
            window_census([pra_3x5], 4, 2)

    def test_area_cap(self):
        with pytest.raises(ValueError):
            window_census([], 5, 6)

    def test_permutation_and_rotation_invariance(self, prac_3x7):
        base = window_census(prac_3x7, 2, 3).passed
        rng = random.Random(17)
        arrays = list(prac_3x7)
        for _ in range(5):
            rng.shuffle(arrays)
            rotated = [a.shift(rng.randrange(3), rng.randrange(7)) for a in arrays]
            assert window_census(rotated, 2, 3).passed == base


def reference_closure(arrays, params=None):
    """All-pairs closure: every codeword plus every shift of every
    codeword is zero or a shift of a codeword."""
    arrays = list(arrays)
    if not arrays:
        return VerdictReport("shift-add", True, params, None, {"pairs_checked": 0})
    r1, r2 = arrays[0].r1, arrays[0].r2
    if any(a.r1 != r1 or a.r2 != r2 for a in arrays):
        raise ValueError("arrays must share dimensions")
    members = set()
    rotations = []
    for arr in arrays:
        rots = arr.rotations_packed()
        rotations.append(rots)
        members.update(rots)
    checked = 0
    for ia, a_rots in enumerate(rotations):
        pa = a_rots[0]  # the unshifted codeword
        for ib, rots in enumerate(rotations):
            for t, rb in enumerate(rots):
                s = pa ^ rb
                checked += 1
                if s and s not in members:
                    dv, dh = t % r1, t // r1
                    return VerdictReport(
                        "shift-add",
                        False,
                        params,
                        Witness(
                            "closure",
                            f"array {ia} + array {ib} shifted by ({dv},{dh}) "
                            "is not a shifted codeword",
                            array_index=ia,
                            position=(dv, dh),
                        ),
                        {"pairs_checked": checked},
                    )
    return VerdictReport("shift-add", True, params, None, {"pairs_checked": checked})


_CLOSURE_WITNESS = re.compile(r"array (\d+) \+ array (\d+) shifted by \((\d+),(\d+)\) ")


def check_closure(arrays):
    """shift_add_closure against the reference; a failure must name a
    nonzero sum that is no shift of any codeword, and a pass must have
    checked one sum per nonzero element of the span."""
    got = shift_add_closure(arrays)
    assert got.passed == reference_closure(arrays).passed, arrays
    if got.passed:
        span = {0}.union(*(a.rotations_packed() for a in arrays))
        assert got.detail["pairs_checked"] == len(span) - 1
        return got
    ia, ib, dv, dh = map(int, _CLOSURE_WITNESS.match(got.witness.message).groups())
    assert (got.witness.array_index, got.witness.position) == (ia, (dv, dh))
    total = arrays[ia] + arrays[ib].shift(dv, dh)
    codewords = {sum(r << (i * a.r2) for i, r in enumerate(a.rows)) for a in arrays}
    assert not total.is_zero, got.witness.message
    assert codewords.isdisjoint(total.rotations_packed()), got.witness.message
    return got


@st.composite
def small_array_sets(draw):
    """1-4 arrays of 1-5 x 1-5 cells, sizes not always coprime, with
    zero arrays and shifted copies among them."""
    r1, r2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    grid = st.lists(st.integers(0, (1 << r2) - 1), min_size=r1, max_size=r1)
    arrays = [
        TorusArray(rows, r2)
        for rows in draw(st.lists(st.one_of(st.just([0] * r1), grid), min_size=1, max_size=4))
    ]
    if len(arrays) > 1 and draw(st.booleans()):
        arrays[-1] = arrays[0].shift(draw(st.integers(0, r1 - 1)), draw(st.integers(0, r2 - 1)))
    return arrays


def folded_uniform_codes(max_degree):
    """(f, arrays) for every uniform f of degree <= max_degree, folded
    at every coprime split of its exponent."""
    for bits in range(0b11, 1 << (max_degree + 1), 2):
        f = BinaryPolynomial(bits)
        cls = classify(f)
        if not cls.is_uniform:
            continue
        zf = zero_factor(f)
        for r1 in _divisors(cls.exponent):
            r2 = cls.exponent // r1
            if math.gcd(r1, r2) == 1:
                yield f, fold_zero_factor(zf, r1, r2)


class TestClosure:
    def test_single_pra(self, pra_3x5):
        assert shift_add_closure([pra_3x5]).passed

    def test_prac(self, prac_3x7):
        assert shift_add_closure(prac_3x7).passed

    def test_bit_flip_breaks_closure(self, pra_3x5):
        bad = TorusArray([pra_3x5.rows[0] ^ 1, *pra_3x5.rows[1:]], 5)
        rep = check_closure([bad])
        assert not rep.passed and rep.witness is not None

    def test_dimension_mismatch(self, pra_3x5):
        with pytest.raises(ValueError):
            shift_add_closure([pra_3x5, TorusArray([0, 0], 5)])

    # sequences of length l are checked as their 1 x l folds
    def test_single_msequence(self):
        assert shift_add_closure([fold(SPAN4, 1, 15)]).passed

    def test_zero_factor_cycles(self):
        zf = zero_factor(parse("x^6+x^5+x^4+x^2+1"))
        assert check_closure(list(fold_zero_factor(zf, 1, 21))).passed

    def test_counterexample(self):
        pair = [fold(CyclicSequence.from_bits(s), 1, 4) for s in ("0011", "0101")]
        assert not check_closure(pair).passed

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            shift_add_closure(
                [fold(CyclicSequence.from_bits(s), 1, len(s)) for s in ("011", "0101")]
            )

    def test_pairs_checked_on_the_45_codeword_code(self):
        f = parse("x^12+x^10+x^9+x+1")
        rep = shift_add_closure(fold_zero_factor(zero_factor(f), 7, 13))
        assert rep.passed and rep.detail["pairs_checked"] == (1 << 12) - 1

    @settings(max_examples=400, deadline=None)
    @given(small_array_sets())
    def test_matches_reference_on_small_sets(self, arrays):
        check_closure(arrays)

    def test_matches_reference_on_folded_uniform_codes(self):
        # whole, minus one array, and one bit flipped
        rng = random.Random(5)
        corrupted = failed = 0
        for f, arrays in folded_uniform_codes(10):
            k = rng.randrange(len(arrays))
            others = [a for i, a in enumerate(arrays) if i != k]
            bad = flip(arrays[k], rng.randrange(arrays[k].r1), rng.randrange(arrays[k].r2))
            variants = [list(arrays), others + [bad]]
            if others:
                variants.append(others)
            assert check_closure(variants[0]).passed, f
            for v in variants[1:]:
                corrupted += 1
                failed += not check_closure(v).passed
        # only the 1 x 1 code of x + 1, flipped to the zero array, stays closed
        assert failed == corrupted - 1


class TestVerifyPrac:
    def test_3x7(self, prac_3x7):
        rep = verify_prac(prac_3x7, CodeParams(3, 7, 2, 3))
        assert rep.passed
        assert len(rep.detail["stages"]) == 3

    def test_3x5(self, pra_3x5):
        assert verify_prac([pra_3x5], CodeParams(3, 5, 2, 2)).passed

    def test_wrong_size_fails_parameters(self, prac_3x7):
        rep = verify_prac(prac_3x7[:2], CodeParams(3, 7, 2, 3))
        assert not rep.passed and rep.criterion == "parameters"

    def test_size_arithmetic_mismatch(self, prac_3x7):
        rep = verify_prac(prac_3x7, CodeParams(3, 7, 2, 2))
        assert not rep.passed and rep.criterion == "parameters"

    def test_flipped_bit_fails_census(self, prac_3x7):
        arrays = list(prac_3x7)
        arrays[0] = TorusArray([arrays[0].rows[0] ^ 1, *arrays[0].rows[1:]], 7)
        rep = verify_prac(arrays, CodeParams(3, 7, 2, 3))
        assert not rep.passed and rep.criterion == "census"


def reference_window_codes(arr, n1, n2):
    """Codes of all r1*r2 windows of one array, read cell by cell."""
    g = np.array([[arr.entry(i, j) for j in range(arr.r2)] for i in range(arr.r1)])
    ext = np.concatenate([g, g[: n1 - 1]], axis=0)
    ext = np.concatenate([ext, ext[:, : n2 - 1]], axis=1)
    windows = np.lib.stride_tricks.sliding_window_view(ext, (n1, n2))
    weights = np.array(
        [[1 << ((n1 - 1 - a) * n2 + (n2 - 1 - b)) for b in range(n2)] for a in range(n1)]
    )
    return np.tensordot(windows.astype(np.int64), weights, axes=([2, 3], [0, 1]))


def reference_census(arrays, n1, n2, params=None):
    """Per-array census: count every code with bincount, then locate the
    witness by rescanning the arrays."""
    arrays = list(arrays)
    if params is None:
        params = CodeParams(arrays[0].r1, arrays[0].r2, n1, n2)
    expected = (1 << (n1 * n2)) - 1
    total = sum(a.r1 * a.r2 for a in arrays)
    detail = {"windows_total": total, "windows_expected": expected}

    def fail(witness):
        return VerdictReport("census", False, params, witness, detail)

    if total != expected:
        return fail(Witness("count", f"window count {total} != 2^{n1 * n2} - 1 = {expected}"))
    codes = [reference_window_codes(a, n1, n2) for a in arrays]
    counts = sum(np.bincount(c.ravel(), minlength=expected + 1) for c in codes)

    def locate(code, skip):
        for idx, c in enumerate(codes):
            for i, j in np.argwhere(c == code):
                if skip:
                    skip -= 1
                    continue
                i, j = int(i), int(j)
                window = "".join(
                    str(arrays[idx].entry(i + a, j + b)) for a in range(n1) for b in range(n2)
                )
                return idx, (i, j), window

    if counts[0]:
        idx, pos, window = locate(0, 0)
        return fail(Witness("zero-window", "all-zero window present", idx, pos, window, 0))
    repeated = np.nonzero(counts > 1)[0]
    if repeated.size:
        code = int(repeated[0])
        idx, pos, window = locate(code, 1)
        message = f"window code {code} occurs more than once {int(counts[code])} times"
        return fail(Witness("duplicate-window", message, idx, pos, window, code))
    missing = np.nonzero(counts[1:] == 0)[0]
    if missing.size:
        code = int(missing[0]) + 1
        return fail(Witness("missing-window", f"window code {code} never occurs", code=code))
    detail["distinct_nonzero"] = expected
    return VerdictReport("census", True, params, None, detail)


def flip(arr, i, j):
    rows = list(arr.rows)
    rows[i] ^= 1 << j
    return TorusArray(rows, arr.r2)


class TestCensusReference:
    """The batched census against the per-array reference, on whole
    codes and on codes corrupted three ways."""

    def _codes(self):
        for bits in range(0b111, 1 << 10, 2):
            f = BinaryPolynomial(bits)
            if f.degree < 2 or not is_irreducible(f):
                continue
            e, d = exponent(f), f.degree
            zf = zero_factor(f)
            for r1 in _divisors(e):
                r2 = e // r1
                if math.gcd(r1, r2) != 1:
                    continue
                arrays = fold_zero_factor(zf, r1, r2)
                for n1 in _divisors(d):
                    if n1 <= r1 and d // n1 <= r2:
                        yield arrays, CodeParams(r1, r2, n1, d // n1)

    @pytest.mark.parametrize("one_array_blocks", [False, True])
    def test_whole_and_corrupted_codes(self, monkeypatch, one_array_blocks):
        if one_array_blocks:
            import prarray.verify as v

            monkeypatch.setattr(v, "_CENSUS_BLOCK_WINDOWS", 1)
        rng = random.Random(31)
        kinds = set()
        for arrays, p in self._codes():
            k = rng.randrange(len(arrays))
            others = [a for i, a in enumerate(arrays) if i != k]
            variants = [
                list(arrays),
                others + [TorusArray([0] * p.r1, p.r2)],
                others + [flip(arrays[k], rng.randrange(p.r1), rng.randrange(p.r2))],
            ]
            if others:
                # a shifted copy of another codeword: one code twice
                variants.append(others + [rng.choice(others).shift(1, 2)])
            for v in variants:
                got = window_census(v, p.n1, p.n2, p)
                assert got == reference_census(v, p.n1, p.n2, p), (p, got)
                kinds.add(got.witness.kind if got.witness else "pass")
        assert kinds == {"pass", "zero-window", "duplicate-window"}


class TestBitTablePath:
    # the packed occupancy table finds repeats across blocks; force one
    # array per block and compare with one block and with the reference
    def _both(self, monkeypatch, arrays, n1, n2):
        import prarray.verify as v

        normal = window_census(arrays, n1, n2)
        monkeypatch.setattr(v, "_CENSUS_BLOCK_WINDOWS", 1)
        packed = window_census(arrays, n1, n2)
        assert normal == packed == reference_census(arrays, n1, n2)
        return normal, packed

    def test_agrees_on_pass(self, monkeypatch, prac_3x7):
        normal, packed = self._both(monkeypatch, prac_3x7, 2, 3)
        assert normal.passed and packed.passed

    def test_agrees_on_zero_window(self, monkeypatch):
        arrays = [TorusArray([0, 0, 0], 5)]
        normal, packed = self._both(monkeypatch, arrays, 2, 2)
        assert not normal.passed and not packed.passed
        assert normal.witness.kind == packed.witness.kind == "zero-window"

    def test_agrees_on_duplicates(self, monkeypatch, pra_3x5):
        bad = TorusArray([pra_3x5.rows[0] ^ 1, *pra_3x5.rows[1:]], 5)
        normal, packed = self._both(monkeypatch, [bad], 2, 2)
        assert not normal.passed and not packed.passed
        assert normal.witness.kind == packed.witness.kind

    def test_cross_array_duplicate(self, monkeypatch, prac_3x7):
        # swap one codeword for a shift of another: totals stay right,
        # but one window pattern now occurs twice
        arrays = [prac_3x7[0], prac_3x7[1], prac_3x7[1].shift(1, 2)]
        normal, packed = self._both(monkeypatch, arrays, 2, 3)
        assert not normal.passed and not packed.passed
        assert normal.witness.kind == packed.witness.kind == "duplicate-window"

    def test_area23_code(self):
        # 178,481 arrays of 1 x 47 in nine blocks
        f = enumerate_irreducible(23, 47)[0]
        p = CodeParams(1, 47, 1, 23)
        arrays = list(fold_zero_factor(zero_factor(f), 1, 47))
        assert window_census(arrays, 1, 23, p).passed
        arrays[-1] = flip(arrays[-1], 0, 5)
        rep = window_census(arrays, 1, 23, p)
        assert not rep.passed
        w = rep.witness
        assert w.kind in ("zero-window", "duplicate-window")
        assert w.window_bits == format(w.code, "023b")
        cells = arrays[w.array_index]
        assert [cells.entry(0, w.position[1] + b) for b in range(23)] == [
            int(c) for c in w.window_bits
        ]


class TestClosureAlwaysHolds:
    def test_all_irreducibles_up_to_degree_10(self):
        # folded zero factors are closed under shift-and-add even when
        # the window census fails, for every coprime exponent split
        checked = 0
        for bits in range(0b111, 1 << 11, 2):
            f = BinaryPolynomial(bits)
            if f.degree < 2 or not is_irreducible(f):
                continue
            e = exponent(f)
            splits = [
                (r1, e // r1)
                for r1 in _divisors(e)
                if 1 < r1 < e and math.gcd(r1, e // r1) == 1
            ]
            if not splits:
                splits = [(1, e)]
            zf = zero_factor(f)
            arrays = fold_zero_factor(zf, *splits[0])
            assert shift_add_closure(arrays).passed, f
            checked += 1
        assert checked > 200
