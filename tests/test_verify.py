import io
import math
import random
import re

import numpy as np
import pytest
from conftest import cell_rotations, seq, shift
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prarray import folding
from prarray.folding import CodeParams, fold, fold_zero_factor, write_arrays
from prarray.gf2poly import (
    BinaryPolynomial,
    _divisors,
    classify,
    enumerate_irreducible,
    exponent,
    is_irreducible,
    parse,
)
from prarray.lfsr import zero_factor
from prarray.verify import (
    _CENSUS_AREA_CAP,
    VerdictReport,
    Witness,
    _block_codes,
    shift_add_closure,
    verify_prac,
    window_census,
)


SPAN4 = seq("000111101011001")


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
        rep = window_census([np.zeros((3, 5), dtype=np.uint8)], 2, 2)
        assert not rep.passed
        assert rep.witness.kind == "zero-window"
        assert rep.witness.position == (0, 0)
        assert rep.witness.window_bits == "0000"

    def test_wrong_total_fails(self, pra_3x5):
        rep = window_census([pra_3x5, pra_3x5], 2, 2)
        assert not rep.passed and rep.witness.kind == "count"

    def test_duplicate_window_witness(self, pra_3x5):
        bad = flip(pra_3x5, 0, 0)
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
            rotated = [shift(a, rng.randrange(3), rng.randrange(7)) for a in arrays]
            assert window_census(rotated, 2, 3).passed == base


def reference_closure(arrays, params=None):
    """All-pairs closure: every codeword plus every shift of every
    codeword is zero or a shift of a codeword."""
    arrays = list(arrays)
    if not arrays:
        return VerdictReport("shift-add", True, params, None, {"pairs_checked": 0})
    r1, r2 = arrays[0].shape
    if any(a.shape != (r1, r2) for a in arrays):
        raise ValueError("arrays must share dimensions")
    members = set()
    rotations = []
    for arr in arrays:
        rots = cell_rotations(arr)
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


def check_closure(arrays, params, expected=None):
    """shift_add_closure against the reference verdict (``expected``,
    else ``reference_closure``) on a code that passes the census, and
    its refusal of one that does not, which returns None.  A failure
    must name a nonzero sum that is no shift of any codeword, and a
    pass must have compared m + 2*n1*n2 vectors."""
    if not window_census(arrays, params.n1, params.n2, params).passed:
        with pytest.raises(ValueError, match="passes the census"):
            shift_add_closure(arrays, params)
        return None
    got = shift_add_closure(arrays, params)
    if expected is None:
        expected = reference_closure(arrays).passed
    assert got.passed == expected, arrays
    if got.passed:
        assert got.detail == {"checked": len(arrays) + 2 * params.window_area}
        return got
    ia, ib, dv, dh = map(int, _CLOSURE_WITNESS.match(got.witness.message).groups())
    assert (got.witness.array_index, got.witness.position) == (ia, (dv, dh))
    total = arrays[ia] ^ shift(arrays[ib], dv, dh)
    codewords = {cell_rotations(a)[0] for a in arrays}
    assert total.any(), got.witness.message
    assert codewords.isdisjoint(cell_rotations(total)), got.witness.message
    return got


def window_shapes(r1, r2, area):
    """Every n1 x n2 window of the given area that fits an r1 x r2 array."""
    return [(n1, area // n1) for n1 in _divisors(area) if n1 <= r1 and area // n1 <= r2]


@st.composite
def small_array_sets(draw):
    """1-4 arrays of 1-5 x 1-5 cells, sizes not always coprime, with
    zero arrays and shifted copies among them, and a window that fits."""
    r1, r2 = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    grid = st.lists(st.lists(st.integers(0, 1), min_size=r2, max_size=r2), min_size=r1, max_size=r1)
    zero = st.just([[0] * r2] * r1)
    arrays = [
        np.array(cells, dtype=np.uint8)
        for cells in draw(st.lists(st.one_of(zero, grid), min_size=1, max_size=4))
    ]
    if len(arrays) > 1 and draw(st.booleans()):
        arrays[-1] = shift(arrays[0], draw(st.integers(0, r1 - 1)), draw(st.integers(0, r2 - 1)))
    params = CodeParams(r1, r2, draw(st.integers(1, r1)), draw(st.integers(1, r2)))
    return arrays, params


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


def punctured_de_bruijn(n, rng):
    """A de Bruijn sequence of order n, read off a random Eulerian
    circuit of the order-n de Bruijn graph, with one 0 removed from its
    run of n zeros: every nonzero n-bit word occurs once, cyclically."""
    mask = (1 << (n - 1)) - 1
    unused = {v: rng.sample([0, 1], 2) for v in range(1 << (n - 1))}
    path, circuit = [0], []
    while path:  # Hierholzer: walk unused edges, back up when stuck
        v = path[-1]
        if unused[v]:
            path.append((v << 1 | unused[v].pop()) & mask)
        else:
            circuit.append(path.pop())
    bits = "".join(str(v & 1) for v in reversed(circuit[:-1]))
    start = (bits + bits).index("0" * n)
    return seq((bits + bits)[start + 1 : start + len(bits)])


def cycle_covers(n, length):
    """Every set of binary cycles of one length, n <= length, whose
    n-bit windows are the nonzero n-bit words, each once."""
    cycles = []
    for v in range(1 << length):
        s = format(v, f"0{length}b")
        words = {int((s + s)[i : i + n], 2) for i in range(length)}
        if s == min(s[i:] + s[:i] for i in range(length)) and 0 not in words and len(words) == length:
            cycles.append((s, words))

    def covers(left, chosen):
        if not left:
            yield chosen
            return
        word = min(left)
        for s, words in cycles:
            if word in words and words <= left:
                yield from covers(left - words, chosen + [s])

    return list(covers(set(range(1, 1 << n)), []))


def padded_codes(grids, n1, n2):
    """Window codes read from a stack wrapped by np.pad."""
    b, r1, r2 = grids.shape
    ext = np.pad(grids, ((0, 0), (0, n1 - 1), (0, n2 - 1)), mode="wrap").astype(np.uint32)
    codes = np.zeros((b, r1, r2), dtype=np.uint32)
    for a in range(n1):
        for c in range(n2):
            codes = codes << 1 | ext[:, a : a + r1, c : c + r2]
    return codes.ravel()


class TestBlockCodes:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_np_pad(self, data):
        b, r1, r2 = (data.draw(st.integers(1, k)) for k in (6, 9, 9))
        n1 = data.draw(st.integers(1, r1))
        n2 = data.draw(st.integers(1, min(r2, _CENSUS_AREA_CAP // n1)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        grids = rng.integers(0, 2, size=(b, r1, r2), dtype=np.uint8)
        assert np.array_equal(_block_codes(grids, n1, n2), padded_codes(grids, n1, n2))

    # each edge of the row-code build: one array (whose row codes are
    # contiguous, so stacking them in place would overwrite rows still
    # to be read), one-row and one-column windows, and windows as tall
    # or as wide as the arrays
    @pytest.mark.parametrize("edge", ["b=1", "n1=1", "n2=1", "n1=r1", "n2=r2"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_array_reference(self, edge, data):
        b = 1 if edge == "b=1" else data.draw(st.integers(1, 4))
        # rows up to 14 wide reach the 16-bit row codes
        r1, r2 = data.draw(st.integers(2 if edge == "b=1" else 1, 5)), data.draw(st.integers(1, 14))
        n1 = {"n1=1": 1, "n1=r1": r1}.get(edge) or data.draw(
            st.integers(2 if edge == "b=1" else 1, r1)
        )
        n2 = {"n2=1": 1, "n2=r2": r2}.get(edge) or data.draw(st.integers(1, r2))
        assume(n1 * n2 <= _CENSUS_AREA_CAP)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        grids = rng.integers(0, 2, size=(b, r1, r2), dtype=np.uint8)
        want = np.concatenate(
            [reference_window_codes(g, n1, n2).ravel() for g in grids]
        )
        assert np.array_equal(_block_codes(grids, n1, n2), want), (b, r1, r2, n1, n2)


class TestClosure:
    def test_single_pra(self, pra_3x5):
        assert shift_add_closure([pra_3x5], CodeParams(3, 5, 2, 2)).passed

    def test_prac(self, prac_3x7):
        assert shift_add_closure(prac_3x7, CodeParams(3, 7, 2, 3)).passed

    def test_bit_flip_breaks_closure(self, pra_3x5):
        # the flip also breaks the census, so the closure refuses the code
        assert check_closure([flip(pra_3x5, 0, 0)], CodeParams(3, 5, 2, 2)) is None

    def test_dimension_mismatch(self, pra_3x5):
        with pytest.raises(ValueError):
            shift_add_closure(
                [pra_3x5, np.zeros((2, 5), dtype=np.uint8)], CodeParams(3, 5, 2, 2)
            )

    # sequences of length l are checked as their 1 x l folds
    def test_single_msequence(self):
        assert shift_add_closure([fold(SPAN4, 1, 15)], CodeParams(1, 15, 1, 4)).passed

    def test_zero_factor_cycles(self):
        zf = zero_factor(parse("x^6+x^5+x^4+x^2+1"))
        assert check_closure(fold_zero_factor(zf, 1, 21), CodeParams(1, 21, 1, 6)).passed

    def test_counterexample(self):
        # eight windows for a window of area 2: refused before any sum
        pair = [fold(seq(s), 1, 4) for s in ("0011", "0101")]
        assert check_closure(pair, CodeParams(1, 4, 1, 2)) is None

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            shift_add_closure(
                [fold(seq(s), 1, len(s)) for s in ("011", "0101")],
                CodeParams(1, 3, 1, 2),
            )

    def test_pairs_checked_on_the_45_codeword_code(self):
        f = parse("x^12+x^10+x^9+x+1")
        rep = shift_add_closure(fold_zero_factor(zero_factor(f), 7, 13), CodeParams(7, 13, 3, 4))
        assert rep.passed and rep.detail == {"checked": 45 + 2 * 12}

    @settings(max_examples=400, deadline=None)
    @given(small_array_sets())
    def test_matches_reference_on_small_sets(self, drawn):
        check_closure(*drawn)

    def test_matches_reference_on_folded_uniform_codes(self):
        # whole at every window shape, minus one array, and one bit flipped
        rng = random.Random(5)
        passing = refused = 0
        for f, grids in folded_uniform_codes(10):
            r1, r2 = grids.shape[1:]
            arrays = list(grids)
            shapes = [
                CodeParams(r1, r2, *shape)
                for shape in window_shapes(r1, r2, f.degree)
                if window_census(arrays, *shape).passed
            ]
            if not shapes:
                continue
            expected = reference_closure(arrays).passed
            assert expected, f
            for p in shapes:
                check_closure(grids, p, expected)
            passing += len(shapes)
            p = shapes[0]
            k = rng.randrange(len(arrays))
            others = [a for i, a in enumerate(arrays) if i != k]
            bad = flip(arrays[k], rng.randrange(r1), rng.randrange(r2))
            refused += check_closure(others + [bad], p) is None
            if others:
                refused += check_closure(others, p) is None
        assert passing > 1500 and refused > 1000

    def test_cycle_covers(self):
        # codes of several 1 x l arrays: three linear ones, and four of
        # 1 x 9 arrays whose witnesses may name two different arrays
        verdicts = []
        for n, length in [(4, 5), (6, 7), (6, 9)]:
            for cover in cycle_covers(n, length):
                arrays = [fold(seq(s), 1, length) for s in cover]
                verdicts.append(check_closure(arrays, CodeParams(1, length, 1, n)).passed)
        assert sorted(verdicts) == [False] * 4 + [True] * 3

    def test_punctured_de_bruijn_codes(self):
        # sequences with the window property of an m-sequence, mostly
        # not linear, unfolded and at every coprime fold that passes
        rng = random.Random(11)
        verdicts = []
        for n in range(3, 9):
            length = (1 << n) - 1
            for _ in range(16):
                s = punctured_de_bruijn(n, rng)
                for r1 in _divisors(length):
                    r2 = length // r1
                    if math.gcd(r1, r2) != 1:
                        continue
                    arr = fold(s, r1, r2)
                    for shape in window_shapes(r1, r2, n):
                        got = check_closure([arr], CodeParams(r1, r2, *shape))
                        if got is not None:
                            verdicts.append(got.passed)
        assert verdicts.count(True) > 30 and verdicts.count(False) > 150


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
        grids = prac_3x7.copy()  # a writeable stack of the caller's
        grids[0, 0, 0] ^= 1
        rep = verify_prac(grids, CodeParams(3, 7, 2, 3))
        assert not rep.passed and rep.criterion == "census"

    @pytest.mark.parametrize("mixed", [True, False], ids=["one-transposed", "all-transposed"])
    def test_dimension_mismatch_fails_parameters(self, prac_3x7, mixed):
        # grids of two shapes are no code; grids of one wrong shape are
        # a code that fails the parameter stage
        arrays = [g.T for g in prac_3x7]
        if mixed:
            with pytest.raises(ValueError, match="^arrays must share dimensions$"):
                verify_prac([*prac_3x7[:-1], arrays[-1]], CodeParams(3, 7, 2, 3))
            return
        rep = verify_prac(arrays, CodeParams(3, 7, 2, 3))
        assert not rep.passed and rep.criterion == "parameters"
        assert rep.witness.message == "array dimensions do not match the parameters"

    def test_code_is_stacked_once(self, prac_3x7, monkeypatch):
        # arrays are stacked once for all three stages; besides them
        # only the closure's six unit arrays are stacked
        stacked = []
        stack = np.stack

        def counted(grids, *args, **kwargs):
            grids = list(grids)
            stacked.append(len(grids))
            return stack(grids, *args, **kwargs)

        monkeypatch.setattr(np, "stack", counted)
        assert verify_prac(list(prac_3x7), CodeParams(3, 7, 2, 3)).passed
        assert stacked == [3, 6]


class TestCodeStacks:
    """A code given as its (m, r1, r2) grid stack is read in place, and
    a stack that is not one is refused."""

    def test_stack_is_neither_restacked_nor_wrapped(self, monkeypatch):
        # a uint8 stack is the checks' own stack: no copy, no new stack
        grids = fold_zero_factor(zero_factor(parse("x^12+x^10+x^9+x+1")), 7, 13)
        params = CodeParams(7, 13, 3, 4)
        stacked = []
        stack = np.stack

        def counted(arrays, *args, **kwargs):
            arrays = list(arrays)
            stacked.append(len(arrays))
            return stack(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "stack", counted)
        assert folding._grid_stack(grids) is grids
        assert window_census(grids, 3, 4, params).passed
        write_arrays(io.StringIO(), grids, params)
        assert stacked == []
        # the closure stacks its 12 unit arrays, never the 45 codewords
        assert verify_prac(grids, params).passed
        assert stacked == [12]

    def test_caller_stacks_of_any_integer_type(self, prac_3x7):
        params = CodeParams(3, 7, 2, 3)
        for grids in (prac_3x7.astype(bool), prac_3x7.astype(np.int64), prac_3x7.copy()):
            assert window_census(grids, 2, 3, params).passed
            assert shift_add_closure(grids, params).passed
            assert verify_prac(grids, params).passed
        # no arrays at all: the size check fails, as for an empty file
        rep = verify_prac(np.zeros((0, 3, 7), dtype=np.uint8), params)
        assert rep.criterion == "parameters" and rep.witness.message == "code size 0 != required 3"

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda g: np.where(g == 1, 2, g), "array cells must be 0 or 1"),
            (lambda g: g.astype(np.int8) - 1, "array cells must be 0 or 1"),
            (lambda g: g.astype(float), "array cells must be 0 or 1"),
            (lambda g: g[0], "a code stack must have 3 axes"),
            (lambda g: g[None], "a code stack must have 3 axes"),
        ],
        ids=["cell-2", "cell-minus-1", "float", "2-D", "4-D"],
    )
    def test_bad_stacks_refused(self, prac_3x7, make, message):
        bad = make(prac_3x7)
        params = CodeParams(3, 7, 2, 3)
        for check in (
            lambda: window_census(bad, 2, 3, params),
            lambda: shift_add_closure(bad, params),
            lambda: verify_prac(bad, params),
            lambda: write_arrays(io.StringIO(), bad, params),
        ):
            with pytest.raises(ValueError, match=message):
                check()


    @pytest.mark.parametrize(
        "poly, params",
        [("x^4+x+1", CodeParams(3, 5, 2, 2)), ("x^12+x^10+x^9+x+1", CodeParams(7, 13, 3, 4))],
        ids=["3x5", "7x13"],
    )
    def test_list_generator_and_stack_agree(self, poly, params):
        # a code of plain grids is stacked once and read as its stack
        grids = fold_zero_factor(zero_factor(parse(poly)), params.r1, params.r2)
        forms = {
            "stack": lambda: grids,
            "list": lambda: list(grids),
            "generator": lambda: (g for g in grids),
            "copies": lambda: [g.copy() for g in grids],
        }
        seen = {}
        for name, code in forms.items():
            buf = io.StringIO()
            write_arrays(buf, code(), params)
            seen[name] = (
                window_census(code(), params.n1, params.n2, params),
                window_census(code(), params.n1, params.n2),
                shift_add_closure(code(), params),
                verify_prac(code(), params),
                buf.getvalue(),
            )
        assert seen["stack"][0].passed and seen["stack"][3].passed
        assert all(got == seen["stack"] for got in seen.values())

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda g: [*g[:2], g[2][:, :5]], "arrays must share dimensions"),
            (lambda g: [a.ravel() for a in g], "arrays must be 2-D grids"),
            (lambda g: [g], "arrays must be 2-D grids"),
        ],
        ids=["ragged", "1-D", "3-D"],
    )
    def test_lists_of_non_grids_refused(self, prac_3x7, make, message):
        bad = make(prac_3x7)
        params = CodeParams(3, 7, 2, 3)
        for check in (
            lambda code: window_census(code, 2, 3, params),
            lambda code: shift_add_closure(code, params),
            lambda code: verify_prac(code, params),
            lambda code: write_arrays(io.StringIO(), code, params),
        ):
            for code in (bad, iter(bad)):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    check(code)


def reference_window_codes(grid, n1, n2):
    """Codes of all r1*r2 windows of one grid, read cell by cell."""
    g = np.asarray(grid)
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
        params = CodeParams(*arrays[0].shape, n1, n2)
    expected = (1 << (n1 * n2)) - 1
    total = sum(a.size for a in arrays)
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
                r1, r2 = arrays[idx].shape
                window = "".join(
                    str(arrays[idx][(i + a) % r1, (j + b) % r2])
                    for a in range(n1)
                    for b in range(n2)
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


def flip(grid, i, j):
    grid = grid.copy()
    grid[i, j] ^= 1
    return grid


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
                grids = fold_zero_factor(zf, r1, r2)
                for n1 in _divisors(d):
                    if n1 <= r1 and d // n1 <= r2:
                        yield grids, CodeParams(r1, r2, n1, d // n1)

    @pytest.mark.parametrize("one_array_blocks", [False, True])
    def test_whole_and_corrupted_codes(self, monkeypatch, one_array_blocks):
        self._check(monkeypatch, one_array_blocks)

    @pytest.mark.parametrize("one_array_blocks", [False, True])
    def test_whole_and_corrupted_codes_sort_path(self, monkeypatch, one_array_blocks):
        # the path of areas 25-28 and of the witness of a repeat
        import prarray.verify as v

        monkeypatch.setattr(v, "_BYTE_TABLE_AREA", 0)
        self._check(monkeypatch, one_array_blocks)

    def _check(self, monkeypatch, one_array_blocks):
        if one_array_blocks:
            import prarray.verify as v

            monkeypatch.setattr(v, "_CENSUS_BLOCK_WINDOWS", 1)
        rng = random.Random(31)
        kinds = set()
        for grids, p in self._codes():
            arrays = list(grids)
            k = rng.randrange(len(arrays))
            others = [a for i, a in enumerate(arrays) if i != k]
            variants = [
                grids,
                others + [np.zeros((p.r1, p.r2), dtype=np.uint8)],
                others + [flip(arrays[k], rng.randrange(p.r1), rng.randrange(p.r2))],
            ]
            if others:
                # a shifted copy of another codeword: one code twice
                variants.append(others + [shift(rng.choice(others), 1, 2)])
            for v in variants:
                got = window_census(v, p.n1, p.n2, p)
                assert got == reference_census(v, p.n1, p.n2, p), (p, got)
                kinds.add(got.witness.kind if got.witness else "pass")
        assert kinds == {"pass", "zero-window", "duplicate-window"}


# five 3 x 17 arrays of x^8+x^4+x^3+x+1, the last one replaced
TWO_BLOCK_CODES = (
    "last, kind",
    [
        pytest.param(lambda arrays: arrays[4], None, id="pass"),
        pytest.param(lambda arrays: shift(arrays[0], 1, 2), "duplicate-window",
                     id="repeat-across"),  # across the blocks
        pytest.param(lambda arrays: shift(arrays[3], 1, 2), "duplicate-window",
                     id="repeat-in-last"),  # inside the last
        pytest.param(lambda arrays: np.zeros((3, 17), dtype=np.uint8), "zero-window",
                     id="zero-in-last"),
    ],
)


class TestBitTablePath:
    # the packed occupancy table of the sort path finds repeats across
    # blocks; force one array per block and compare with one block, with
    # the byte table on either, and with the reference
    def _both(self, monkeypatch, arrays, n1, n2):
        import prarray.verify as v

        normal = window_census(arrays, n1, n2)
        monkeypatch.setattr(v, "_CENSUS_BLOCK_WINDOWS", 1)
        packed = window_census(arrays, n1, n2)
        monkeypatch.setattr(v, "_BYTE_TABLE_AREA", 0)
        assert window_census(arrays, n1, n2) == packed
        monkeypatch.undo()
        monkeypatch.setattr(v, "_BYTE_TABLE_AREA", 0)
        assert window_census(arrays, n1, n2) == normal
        assert normal == packed == reference_census(arrays, n1, n2)
        return normal, packed

    def test_agrees_on_pass(self, monkeypatch, prac_3x7):
        normal, packed = self._both(monkeypatch, prac_3x7, 2, 3)
        assert normal.passed and packed.passed

    def test_agrees_on_zero_window(self, monkeypatch):
        arrays = [np.zeros((3, 5), dtype=np.uint8)]
        normal, packed = self._both(monkeypatch, arrays, 2, 2)
        assert not normal.passed and not packed.passed
        assert normal.witness.kind == packed.witness.kind == "zero-window"

    def test_agrees_on_duplicates(self, monkeypatch, pra_3x5):
        bad = flip(pra_3x5, 0, 0)
        normal, packed = self._both(monkeypatch, [bad], 2, 2)
        assert not normal.passed and not packed.passed
        assert normal.witness.kind == packed.witness.kind

    def test_cross_array_duplicate(self, monkeypatch, prac_3x7):
        # swap one codeword for a shift of another: totals stay right,
        # but one window pattern now occurs twice
        a0, a1 = prac_3x7[:2]
        arrays = [a0, a1, shift(a1, 1, 2)]
        normal, packed = self._both(monkeypatch, arrays, 2, 3)
        assert not normal.passed and not packed.passed
        assert normal.witness.kind == packed.witness.kind == "duplicate-window"

    @pytest.mark.parametrize(*TWO_BLOCK_CODES)
    def test_two_blocks(self, monkeypatch, last, kind):
        self._two_blocks(monkeypatch, last, kind)

    @pytest.mark.parametrize(*TWO_BLOCK_CODES)
    def test_two_blocks_sort_path(self, monkeypatch, last, kind):
        import prarray.verify as v

        monkeypatch.setattr(v, "_BYTE_TABLE_AREA", 0)
        self._two_blocks(monkeypatch, last, kind, byte_table=False)

    def _two_blocks(self, monkeypatch, last, kind, byte_table=True):
        # five 3 x 17 arrays in blocks of three and two.  On the sort
        # path only the first block fills the bit table, and only the
        # last block meets it.  A pass or a zero window codes each block
        # once.  A repeat codes them again for the witness's occurrences,
        # and the byte table codes them once more before the sort pass
        import prarray.verify as v

        arrays = list(fold_zero_factor(zero_factor(parse("x^8+x^4+x^3+x+1")), 3, 17))
        arrays[4] = last(arrays)
        monkeypatch.setattr(v, "_CENSUS_BLOCK_WINDOWS", 3 * 51)
        assert [lo for lo, _ in v._blocks(np.stack(arrays))] == [0, 3]
        coded = []
        block_codes = v._block_codes
        monkeypatch.setattr(v, "_block_codes", lambda *a: coded.append(1) or block_codes(*a))
        got = window_census(arrays, 2, 4)
        assert got == reference_census(arrays, 2, 4)
        assert (got.witness.kind if got.witness else None) == kind
        passes = 1 if kind != "duplicate-window" else 3 if byte_table else 2
        assert len(coded) == 2 * passes

    def test_area23_code(self):
        # 178,481 arrays of 1 x 47 in nine blocks; one flipped cell makes
        # two windows read one code, and the witness names the second
        f = enumerate_irreducible(23, 47)[0]
        p = CodeParams(1, 47, 1, 23)
        grids = fold_zero_factor(zero_factor(f), 1, 47)
        assert window_census(grids, 1, 23, p).passed
        grids = grids.copy()
        grids[-1, 0, 5] ^= 1
        rep = window_census(grids, 1, 23, p)
        assert not rep.passed
        w = rep.witness
        assert (w.kind, w.message, w.array_index, w.position, w.code) == (
            "duplicate-window",
            "window code 786382 occurs more than once 2 times",
            178480,
            (0, 4),
            786382,
        )
        assert w.window_bits == format(w.code, "023b")
        cells = grids[w.array_index, 0]
        assert [int(cells[(w.position[1] + b) % 47]) for b in range(23)] == [
            int(c) for c in w.window_bits
        ]


class TestClosureAlwaysHolds:
    def test_all_irreducibles_up_to_degree_10(self):
        # folded zero factors are closed under shift-and-add even at
        # window shapes whose census fails, for every coprime exponent
        # split: the closure decides the shapes that pass the census,
        # the reference the codes with a shape that fails it
        decided = {"closure": 0, "reference": 0}
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
            r1, r2 = splits[0]
            arrays = fold_zero_factor(zf, r1, r2)
            census_fails = False
            for shape in window_shapes(r1, r2, f.degree):
                p = CodeParams(r1, r2, *shape)
                if window_census(arrays, *shape, p).passed:
                    assert shift_add_closure(arrays, p).passed, (f, p)
                    decided["closure"] += 1
                else:
                    census_fails = True
            if census_fails:
                assert reference_closure(arrays).passed, f
                decided["reference"] += 1
        assert decided["closure"] > 400 and decided["reference"] > 40, decided
