import math
from time import perf_counter

import pytest
from conftest import (
    least_rotation,
    reference_vee,
    serial_mod,
    serial_mul,
    serial_powmod,
    serial_trace,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from prarray import criteria, gf2poly
from prarray.cli import main
from prarray.criteria import (
    PositionSet,
    _cell_rank,
    _cell_vectors,
    classify_construction,
    conjecture_search,
    det_test,
    setpoly_test,
    sufficient_conditions,
    trace_independence_test,
    vee,
    window_positions,
)
from prarray.folding import CodeParams, fold_zero_factor
from prarray.gf2poly import (
    BinaryPolynomial,
    _divisors,
    _powmod,
    classify,
    count_irreducible_with_exponent,
    enumerate_irreducible,
    exponent,
    is_irreducible,
    parse,
)
from prarray.lfsr import zero_factor
from prarray.verify import window_census


def P(text):
    return parse(text)


# every uniform f of degree 1 to 8, with its exponent
_UNIFORM_UP_TO_8 = [
    (f, c.exponent)
    for f, c in (
        (f, classify(f))
        for f in (BinaryPolynomial(b) for b in range(3, 1 << 9, 2))
    )
    if c.is_uniform
]


class TestVee:
    @pytest.mark.parametrize(
        "f1,f2,g",
        [
            ("x^4+x+1", "x^3+x+1", "x^12+x^9+x^5+x^4+x^3+x+1"),
            ("x^4+x+1", "x^3+x^2+1", "x^12+x^8+x^6+x^5+x^3+x^2+1"),
            ("x^4+x^3+1", "x^3+x+1", "x^12+x^10+x^9+x^7+x^6+x^4+1"),
            ("x^4+x^3+1", "x^3+x^2+1", "x^12+x^11+x^9+x^8+x^7+x^3+1"),
            ("x^4+x^3+x^2+x+1", "x^6+x^3+1", "x^24+x^21+x^15+x^12+x^9+x^3+1"),
            ("x^4+x^3+x^2+x+1", "x^3+x^2+1", "x^12+x^11+x^10+x^8+x^5+x^4+x^3+x^2+1"),
            (
                "x^4+x^3+x^2+x+1",
                "x^9+x+1",
                "x^36+x^28+x^27+x^20+x^18+x^12+x^10+x^9+x^4+x^3+x^2+x+1",
            ),
        ],
    )
    def test_golden_products(self, f1, f2, g):
        assert vee(P(f1), P(f2)) == P(g)

    def test_reducible_inputs(self):
        got = vee(P("x^6+x^5+x^4+x^3+x^2+x+1"), P("x^2+x+1"))
        assert got == P("x^6+x^4+x^2+x+1") * P("x^6+x^5+x^4+x^2+1")

    def test_identity_root(self):
        f = P("x^4+x+1")
        assert vee(f, P("x+1")) == f

    def test_degree_and_exponent(self):
        for f1t, f2t in [("x^3+x+1", "x^4+x+1"), ("x^2+x+1", "x^3+x^2+1")]:
            f1, f2 = P(f1t), P(f2t)
            g = vee(f1, f2)
            assert g.degree == f1.degree * f2.degree
            assert exponent(g) == exponent(f1) * exponent(f2)

    def test_noncoprime_exponents_rejected(self):
        with pytest.raises(ValueError):
            vee(P("x^3+x+1"), P("x^3+x^2+1"))

    def test_nonuniform_rejected(self):
        with pytest.raises(ValueError):
            vee(P("x^2+x+1") * P("x^3+x+1"), P("x^4+x+1"))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_both_routes_match_the_kronecker_charpoly(self, data):
        f1, e1 = data.draw(st.sampled_from(_UNIFORM_UP_TO_8))
        f2, e2 = data.draw(st.sampled_from(_UNIFORM_UP_TO_8))
        assume(math.gcd(e1, e2) == 1)
        want = reference_vee(f1, f2)
        assert vee(f1, f2) == want
        assert criteria._vee_by_matrix(f1, f2) == want
        assert criteria._vee_by_sequences(f1, f2) == want

    def test_degrees_13_by_14_promptly(self):
        # both primitive: the route through full-period sequences of
        # length e1*e2 ran past 60 s here
        f1, f2 = P("x^13+x^4+x^3+x+1"), P("x^14+x^10+x^6+x+1")
        start = perf_counter()
        g = vee(f1, f2)
        assert perf_counter() - start < 1.0
        assert g.degree == 182 and is_irreducible(g)

    def test_degrees_23_by_24_promptly(self):
        f1, f2 = P("x^23+x^5+1"), P("x^24+x^7+x^2+x+1")
        start = perf_counter()
        g = vee(f1, f2)
        assert perf_counter() - start < 2.0
        assert g.degree == 552


class TestWindowPositions:
    def test_13x35_by_4x3(self):
        pos = window_positions(CodeParams(13, 35, 4, 3))
        assert sorted(pos.positions) == [0, 1, 2, 105, 106, 107, 210, 211, 247, 315, 351, 352]

    def test_13x35_by_3x4(self):
        pos = window_positions(CodeParams(13, 35, 3, 4))
        assert sorted(pos.positions) == [0, 1, 2, 105, 106, 143, 210, 247, 248, 351, 352, 353]

    def test_3x5_matrix_order(self):
        pos = window_positions(CodeParams(3, 5, 2, 2))
        assert list(pos.positions) == [0, 6, 10, 1]

    def test_single_cell(self):
        assert window_positions(CodeParams(7, 9, 1, 1)).positions == (0,)

    def test_prints_as_sorted_list(self):
        pos = window_positions(CodeParams(3, 5, 2, 2))
        assert str(pos) == "{0, 1, 6, 10}"

    def test_window_taller_than_array_rejected(self):
        with pytest.raises(ValueError, match="residues out of range"):
            window_positions(CodeParams(1, 9, 2, 3))


class TestSetPolynomial:
    def test_study_grid(self, sect5_polys):
        p43 = window_positions(CodeParams(13, 35, 4, 3))
        p34 = window_positions(CodeParams(13, 35, 3, 4))
        grid = {
            name: (setpoly_test(f, p43).passed, setpoly_test(f, p34).passed)
            for name, f in sect5_polys.items()
        }
        assert grid == {
            "f1": (False, False),
            "f2": (False, True),
            "f3": (True, False),
            "f4": (True, True),
        }

    def test_failure_witness_is_a_divisible_factor(self, sect5_polys):
        p43 = window_positions(CodeParams(13, 35, 4, 3))
        rep = setpoly_test(sect5_polys["f1"], p43)
        bits = 0
        for p in rep.detail["dependent_positions"]:
            bits |= 1 << p
        assert (BinaryPolynomial(bits) % sect5_polys["f1"]).is_zero

    @pytest.mark.parametrize(
        "f, factor",
        [
            ("x^6+x+1", "x^56+x^28+x+1"),
            ("x^6+x^5+1", "x^36+x^29+x^28+x"),
            ("x^6+x^5+x^2+x+1", "x^56+x^36+x^29+x^28+1"),
            ("x^6+x^5+x^3+x^2+1", "x^36+x^29+x^28"),
        ],
    )
    def test_failure_witness_message(self, f, factor):
        rep = setpoly_test(P(f), window_positions(CodeParams(7, 9, 2, 3)))
        assert rep.witness.message == f"f divides the set-polynomial factor {factor}"

    def test_exhaustive_mode_agrees(self, sect5_polys):
        p43 = window_positions(CodeParams(13, 35, 4, 3))
        assert not setpoly_test(sect5_polys["f1"], p43, exhaustive=True).passed
        assert setpoly_test(sect5_polys["f4"], p43, exhaustive=True).passed

    def test_reducible_rejected(self):
        pos = window_positions(CodeParams(3, 7, 2, 3))
        with pytest.raises(ValueError):
            setpoly_test(P("x^3+x+1") * P("x^3+x^2+1"), pos)

    def test_position_count_mismatch(self):
        pos = window_positions(CodeParams(13, 35, 3, 4))
        with pytest.raises(ValueError):
            setpoly_test(P("x^4+x+1"), pos)

    def test_positions_other_than_the_window_cells_refused(self):
        # 1 + x^5 + x^10 = 0 mod x^4+x+1, so these positions are
        # dependent; the window cells of (3,5;2,2) are 0, 6, 10, 1
        params = CodeParams(3, 5, 2, 2)
        assert window_positions(params).positions == (0, 6, 10, 1)
        with pytest.raises(ValueError, match="not the window cells"):
            setpoly_test(P("x^4+x+1"), PositionSet(params, (0, 5, 10, 3)))
        with pytest.raises(ValueError, match="not the window cells"):
            setpoly_test(P("x^4+x+1"), PositionSet(params, (0, 10, 6, 1)))
        assert setpoly_test(P("x^4+x+1"), window_positions(params)).passed


class TestDeterminant:
    def test_single_factor_pass(self):
        assert det_test([P("x^12+x^10+x^9+x+1")], CodeParams(7, 13, 3, 4)).passed

    def test_two_factor_pass(self, deg6_exp21):
        assert det_test(list(deg6_exp21), CodeParams(3, 7, 2, 6)).passed

    def test_two_primitive_fail(self):
        rep = det_test([P("x^6+x^5+1"), P("x^6+x+1")], CodeParams(7, 9, 3, 4))
        assert not rep.passed and rep.witness is not None

    def test_failure_agrees_with_census(self):
        # the determinant verdict is exact in both directions: the same
        # product polynomial must also fail the brute-force census
        f1, f2 = P("x^6+x^5+1"), P("x^6+x+1")
        arrays = fold_zero_factor(zero_factor(f1 * f2), 7, 9)
        assert not window_census(arrays, 3, 4).passed

    def test_wrong_exponent_rejected(self):
        with pytest.raises(ValueError):
            det_test([P("x^6+x^5+1")], CodeParams(3, 7, 2, 3))

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            det_test([P("x+1")], CodeParams(1, 1, 1, 1))

    def test_duplicate_factors_rejected(self):
        f = P("x^6+x^5+x^4+x^2+1")
        with pytest.raises(ValueError):
            det_test([f, f], CodeParams(3, 7, 2, 6))

    def test_area_mismatch_rejected(self):
        with pytest.raises(ValueError):
            det_test([P("x^12+x^10+x^9+x+1")], CodeParams(7, 13, 3, 3))

    def test_window_taller_than_array_rejected(self):
        # x^6+x^3+1 has exponent 9 = 1*9, but a 2x3 window does not fit
        # in a 1x9 array
        with pytest.raises(ValueError, match="residues out of range"):
            det_test([P("x^6+x^3+1")], CodeParams(1, 9, 2, 3))


def _gf2_rank(vectors):
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)  # clears the leading bit of b in v
        if v:
            basis.append(v)
    return len(basis)


class TestRankAgreement:
    """The three rank routes report one number, the rank of the matrix."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_routes_report_one_rank(self, data):
        d = data.draw(st.integers(2, 10))
        f = BinaryPolynomial(data.draw(st.integers(1 << d, (1 << (d + 1)) - 1)) | 1)
        assume(is_irreducible(f))
        e = exponent(f)
        cases = [
            CodeParams(r1, e // r1, n1, d // n1)
            for r1 in _divisors(e)
            for n1 in _divisors(d)
            if math.gcd(r1, e // r1) == 1
        ]
        cases = [p for p in cases if p.violation() is None]
        assume(cases)
        params = data.draw(st.sampled_from(cases))
        sp = setpoly_test(f, window_positions(params))
        tr = trace_independence_test(f, params)
        dt = det_test([f], params)
        # the trace form is nondegenerate, so the determinant route has
        # the rank of the window-cell elements themselves
        assert sp.passed == tr.passed == dt.passed
        assert sp.detail["rank"] == tr.detail["rank"] == dt.detail["rank"]
        assert (sp.detail["rank"] == d) == sp.passed

    def test_rank_counts_past_the_first_dependency(self):
        f, params = P("x^6+x+1"), CodeParams(7, 9, 6, 1)
        ranks = {
            setpoly_test(f, window_positions(params)).detail["rank"],
            trace_independence_test(f, params).detail["rank"],
            det_test([f], params).detail["rank"],
        }
        assert ranks == {3}


class TestDeterminantReference:
    """det_test against a trace matrix built by the bit-serial kernels
    of tests/conftest.py, with each trace the sum of the Frobenius
    conjugates: no kernel of the code under test builds the reference."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_rank_matches_field_trace_matrix(self, data):
        d = data.draw(st.integers(2, 10))
        f = BinaryPolynomial(data.draw(st.integers(1 << d, (1 << (d + 1)) - 1)) | 1)
        assume(is_irreducible(f))
        e = exponent(f)
        cases = [
            CodeParams(r1, e // r1, n1, d // n1)
            for r1 in _divisors(e)
            for n1 in _divisors(d)
            if math.gcd(r1, e // r1) == 1
        ]
        cases = [p for p in cases if p.violation() is None]
        assume(cases)
        params = data.draw(st.sampled_from(cases))
        rep = det_test([f], params)

        fb = f.bits
        cells = [serial_powmod(2, p, fb) for p in window_positions(params).positions]
        cols = [
            sum(
                serial_trace(serial_mod(serial_mul(serial_powmod(2, v, fb), w), fb), fb) << c
                for c, w in enumerate(cells)
            )
            for v in range(d)
        ]
        assert rep.passed == (_gf2_rank(cols) == d)
        assert rep.detail["rank"] == _gf2_rank(cols)
        if not rep.passed:
            # the witness names the first dependent columns; the columns
            # before the last of them are independent
            named = rep.witness.message.split(": ")[1].split()
            idx = [int(t.strip("()").split(",")[1]) for t in named]
            acc = 0
            for i in idx:
                acc ^= cols[i]
            assert acc == 0
            assert max(idx) == _gf2_rank(cols[: max(idx)])


class TestTraceIndependence:
    def test_pass(self):
        assert trace_independence_test(P("x^12+x^10+x^9+x+1"), CodeParams(7, 13, 3, 4)).passed

    def test_window_taller_than_array_rejected(self):
        with pytest.raises(ValueError, match="residues out of range"):
            trace_independence_test(P("x^6+x^3+1"), CodeParams(1, 9, 2, 3))

    def test_study_outcomes(self, sect5_polys):
        assert not trace_independence_test(sect5_polys["f1"], CodeParams(13, 35, 4, 3)).passed
        assert trace_independence_test(sect5_polys["f4"], CodeParams(13, 35, 3, 4)).passed

    def test_agrees_with_det(self, sect5_polys):
        for f in sect5_polys.values():
            for params in (CodeParams(13, 35, 4, 3), CodeParams(13, 35, 3, 4)):
                assert (
                    trace_independence_test(f, params).passed
                    == det_test([f], params).passed
                )


def _coprime_splits(e):
    return [(r1, e // r1) for r1 in _divisors(e) if math.gcd(r1, e // r1) == 1]


# the degree-6 product of the two irreducible cubics
_REDUCIBLE = P("x^3+x+1") * P("x^3+x^2+1")
# irreducible; the order of x is far above the 65535 that is stepped
# for past degree 128
_DEGREE_129 = P("x^129+x^5+1")


class TestSharedCells:
    """The window-cell work that the three criteria share through the
    caches per (f, params), and the per-polynomial facts they read from
    gf2poly's caches."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_stepped_vectors_match_powmod(self, data):
        d = data.draw(st.integers(1, 16))
        f = BinaryPolynomial(data.draw(st.integers(1 << d, (1 << (d + 1)) - 1)) | 1)
        assume(is_irreducible(f))
        # every admissible split and window shape, then windows of a
        # code whose r1*r2 is not the exponent of f
        cases = [
            CodeParams(r1, r2, n1, d // n1)
            for r1, r2 in _coprime_splits(exponent(f))
            for n1 in _divisors(d)
            if n1 <= r1 and d // n1 <= r2
        ]
        for r1, r2 in _coprime_splits(data.draw(st.integers(1, 5000))):
            cases.append(
                CodeParams(r1, r2, data.draw(st.integers(1, min(r1, 4))),
                           data.draw(st.integers(1, min(r2, 4))))
            )
        for params in cases:
            want = tuple(_powmod(2, p, f.bits) for p in window_positions(params).positions)
            assert _cell_vectors(f.bits, params) == want, (f, params)

    def test_one_case_does_the_field_work_once(self, monkeypatch):
        kernels = []

        def counted(vectors, real=criteria._gf2_kernel):
            kernels.append(len(vectors))
            return real(vectors)

        monkeypatch.setattr(criteria, "_gf2_kernel", counted)
        facts = (gf2poly._is_irreducible_int, gf2poly._x_order)
        for cached in (*facts, _cell_vectors, _cell_rank):
            cached.cache_clear()
        f, params = P("x^12+x^10+x^9+x+1"), CodeParams(7, 13, 3, 4)
        setpoly_test(f, window_positions(params))
        trace_independence_test(f, params)
        det_test([f], params)
        # each criterion reads both facts, and gf2poly computes each once
        assert [fn.cache_info().misses for fn in facts] == [1, 1]
        assert _cell_vectors.cache_info().misses == 1
        # one elimination ranks the cells for setpoly and trace, one the
        # trace columns of det_test
        assert kernels == [12, 12]

    def test_one_polynomial_does_its_field_facts_once(self):
        # irreducibility and the order of x depend on f alone: every
        # criterion-9 case of one f reads them from gf2poly's caches
        f = P("x^12+x^6+x^4+x+1")
        e = exponent(f)
        cases = [
            CodeParams(r1, e // r1, n1, f.degree // n1)
            for r1 in _divisors(e)
            for n1 in _divisors(f.degree)
            if CodeParams(r1, e // r1, n1, f.degree // n1).violation() is None
        ]
        assert len(cases) > 20
        cached = (gf2poly._is_irreducible_int, gf2poly._x_order)
        for fn in cached:
            fn.cache_clear()
        _cell_vectors.cache_clear()
        for params in cases:
            setpoly_test(f, window_positions(params))
            trace_independence_test(f, params)
            det_test([f], params)
        assert [fn.cache_info().misses for fn in cached] == [1, 1]
        assert _cell_vectors.cache_info().misses == len(cases)
        # and the caches stay small: a pass over many polynomials carries
        # little from one pass to the next
        for g in enumerate_irreducible(8, 255):
            classify(g)
        for fn in (*cached, gf2poly.classify):
            info = fn.cache_info()
            assert info.maxsize == 8 and info.currsize <= 8

    # each input also breaks every later check that it can, so a
    # message pins the order of the checks as well; setpoly_test never
    # sees a window that does not fit, as window_positions refuses it.
    # reads_facts: the refusal comes after the irreducibility check
    @pytest.mark.parametrize(
        "call, message, reads_facts",
        [
            (lambda: setpoly_test(_REDUCIBLE, window_positions(CodeParams(3, 5, 2, 2))),
             "the set-polynomial criterion needs an irreducible polynomial", True),
            (lambda: setpoly_test(P("x^4+x+1"), window_positions(CodeParams(13, 35, 3, 4))),
             "need 4 positions for degree 4, got 12", True),
            (lambda: trace_independence_test(_REDUCIBLE, CodeParams(1, 5, 2, 1)),
             "the trace criterion needs an irreducible polynomial", True),
            (lambda: trace_independence_test(P("x+1"), CodeParams(1, 3, 2, 1)),
             "degree must be at least 2", True),
            (lambda: trace_independence_test(P("x^4+x+1"), CodeParams(1, 35, 3, 4)),
             "degree 4 must equal n1*n2 = 12", True),
            (lambda: trace_independence_test(P("x^6+x^5+1"), CodeParams(1, 9, 2, 3)),
             "x^6+x^5+1 has exponent 63, need 9", True),
            (lambda: trace_independence_test(_DEGREE_129, CodeParams(1, 3, 3, 43)),
             "above degree 128, only exponents up to 65535 are supported (factor of degree 129)",
             True),
            (lambda: trace_independence_test(P("x^6+x^3+1"), CodeParams(1, 9, 2, 3)),
             "residues out of range", True),
            (lambda: det_test([P("x+1")], CodeParams(1, 3, 2, 1)),
             "factors must have degree at least 2", False),
            (lambda: det_test([P("x^12+x^10+x^9+x+1")], CodeParams(1, 13, 3, 3)),
             "k*n = 12 must equal n1*n2 = 9", False),
            (lambda: det_test([_REDUCIBLE], CodeParams(1, 3, 2, 3)),
             "modulus x^6+x^5+x^4+x^3+x^2+x+1 is not irreducible", True),
            (lambda: det_test([P("x^6+x^5+1")], CodeParams(1, 21, 2, 3)),
             "factor x^6+x^5+1 has exponent 63, need 21", True),
            (lambda: det_test([_DEGREE_129], CodeParams(1, 3, 3, 43)),
             "above degree 128, only exponents up to 65535 are supported (factor of degree 129)",
             True),
            (lambda: det_test([P("x^6+x^3+1")], CodeParams(1, 9, 2, 3)),
             "residues out of range", True),
        ],
    )
    def test_refusals_keep_their_order_and_message(self, call, message, reads_facts):
        for _ in range(2):
            hits = gf2poly._is_irreducible_int.cache_info().hits
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message
        # a refusal after irreducibility is read found the first call's
        # entry in gf2poly's cache the second time
        assert (gf2poly._is_irreducible_int.cache_info().hits > hits) == reads_facts


class TestSufficientConditions:
    def test_pra_case(self):
        rep = sufficient_conditions(CodeParams(3, 5, 2, 2))
        assert rep.passed and rep.detail["case"] == "PRA"

    def test_prac_case(self):
        rep = sufficient_conditions(CodeParams(7, 13, 3, 4))
        assert rep.passed and rep.detail["case"] == "PRAC"
        assert rep.detail["residues_mod_r1"] == [1, 2, 4]

    def test_5_17_4_2(self):
        rep = sufficient_conditions(CodeParams(5, 17, 4, 2))
        assert rep.passed and rep.detail["residues_mod_r1"] == [1, 2, 3, 4]

    def test_fail_is_one_directional(self, sect5_polys):
        # 13 does not divide 2^4 - 1, yet f4 folds to a PRAC anyway
        rep = sufficient_conditions(CodeParams(13, 35, 4, 3))
        assert not rep.passed
        assert setpoly_test(
            sect5_polys["f4"], window_positions(CodeParams(13, 35, 4, 3))
        ).passed

    def test_pass_implies_census_pass(self):
        # sampled sufficiency cases must verify by brute force as well
        for poly, r1, r2, n1, n2 in [
            ("x^4+x+1", 3, 5, 2, 2),
            ("x^12+x^10+x^9+x+1", 7, 13, 3, 4),
            ("x^6+x^5+x^4+x^2+1", 3, 7, 2, 3),
        ]:
            params = CodeParams(r1, r2, n1, n2)
            assert sufficient_conditions(params).passed
            arrays = fold_zero_factor(zero_factor(P(poly)), r1, r2)
            assert window_census(arrays, n1, n2, params).passed


class TestClassification:
    def test_reducible_reducible(self):
        rec = classify_construction(
            P("x^6+x^5+x^4+x^3+x^2+x+1"), P("x^8+x^7+x^5+x^4+x^3+x+1")
        )
        assert rec.types == ("reducible", "reducible", "reducible")

    def test_inp_inp_inp(self):
        rec = classify_construction(P("x^4+x^3+x^2+x+1"), P("x^9+x+1"))
        assert rec.types == ("INP", "INP", "INP")

    def test_primitive_primitive(self):
        rec = classify_construction(P("x^4+x+1"), P("x^3+x+1"))
        assert rec.types == ("primitive", "primitive", "INP")
        assert rec.params == CodeParams(15, 7, 4, 3)

    def test_inp_inp_reducible(self):
        rec = classify_construction(P("x^4+x^3+x^2+x+1"), P("x^6+x^3+1"))
        assert rec.types == ("INP", "INP", "reducible")

    def test_inp_primitive_both_orders(self):
        rec = classify_construction(P("x^3+x^2+1"), P("x^4+x^3+x^2+x+1"))
        assert rec.types == ("primitive", "INP", "INP")

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            classify_construction(P("x^4+x+1"), P("x+1"))

    def test_record_serialization(self):
        rec = classify_construction(P("x^4+x+1"), P("x^3+x+1"))
        kv = rec.to_kv()
        assert kv["g"] == "x^12+x^9+x^5+x^4+x^3+x+1"
        assert kv["g.type"] == "INP" and kv["params.r1"] == "15"


class TestOneFactorisation:
    """Each polynomial a call decides on is decided irreducible or not
    once, and only a reducible one is factored: classify runs Rabin's
    test first, vee's input gate hands its classes on, and the census of
    check-fold and of each conjecture entry walks the zero factor at the
    exponent r1*r2 that was established before it, with no
    classification of its own."""

    @pytest.mark.parametrize(
        "call, runs, decisions",
        [
            (lambda: classify(P("x^7+x+1")), 0, 1),
            (lambda: classify(P("x^3+x+1") * P("x^3+x^2+1")), 1, 1),
            # f1, f2 and their irreducible degree-63 product
            (lambda: classify_construction(P("x^7+x+1"), P("x^9+x^4+1")), 0, 3),
            (lambda: main(["vee", "--f1", "x^7+x+1", "--f2", "x^9+x^4+1"]) == 0, 0, 3),
            (lambda: main(["check-fold", "--poly", "x^12+x^10+x^9+x+1", "--r1", "7",
                           "--r2", "13", "--n1", "3", "--n2", "4"]) == 0, 0, 1),
            # enumerate_irreducible and det_test need no factorisation; the
            # two degree-3 candidates are each decided once
            (lambda: len(conjecture_search(2, 3, 3, 7, 2).entries) == 3, 0, 2),
        ],
        ids=["irreducible", "uniform-product", "construction", "cli-vee", "cli-check-fold",
             "conjecture"],
    )
    def test_berlekamp_runs(self, monkeypatch, capsys, call, runs, decisions):
        calls = []
        berlekamp = gf2poly._berlekamp_squarefree

        def counted(fb):
            calls.append(fb)
            return berlekamp(fb)

        monkeypatch.setattr(gf2poly, "_berlekamp_squarefree", counted)
        # earlier tests may have classified these polynomials already
        for cached in (gf2poly.classify, gf2poly._x_order, gf2poly._is_irreducible_int):
            cached.cache_clear()
        assert call()
        assert len(calls) == runs
        assert gf2poly._is_irreducible_int.cache_info().misses == decisions


class TestHierarchies:
    def test_larger_window_code_contains_smaller(self):
        # arrays folded from f1 v h1 appear, up to shift, among the
        # arrays folded from f1 v (h1*h2)
        f1 = P("x^2+x+1")
        h1, h2 = P("x^3+x+1"), P("x^3+x^2+1")
        small = vee(f1, h1)
        large = vee(f1, h1 * h2)
        small_arrays = fold_zero_factor(zero_factor(small), 3, 7)
        large_arrays = fold_zero_factor(zero_factor(large), 3, 7)
        assert len(small_arrays) == 3 and len(large_arrays) == 195
        large_canon = {least_rotation(g) for g in large_arrays}
        for g in small_arrays:
            assert least_rotation(g) in large_canon
        # and both codes verify at their own window sizes
        assert window_census(small_arrays, 2, 3).passed
        assert window_census(large_arrays, 2, 6).passed

    def test_product_count_of_primitive_pairs(self):
        # coprime-order primitive pairs: the number of irreducibles with
        # exponent (2^n1-1)(2^n2-1) is the product of the primitive counts
        for n1, n2 in [(2, 3), (2, 5), (3, 4)]:
            k1 = count_irreducible_with_exponent((1 << n1) - 1)
            k2 = count_irreducible_with_exponent((1 << n2) - 1)
            e = ((1 << n1) - 1) * ((1 << n2) - 1)
            assert count_irreducible_with_exponent(e) == k1 * k2


class TestConjectureSearch:
    def test_in_range_products_pass(self):
        res = conjecture_search(2, 3, 3, 7, 2)
        assert res.in_range and not res.counterexamples
        k2 = [e for e in res.entries if e.k == 2]
        assert len(k2) == 1
        assert k2[0].verdict.passed and k2[0].census_agrees

    def test_out_of_range_failure_is_flagged_not_counted(self):
        res = conjecture_search(3, 2, 7, 9, 2)
        assert not res.in_range and not res.counterexamples
        fails = [e for e in res.entries if e.k == 2 and not e.verdict.passed]
        assert any(
            set(e.factors) == {P("x^6+x^5+1"), P("x^6+x+1")} for e in fails
        )

    def test_kmax_one_is_degenerate(self):
        res = conjecture_search(2, 3, 3, 7, 1)
        assert all(e.k == 1 for e in res.entries)
        assert len(res.entries) == 2


class TestThreeWayAgreement:
    @staticmethod
    def _check_poly(f):
        degree = f.degree
        e = exponent(f)
        zf = None
        for r1 in _divisors(e):
            r2 = e // r1
            if math.gcd(r1, r2) != 1:
                continue
            for n1 in _divisors(degree):
                params = CodeParams(r1, r2, n1, degree // n1)
                if params.violation() is not None:
                    continue
                sp = setpoly_test(f, window_positions(params)).passed
                tr = trace_independence_test(f, params).passed
                dt = det_test([f], params).passed
                if zf is None:
                    zf = zero_factor(f)
                ce = window_census(
                    fold_zero_factor(zf, r1, r2), params.n1, params.n2, params
                ).passed
                assert sp == tr == dt == ce, (f, params)

    @pytest.mark.parametrize("degree", [6, 8, 9])
    def test_small_degrees(self, degree):
        for bits in range(1 << degree | 1, 1 << (degree + 1), 2):
            f = BinaryPolynomial(bits)
            if is_irreducible(f):
                self._check_poly(f)

    @pytest.mark.parametrize("degree", [15, 16])
    def test_sampled_larger_degrees(self, degree):
        import random

        rng = random.Random(degree)
        found = 0
        while found < 8:
            bits = rng.randrange(1 << degree | 1, 1 << (degree + 1)) | 1
            f = BinaryPolynomial(bits)
            if is_irreducible(f):
                self._check_poly(f)
                found += 1
