import hashlib
import json
import os
import signal
import subprocess
import sys
from time import perf_counter

import pytest

import prarray
from prarray.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


class TestConstructVerify:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "arrays.txt"
        code, out, _ = run(
            capsys,
            "construct",
            "--poly", "x^6+x^5+x^4+x^2+1",
            "--r1", "3", "--r2", "7", "--n1", "2", "--n2", "3",
            "--out", str(path),
        )
        assert code == 0
        assert path.read_text().startswith("# 3 7 2 3\n")
        code, out, _ = run(capsys, "verify", "--in", str(path))
        assert code == 0 and "PASS" in out

    def test_verify_flipped_bit(self, tmp_path, capsys):
        path = tmp_path / "arrays.txt"
        run(
            capsys,
            "construct",
            "--poly", "x^6+x^5+x^4+x^2+1",
            "--r1", "3", "--r2", "7", "--n1", "2", "--n2", "3",
            "--out", str(path),
        )
        text = path.read_text()
        idx = text.index("\n", text.index("\n") + 1) - 1
        flipped = text[:idx] + ("1" if text[idx] == "0" else "0") + text[idx + 1 :]
        path.write_text(flipped)
        code, out, _ = run(capsys, "verify", "--in", str(path))
        assert code == 1 and "FAIL" in out and "witness" in out

    def test_verify_nonlinear_fails_at_closure(self, tmp_path, capsys):
        # a punctured de Bruijn sequence of order 4 has every nonzero
        # 4-bit window once but is not linear: the census passes and the
        # closure names a sum of shifts that is no shifted codeword
        word = "000100111101011"
        path = tmp_path / "nonlinear.txt"
        path.write_text(f"# 1 15 1 4\n{word}\n")
        code, out, _ = run(capsys, "verify", "--in", str(path))
        assert code == 1
        assert "stage census: pass" in out and "stage shift-add: fail" in out
        assert "witness: array 0 + array 0 shifted by (0,3) is not a shifted codeword" in out
        code, doc, _ = run_json(capsys, "verify", "--in", str(path))
        assert code == 1 and doc["verdicts"][0]["witness.kind"] == "closure"
        total = "".join(str(int(a) ^ int(b)) for a, b in zip(word, word[-3:] + word[:-3]))
        assert "1" in total and total not in {word[k:] + word[:k] for k in range(15)}

    def test_verify_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, out, _ = run(
            capsys, "verify", "--in", str(path),
            "--r1", "3", "--r2", "7", "--n1", "2", "--n2", "3",
        )
        assert code == 1 and "FAIL" in out

    def test_verify_missing_params(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("")
        code, _, err = run(capsys, "verify", "--in", str(path))
        assert code == 2 and "missing" in err

    def test_construct_exponent_mismatch(self, capsys):
        code, _, err = run(
            capsys, "construct", "--poly", "x^6+x^5+x^4+x^2+1",
            "--r1", "3", "--r2", "5",
        )
        assert code == 2
        assert "21" in err and "15" in err

    def test_round_trip_45_codewords(self, tmp_path, capsys):
        path = tmp_path / "code45.txt"
        code, _, _ = run(
            capsys, "construct", "--poly", "x^12+x^10+x^9+x+1",
            "--r1", "7", "--r2", "13", "--n1", "3", "--n2", "4",
            "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", "--in", str(path))
        assert code == 0 and "stage shift-add: pass" in out

    def test_pseudo_random_array_verifies_promptly(self, tmp_path, capsys):
        # one 1 x 131071 array: the closure compares 35 vectors, not
        # the sums of its 131071 shifts
        path = tmp_path / "pra17.txt"
        code, _, _ = run(
            capsys, "construct", "--poly", "x^17+x^3+1",
            "--r1", "1", "--r2", "131071", "--n1", "1", "--n2", "17",
            "--out", str(path),
        )
        assert code == 0
        started = perf_counter()
        code, out, _ = run(capsys, "verify", "--in", str(path))
        assert code == 0 and "stage shift-add: pass" in out
        assert perf_counter() - started < 5.0

    def test_construct_stdout(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--poly", "x^4+x+1", "--r1", "3", "--r2", "5"
        )
        assert code == 0
        assert len([ln for ln in out.splitlines() if ln]) == 3


    def test_construct_json_arrays_are_each_arrays_lines(self, capsys):
        from conftest import grid_lines

        from prarray.folding import fold_zero_factor
        from prarray.gf2poly import parse
        from prarray.lfsr import zero_factor

        code, out, _ = run(
            capsys, "construct", "--poly", "x^12+x^10+x^9+x+1",
            "--r1", "7", "--r2", "13", "--n1", "3", "--n2", "4", "--format", "json",
        )
        assert code == 0
        grids = fold_zero_factor(zero_factor(parse("x^12+x^10+x^9+x+1")), 7, 13)
        want = [grid_lines(g) for g in grids]
        doc = json.loads(out)
        assert len(want) == doc["counts"]["arrays"] == 45
        assert out == json.dumps({**doc, "arrays": want}, indent=2, sort_keys=True) + "\n"

    def test_construct_json_with_out_leaves_the_arrays_to_the_file(self, tmp_path, capsys):
        # --out takes the arrays instead of stdout, in JSON as in text
        argv = ["construct", "--poly", "x^12+x^10+x^9+x+1", "--r1", "7", "--r2", "13",
                "--n1", "3", "--n2", "4"]
        path = tmp_path / "code.txt"
        code, doc, _ = run_json(capsys, *argv, "--out", str(path))
        assert code == 0
        assert "arrays" not in doc
        assert doc["counts"] == {"arrays": 45, "exponent": 91}
        code, out, _ = run(capsys, *argv)
        assert code == 0 and path.read_text() == out


class TestCheckFold:
    def test_setpoly_fail(self, capsys):
        code, out, _ = run(
            capsys, "check-fold", "--poly", "1011101001111",
            "--r1", "13", "--r2", "35", "--n1", "4", "--n2", "3",
            "--criterion", "setpoly",
        )
        assert code == 1 and "FAIL set-polynomial" in out

    def test_all_criteria_agree(self, capsys):
        code, doc, _ = run_json(
            capsys, "check-fold", "--poly", "x^12+x^10+x^9+x+1",
            "--r1", "7", "--r2", "13", "--n1", "3", "--n2", "4",
            "--criterion", "all",
        )
        assert code == 0
        assert doc["counts"]["agreement"] is True
        assert {v["criterion"] for v in doc["verdicts"]} == {
            "set-polynomial", "determinant", "census", "sufficient-conditions",
        }

    def test_all_on_study_f4(self, capsys):
        code, out, _ = run(
            capsys, "check-fold", "--poly", "1010011011111",
            "--r1", "13", "--r2", "35", "--n1", "4", "--n2", "3",
            "--criterion", "all",
        )
        assert code == 0
        assert "FAIL sufficient-conditions" in out  # sufficient is one-directional

    def test_factors_flag(self, capsys):
        code, _, _ = run(
            capsys, "check-fold",
            "--factors", "x^6+x^5+x^4+x^2+1,x^6+x^4+x^2+x+1",
            "--r1", "3", "--r2", "7", "--n1", "2", "--n2", "6",
            "--criterion", "det",
        )
        assert code == 0

    def test_exhaustive_setpoly_flag(self, capsys):
        code, doc, _ = run_json(
            capsys, "check-fold", "--poly", "x^12+x^10+x^9+x+1",
            "--r1", "7", "--r2", "13", "--n1", "3", "--n2", "4",
            "--criterion", "setpoly", "--exhaustive-setpoly",
        )
        assert code == 0
        sp = [v for v in doc["verdicts"] if v["criterion"] == "set-polynomial"]
        assert sp and sp[0]["detail.exhaustive_subsets"] == "4095"

    def test_setpoly_on_reducible_rejected(self, capsys):
        code, _, err = run(
            capsys, "check-fold",
            "--factors", "x^6+x^5+x^4+x^2+1,x^6+x^4+x^2+x+1",
            "--r1", "3", "--r2", "7", "--n1", "2", "--n2", "6",
            "--criterion", "setpoly",
        )
        assert code == 2 and "irreducible" in err

    def test_exponent_mismatch(self, capsys):
        code, _, err = run(
            capsys, "check-fold", "--poly", "x^4+x+1",
            "--r1", "3", "--r2", "7", "--n1", "2", "--n2", "2",
        )
        assert code == 2


class TestOtherCommands:
    def test_vee(self, capsys):
        code, out, _ = run(capsys, "vee", "--f1", "x^4+x+1", "--f2", "x^3+x+1")
        assert code == 0
        assert "x^12+x^9+x^5+x^4+x^3+x+1" in out

    def test_enumerate(self, capsys):
        code, doc, _ = run_json(capsys, "enumerate", "--degree", "12", "--exponent", "91")
        assert code == 0 and doc["counts"]["polynomials"] == 6

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "--f1", "x^4+x+1", "--f2", "x^3+x+1")
        assert code == 0 and "(primitive, primitive) -> INP" in out

    def test_conjecture_in_range(self, capsys):
        code, doc, _ = run_json(
            capsys, "conjecture", "--n1", "2", "--n2", "3",
            "--r1", "3", "--r2", "7", "--kmax", "2",
        )
        assert code == 0 and doc["in_range"] is True

    def test_conjecture_out_of_range(self, capsys):
        code, doc, _ = run_json(
            capsys, "conjecture", "--n1", "3", "--n2", "2",
            "--r1", "7", "--r2", "9", "--kmax", "2",
        )
        assert code == 0 and doc["in_range"] is False
        fails = [v for v in doc["verdicts"] if v["verdict"] == "fail"]
        assert fails


class TestJsonText:
    """The construct document's arrays block comes from the C encoder and
    is spliced in; every document keeps the bytes of the indented
    encoder."""

    @pytest.mark.parametrize("count", [0, 1, 45])
    def test_arrays_block(self, count):
        from random import Random

        from prarray.cli import _json_text

        rng = Random(count)
        arrays = [[format(rng.getrandbits(13), "013b") for _ in range(7)] for _ in range(count)]
        doc = {"command": "construct", "inputs": {"poly": "x^4+x+1"}, "arrays": arrays,
               "counts": {"arrays": count}, "verdicts": [], "wall_time_s": 0.25}
        assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--poly", "x^4+x+1", "--r1", "3", "--r2", "5"],  # one array
            ["construct", "--poly", "x^12+x^10+x^9+x+1", "--r1", "7", "--r2", "13",
             "--n1", "3", "--n2", "4"],  # 45 arrays
            ["construct", "--poly", "x^4+x+1", "--r1", "3", "--r2", "5", "--out", "{tmp}"],
            ["verify", "--in", "{code}"],
            ["vee", "--f1", "x^4+x+1", "--f2", "x^3+x+1"],
            ["check-fold", "--poly", "x^12+x^10+x^9+x+1", "--r1", "7", "--r2", "13",
             "--n1", "3", "--n2", "4", "--criterion", "all"],
            ["enumerate", "--degree", "12", "--exponent", "91"],
            ["classify", "--f1", "x^4+x+1", "--f2", "x^3+x+1"],
            ["conjecture", "--n1", "2", "--n2", "3", "--r1", "3", "--r2", "7", "--kmax", "2"],
        ],
        ids=["construct-1", "construct-45", "construct-out", "verify", "vee", "check-fold",
             "enumerate", "classify", "conjecture"],
    )
    def test_every_command(self, tmp_path, capsys, argv):
        code_file = tmp_path / "code.txt"
        assert main(["construct", "--poly", "x^4+x+1", "--r1", "3", "--r2", "5",
                     "--n1", "2", "--n2", "2", "--out", str(code_file)]) == 0
        capsys.readouterr()
        argv = [a.format(tmp=tmp_path / "out.txt", code=code_file) for a in argv]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestErrorsAndDeterminism:
    def test_bad_polynomial(self, capsys):
        code, _, err = run(capsys, "vee", "--f1", "x^+1", "--f2", "x^3+x+1")
        assert code == 2 and "bad polynomial" in err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["construct", "--r1", "3", "--r2", "5"]) == 2

    def test_json_output_deterministic(self, capsys):
        def doc():
            _, d, _ = run_json(
                capsys, "check-fold", "--poly", "x^12+x^10+x^9+x+1",
                "--r1", "7", "--r2", "13", "--n1", "3", "--n2", "4",
                "--criterion", "all",
            )
            d.pop("wall_time_s")
            for v in d["verdicts"]:
                v.pop("elapsed_s", None)
            return json.dumps(d, sort_keys=True)

        assert doc() == doc()


class TestRefusedInputs:
    def test_unwritable_out(self, tmp_path, capsys):
        blocked = tmp_path / "file.txt"
        blocked.write_text("")
        out = str(blocked / "x.txt")
        for argv in (
            ["construct", "--poly", "x^4+x+1", "--r1", "3", "--r2", "5"],
            ["vee", "--f1", "x^4+x+1", "--f2", "x^3+x+1"],
        ):
            code, _, err = run(capsys, *argv, "--out", out)
            assert code == 2 and err.startswith("error: cannot write"), argv

    @pytest.mark.parametrize("kmax", ["0", "-5"])
    def test_conjecture_kmax_below_one(self, capsys, kmax):
        code, _, err = run(
            capsys, "conjecture", "--n1", "2", "--n2", "3",
            "--r1", "3", "--r2", "7", "--kmax", kmax,
        )
        assert code == 2 and "kmax" in err

    @pytest.mark.parametrize("r2", ["9", "21"])
    def test_conjecture_noncoprime_refused(self, capsys, r2):
        # 3 x 9 has no degree-6 candidate, 3 x 21 has some: both refused
        code, out, err = run(
            capsys, "conjecture", "--n1", "2", "--n2", "3", "--r1", "3", "--r2", r2,
        )
        assert code == 2 and out == ""
        assert err == "error: r1 and r2 must be coprime\n"

    @pytest.mark.parametrize(
        "n1, n2, r1, r2",
        [("2", "3", "0", "7"), ("2", "3", "-3", "7"), ("2", "3", "-3", "-7"), ("0", "3", "3", "7")],
    )
    def test_conjecture_nonpositive_refused(self, capsys, monkeypatch, n1, n2, r1, r2):
        # one message for any non-positive parameter, before the gcd
        # check and before any candidate is enumerated
        def enumerate_irreducible(*args):
            raise AssertionError("enumerated before the parameters were checked")

        monkeypatch.setattr(prarray.criteria, "enumerate_irreducible", enumerate_irreducible)
        code, out, err = run(
            capsys, "conjecture", "--n1", n1, "--n2", n2, "--r1", r1, "--r2", r2,
        )
        assert code == 2 and out == ""
        assert err == "error: parameters must be positive\n"

    def test_exponent_above_cap(self, capsys):
        for argv in (
            ["enumerate", "--degree", "40", "--exponent", "1000000000039"],
            ["conjecture", "--n1", "2", "--n2", "3", "--r1", "1000003", "--r2", "1000033"],
        ):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "65535" in err, argv

    def test_degree67_exponent_mismatch_is_prompt(self, capsys):
        started = perf_counter()
        code, _, err = run(
            capsys, "check-fold", "--poly", "x^67+x^5+x^2+x+1",
            "--r1", "7", "--r2", "13", "--n1", "3", "--n2", "4",
        )
        assert code == 2 and str((1 << 67) - 1) in err
        assert perf_counter() - started < 2.0

    @pytest.mark.parametrize("criterion", ["det", "setpoly", "all"])
    def test_window_taller_than_array(self, capsys, criterion):
        code, _, err = run(
            capsys, "check-fold", "--poly", "x^6+x^3+1",
            "--r1", "1", "--r2", "9", "--n1", "2", "--n2", "3", "--criterion", criterion,
        )
        assert code == 2 and "residues out of range" in err

    # a degree-30 factor of exponent 77 of vee(x^6+...+1, x^10+...+1)
    DEGREE30 = (
        "x^30+x^28+x^27+x^26+x^23+x^21+x^20+x^19+x^16+x^14"
        "+x^13+x^12+x^9+x^8+x^7+x^4+x^2+x+1"
    )

    def test_construct_above_degree_cap(self, capsys):
        code, _, err = run(
            capsys, "construct", "--poly", self.DEGREE30, "--r1", "7", "--r2", "11",
        )
        assert code == 2 and err == "error: construct is capped at degree 24\n"

    def test_census_above_area_cap(self, capsys):
        code, _, err = run(
            capsys, "check-fold", "--poly", self.DEGREE30,
            "--r1", "7", "--r2", "11", "--n1", "5", "--n2", "6", "--criterion", "census",
        )
        assert code == 2
        assert err == "error: census infeasible: window area or degree above the brute-force caps\n"

    def test_construct_nonpositive_dimensions(self, capsys):
        # (-3)(-5) = 15 is the exponent of x^4+x+1, so only the sign refuses
        code, out, err = run(capsys, "construct", "--poly", "x^4+x+1", "--r1", "-3", "--r2", "-5")
        assert code == 2 and out == ""
        assert err == "error: fold needs positive dimensions, got -3 and -5\n"

    def test_construct_nonpositive_dimensions_before_zero_factor(self, capsys, monkeypatch):
        # (-1)(-16777215) is the exponent of this primitive degree-24
        # polynomial, whose zero factor takes seconds and ~190 MiB
        from prarray import lfsr

        def walked(*args, **kwargs):
            raise AssertionError("zero_factor ran before the refusal")

        monkeypatch.setattr(lfsr, "zero_factor", walked)
        code, out, err = run(
            capsys, "construct", "--poly", "x^24+x^7+x^2+x+1", "--r1", "-1", "--r2", "-16777215"
        )
        assert code == 2 and out == ""
        assert err == "error: fold needs positive dimensions, got -1 and -16777215\n"

    def test_construct_bad_header_before_zero_factor(self, capsys, monkeypatch):
        # the degree-23 code of 178,481 arrays: building and folding it took
        # half a second before the header was refused
        from prarray import lfsr

        def walked(*args, **kwargs):
            raise AssertionError("the zero factor was walked before the refusal")

        monkeypatch.setattr(lfsr, "zero_factor", walked)
        monkeypatch.setattr(lfsr, "_coset_zero_factor", walked)
        poly = prarray.enumerate_irreducible(23, 47)[0]
        code, out, err = run(
            capsys, "construct", "--poly", str(poly), "--r1", "1", "--r2", "47", "--n1", "0", "--n2", "23"
        )
        assert code == 2 and out == ""
        assert err == "error: parameters must be positive\n"

    @pytest.mark.parametrize(
        "n1, n2, message",
        [
            ("9", "9", "need r1 > n1 (or r1 = n1 = 1), got r1=3, n1=9"),
            ("1", "3", "r1*r2 = 15 does not divide 2^3 - 1"),
            ("2", "4", "degree 4 must equal n1*n2 = 8"),
        ],
        ids=["window-taller", "area-not-dividing", "area-not-degree"],
    )
    def test_construct_header_that_verify_refuses(self, tmp_path, capsys, monkeypatch, n1, n2,
                                                  message):
        # such a file would only fail verify; it is refused before the walk
        from prarray import lfsr

        def walked(*args, **kwargs):
            raise AssertionError("the zero factor was walked before the refusal")

        monkeypatch.setattr(lfsr, "zero_factor", walked)
        path = tmp_path / "arrays.txt"
        code, out, err = run(
            capsys, "construct", "--poly", "x^4+x+1", "--r1", "3", "--r2", "5",
            "--n1", n1, "--n2", n2, "--out", str(path),
        )
        assert code == 2 and out == "" and err == f"error: {message}\n"
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            *[["--poly", "x^2+x+1", "--r1", "1", "--r2", "3", "--n1", "1", "--n2", "2",
               "--criterion", c] for c in ("census", "det", "sufficient")],
            ["--factors", "x^6+x^5+x^4+x^2+1,x^6+x^4+x^2+x+1", "--r1", "3", "--r2", "7",
             "--n1", "2", "--n2", "6", "--criterion", "all"],
        ],
        ids=["census", "det", "sufficient", "all-reducible"],
    )
    def test_exhaustive_setpoly_refused_where_it_cannot_run(self, capsys, argv):
        code, out, err = run(capsys, "check-fold", *argv, "--exhaustive-setpoly")
        assert code == 2 and out == ""
        assert err == (
            "error: --exhaustive-setpoly needs --criterion setpoly or all "
            "and an irreducible polynomial\n"
        )
        # without the flag the same check runs
        assert run(capsys, "check-fold", *argv)[0] in (0, 1)

    @pytest.mark.parametrize("command", ["vee", "classify"])
    def test_product_above_order_cap_is_prompt(self, capsys, command):
        # both primitive; g has degree 182, whose order of x is not
        # sought past the cap, and finding g itself once ran past 60 s
        def expired(signum, frame):
            raise TimeoutError(f"{command} ran past 10 s")

        previous = signal.signal(signal.SIGALRM, expired)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            code, out, err = run(
                capsys, command, "--f1", "x^13+x^4+x^3+x+1", "--f2", "x^14+x^10+x^6+x+1"
            )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 2 and out == ""
        assert err == (
            "error: above degree 128, only exponents up to 65535 are supported "
            "(factor of degree 182)\n"
        )

    @pytest.mark.parametrize("degree, exponent", [("-3", "7"), ("0", "1")])
    def test_enumerate_degree_below_one(self, capsys, degree, exponent):
        code, out, err = run(capsys, "enumerate", "--degree", degree, "--exponent", exponent)
        assert code == 2 and out == ""
        assert err == f"error: degree must be at least 1, got {degree}\n"

    @pytest.mark.parametrize("half", [("--n1", "2"), ("--n2", "2")])
    def test_construct_half_window_refused(self, tmp_path, capsys, half):
        path = tmp_path / "arrays.txt"
        code, out, err = run(
            capsys, "construct", "--poly", "x^4+x+1", "--r1", "3", "--r2", "5", *half,
            "--out", str(path),
        )
        assert code == 2 and out == ""
        assert err == "error: construct needs both --n1 and --n2, or neither\n"
        assert not path.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("01\n\n# 1 2 1 1\n10\n", "line 3: header after an array row",
                         id="header-after-row"),
            pytest.param("# 1 2 1 1\n01\n# 1 2 1 1\n", "line 3: a second header", id="second-header"),
            pytest.param("# 0 5 1 1\n01\n", "line 1: parameters must be positive",
                         id="header-parameters"),
        ],
    )
    def test_verify_bad_header_refused(self, tmp_path, capsys, text, message):
        path = tmp_path / "arrays.txt"
        path.write_text(text)
        code, out, err = run(capsys, "verify", "--in", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


def fresh(code, *argv):
    """Run code in a new interpreter that imports prarray from this
    checkout; argv becomes sys.argv[1:]."""
    src = os.path.dirname(os.path.dirname(prarray.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )


# prints the document, then "<exit code> <numpy loaded>" as the last line
CLI_PROBE = (
    "import sys\n"
    "from prarray.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, 'numpy' in sys.modules)\n"
)


def fresh_cli(*argv):
    """(exit code, numpy loaded, document or None) of main(argv) in a
    new interpreter."""
    proc = fresh(CLI_PROBE, *argv, "--format", "json")
    assert proc.returncode == 0, proc.stderr
    *doc, last = proc.stdout.splitlines()
    code, numpy_loaded = last.split()
    return int(code), numpy_loaded == "True", json.loads("\n".join(doc)) if doc else None


class TestImportLayers:
    """The int algebra runs without numpy; only the grid oracle loads it.
    Nothing at run time loads sympy."""

    @pytest.mark.parametrize(
        "argv, want",
        [
            pytest.param(["vee", "--f1", "x^4+x+1", "--f2", "x^3+x+1"], 0, id="vee-12"),
            pytest.param(["vee", "--f1", "x^4+x^3+x^2+x+1", "--f2", "x^6+x^3+1"], 0, id="vee-24"),
            pytest.param(["enumerate", "--degree", "8", "--exponent", "51"], 0, id="enumerate-8"),
            pytest.param(["enumerate", "--degree", "10", "--exponent", "93"], 0, id="enumerate-10"),
            pytest.param(["classify", "--f1", "x^3+x+1", "--f2", "x^4+x+1"], 0, id="classify-3x4"),
            pytest.param(["classify", "--f1", "x^4+x+1", "--f2", "x^5+x^2+1"], 0, id="classify-4x5"),
            # the refused inputs of the benchmark's cli workload
            pytest.param(["vee", "--f1", "x^4+y+1", "--f2", "x^3+x+1"], 2, id="refused-parse"),
            pytest.param(["construct", "--poly", "x^4+x^2+1", "--r1", "3", "--r2", "5"], 2,
                         id="refused-nonuniform"),
            pytest.param(["check-fold", "--poly", "x^4+x+1", "--r1", "3", "--r2", "7",
                          "--n1", "2", "--n2", "2"], 2, id="refused-exponent"),
        ],
    )
    def test_algebra_commands_leave_numpy_unloaded(self, argv, want):
        code, numpy_loaded, _ = fresh_cli(*argv)
        assert code == want
        assert not numpy_loaded

    # irreducible, with orders that need the committed primes of 2^n - 1
    @pytest.mark.parametrize(
        "poly", ["x^49+x^9+1", "x^61+x^5+x^2+x+1", "x^67+x^5+x^2+x+1", "x^127+x+1"]
    )
    def test_orders_leave_sympy_unloaded(self, poly):
        proc = fresh(
            "import sys\n"
            "from prarray.gf2poly import exponent, parse\n"
            "f = parse(sys.argv[1])\n"
            "print(exponent(f) == (1 << f.degree) - 1, 'sympy' in sys.modules)\n",
            poly,
        )
        assert proc.stdout == "True False\n", proc.stderr

    def test_degree67_refusal_leaves_sympy_unloaded(self):
        proc = fresh(
            "import sys\n"
            "from prarray.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'sympy' in sys.modules)\n",
            "check-fold", "--poly", "x^67+x^5+x^2+x+1", "--r1", "7", "--r2", "13",
            "--n1", "3", "--n2", "4",
        )
        assert proc.stdout == "2 False\n"
        assert proc.stderr == (
            "error: exponent of x^67+x^5+x^2+x+1 is 147573952589676412927, but r1*r2 = 91\n"
        )

    def test_bare_import_and_every_public_name(self):
        proc = fresh(
            "import sys, prarray\n"
            "print('numpy' in sys.modules, 'prarray.gf2field' in sys.modules)\n"
            "print([n for n in prarray.__all__ if getattr(prarray, n, None) is None])\n"
            "print('numpy' in sys.modules, 'prarray.gf2field' in sys.modules)\n"
            "from prarray import gf2field, parse\n"
            "print(gf2field.FieldContext(parse('x^4+x+1')).alpha.order())\n"
        )
        assert proc.stdout.splitlines() == ["False False", "[]", "True False", "15"], proc.stderr

    @staticmethod
    def digest(doc, **replace):
        doc = dict(doc, **replace)
        doc.pop("wall_time_s")
        doc["verdicts"] = [{k: v for k, v in d.items() if k != "elapsed_s"} for d in doc["verdicts"]]
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]

    def test_oracle_commands_keep_their_documents(self, tmp_path):
        # digests of the documents as these commands printed them when
        # every module was imported at start-up; check-fold's since it
        # reports the set-polynomial rank once, not also as a
        # trace-basis determinant verdict, and construct's since --out
        # takes the arrays out of the document
        path = str(tmp_path / "code.txt")
        code, numpy_loaded, doc = fresh_cli(
            "construct", "--poly", "x^4+x+1", "--r1", "3", "--r2", "5",
            "--n1", "2", "--n2", "2", "--out", path,
        )
        assert (code, numpy_loaded) == (0, True)
        assert self.digest(doc) == "839590583ff5c116"
        code, numpy_loaded, doc = fresh_cli("verify", "--in", path)
        assert (code, numpy_loaded) == (0, True)
        assert self.digest(doc, inputs={"infile": "code.txt"}) == "b5ac7bdda63c521a"
        code, numpy_loaded, doc = fresh_cli(
            "check-fold", "--poly", "x^6+x^5+x^4+x^2+1", "--r1", "3", "--r2", "7",
            "--n1", "2", "--n2", "3", "--criterion", "all",
        )
        assert (code, numpy_loaded) == (0, True)
        assert self.digest(doc) == "2b6108b397bbb180"
