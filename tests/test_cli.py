import json
from time import perf_counter

import pytest

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

    def test_construct_stdout(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--poly", "x^4+x+1", "--r1", "3", "--r2", "5"
        )
        assert code == 0
        assert len([ln for ln in out.splitlines() if ln]) == 3


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
