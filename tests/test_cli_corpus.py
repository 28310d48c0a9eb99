"""Golden CLI corpus: every document the command line prints, pinned.

Each case runs ``prarray.cli.main`` in process, in one scratch working
directory (so file names in documents and messages are relative), with
``COLUMNS=80`` for argparse's help and usage text.  It records the exit
code and sha256 digests of stdout, stderr and every file the case
writes.  The timing fields ``wall_time_s`` and ``elapsed_s`` are set to
0 in the text before it is hashed, so a digest pins every other byte of
a document, its layout included.  A change that alters a document, a
message or a ``--help`` text updates ``cli_corpus.json`` by running
this file as a script and says why in CHANGES.md.

    PYTHONPATH=src python tests/test_cli_corpus.py   # rewrite the digests
"""

import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from prarray.cli import main

CORPUS = Path(__file__).with_name("cli_corpus.json")

DEG12 = "x^12+x^10+x^9+x+1"  # the (7,13;3,4) code of 45 arrays
FOLD12 = ["--r1", "7", "--r2", "13", "--n1", "3", "--n2", "4"]
F4 = "1010011011111"  # passes (13,35;4,3), where the sufficient conditions fail
SETPOLY_FAIL = "1011101001111"  # fails (13,35;4,3)
FACTORS = "x^6+x^5+x^4+x^2+1,x^6+x^4+x^2+x+1"
# a degree-30 factor of exponent 77 of vee(x^6+...+1, x^10+...+1)
DEGREE30 = (
    "x^30+x^28+x^27+x^26+x^23+x^21+x^20+x^19+x^16+x^14"
    "+x^13+x^12+x^9+x^8+x^7+x^4+x^2+x+1"
)
# enumerate_irreducible(23, 47)[0]: the code of 178,481 arrays of 1 x 47
DEG23 = "x^23+x^19+x^18+x^14+x^13+x^12+x^10+x^9+x^7+x^6+x^5+x^3+x^2+x+1"
FOLD23 = ["--r1", "1", "--r2", "47"]

COMMANDS = ("construct", "verify", "vee", "check-fold", "enumerate", "classify", "conjecture")

# (id, argv), each run as text and, with "--format json" appended, as
# json under the id suffix ".json"
BOTH = [
    ("construct-4", ["construct", "--poly", "x^4+x+1", "--r1", "3", "--r2", "5"]),
    ("construct-12", ["construct", "--poly", DEG12, *FOLD12]),
    ("verify-12", ["verify", "--in", "code12.txt"]),
    ("verify-12-flipped", ["verify", "--in", "flipped12.txt"]),
    ("verify-empty", ["verify", "--in", "empty.txt", "--r1", "3", "--r2", "7",
                      "--n1", "2", "--n2", "3"]),
    ("vee", ["vee", "--f1", "x^4+x+1", "--f2", "x^3+x+1"]),
    ("vee-24", ["vee", "--f1", "x^4+x^3+x^2+x+1", "--f2", "x^6+x^3+1"]),
    *[(f"check-fold-12-{c}", ["check-fold", "--poly", DEG12, *FOLD12, "--criterion", c])
      for c in ("all", "setpoly", "det", "census", "sufficient")],
    ("check-fold-6-all", ["check-fold", "--poly", "x^6+x^5+x^4+x^2+1", "--r1", "3", "--r2", "7",
                          "--n1", "2", "--n2", "3"]),
    ("check-fold-f4-all", ["check-fold", "--poly", F4, "--r1", "13", "--r2", "35",
                           "--n1", "4", "--n2", "3"]),
    ("check-fold-setpoly-fail", ["check-fold", "--poly", SETPOLY_FAIL, "--r1", "13",
                                 "--r2", "35", "--n1", "4", "--n2", "3",
                                 "--criterion", "setpoly"]),
    ("check-fold-fail-all", ["check-fold", "--poly", SETPOLY_FAIL, "--r1", "13", "--r2", "35",
                             "--n1", "4", "--n2", "3"]),
    ("check-fold-exhaustive", ["check-fold", "--poly", DEG12, *FOLD12, "--criterion", "setpoly",
                               "--exhaustive-setpoly"]),
    ("check-fold-factors-all", ["check-fold", "--factors", FACTORS, "--r1", "3", "--r2", "7",
                                "--n1", "2", "--n2", "6"]),
    ("check-fold-factors-det", ["check-fold", "--factors", FACTORS, "--r1", "3", "--r2", "7",
                                "--n1", "2", "--n2", "6", "--criterion", "det"]),
    ("enumerate-12", ["enumerate", "--degree", "12", "--exponent", "91"]),
    ("enumerate-8", ["enumerate", "--degree", "8", "--exponent", "51"]),
    ("classify", ["classify", "--f1", "x^4+x+1", "--f2", "x^3+x+1"]),
    ("classify-4x5", ["classify", "--f1", "x^4+x+1", "--f2", "x^5+x^2+1"]),
    ("conjecture-in-range", ["conjecture", "--n1", "2", "--n2", "3", "--r1", "3", "--r2", "7",
                             "--kmax", "2"]),
    ("conjecture-out-of-range", ["conjecture", "--n1", "3", "--n2", "2", "--r1", "7",
                                 "--r2", "9", "--kmax", "2"]),
    # refusals (exit 2), TestRefusedInputs's among them
    ("refused-parse", ["vee", "--f1", "x^4+y+1", "--f2", "x^3+x+1"]),
    ("refused-bad-exponent", ["vee", "--f1", "x^+1", "--f2", "x^3+x+1"]),
    ("refused-nonuniform", ["construct", "--poly", "x^4+x^2+1", "--r1", "3", "--r2", "5"]),
    ("refused-exponent", ["check-fold", "--poly", "x^4+x+1", "--r1", "3", "--r2", "7",
                          "--n1", "2", "--n2", "2"]),
    ("refused-construct-exponent", ["construct", "--poly", "x^6+x^5+x^4+x^2+1",
                                    "--r1", "3", "--r2", "5"]),
    ("refused-verify-missing", ["verify", "--in", "empty.txt"]),
    ("refused-verify-unreadable", ["verify", "--in", "absent.txt"]),
    ("refused-setpoly-reducible", ["check-fold", "--factors", FACTORS, "--r1", "3", "--r2", "7",
                                   "--n1", "2", "--n2", "6", "--criterion", "setpoly"]),
    ("refused-unwritable-construct", ["construct", "--poly", "x^4+x+1", "--r1", "3", "--r2", "5",
                                      "--out", "blocked.txt/x.txt"]),
    ("refused-unwritable-vee", ["vee", "--f1", "x^4+x+1", "--f2", "x^3+x+1",
                                "--out", "blocked.txt/x.txt"]),
    *[(f"refused-kmax{k}", ["conjecture", "--n1", "2", "--n2", "3", "--r1", "3", "--r2", "7",
                            "--kmax", k]) for k in ("0", "-5")],
    *[(f"refused-noncoprime-{r2}", ["conjecture", "--n1", "2", "--n2", "3", "--r1", "3",
                                    "--r2", r2]) for r2 in ("9", "21")],
    ("refused-enumerate-huge", ["enumerate", "--degree", "40", "--exponent", "1000000000039"]),
    ("refused-conjecture-huge", ["conjecture", "--n1", "2", "--n2", "3", "--r1", "1000003",
                                 "--r2", "1000033"]),
    ("refused-degree67", ["check-fold", "--poly", "x^67+x^5+x^2+x+1", *FOLD12]),
    *[(f"refused-taller-{c}", ["check-fold", "--poly", "x^6+x^3+1", "--r1", "1", "--r2", "9",
                               "--n1", "2", "--n2", "3", "--criterion", c])
      for c in ("det", "setpoly", "all")],
    ("refused-construct-degree30", ["construct", "--poly", DEGREE30, "--r1", "7", "--r2", "11"]),
    ("refused-census-area", ["check-fold", "--poly", DEGREE30, "--r1", "7", "--r2", "11",
                             "--n1", "5", "--n2", "6", "--criterion", "census"]),
    ("refused-nonpositive", ["construct", "--poly", "x^4+x+1", "--r1", "-3", "--r2", "-5"]),
    ("refused-nonpositive-24", ["construct", "--poly", "x^24+x^7+x^2+x+1", "--r1", "-1",
                                "--r2", "-16777215"]),
    ("refused-header-23", ["construct", "--poly", DEG23, *FOLD23, "--n1", "0", "--n2", "23"]),
    *[(f"refused-order-cap-{c}", [c, "--f1", "x^13+x^4+x^3+x+1", "--f2", "x^14+x^10+x^6+x+1"])
      for c in ("vee", "classify")],
    *[(f"refused-enumerate-degree{d}", ["enumerate", "--degree", d, "--exponent", e])
      for d, e in (("-3", "7"), ("0", "1"))],
    *[(f"refused-half-window-{h[0][2:]}", ["construct", "--poly", "x^4+x+1", "--r1", "3",
                                          "--r2", "5", *h, "--out", "half.txt"])
      for h in (("--n1", "2"), ("--n2", "2"))],
    # construct headers that verify would refuse
    *[(f"refused-header-{name}", ["construct", "--poly", "x^4+x+1", "--r1", "3", "--r2", "5",
                                  "--n1", n1, "--n2", n2])
      for name, n1, n2 in (("taller", "9", "9"), ("divide", "1", "3"), ("area", "2", "4"))],
    *[(f"refused-exhaustive-{c}", ["check-fold", "--poly", "x^2+x+1", "--r1", "1", "--r2", "3",
                                   "--n1", "1", "--n2", "2", "--criterion", c,
                                   "--exhaustive-setpoly"]) for c in ("census", "det")],
    ("refused-exhaustive-reducible", ["check-fold", "--factors", FACTORS, "--r1", "3", "--r2", "7",
                                      "--n1", "2", "--n2", "6", "--exhaustive-setpoly"]),
    *[(f"refused-verify-{name}", ["verify", "--in", f"{name}.txt"])
      for name in ("header-after-row", "second-header", "header-parameters")],
]

# written files are digested too; these run in text and json form with
# their own output file names
WRITES = [
    ("construct-4-out", ["construct", "--poly", "x^4+x+1", "--r1", "3", "--r2", "5",
                         "--n1", "2", "--n2", "2", "--out", "{out}"]),
    ("construct-12-out", ["construct", "--poly", DEG12, *FOLD12, "--out", "{out}"]),
    ("construct-23-out", ["construct", "--poly", DEG23, *FOLD23, "--n1", "1", "--n2", "23",
                          "--out", "{out}"]),
    ("verify-12-out", ["verify", "--in", "code12.txt", "--out", "{out}"]),
    ("vee-out", ["vee", "--f1", "x^4+x+1", "--f2", "x^3+x+1", "--out", "{out}"]),
]

# the degree-23 code is large, so it is read back in json form only
ONCE = [
    ("verify-23.json", ["verify", "--in", "code23.txt", "--format", "json"]),
    ("check-fold-23-all.json", ["check-fold", "--poly", DEG23, *FOLD23, "--n1", "1",
                                "--n2", "23", "--format", "json"]),
    # argparse's own refusals and help texts
    ("refused-unknown-command", ["frobnicate"]),
    ("refused-missing-flag", ["construct", "--r1", "3", "--r2", "5"]),
    ("help", ["--help"]),
    *[(f"help-{c}", [c, "--help"]) for c in COMMANDS],
]

BAD_HEADERS = {
    "header-after-row": "01\n\n# 1 2 1 1\n10\n",
    "second-header": "# 1 2 1 1\n01\n# 1 2 1 1\n",
    "header-parameters": "# 0 5 1 1\n01\n",
}

_TIMING = re.compile(r'("(?:wall_time_s|elapsed_s)": )-?[0-9][0-9.e+-]*')


def _digest(text):
    return hashlib.sha256(_TIMING.sub(r"\g<1>0", text).encode()).hexdigest()


def cases():
    """(id, argv, written file or None) in run order."""
    out = []
    for cid, argv in BOTH:
        out.append((cid, argv, None))
        out.append((f"{cid}.json", [*argv, "--format", "json"], None))
    for cid, argv in WRITES:
        for suffix, fmt in (("", []), (".json", ["--format", "json"])):
            path = f"{cid}{suffix}.out"
            out.append((f"{cid}{suffix}", [a.format(out=path) for a in argv] + fmt, path))
    out.extend((cid, argv, None) for cid, argv in ONCE)
    return out


def _call(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stdout.getvalue(), stderr.getvalue()


def _prepare(workdir):
    """The input files of the corpus, in workdir."""
    def write(name, text):
        (workdir / name).write_text(text, encoding="ascii")

    code, _, err = _call(["construct", "--poly", DEG12, *FOLD12, "--out", "code12.txt"])
    assert code == 0, err
    text = (workdir / "code12.txt").read_text(encoding="ascii")
    idx = text.index("\n", text.index("\n") + 1) - 1  # last cell of the first row
    write("flipped12.txt", text[:idx] + "10"[int(text[idx])] + text[idx + 1:])
    code, _, err = _call(["construct", "--poly", DEG23, *FOLD23, "--n1", "1", "--n2", "23",
                          "--out", "code23.txt"])
    assert code == 0, err
    write("empty.txt", "")
    write("blocked.txt", "")
    for name, text in BAD_HEADERS.items():
        write(f"{name}.txt", text)


def record_corpus(workdir):
    """{id: {"exit", "stdout", "stderr"[, "file"]}} for every case,
    run with workdir as the working directory."""
    previous = os.getcwd()
    columns = os.environ.get("COLUMNS")
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"
    try:
        _prepare(Path(workdir))
        records = {}
        for cid, argv, path in cases():
            code, out, err = _call(argv)
            rec = {"exit": code, "stdout": _digest(out), "stderr": _digest(err)}
            if path is not None:
                rec["file"] = _digest(Path(path).read_text(encoding="ascii"))
            records[cid] = rec
        return records
    finally:
        os.chdir(previous)
        if columns is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = columns


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    return record_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_case(golden):
    assert sorted(golden) == sorted(cid for cid, _, _ in cases())


@pytest.mark.parametrize("cid", [cid for cid, _, _ in cases()])
def test_document_unchanged(recorded, golden, cid):
    assert recorded[cid] == golden[cid]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        corpus = record_corpus(tmp)
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(corpus)} digests to {CORPUS}")
