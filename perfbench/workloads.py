"""Seeded operation lists for the four workloads, with output checks.

Each workload's ``build(seed, ctx)`` returns a ``Workload``: a fixed
list of operations (one round) plus per-operation deadlines.  The seed
picks polynomials and parameters inside fixed (degree, exponent)
classes, so the work in a round does not depend on the seed.  Every
operation returns a JSON-able record of its verdicts and witnesses (the
run digest is taken over these) and raises ``CheckFailed`` when an
output disagrees with an oracle or a golden value.

Operations call ``prarray`` through module attributes
(``criteria.det_test``), so a traced round can rebind them.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass

from prarray import criteria, folding, gf2field, gf2poly, lfsr, verify
from prarray.folding import CodeParams
from prarray.gf2poly import BinaryPolynomial, parse


class CheckFailed(Exception):
    """An output disagreed with its oracle or golden value."""


def check(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    run: object  # callable(state) -> record
    deadline_s: float


@dataclass
class Workload:
    ops: list
    min_rounds: int = 1


def divisors(m):
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return sorted(set(small + [m // d for d in small]))


def pick_polys(rng, degree, e, k):
    """k distinct irreducible polynomials of this degree and exponent
    (all of them if the class is smaller), chosen by the seed."""
    count = gf2poly.count_irreducible_with_exponent(e)
    if count <= 64:
        pool = gf2poly.enumerate_irreducible(degree, e)
        return sorted(rng.sample(pool, min(k, len(pool))))
    picks = set()
    while len(picks) < k:
        f = BinaryPolynomial(1 << degree | rng.getrandbits(degree - 1) << 1 | 1)
        if gf2poly.is_irreducible(f) and gf2poly.exponent(f) == e:
            picks.add(f)
    return sorted(picks)


def _witness(rep):
    w = rep.witness
    return None if w is None else [w.kind, w.message, w.array_index, w.position, w.code]


# --------------------------------------------------------------------------
# sweep: the criterion-9 agreement sweep, sampled by (degree, exponent) class

SWEEP_DEGREES = range(8, 15)
SWEEP_PER_CLASS = 2
SWEEP_DEADLINE_S = 5.0


def sweep_classes():
    """[(degree, exponent, [CodeParams...])] for every class with a case."""
    out = []
    for d in SWEEP_DEGREES:
        for e in divisors((1 << d) - 1):
            if e < 3 or gf2poly.ord2(e) != d:
                continue
            cases = []
            for r1 in divisors(e):
                r2 = e // r1
                if math.gcd(r1, r2) != 1:
                    continue
                for n1 in divisors(d):
                    params = CodeParams(r1, r2, n1, d // n1)
                    if params.violation() is None:
                        cases.append(params)
            if cases:
                out.append((d, e, cases))
    return out


def _sweep_case(f, e, params, state):
    if state.get("poly") != f:
        # charged to the first case of each polynomial
        check(gf2poly.is_irreducible(f), f"{f} is not irreducible")
        check(gf2poly.exponent(f) == e, f"{f} does not have exponent {e}")
        state.clear()
        state["poly"] = f
        state["zf"] = lfsr.zero_factor(f)
    key = (params.r1, params.r2)
    arrays = state.get(key)
    if arrays is None:
        arrays = state[key] = folding.fold_zero_factor(state["zf"], *key)
    pos = criteria.window_positions(params)
    sp = criteria.setpoly_test(f, pos)
    tr = criteria.trace_independence_test(f, params)
    dt = criteria.det_test([f], params)
    ce = verify.window_census(arrays, params.n1, params.n2, params)
    verdicts = [sp.passed, tr.passed, dt.passed, ce.passed]
    check(len(set(verdicts)) == 1, f"criteria disagree for {f} at {params}: {verdicts}")
    return [f.compact(), str(params), verdicts[0], _witness(sp), _witness(dt), _witness(ce)]


def build_sweep(seed, ctx):
    rng = random.Random(f"sweep:{seed}")
    ops = []
    for d, e, cases in sweep_classes():
        for f in pick_polys(rng, d, e, SWEEP_PER_CLASS):
            for params in cases:
                ops.append(
                    Op(f"case.d{d}", lambda st, f=f, e=e, p=params: _sweep_case(f, e, p, st),
                       SWEEP_DEADLINE_S)
                )
    return Workload(ops)


# --------------------------------------------------------------------------
# large: a few codes at the top of the brute-force range

LARGE_CODES = (
    # (label, degree, exponent, params, expected verdict)
    ("primitive-20", 20, (1 << 20) - 1, CodeParams(3, 349525, 2, 10), True),
    ("exponent-451", 20, 451, CodeParams(11, 41, 4, 5), False),
    ("exponent-1025", 20, 1025, CodeParams(25, 41, 4, 5), True),
    ("degree-23", 23, 47, CodeParams(1, 47, 1, 23), True),
)
LARGE_DEADLINE_S = 150.0


def _large_code(f, params, expected):
    zf = lfsr.zero_factor(f)
    check(len(zf.cycles) == params.codeword_count(), f"{f}: {len(zf.cycles)} cycles")
    arrays = folding.fold_zero_factor(zf, params.r1, params.r2)
    del zf
    ce = verify.window_census(arrays, params.n1, params.n2, params)
    del arrays
    sp = criteria.setpoly_test(f, criteria.window_positions(params))
    dt = criteria.det_test([f], params)
    verdicts = [ce.passed, sp.passed, dt.passed]
    check(verdicts == [expected] * 3, f"{f} at {params}: verdicts {verdicts}, want {expected}")
    if not expected:
        # a linear code that fails has a nonzero codeword with a zero window
        check(ce.witness.kind == "zero-window", f"witness kind {ce.witness.kind}")
    return [f.compact(), str(params), expected, _witness(ce), _witness(sp), _witness(dt)]


def build_large(seed, ctx):
    rng = random.Random(f"large:{seed}")
    ops = []
    for label, d, e, params, expected in LARGE_CODES:
        if gf2poly.count_irreducible_with_exponent(e) <= 64:
            # keep the members whose code has the verdict this slot stands for
            pool = [
                f for f in gf2poly.enumerate_irreducible(d, e)
                if criteria.setpoly_test(f, criteria.window_positions(params)).passed == expected
            ]
            check(pool, f"no {label} polynomial with verdict {expected}")
            f = rng.choice(pool)
        else:
            f = pick_polys(rng, d, e, 1)[0]
        ops.append(Op(f"code.{label}", lambda st, f=f, p=params, x=expected: _large_code(f, p, x),
                      LARGE_DEADLINE_S))
    return Workload(ops)


# --------------------------------------------------------------------------
# algebra: analytic routes only, beyond census range

# criterion-4 goldens: vee(f1, f2) == g
VEE_GOLDENS = (
    ("x^4+x+1", "x^3+x+1", "x^12+x^9+x^5+x^4+x^3+x+1"),
    ("x^4+x+1", "x^3+x^2+1", "x^12+x^8+x^6+x^5+x^3+x^2+1"),
    ("x^4+x^3+1", "x^3+x+1", "x^12+x^10+x^9+x^7+x^6+x^4+1"),
    ("x^4+x^3+1", "x^3+x^2+1", "x^12+x^11+x^9+x^8+x^7+x^3+1"),
    ("x^4+x^3+x^2+x+1", "x^6+x^3+1", "x^24+x^21+x^15+x^12+x^9+x^3+1"),
    ("x^4+x^3+x^2+x+1", "x^3+x^2+1", "x^12+x^11+x^10+x^8+x^5+x^4+x^3+x^2+1"),
)
VEE60 = (
    "x^6+x^5+x^4+x^3+x^2+x+1",
    "x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^3+x^2+x+1",
    (
        "x^30+x^28+x^27+x^26+x^23+x^21+x^20+x^19+x^16+x^14"
        "+x^13+x^12+x^9+x^8+x^7+x^4+x^2+x+1",
        "x^30+x^29+x^28+x^26+x^23+x^22+x^21+x^18+x^17+x^16"
        "+x^14+x^11+x^10+x^9+x^7+x^4+x^3+x^2+1",
    ),
)
# criterion-10 codes at window areas 48 and 60: (f1, f2, r1, r2, n1, n2)
DET_CODES = (
    ("x^3+x^2+1", "x^3+x+1", "x^4+x^3+1", "x^4+x+1", 7, 15, 6, 8),
    ("x^6+x^5+x^4+x^3+x^2+x+1", None,
     "x^10+x^9+x^8+x^7+x^6+x^5+x^4+x^3+x^2+x+1", None, 7, 11, 6, 10),
)
# Exponents for enumerate_irreducible: every odd e <= 255, then every
# 128th odd e up to 2047.  The set is fixed, not seeded: the cost of one
# exponent varies a hundredfold with how soon the equal-degree split
# succeeds, so a seeded sample would make the work depend on the seed.
ALGEBRA_EXPONENTS = tuple(range(3, 256, 2)) + tuple(range(257, 2048, 128))
# (degree, exponent) classes of the factors of classify_construction
# pairs; coprime exponents, product degrees 12 to 70
CLASSIFY_PAIRS = (
    ((3, 7), (4, 15)),
    ((4, 15), (5, 31)),
    ((5, 31), (6, 63)),
    ((5, 31), (7, 127)),
    ((5, 31), (9, 73)),
    ((7, 127), (8, 255)),
    ((7, 127), (9, 511)),
    ((6, 63), (11, 89)),
    ((7, 127), (10, 93)),
)
CLASSIFY_PER_PAIR = 3
# FieldElement.order factors 2^n - 1, which is cheap up to this degree
FIELD_ORDER_MAX_DEGREE = 64
ALGEBRA_DEADLINE_S = 30.0


def _exponent_op(e):
    n = gf2poly.ord2(e)
    polys = gf2poly.enumerate_irreducible(n, e)
    want = gf2poly.count_irreducible_with_exponent(e)
    check(len(polys) == want, f"e={e}: enumerated {len(polys)}, counted {want}")
    primes = [p for p in divisors(e)[1:] if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for f in polys:
        check(gf2poly.exponent(f) == e, f"{f}: exponent differs from {e}")
        alpha = gf2field.FieldContext(f).alpha
        if n <= FIELD_ORDER_MAX_DEGREE:
            check(alpha.order() == e, f"{f}: field order differs from {e}")
        else:
            # order() factors 2^n - 1; beyond that size, test alpha^e = 1
            # and alpha^(e/p) != 1 for each prime p of e instead
            one = alpha.ctx.one
            check(alpha ** e == one and all(alpha ** (e // p) != one for p in primes),
                  f"{f}: alpha does not have order {e}")
    return [e, n, len(polys), [f.compact() for f in polys[:4]]]


def _classify_op(f1, f2):
    rec = criteria.classify_construction(f1, f2)
    g = rec.g
    check(g.degree == f1.degree * f2.degree, f"vee degree {g.degree}")
    return [f1.compact(), f2.compact(), g.compact(), list(rec.types), str(rec.params)]


def _vee_golden_op(f1, f2, g):
    got = criteria.vee(parse(f1), parse(f2))
    check(got == parse(g), f"vee({f1}, {f2}) = {got}, golden {g}")
    return [f1, f2, got.compact()]


def _vee60_op():
    f1, f2, parts = VEE60
    g = criteria.vee(parse(f1), parse(f2))
    got = gf2poly.factor(g)
    check(got == sorted(parse(p) for p in parts), f"factor(vee) = {got}")
    check(all(gf2poly.exponent(p) == 77 for p in got), "factor exponents differ from 77")
    return [g.compact()]


def _det_code_op(code):
    a1, b1, a2, b2, r1, r2, n1, n2 = code
    f1 = parse(a1) * parse(b1) if b1 else parse(a1)
    f2 = parse(a2) * parse(b2) if b2 else parse(a2)
    g = criteria.vee(f1, f2)
    check(g.degree == n1 * n2, f"vee degree {g.degree}")
    check(gf2poly.exponent(g) == r1 * r2, "vee exponent differs from r1*r2")
    parts = gf2poly.factor(g)
    check(all(gf2poly.is_irreducible(p) for p in parts), "reducible factor")
    rep = criteria.det_test(parts, CodeParams(r1, r2, n1, n2))
    check(rep.passed, f"det_test fails at ({r1},{r2};{n1},{n2})")
    return [g.compact(), rep.detail["rank"]]


def build_algebra(seed, ctx):
    rng = random.Random(f"algebra:{seed}")
    ops = [Op("enumerate", lambda st, e=e: _exponent_op(e), ALGEBRA_DEADLINE_S)
           for e in ALGEBRA_EXPONENTS]
    for (d1, e1), (d2, e2) in CLASSIFY_PAIRS:
        for f1, f2 in zip(pick_polys(rng, d1, e1, CLASSIFY_PER_PAIR),
                          pick_polys(rng, d2, e2, CLASSIFY_PER_PAIR)):
            ops.append(Op(f"classify.{d1}x{d2}", lambda st, a=f1, b=f2: _classify_op(a, b),
                          ALGEBRA_DEADLINE_S))
    for f1, f2, g in VEE_GOLDENS:
        ops.append(Op("vee.golden", lambda st, a=f1, b=f2, g=g: _vee_golden_op(a, b, g),
                      ALGEBRA_DEADLINE_S))
    ops.append(Op("vee.golden60", lambda st: _vee60_op(), ALGEBRA_DEADLINE_S))
    for code in DET_CODES:
        ops.append(Op(f"det.area{code[6] * code[7]}", lambda st, c=code: _det_code_op(c),
                      ALGEBRA_DEADLINE_S))
    return Workload(ops)


# --------------------------------------------------------------------------
# cli: one `prarray` subprocess per operation

CLI_DEADLINE_S = 60.0
REFUSE_DEADLINE_S = 2.0


def strip_timing(doc):
    """The document without the fields that vary between identical runs.

    The README names only wall_time_s, but check-fold and verify also
    put elapsed_s into each entry of verdicts.
    """
    doc = dict(doc)
    doc.pop("wall_time_s", None)
    doc["verdicts"] = [
        {k: v for k, v in verdict.items() if k != "elapsed_s"} for verdict in doc.get("verdicts", [])
    ]
    return doc


@dataclass
class CliContext:
    root: str  # checkout root; the subprocess runs there
    work: str  # scratch directory inside the checkout


def cli_call(ctx, argv, deadline_s):
    """(exit code or None on deadline, stdout, stderr) of one subprocess."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "prarray.cli", *argv],
            cwd=ctx.root, env=env, capture_output=True, text=True, timeout=deadline_s,
        )
    except subprocess.TimeoutExpired:
        return None, "", ""
    return proc.returncode, proc.stdout, proc.stderr


def _cli_op(ctx, argv, want_exit, checker, deadline_s):
    code, out, err = cli_call(ctx, argv, deadline_s)
    check(code is not None, f"{argv[0]}: no answer within {deadline_s}s")
    check(code == want_exit, f"{' '.join(argv)}: exit {code}, want {want_exit}: {err[-300:]}")
    if want_exit == 2:
        check(err.startswith("error:"), f"{argv[0]}: refusal without a message: {err[-300:]}")
        return [argv[0], code]
    doc = json.loads(out)
    if checker is not None:
        checker(doc)
    # the worker compares this record with the first round's, so a
    # document that changes between identical runs fails there
    return [argv[0], code, strip_timing(doc)]


def _arrays_text(arrays, params):
    buf = io.StringIO()
    folding.write_arrays(buf, arrays, params)
    return buf.getvalue()


def build_cli(seed, ctx):
    rng = random.Random(f"cli:{seed}")
    os.makedirs(ctx.work, exist_ok=True)
    specs = []  # (argv, want_exit, checker, deadline)

    def add(argv, want_exit=0, checker=None, deadline=CLI_DEADLINE_S):
        specs.append((argv, want_exit, checker, deadline))

    # construct, then verify the file and a copy with one bit flipped
    p91 = CodeParams(7, 13, 3, 4)
    f = pick_polys(rng, 12, 91, 1)[0]
    arrays = folding.fold_zero_factor(lfsr.zero_factor(f), 7, 13)
    golden = _arrays_text(arrays, p91)
    code_path = os.path.join(ctx.work, "code.txt")
    flip_path = os.path.join(ctx.work, "flipped.txt")
    lines = golden.splitlines(keepends=True)
    row = 1 + rng.randrange(len(lines) - 1)
    while not lines[row].strip():
        row = 1 + rng.randrange(len(lines) - 1)
    col = rng.randrange(13)
    lines[row] = lines[row][:col] + "10"[int(lines[row][col])] + lines[row][col + 1:]
    with open(flip_path, "w", encoding="ascii") as fh:
        fh.write("".join(lines))

    def construct_check(doc):
        check(doc["counts"] == {"arrays": 45, "exponent": 91}, f"construct counts {doc['counts']}")
        with open(code_path, encoding="ascii") as fh:
            check(fh.read() == golden, "construct wrote other arrays than fold_zero_factor")

    def verify_check(passed):
        def checker(doc):
            top = doc["verdicts"][0]
            check((top["verdict"] == "pass") == passed, f"verify verdict {top['verdict']}")
            check(passed or doc["witnesses"], "failed verify without a witness")
        return checker

    add(["construct", "--poly", f.compact(), "--r1", "7", "--r2", "13", "--n1", "3", "--n2", "4",
         "--out", code_path, "--format", "json"], 0, construct_check)
    add(["verify", "--in", code_path, "--format", "json"], 0, verify_check(True))
    add(["verify", "--in", flip_path, "--format", "json"], 1, verify_check(False))

    # check-fold: the oracle verdict comes from the library's rank test
    for d, e, params in ((12, 455, CodeParams(13, 35, 3, 4)), (12, 91, p91)):
        g = pick_polys(rng, d, e, 1)[0]
        want = criteria.setpoly_test(g, criteria.window_positions(params)).passed

        def fold_check(doc, want=want):
            got = {v["criterion"]: v["verdict"] for v in doc["verdicts"]}
            exact = {got[k] for k in ("set-polynomial", "determinant", "census")}
            check(exact == {"pass" if want else "fail"}, f"check-fold verdicts {got}")
            check(doc["counts"]["agreement"] is True, "check-fold reports disagreement")

        add(["check-fold", "--poly", g.compact(), "--r1", str(params.r1), "--r2", str(params.r2),
             "--n1", str(params.n1), "--n2", str(params.n2), "--criterion", "all",
             "--format", "json"], 0 if want else 1, fold_check)

    for f1, f2, g in rng.sample(VEE_GOLDENS, 2):
        def vee_check(doc, g=g):
            check(parse(doc["result"]["symbolic"]) == parse(g), f"vee gave {doc['result']}")
        add(["vee", "--f1", f1, "--f2", f2, "--format", "json"], 0, vee_check)

    for n in (8, 10):
        e = rng.choice([e for e in divisors((1 << n) - 1) if e > 2 and gf2poly.ord2(e) == n])
        want = gf2poly.count_irreducible_with_exponent(e)

        def enum_check(doc, want=want):
            check(doc["counts"]["polynomials"] == want, f"enumerate counted {doc['counts']}")
        add(["enumerate", "--degree", str(n), "--exponent", str(e), "--format", "json"], 0,
            enum_check)

    for (d1, e1), (d2, e2) in rng.sample(CLASSIFY_PAIRS[:5], 2):
        f1 = pick_polys(rng, d1, e1, 1)[0]
        f2 = pick_polys(rng, d2, e2, 1)[0]
        want = criteria.classify_construction(f1, f2).to_kv()

        def classify_check(doc, want=want):
            check(doc["record"] == want, f"classify record {doc['record']}")
        add(["classify", "--f1", f1.compact(), "--f2", f2.compact(), "--format", "json"], 0,
            classify_check)

    def conjecture_check(doc):
        check(doc["counts"]["counterexamples"] == 0, f"conjecture counts {doc['counts']}")
    add(["conjecture", "--n1", "2", "--n2", "3", "--r1", "3", "--r2", "7", "--kmax", "2",
         "--format", "json"], 0, conjecture_check)

    # refused inputs: exit 2 with a message, within a short deadline
    add(["vee", "--f1", "x^4+y+1", "--f2", "x^3+x+1", "--format", "json"], 2,
        deadline=REFUSE_DEADLINE_S)
    add(["construct", "--poly", "x^4+x^2+1", "--r1", "3", "--r2", "5", "--format", "json"], 2,
        deadline=REFUSE_DEADLINE_S)
    add(["check-fold", "--poly", "x^4+x+1", "--r1", "3", "--r2", "7", "--n1", "2", "--n2", "2",
         "--format", "json"], 2, deadline=REFUSE_DEADLINE_S)

    ops = [
        Op(f"cli.{argv[0]}", lambda st, a=argv, w=want, c=chk, t=dl: _cli_op(ctx, a, w, c, t), dl)
        for argv, want, chk, dl in specs
    ]
    # two rounds at least, so every document is compared with a repeat
    return Workload(ops, min_rounds=2)


# Refused inputs that the program mishandles today; probed in a traced
# cli run and reported as per-layer counts, not as failed operations.
KNOWN_DEFECT_PROBES = (
    ("unwritable-out", ["construct", "--poly", "x^4+x+1", "--r1", "3", "--r2", "5",
                        "--out", "{work}/code.txt/blocked.txt"]),
    ("enumerate-huge", ["enumerate", "--degree", "40", "--exponent", "1000000000039"]),
    ("exponent-span67", ["check-fold", "--poly", "x^67+x^5+x^2+x+1", "--r1", "7", "--r2", "13",
                         "--n1", "3", "--n2", "4"]),
)


def probe_known_defects(ctx):
    """{label: exit code or None (deadline)}; 2 is the correct refusal."""
    out = {}
    for label, argv in KNOWN_DEFECT_PROBES:
        argv = [a.replace("{work}", ctx.work) for a in argv]
        code, _, _ = cli_call(ctx, argv, REFUSE_DEADLINE_S)
        out[label] = code
    return out


BUILDERS = {
    "sweep": build_sweep,
    "large": build_large,
    "algebra": build_algebra,
    "cli": build_cli,
}
