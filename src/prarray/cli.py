"""Command-line front end.

Subcommands: construct, verify, vee, check-fold, enumerate, classify,
conjecture.  Exit status: 0 = pass, 1 = verification failed (with a
witness), 2 = usage or input error.

Structured output (--format json) is a single document with the fields
command, inputs, params, verdicts, witnesses, counts and wall_time_s;
identical invocations produce identical documents apart from the
timing fields, wall_time_s and the elapsed_s of each verdict.

vee, enumerate, classify and every refusal run on the int algebra
alone; the handlers that fold, read or census arrays import the numpy
grid oracle when they reach it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import criteria
from .criteria import CodeParams
from .gf2poly import (
    InternalCheckError,
    ParseError,
    classify,
    enumerate_irreducible,
    parse,
)
from .lfsr import _ZERO_FACTOR_DEGREE_CAP


class _UsageError(ValueError):
    pass


def _poly_arg(text):
    try:
        return parse(text)
    except ParseError as exc:
        raise _UsageError(f"bad polynomial {text!r}: {exc}") from exc


def _require_uniform(poly, r1, r2):
    # refused before any classification or fold work
    if r1 < 1 or r2 < 1:
        raise _UsageError(f"fold needs positive dimensions, got {r1} and {r2}")
    cls = classify(poly)
    if not cls.is_uniform:
        raise _UsageError(f"{poly} does not have a uniform exponent (kind {cls.kind})")
    if cls.exponent != r1 * r2:
        raise _UsageError(
            f"exponent of {poly} is {cls.exponent}, but r1*r2 = {r1 * r2}"
        )
    return cls


def _write_out(path, write):
    """Open path for writing and hand the file to write(fh)."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            write(fh)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _json_text(doc):
    """json.dumps(doc, indent=2, sort_keys=True), with the construct
    document's arrays block (lists of row strings) encoded by the C
    encoder, which an indent would turn off, and spliced in."""
    arrays = doc.get("arrays")
    if not arrays or not all(arrays):
        return json.dumps(doc, indent=2, sort_keys=True)
    head, _, tail = json.dumps({**doc, "arrays": 0}, indent=2, sort_keys=True).partition(
        '\n  "arrays": 0'
    )
    # an encoded string holds no raw newline, so each "],<newline>" here
    # ends an array
    rows = json.dumps(arrays, separators=(",\n      ", ": "))[2:-2]
    block = rows.replace("],\n      [", "\n    ],\n    [\n      ")
    return f'{head}\n  "arrays": [\n    [\n      {block}\n    ]\n  ]{tail}'


class _Run:
    """Collects the structured document for one invocation."""

    def __init__(self, command, inputs):
        self.doc = {
            "command": command,
            "inputs": inputs,
            "params": None,
            "verdicts": [],
            "witnesses": [],
            "counts": {},
        }
        self.text = []
        self.started = time.perf_counter()

    def set_params(self, params):
        self.doc["params"] = {
            "r1": params.r1,
            "r2": params.r2,
            "n1": params.n1,
            "n2": params.n2,
        }

    def add_report(self, rep, elapsed=None):
        kv = rep.to_kv()
        if elapsed is not None:
            kv["elapsed_s"] = round(elapsed, 6)
        self.doc["verdicts"].append(kv)
        if rep.witness is not None:
            self.doc["witnesses"].append(rep.witness.to_kv())
        self.text.append(rep.to_text())

    def emit(self, fmt, path=None):
        self.doc["wall_time_s"] = round(time.perf_counter() - self.started, 6)
        if fmt == "json":
            payload = _json_text(self.doc) + "\n"
        else:
            payload = "\n".join(self.text) + "\n"
        if path:
            _write_out(path, lambda fh: fh.write(payload))
        else:
            sys.stdout.write(payload)


def _cmd_construct(args):
    if (args.n1 is None) != (args.n2 is None):
        raise _UsageError("construct needs both --n1 and --n2, or neither")
    poly = _poly_arg(args.poly)
    cls = _require_uniform(poly, args.r1, args.r2)
    if poly.degree > _ZERO_FACTOR_DEGREE_CAP:
        raise _UsageError(f"construct is capped at degree {_ZERO_FACTOR_DEGREE_CAP}")
    # a bad header is refused before the zero factor is walked
    header = None if args.n1 is None else CodeParams(args.r1, args.r2, args.n1, args.n2)
    from .folding import _lines, fold_zero_factor, write_arrays
    from .lfsr import zero_factor

    run = _Run("construct", {"poly": str(poly), "r1": args.r1, "r2": args.r2})
    if header is not None:
        run.set_params(header)
    zf = zero_factor(poly)
    arrays = fold_zero_factor(zf, args.r1, args.r2)
    run.doc["counts"] = {"arrays": len(arrays), "exponent": cls.exponent}
    if args.format == "json":
        run.doc["arrays"] = _lines(arrays)
    if args.out:
        _write_out(args.out, lambda fh: write_arrays(fh, arrays, header))
        run.text.append(f"wrote {len(arrays)} arrays to {args.out}")
    elif args.format == "text":
        write_arrays(sys.stdout, arrays, header)
        return 0
    run.emit(args.format)
    return 0


def _cmd_verify(args):
    from .folding import read_arrays
    from .verify import verify_prac

    try:
        with open(args.infile, encoding="ascii") as fh:
            arrays, header = read_arrays(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read {args.infile}: {exc}") from exc
    fields = {"r1": args.r1, "r2": args.r2, "n1": args.n1, "n2": args.n2}
    if header is not None:
        for name in fields:
            if fields[name] is None:
                fields[name] = getattr(header, name)
    if any(v is None for v in fields.values()):
        missing = [k for k, v in fields.items() if v is None]
        raise _UsageError(f"missing parameters {missing} (no file header)")
    params = CodeParams(**fields)
    run = _Run("verify", {"infile": args.infile})
    run.set_params(params)
    started = time.perf_counter()
    rep = verify_prac(arrays, params)
    run.add_report(rep, time.perf_counter() - started)
    run.doc["verdicts"].extend(rep.detail["stages"])
    run.doc["counts"] = {"arrays": len(arrays)}
    run.emit(args.format, args.out)
    return 0 if rep.passed else 1


def _cmd_vee(args):
    f1 = _poly_arg(args.f1)
    f2 = _poly_arg(args.f2)
    g, c1, c2 = criteria._vee_and_classes(f1, f2)
    kinds = [c1.kind, c2.kind, classify(g).kind]
    run = _Run("vee", {"f1": str(f1), "f2": str(f2)})
    run.doc["result"] = {
        "symbolic": str(g),
        "compact": g.compact(),
        "kinds": kinds,
    }
    run.doc["counts"] = {"degree": g.degree}
    run.text.append(f"f1 ({kinds[0]}): {f1}")
    run.text.append(f"f2 ({kinds[1]}): {f2}")
    run.text.append(f"f1 v f2 ({kinds[2]}): {g}")
    run.text.append(f"compact: {g.compact()}")
    run.emit(args.format, args.out)
    return 0


_EXACT_CRITERIA = ("set-polynomial", "determinant", "census")


def _cmd_check_fold(args):
    factors = None
    if args.poly:
        poly = _poly_arg(args.poly)
    elif args.factors:
        factors = [_poly_arg(t) for t in args.factors.split(",")]
        poly = factors[0]
        for p in factors[1:]:
            poly = poly * p
    else:
        raise _UsageError("check-fold needs --poly or --factors")
    params = CodeParams(args.r1, args.r2, args.n1, args.n2)
    cls = _require_uniform(poly, args.r1, args.r2)
    factors = factors or cls.factors
    if poly.degree != params.window_area:
        raise _UsageError(
            f"degree {poly.degree} must equal n1*n2 = {params.window_area}"
        )
    run = _Run(
        "check-fold",
        {"poly": str(poly), "criterion": args.criterion},
    )
    run.set_params(params)
    irreducible = len(factors) == 1

    reports = []

    def timed(fn, *fargs, **fkwargs):
        # a None report is a check that was not run
        started = time.perf_counter()
        rep = fn(*fargs, **fkwargs)
        if rep is not None:
            reports.append((rep, time.perf_counter() - started))
        return rep

    want = args.criterion
    if want in ("setpoly", "all"):
        if irreducible:
            pos = criteria.window_positions(params)
            timed(criteria.setpoly_test, poly, pos, exhaustive=args.exhaustive_setpoly)
        elif want == "setpoly":
            raise _UsageError("the set-polynomial criterion needs an irreducible polynomial")
    if want in ("det", "all"):
        timed(criteria.det_test, factors, params)
    if want in ("census", "all"):
        if timed(criteria._fold_census, poly, params) is None and want == "census":
            raise _UsageError(
                "census infeasible: window area or degree above the brute-force caps"
            )
    if want in ("sufficient", "all"):
        timed(criteria.sufficient_conditions, params)

    exact = [r for r, _ in reports if r.criterion in _EXACT_CRITERIA]
    agreement = len({r.passed for r in exact}) <= 1
    if not agreement:
        raise InternalCheckError("exact criteria disagree: " + repr([r.to_kv() for r in exact]))
    overall = exact[0].passed if exact else all(r.passed for r, _ in reports)
    for rep, secs in reports:
        run.add_report(rep, secs)
    run.doc["counts"] = {"criteria_run": len(reports), "agreement": agreement}
    if want == "all":
        run.text.append(f"agreement among exact criteria: {agreement}")
        sufficient = [r for r, _ in reports if r.criterion == "sufficient-conditions"]
        if sufficient and not sufficient[0].passed and overall:
            run.text.append(
                "note: the sufficient conditions are one-directional; "
                "their failure does not refute the exact verdicts"
            )
    run.emit(args.format, args.out)
    return 0 if overall else 1


def _cmd_enumerate(args):
    polys = enumerate_irreducible(args.degree, args.exponent)
    run = _Run("enumerate", {"degree": args.degree, "exponent": args.exponent})
    run.doc["polynomials"] = [
        {"symbolic": str(p), "compact": p.compact()} for p in polys
    ]
    run.doc["counts"] = {"polynomials": len(polys)}
    run.text.append(
        f"{len(polys)} irreducible polynomials of degree {args.degree} "
        f"and exponent {args.exponent}"
    )
    run.text.extend(f"  {p}" for p in polys)
    run.emit(args.format, args.out)
    return 0


def _cmd_classify(args):
    f1 = _poly_arg(args.f1)
    f2 = _poly_arg(args.f2)
    record = criteria.classify_construction(f1, f2)
    run = _Run("classify", {"f1": str(f1), "f2": str(f2)})
    run.set_params(record.params)
    run.doc["record"] = record.to_kv()
    run.text.append(
        f"({record.types[0]}, {record.types[1]}) -> {record.types[2]}"
    )
    run.text.append(f"g = {record.g}")
    run.text.append(f"params: {record.params}")
    run.emit(args.format, args.out)
    return 0


def _cmd_conjecture(args):
    result = criteria.conjecture_search(args.n1, args.n2, args.r1, args.r2, args.kmax)
    run = _Run(
        "conjecture",
        {"n1": args.n1, "n2": args.n2, "r1": args.r1, "r2": args.r2, "kmax": args.kmax},
    )
    run.doc["in_range"] = result.in_range
    for entry in result.entries:
        kv = entry.verdict.to_kv()
        kv["k"] = str(entry.k)
        kv["product"] = str(entry.product)
        if entry.census_agrees is not None:
            kv["census_agrees"] = str(entry.census_agrees)
        run.doc["verdicts"].append(kv)
        mark = "pass" if entry.verdict.passed else "FAIL"
        run.text.append(f"k={entry.k} {mark}: {entry.product}")
    run.doc["counts"] = {
        "entries": len(result.entries),
        "counterexamples": len(result.counterexamples),
    }
    if not result.in_range:
        run.text.insert(0, f"note: n1 < r1 < 2*n1 does not hold for n1={args.n1}, r1={args.r1}")
    if result.counterexamples:
        run.text.append(f"counterexamples found: {len(result.counterexamples)}")
    run.emit(args.format, args.out)
    return 1 if result.counterexamples else 0


def _add_common(sub):
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--out", help="write output to this file instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="prarray",
        description="Construct and verify pseudo-random arrays and array codes "
        "obtained by diagonally folding shift-register sequences.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("construct", help="fold the cycles of a polynomial into arrays")
    p.add_argument("--poly", required=True)
    p.add_argument("--r1", type=int, required=True)
    p.add_argument("--r2", type=int, required=True)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_construct)

    p = subs.add_parser("verify", help="verify an array file as a PRA/PRAC")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--r1", type=int)
    p.add_argument("--r2", type=int)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("vee", help="product polynomial whose roots are root products")
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_vee)

    p = subs.add_parser("check-fold", help="test whether folding a polynomial gives a PRA/PRAC")
    p.add_argument("--poly")
    p.add_argument("--factors", help="comma-separated irreducible factors")
    p.add_argument("--r1", type=int, required=True)
    p.add_argument("--r2", type=int, required=True)
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument(
        "--criterion",
        choices=("census", "setpoly", "det", "sufficient", "all"),
        default="all",
    )
    p.add_argument("--exhaustive-setpoly", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_check_fold)

    p = subs.add_parser("enumerate", help="irreducible polynomials by degree and exponent")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--exponent", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser("classify", help="classify a product construction")
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("conjecture", help="search products of PRAC polynomials")
    p.add_argument("--n1", type=int, required=True)
    p.add_argument("--n2", type=int, required=True)
    p.add_argument("--r1", type=int, required=True)
    p.add_argument("--r2", type=int, required=True)
    p.add_argument("--kmax", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (_UsageError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
