"""The names and results the benchmark harness reads from the package.

``perfbench/spans.py`` wraps public functions and reads private hooks
by name, and a traced run reports a missing private hook as absent
rather than failing.  These tests resolve every such name, so a
refactor that drops or renames one fails here, and check that each
metric the hooks produce is declared in ``BENCHMARK.json``.  They also
run the cheap operations of ``perfbench/workloads.py``, which check
their own outputs, so a changed name, return shape or checked result
fails here rather than in a benchmark run.
"""

import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest
from conftest import reference_write_arrays

import prarray
from prarray import folding, lfsr

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


spans = _load("spans")
workloads = _load("workloads")
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def _resolve(dotted):
    # the grid-oracle modules load on first use, as in a benchmark round
    mod_name, fn_name = dotted.split(".")
    return getattr(importlib.import_module(f"prarray.{mod_name}"), fn_name, None)


@pytest.mark.parametrize(
    "name", [f"{m}.{f}" for m, fs in spans.PUBLIC_LAYERS.items() for f in fs]
)
def test_public_layer_resolves_and_is_declared(name):
    assert callable(_resolve(name)), name
    assert {f"{name}.calls", f"{name}.busy_s"} <= PER_LAYER


@pytest.mark.parametrize("hook", sorted(spans.PRIVATE_LAYERS))
def test_private_hook_resolves_and_is_declared(hook):
    assert callable(_resolve(hook)), hook
    assert spans.PRIVATE_LAYERS[hook] in PER_LAYER


@pytest.mark.parametrize("hook", sorted(spans.PRIVATE_CACHES))
def test_private_cache_resolves_and_is_declared(hook):
    assert callable(getattr(_resolve(hook), "cache_info", None)), hook
    assert spans.PRIVATE_CACHES[hook] in PER_LAYER


def test_field_order_resolves_and_is_declared():
    assert callable(prarray.gf2field.FieldElement.order)
    assert {"gf2field.order.calls", "gf2field.order.busy_s"} <= PER_LAYER



class TestWorkloadOperations:
    """Each operation raises ``CheckFailed`` when an output disagrees
    with its oracle or golden value; the records are what the run
    digest is taken over."""

    @pytest.mark.parametrize(
        "poly, e, params",
        [  # the two warm-up cases of perfbench/worker.py
            ("x^6+x^5+x^4+x^2+1", 21, (3, 7, 2, 3)),
            ("x^10+x^3+1", 1023, (3, 341, 2, 5)),
        ],
    )
    def test_sweep_case(self, poly, e, params):
        f = prarray.parse(poly)
        params = prarray.CodeParams(*params)
        record = workloads._sweep_case(f, e, params, {})
        assert record[:3] == [f.compact(), str(params), True]
        assert record[3:] == [None, None, None]

    @pytest.mark.parametrize("f1, f2, g", workloads.VEE_GOLDENS)
    def test_vee_golden(self, f1, f2, g):
        assert workloads._vee_golden_op(f1, f2, g) == [f1, f2, prarray.parse(g).compact()]

    def test_classify(self):
        f1, f2 = prarray.parse("x^3+x+1"), prarray.parse("x^4+x+1")
        assert workloads._classify_op(f1, f2) == [
            "1011", "10011", prarray.vee(f1, f2).compact(), ["primitive", "primitive", "INP"],
            "(7,15;3,4)",
        ]

    @pytest.mark.parametrize(
        "e, n, count",
        # field orders and enumeration checks on both sides of the 64-bit word
        [(73, 9, 8), (641, 64, 10), (1921, 56, 32), (1793, 810, 2)],
        ids=["e73-n9", "e641-n64", "e1921-n56", "e1793-n810"],
    )
    def test_exponent(self, e, n, count):
        assert workloads._exponent_op(e) == [
            e, n, count, [p.compact() for p in prarray.enumerate_irreducible(n, e)[:4]]
        ]

    def test_enumerated_above_degree_64_classify_without_rabin(self, monkeypatch):
        # the order of x certifies each of them irreducible; Rabin's
        # test would cost more than the other exponents together
        from prarray import gf2poly

        def refused(fb):
            raise AssertionError(f"Rabin's test ran on degree {fb.bit_length() - 1}")

        monkeypatch.setattr(gf2poly, "_rabin", refused)
        degrees = []
        for e in workloads.ALGEBRA_EXPONENTS:
            n = prarray.ord2(e)
            if n <= 64:
                continue
            for f in prarray.enumerate_irreducible(n, e):
                for cached in (gf2poly._x_steps, gf2poly._is_irreducible_int,
                               gf2poly._x_order, gf2poly.classify):
                    cached.cache_clear()
                cls = prarray.classify(f)
                assert cls.kind in ("primitive", "INP") and cls.exponent == e, f
                assert prarray.is_irreducible(f) and prarray.exponent(f) == e
                degrees.append(n)
        assert len(degrees) == 71 and min(degrees) == 66 and max(degrees) == 810

    def test_det_code(self):
        g, rank = workloads._det_code_op(workloads.DET_CODES[0])
        assert prarray.parse(g).degree == rank == 48

    @pytest.mark.parametrize("f", prarray.enumerate_irreducible(12, 91), ids=str)
    def test_cli_golden_code_file(self, f):
        # the cli workload's set-up writes the file that construct must match
        params = prarray.CodeParams(7, 13, 3, 4)
        grids = folding.fold_zero_factor(lfsr.zero_factor(f), 7, 13)
        want = io.StringIO()
        reference_write_arrays(want, grids, params)
        assert workloads._arrays_text(grids, params) == want.getvalue()
