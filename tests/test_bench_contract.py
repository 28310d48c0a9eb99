"""The names the benchmark harness reads from the package.

``perfbench/spans.py`` wraps public functions and reads private hooks
by name, and a traced run reports a missing private hook as absent
rather than failing.  These tests resolve every such name, so a
refactor that drops or renames one fails here, and check that each
metric the hooks produce is declared in ``BENCHMARK.json``.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import prarray

ROOT = Path(__file__).resolve().parent.parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()
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

