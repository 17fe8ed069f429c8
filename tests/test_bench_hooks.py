"""The benchmark's tracer wraps graphflow functions by name; every name must resolve.

``bench/spans.py`` replaces module attributes to record spans and counts,
so renaming or deleting one of them breaks the benchmark without failing
any other test.  The tracer also wraps ``solver._make_rhs`` to time each
RHS call.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooks():
    spans = _spans_module()
    return sorted({*spans.SPANNED, *spans.COUNTED, ("solver", "_make_rhs")})


@pytest.mark.parametrize("module, attr", _hooks())
def test_traced_name_resolves_to_a_callable(module, attr):
    owner = importlib.import_module(f"graphflow.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
