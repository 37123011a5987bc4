"""Every name the benchmark's tracer wraps must resolve in revmax.

``perfbench/run.py --trace 1`` looks up each name of ``perfbench/spans.py``
``GROUPS``, ``COUNTED`` and ``BYTES`` with ``getattr`` and crashes on the
first one missing, so a deletion in ``src/`` that would break tracing fails
here first.  The module is loaded from its file and never changed.
"""

import importlib.util
from pathlib import Path

import pytest

import revmax.cli  # noqa: F401  (spans looks modules up in sys.modules)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("name", [*spans.GROUPS, *spans.COUNTED, *spans.BYTES])
def test_traced_name_resolves_to_a_callable(name):
    owner, attr = spans._lookup(name)
    assert callable(getattr(owner, attr))
