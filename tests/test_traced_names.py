"""Every span the benchmark traces names a callable of the package.

``perfbench/tracing.py`` reports a function it cannot find as missing and
skips it, so deleting or renaming a traced function would silently drop a
per-layer metric. This test reads that file without importing the
``perfbench`` directory as a package (nothing is written there) and resolves
each span's ``module`` and ``attr`` (``func`` or ``Class.attr``).
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_spans():
    name = "_traced_names_perfbench_tracing"
    module = types.ModuleType(name)
    module.__file__ = str(TRACING)
    sys.modules[name] = module  # dataclasses look their module up while decorating
    try:
        exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), vars(module))
    finally:
        del sys.modules[name]
    return module.SPANS


SPANS = _load_spans()


def test_spans_are_listed():
    assert len(SPANS) >= 40
    assert len({s.name for s in SPANS}) == len(SPANS)


@pytest.mark.parametrize("span", SPANS, ids=lambda s: s.name)
def test_span_resolves_to_a_callable(span):
    mod = importlib.import_module(span.module)
    if "." in span.attr:
        cls_name, attr = span.attr.split(".", 1)
        target = vars(getattr(mod, cls_name))[attr]  # defined on the class itself
    else:
        target = getattr(mod, span.attr)
    assert callable(target), span.name
