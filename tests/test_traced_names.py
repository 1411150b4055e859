"""The benchmark's tracer (``perfbench/spans.py``) wraps the entry points in
its ``TRACED`` table by name, so each must exist on ``bhlattice``: a deleted
or renamed one breaks every traced run."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, name) for module, names in spans.TRACED.items()
            for name in names]


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_entry_point_exists(module, name):
    mod = importlib.import_module(f"bhlattice.{module}")
    if "." in name:
        cls_name, meth = name.split(".")
        assert meth in vars(getattr(mod, cls_name))
    else:
        assert callable(getattr(mod, name))
