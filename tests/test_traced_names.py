"""The benchmark's tracer (``perfbench/spans.py``) wraps the entry points in
its ``TRACED`` table by name, so each must exist on ``bhlattice``: a deleted
or renamed one breaks every traced run.  It also counts the work of each
call from its arguments and result, so the integrators must call the
module-level ``_grid.field`` for every stage, with the state as argument 1."""

import importlib
import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from bhlattice import LatticeWindow, StepConfig, _grid, stepping
from bhlattice.attractor import sample_ball
from bhlattice.experiments import default_params
from bhlattice.stochastic import NoiseConfig, pullback_batch

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


def rebind(monkeypatch, fn, wrapper):
    """Put wrapper in place of fn under every name a bhlattice module has
    for it, as the tracer's ``install`` does."""
    for name, mod in list(sys.modules.items()):
        if name == "bhlattice" or name.startswith("bhlattice."):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, wrapper)


@pytest.fixture
def spans(monkeypatch):
    """Counts as the tracer's spans see them: field calls, with the state
    shape of each, and the RK4 steps (argument 4) and Picard iterations
    (result entry 2) of each call, with the start shape of each."""
    seen = {"field": [], "rk4": [], "picard": []}
    real_field, real_rk4, real_solve = _grid.field, _grid.rk4, _grid.picard_solve

    def field(*args):
        assert isinstance(args[1], np.ndarray)
        seen["field"].append(args[1].shape)
        return real_field(*args)

    def rk4(*args):
        seen["rk4"].append((args[4], np.shape(args[1])))
        return real_rk4(*args)

    def picard_solve(*args):
        out = real_solve(*args)
        seen["picard"].append((out[2], np.shape(args[1])))
        return out

    for real, wrapper in ((real_field, field), (real_rk4, rk4),
                          (real_solve, picard_solve)):
        rebind(monkeypatch, real, wrapper)
    return seen


def stage_shapes(calls, per_call):
    """The state shape of each field call the integrator calls would make:
    per_call(amount) calls each, all at the call's start shape."""
    return [shape for amount, shape in calls for _ in range(per_call(amount))]


def test_every_pullback_stage_is_a_field_call_on_the_stack(spans):
    init = sample_ball(1.0, "truncated", 4, 6, seed=2)
    noise = NoiseConfig(h_path=0.01, pullback_T=0.5, master_seed=5)
    batch = pullback_batch(default_params(), noise, (0.3, 0.0), range(2),
                           0.01, init)
    assert sum(n for n, _ in spans["rk4"]) == batch.n_steps == 50
    assert spans["field"] == stage_shapes(spans["rk4"], lambda n: 4 * n)


def test_every_reference_flow_stage_is_a_field_call_on_the_stack(spans):
    Y = 0.3 * np.random.default_rng(4).standard_normal((3, 9))
    stepping.reference_flows(default_params(), Y, 0.01, 7)
    assert spans["rk4"] == [(7, (3, 9))]
    assert spans["field"] == [(3, 9)] * 28


def test_implicit_steps_evaluate_once_plus_once_per_iteration(spans):
    u0 = LatticeWindow.basis(0, 0.5)
    stepping.run_trajectory(default_params(), StepConfig(eps=0.01), u0, 20, 6)
    assert len(spans["picard"]) == 20
    assert spans["field"] == [(13,)] * (1 + sum(i for i, _ in spans["picard"]))
