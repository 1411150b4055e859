"""Spans around the calls into each bhlattice layer, recorded from outside.

``install`` wraps the listed functions of each module and rebinds every name
under which a bhlattice module looks them up: ``stepping`` finds
``_grid.field`` on the module at call time, while ``experiments`` imported
``attractor_approx`` and others by name.  Helpers called from inside a
wrapped function are part of its self time.  Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

import numpy as np

# Per module, the entry points that get a span.  "Class.method" wraps a
# method on the class.  The layer label drops the leading underscore of
# ``_grid``, because metric names start with a letter.
TRACED = {
    "_grid": ("field", "random_field", "picard_solve", "rk4"),
    "stepping": ("run_trajectory", "implicit_step_info", "advance_grid",
                 "reference_flow", "local_error", "global_error"),
    "lattice": ("derived_constants", "LatticeWindow.from_grid"),
    "truncation": ("truncated_forcing",),
    "attractor": ("attractor_approx", "sample_ball", "hausdorff_semi",
                  "hausdorff_sym", "embed_cloud", "tail_profile", "cloud_norm"),
    "stochastic": ("pullback_sample", "OUPath.at", "ou_path", "absorbing_radius"),
    "experiments": ("run_dim_convergence", "run_noise_convergence",
                    "run_error_order", "implicit_attractor", "flow_attractor"),
}


# What each span adds to its layer's work count: sites for a field call,
# iterations for a Picard solve, steps for RK4 and for a cloud's evolution.
def _amount(name, args, kwargs, out):
    if name == "grid.field":
        return args[1].size
    if name == "grid.picard_solve":
        return out[2]
    if name == "grid.rk4":
        return args[4] if len(args) > 4 else kwargs["n_steps"]
    if name == "attractor.attractor_approx":
        return out.meta["steps_evolved"]
    return 0


class Tracer:
    """Span store: one (name id, parent index, start, end, amount) per call."""

    def __init__(self):
        self.names = []
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                amount = _amount(name, args, kwargs, out) if out is not None else 0
                spans[idx] = (nid, parent, t0, t1, amount)

        return traced

    def arrays(self) -> dict:
        rows = np.array(self.spans, dtype=float).reshape(-1, 5)
        nid = rows[:, 0].astype(np.int64)
        parent = rows[:, 1].astype(np.int64)
        dur = rows[:, 3] - rows[:, 2]
        child = np.zeros(len(rows))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"names": np.array(self.names), "name_id": nid, "parent": parent,
                "start": rows[:, 2], "end": rows[:, 3], "amount": rows[:, 4],
                "duration": dur, "self": dur - child}

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed amount and
        the durations of every call."""
        a = self.arrays()
        out = {}
        for i, name in enumerate(self.names):
            sel = a["name_id"] == i
            out[name] = {"calls": int(sel.sum()),
                         "total_s": float(a["duration"][sel].sum()),
                         "self_s": float(a["self"][sel].sum()),
                         "amount": float(a["amount"][sel].sum()),
                         "durations": a["duration"][sel]}
        return out


def install(tracer: Tracer) -> list:
    """Wrap every TRACED entry point; returns what ``uninstall`` restores."""
    modules = [m for n, m in sys.modules.items()
               if n == "bhlattice" or n.startswith("bhlattice.")]
    saved = []
    for modname, names in TRACED.items():
        mod = importlib.import_module(f"bhlattice.{modname}")
        label = modname.lstrip("_")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(tracer.wrap(f"{label}.{name}", raw.__func__))
                else:
                    new = tracer.wrap(f"{label}.{name}", raw)
                saved.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(mod, name)
            new = tracer.wrap(f"{label}.{name}", orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        saved.append((m, attr, orig))
                        setattr(m, attr, new)
    return saved


def uninstall(saved: list):
    for obj, attr, val in reversed(saved):
        setattr(obj, attr, val)


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of the benchmark, by name, as (value, unit)."""
    s = tracer.summary()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0.0,
             "durations": np.zeros(0)}

    def get(name):
        return s.get(name, empty)

    def p50(name):
        d = get(name)["durations"]
        return float(statistics.median(d)) if d.size else 0.0

    field = get("grid.field")
    picard = get("grid.picard_solve")
    return {
        "grid.field.calls": (field["calls"], "count"),
        "grid.field.self_s": (field["self_s"], "s"),
        "grid.field.ns_per_site": (
            field["self_s"] / field["amount"] * 1e9 if field["amount"] else 0.0, "ns"),
        "grid.random_field.calls": (get("grid.random_field")["calls"], "count"),
        "grid.random_field.self_s": (get("grid.random_field")["self_s"], "s"),
        "grid.picard_solve.calls": (picard["calls"], "count"),
        "grid.picard_solve.iters_per_step": (
            picard["amount"] / picard["calls"] if picard["calls"] else 0.0, "count"),
        "grid.picard_solve.self_s": (picard["self_s"], "s"),
        "grid.rk4.steps": (int(get("grid.rk4")["amount"]), "count"),
        "grid.rk4.self_s": (get("grid.rk4")["self_s"], "s"),
        "stepping.implicit_step_info.calls": (get("stepping.implicit_step_info")["calls"], "count"),
        "stepping.implicit_step_info.p50_us": (p50("stepping.implicit_step_info") * 1e6, "us"),
        "stepping.implicit_step_info.self_s": (get("stepping.implicit_step_info")["self_s"], "s"),
        "stepping.advance_grid.self_s": (get("stepping.advance_grid")["self_s"], "s"),
        "stepping.reference_flow.self_s": (get("stepping.reference_flow")["self_s"], "s"),
        "lattice.derived_constants.calls": (get("lattice.derived_constants")["calls"], "count"),
        "lattice.derived_constants.self_s": (get("lattice.derived_constants")["self_s"], "s"),
        "lattice.from_grid.self_s": (get("lattice.LatticeWindow.from_grid")["self_s"], "s"),
        "truncation.truncated_forcing.self_s": (get("truncation.truncated_forcing")["self_s"], "s"),
        "attractor.attractor_approx.steps_evolved": (
            int(get("attractor.attractor_approx")["amount"]), "count"),
        "attractor.attractor_approx.self_s": (get("attractor.attractor_approx")["self_s"], "s"),
        "attractor.hausdorff.self_s": (
            get("attractor.hausdorff_semi")["self_s"] + get("attractor.hausdorff_sym")["self_s"], "s"),
        "stochastic.pullback_sample.calls": (get("stochastic.pullback_sample")["calls"], "count"),
        "stochastic.pullback_sample.p50_s": (p50("stochastic.pullback_sample"), "s"),
        "stochastic.OUPath.at.calls": (get("stochastic.OUPath.at")["calls"], "count"),
        "stochastic.OUPath.at.self_s": (get("stochastic.OUPath.at")["self_s"], "s"),
        "stochastic.ou_path.self_s": (get("stochastic.ou_path")["self_s"], "s"),
        "stochastic.absorbing_radius.self_s": (get("stochastic.absorbing_radius")["self_s"], "s"),
        "experiments.self_s": (
            sum(v["self_s"] for k, v in s.items() if k.startswith("experiments.")), "s"),
    }


def write(tracer: Tracer, metrics: dict, out_dir, stem: str, **extra):
    """Write the metrics and a per-span-name summary as JSON, and every span
    as arrays in an .npz file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {name: {k: v for k, v in row.items() if k != "durations"}
               for name, row in tracer.summary().items()}
    doc = {"metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
           "spans": summary, **extra}
    json_path = out_dir / f"{stem}.json"
    json_path.write_text(json.dumps(doc, indent=1))
    a = tracer.arrays()
    npz_path = out_dir / f"{stem}.npz"
    np.savez_compressed(npz_path, **{k: a[k] for k in
                                     ("names", "name_id", "parent", "start", "end", "amount")})
