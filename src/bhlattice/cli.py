"""Command-line interface for simulations, attractor studies, and the
configuration check ``verify``.

Exit codes: 0 success, 1 a failing ``verify`` check, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .attractor import cloud_norm, cloud_to_json
from .errors import (BhLatticeError, ConfigError, DissipativityViolation,
                     NoConvergence, NonFinite, NotStabilized)
from .experiments import (STABILIZATION_GAP_TIME, ExperimentConfig,
                          ResultTable, _provenance, default_config,
                          implicit_attractor, run_bounds, run_dim_convergence,
                          run_eps_convergence, run_error_order,
                          run_noise_convergence, verify, write_table)
from .lattice import LatticeWindow
from .stepping import StepConfig, run_trajectory
from .stochastic import ou_path, ou_path_to_json


def load_config(path: str | None, seed: int | None = None) -> ExperimentConfig:
    if path is None:
        doc = {}
    else:
        try:
            with open(path) as fh:
                if path.endswith((".yml", ".yaml")):
                    import yaml

                    doc = yaml.safe_load(fh)
                else:
                    doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
    return _config_from_dict(doc or {}, seed)


def _config_from_dict(doc: dict, seed: int | None = None) -> ExperimentConfig:
    """Config from a parsed file: each key replaces one default, a seed
    replaces all three seeds (``master_seed``, ``attractor.seed`` and
    ``noise.master_seed``), and an unknown key at any level, a bad value or
    a derived attractor length is a ConfigError."""
    try:
        doc = dict(doc)
        if {"burn_in", "stabilization_gap"} & set(doc.get("attractor", {})):
            raise ConfigError(
                "attractor.burn_in and attractor.stabilization_gap are derived:"
                f" ceil({STABILIZATION_GAP_TIME:g}/(eps*(lam - lam*))) steps")
        if seed is not None:
            doc["master_seed"] = seed
            doc["attractor"] = {**doc.get("attractor", {}), "seed": seed}
            doc["noise"] = {**doc.get("noise", {}), "master_seed": seed}
        pdoc = dict(doc.pop("params", {}))
        if "f" in pdoc:
            pdoc["f"] = LatticeWindow(**pdoc["f"])
        for key in ("nu", "alpha", "beta", "gamma", "lam"):
            if key in pdoc:
                pdoc[key] = float(pdoc[key])
        base = default_config()
        sub = {name: dataclasses.replace(getattr(base, name),
                                         **doc.pop(name, {}))
               for name in ("attractor", "noise")}
        grids = dataclasses.replace(base.grids, **{
            k: tuple(v) for k, v in doc.pop("grids", {}).items()})
        return dataclasses.replace(
            base, params=dataclasses.replace(base.params, **pdoc),
            grids=grids, **sub, **doc)
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid configuration: {exc}")


def _checked(convert, ok):
    """An argparse type: ``convert`` the text, then refuse it unless ok."""
    def number(text):
        if not ok(value := convert(text)):
            raise argparse.ArgumentTypeError(f"out of range: {text}")
        return value
    return number


# longest path ``ou-path`` samples: the cap takes about 0.2 s to generate,
# and its JSON text, about 20 bytes a sample, takes about 1.3 s to write
OU_PATH_MAX_SAMPLES = 10**6

# study subcommands: name -> (runner, help); each writes its one table
STUDIES = {
    "converge-eps": (run_eps_convergence, "time-step convergence study"),
    "converge-dim": (run_dim_convergence, "truncation-dimension study"),
    "converge-noise": (run_noise_convergence,
                       "noise-intensity pullback study"),
    "error-order": (run_error_order, "discretization error orders"),
    "bounds": (run_bounds, "attractor norm bound sweep"),
}


def _emit(table: ResultTable, out_dir: str):
    for p in write_table(table, out_dir):
        print(p)


def _write(out_dir: str, name: str, text: str):
    """Write text to out_dir/name, making the directory, and print the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    print(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bhlattice",
        description="Implicit-Euler Burgers-Huxley lattice simulator and "
                    "attractor verification harness.")
    parser.add_argument("--config", help="config file (YAML or JSON)")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", type=_checked(str, bool), default="out",
                        help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _checked(float, lambda x: 0 < x < float("inf"))
    finite = _checked(float, lambda x: abs(x) < float("inf"))
    count = _checked(int, lambda n: n >= 0)

    sp = sub.add_parser("simulate", help="run an implicit-Euler trajectory")
    sp.add_argument("--eps", type=positive, default=0.005)
    sp.add_argument("--steps", type=count, default=200)
    sp.add_argument("--amplitude", type=finite, default=0.5,
                    help="initial state amplitude at site 0")

    sp = sub.add_parser("attractor", help="approximate one attractor cloud")
    sp.add_argument("--eps", type=positive, default=0.005)

    for name, (_, help_text) in STUDIES.items():
        sub.add_parser(name, help=help_text)

    sp = sub.add_parser("ou-path", help="sample one noise path")
    sp.add_argument("--horizon", type=positive, default=100.0)
    sp.add_argument("--h", type=positive, default=0.01)

    sub.add_parser("verify", help="check that lam > lam*, every eps is at "
                   "most eps* and the solver meets its contract")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args, load_config(args.config, args.seed))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergence, NonFinite, NotStabilized, DissipativityViolation) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BhLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args, cfg: ExperimentConfig) -> int:
    cmd = args.command
    if cmd == "simulate":
        step_cfg = StepConfig(eps=args.eps, enforce_eps_star=False)
        u0 = LatticeWindow.basis(0, args.amplitude)
        traj = run_trajectory(cfg.params, step_cfg, u0, args.steps,
                              cfg.window_half_width)
        table = ResultTable(
            "simulate",
            {"step": list(range(len(traj.states))),
             "norm": [u.norm() for u in traj.states]},
            _provenance(cfg))
        _emit(table, args.out)
        return 0
    if cmd == "attractor":
        cloud = implicit_attractor(cfg.params, args.eps, cfg.attractor,
                                   cfg.window_half_width)
        _write(args.out, f"cloud_eps{args.eps:g}.json",
               cloud_to_json(cloud))
        print(f"cloud norm: {cloud_norm(cloud):.6e}")
        return 0
    if cmd in STUDIES:
        _emit(STUDIES[cmd][0](cfg), args.out)
        return 0
    if cmd == "ou-path":
        if args.horizon / args.h > OU_PATH_MAX_SAMPLES:
            raise ConfigError(
                f"--horizon {args.horizon:g} at --h {args.h:g} takes "
                f"{args.horizon / args.h:.4g} samples, above the sample "
                f"budget of {OU_PATH_MAX_SAMPLES}")
        path = ou_path(cfg.master_seed, -args.horizon, 0.0, args.h)
        _write(args.out, "ou_path.json", ou_path_to_json(path))
        return 0
    if cmd == "verify":
        ok, report = verify(cfg)
        for check in report["checks"]:
            print(f"{check['status']:4s}  {check['check']}")
        _write(args.out, "verify_report.json",
               json.dumps(report, indent=2))
        return 0 if ok else 1
    raise ConfigError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
