"""scipy is imported on first use, by the Newton solve and the point
certificate only (``scipy.linalg``): ``import bhlattice`` and the studies
that never call them (a trajectory, the error-order study, ``simulate``,
``ou-path``) load no scipy module, and no stage loads ``scipy.spatial``,
since the Hausdorff distances are plain numpy.  Each check runs in a fresh
interpreter, since this test process has long since loaded scipy."""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import bhlattice
from bhlattice import PointCloud, default_params, equilibrium, hausdorff_sym

SRC = pathlib.Path(bhlattice.__file__).resolve().parents[1]

# prints, as one JSON line, the scipy modules loaded after each stage, the
# Newton solve's values and one Hausdorff distance
SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys

    loaded = {}

    def note(stage):
        loaded[stage] = sorted(m for m in sys.modules
                               if m == "scipy" or m.startswith("scipy."))

    import bhlattice
    note("import")

    import numpy as np
    from bhlattice import (AttractorConfig, GridConfig, LatticeWindow,
                           NoiseConfig, PointCloud, StepConfig, cli,
                           default_config, default_params, equilibrium,
                           hausdorff_sym, run_dim_convergence,
                           run_error_order, run_noise_convergence,
                           run_trajectory)
    p = default_params()
    run_trajectory(p, StepConfig(eps=0.01), LatticeWindow.basis(0, 0.5), 5,
                   half_width=8)
    note("run_trajectory")
    run_error_order(default_config(), T=0.04, n_samples=1)
    note("run_error_order")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["simulate", "--steps", "3"],
                     ["ou-path", "--horizon", "1"]):
            assert cli.main(["--out", sys.argv[1]] + argv) == 0
    note("cli")

    u, resid, _ = equilibrium(p, 8)
    note("equilibrium")
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((2, 5, 17))
    d = hausdorff_sym(PointCloud("window", 8, a), PointCloud("window", 8, b))
    note("hausdorff_sym")
    tiny = default_config(
        grids=GridConfig(m_list=(2, 4), sigma_list=(0.1, 0.0)),
        attractor=AttractorConfig(sample_count=2),
        noise=NoiseConfig(realizations=2, pullback_T=1.0),
        window_half_width=8, noise_m=4, pullback_points=2)
    run_dim_convergence(tiny)
    note("run_dim_convergence")
    run_noise_convergence(tiny)
    note("run_noise_convergence")
    print(json.dumps({"loaded": loaded,
                      "equilibrium": [x.hex() for x in u.tolist()],
                      "resid": resid.hex(), "hausdorff_sym": d.hex()}))
""")


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path_factory.mktemp("out"))],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("stage", ["import", "run_trajectory",
                                   "run_error_order", "cli"])
def test_scipy_free_stage_loads_no_scipy(fresh, stage):
    assert fresh["loaded"][stage] == []


def test_newton_solve_loads_scipy_linalg(fresh):
    loaded = fresh["loaded"]["equilibrium"]
    assert "scipy.linalg" in loaded
    assert not any(m.startswith("scipy.spatial") for m in loaded)


def test_no_stage_loads_scipy_spatial(fresh):
    assert list(fresh["loaded"]) == [
        "import", "run_trajectory", "run_error_order", "cli", "equilibrium",
        "hausdorff_sym", "run_dim_convergence", "run_noise_convergence"]
    for stage, loaded in fresh["loaded"].items():
        assert not [m for m in loaded if m.startswith("scipy.spatial")], stage


def test_first_use_returns_the_in_process_values(fresh):
    u, resid, _ = equilibrium(default_params(), 8)
    assert fresh["equilibrium"] == [x.hex() for x in u.tolist()]
    assert fresh["resid"] == resid.hex()
    a, b = np.random.default_rng(3).standard_normal((2, 5, 17))
    d = hausdorff_sym(PointCloud("window", 8, a), PointCloud("window", 8, b))
    assert fresh["hausdorff_sym"] == d.hex()
