"""scipy is loaded on first use, by the Newton solve and the point
certificate only, and then only its LAPACK extension module
``scipy.linalg._flapack``, not the ``scipy.linalg`` package: ``import
bhlattice`` and the studies that never call them (a trajectory, the
error-order study, ``simulate``, ``ou-path``) load no scipy module, the
certifying studies load no ``scipy.linalg``, and no stage loads
``scipy.spatial``, since the Hausdorff distances are plain numpy.  Each
check runs in a fresh interpreter, since this test process has long since
loaded scipy.linalg."""

import importlib.machinery
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
# imported when this file is collected, before any test runs the Newton
# solve, so that in this process scipy.linalg loads its LAPACK module first
import scipy.linalg.lapack

import bhlattice
from bhlattice import (PointCloud, default_params, equilibrium, hausdorff_sym,
                       stepping)

SRC = pathlib.Path(bhlattice.__file__).resolve().parents[1]

# prints, as one JSON line, the scipy modules loaded after each stage, the
# Newton solve's values, kappa at its zero, one Hausdorff distance, and
# whether scipy.linalg.lapack, imported last, hands out the LAPACK objects
# that the solve loaded
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
                           point_contraction, run_trajectory)
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
    kappa = point_contraction(p, u)
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
    flapack = sys.modules["scipy.linalg._flapack"]
    from scipy.linalg import lapack
    print(json.dumps({"loaded": loaded,
                      "equilibrium": [x.hex() for x in u.tolist()],
                      "resid": resid.hex(), "kappa": kappa.hex(),
                      "hausdorff_sym": d.hex(),
                      "one_copy": [lapack.dgtsv is flapack.dgtsv,
                                   lapack.dstebz is flapack.dstebz]}))
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


@pytest.mark.parametrize("stage", ["equilibrium", "run_dim_convergence",
                                   "run_noise_convergence"])
def test_certificate_loads_lapack_without_scipy_linalg(fresh, stage):
    loaded = fresh["loaded"][stage]
    assert "scipy.linalg" not in loaded
    assert "scipy.linalg._flapack" in loaded
    assert not any(m.startswith("scipy.spatial") for m in loaded)


def test_scipy_linalg_imported_later_reuses_the_loaded_lapack(fresh):
    assert fresh["one_copy"] == [True, True]


def test_lapack_is_the_registered_module_once_scipy_linalg_is_loaded():
    # the package attribute is set only when scipy.linalg's own import
    # loaded the module, not when stepping._flapack did
    assert "_flapack" in vars(scipy.linalg)
    assert stepping._flapack() is sys.modules["scipy.linalg._flapack"]
    assert stepping._flapack().dgtsv is scipy.linalg.lapack.dgtsv
    assert stepping._flapack().dstebz is scipy.linalg.lapack.dstebz


def test_missing_lapack_module_is_an_import_error(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None: None))
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
        stepping._flapack()


def test_no_stage_loads_scipy_spatial(fresh):
    assert list(fresh["loaded"]) == [
        "import", "run_trajectory", "run_error_order", "cli", "equilibrium",
        "hausdorff_sym", "run_dim_convergence", "run_noise_convergence"]
    for stage, loaded in fresh["loaded"].items():
        assert not [m for m in loaded if m.startswith("scipy.spatial")], stage


def test_first_use_returns_the_in_process_values(fresh):
    p = default_params()
    u, resid, _ = equilibrium(p, 8)
    assert fresh["equilibrium"] == [x.hex() for x in u.tolist()]
    assert fresh["resid"] == resid.hex()
    assert fresh["kappa"] == stepping.point_contraction(p, u).hex()
    a, b = np.random.default_rng(3).standard_normal((2, 5, 17))
    d = hausdorff_sym(PointCloud("window", 8, a), PointCloud("window", 8, b))
    assert fresh["hausdorff_sym"] == d.hex()
