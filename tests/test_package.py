"""The package surface: lazily loaded public names, and the modules each CLI run imports."""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import decopoles
from decopoles.pole_models import Signal, signal_to_csv

# the public names of the package, by the module that defines each
SURFACE = {
    "errors": "ConvergenceError RankDeficiencyError ValidationError",
    "friedrich": "PerturbativePole SpectralDensity perturbative_pole",
    "numerics": "DensityFamily DensityMatrix EigenDecomposition HermitianMatrix adaptive_simpson "
    "eigh fit_residual matrix_pencil_fit principal_value_integral",
    "omnes": "CollectiveRate MacroscopicityReport NDComponents OmnesConfig QuasiCoherentState "
    "build_density_matrix collective_rate fock_overlap frame_catalogue_matrix frame_projection "
    "macroscopicity_check nd_block nd_decay overlap_error_bound overlap_truncated",
    "pole_models": "CatalogueMatrix CoincidenceResult KhalfinTail Mode Model2Times Pole "
    "PoleCatalogue Signal TimescaleReport catalogue_from_json catalogue_to_json "
    "coincidence_check collective_rate_rule decoherence_time model1_times model2_times "
    "partition_report preferred_signal synthesize",
    "preferred_basis": "BiFriedrichModel BiFriedrichResult MovingBasis bifriedrich_run "
    "convergence_profile moving_eigenbasis observable_signal preferred_state",
}
OWNER = {name: module for module, names in SURFACE.items() for name in names.split()}


class TestSurface:
    def test_all_is_the_57_public_names(self):
        assert len(OWNER) == 57
        assert decopoles.__all__ == sorted(OWNER)

    @pytest.mark.parametrize("name", sorted(OWNER))
    def test_name_is_the_owner_modules_object(self, name):
        owner = importlib.import_module(f"decopoles.{OWNER[name]}")
        obj = getattr(decopoles, name)
        assert obj is getattr(owner, name)
        assert obj.__module__ == owner.__name__

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from decopoles import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == decopoles.__all__

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'decopoles' has no attribute 'no_such_name'"):
            decopoles.no_such_name
        with pytest.raises(ImportError):
            exec("from decopoles import no_such_name", {})

    def test_submodules_import_by_name(self):
        from decopoles import omnes

        assert omnes is sys.modules["decopoles.omnes"] is decopoles.omnes
        assert omnes.OmnesConfig is decopoles.OmnesConfig

    def test_dir_lists_the_public_names_and_submodules(self):
        listed = dir(decopoles)
        assert set(decopoles.__all__) <= set(listed)
        assert set(SURFACE) <= set(listed)
        assert "__version__" in listed


# --- what a fresh CLI child imports ------------------------------------------

PROBE = (
    "import json, sys; from decopoles.cli import main; code = main(sys.argv[1:]); "
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('decopoles.')))); sys.exit(code)"
)
GRID = {"t_max": 4.0, "n_points": 21}
HEAVY = {"friedrich", "omnes", "preferred_basis"}


def loaded_modules(tmp_path, subcommand, doc):
    """The decopoles submodules a fresh ``decopoles <subcommand>`` child has imported at exit."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(decopoles.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", PROBE, subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=str(tmp_path), check=False)
    assert done.returncode == 0, done.stderr
    names = json.loads(done.stdout.strip().splitlines()[-1])
    return {name.split(".", 1)[1] for name in names}


def extract_doc(tmp_path):
    t = np.linspace(0.0, 6.0, 61)
    csv_path = tmp_path / "signal.csv"
    csv_path.write_text(signal_to_csv(Signal(t, np.exp(-0.5 * t) + 0.3 * np.exp(-2.0 * t) + 0j)))
    return {"scenario": "extract", "params": {"input_csv": str(csv_path), "model_order": 3}}


@pytest.mark.parametrize(
    "subcommand, doc, absent",
    [
        ("simulate", {"scenario": "model1", "grid": GRID, "params": {"gamma0": 0.5}}, HEAVY),
        (
            "simulate",
            {"scenario": "model2", "grid": GRID, "params": {"gamma0": 0.1, "gamma1": 1.0}},
            HEAVY,
        ),
        (
            "simulate",
            {"scenario": "model3", "grid": GRID, "params": {"modes": [{"gamma": 0.3}, {"gamma": 2.0}]}},
            HEAVY,
        ),
        ("extract", None, HEAVY),
        (
            "simulate",
            {
                "scenario": "bifriedrich",
                "grid": GRID,
                "params": {"part1": {"modes": [{"gamma": 0.3}]}, "part2": {"modes": [{"gamma": 2.0}]}},
            },
            {"friedrich", "omnes"},
        ),
        (
            "omnes",
            {"scenario": "omnes", "grid": GRID, "params": {"N": 50, "L0": 2.0, "L0_sweep": [2.0]}},
            {"preferred_basis"},
        ),
    ],
    ids=["model1", "model2", "model3", "extract", "bifriedrich", "omnes"],
)
def test_cli_child_loads_only_what_its_scenario_runs(tmp_path, subcommand, doc, absent):
    loaded = loaded_modules(tmp_path, subcommand, doc or extract_doc(tmp_path))
    assert {"cli", "numerics", "pole_models"} <= loaded
    assert not loaded & absent


def test_importing_the_package_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(decopoles.__file__))
    probe = "import sys, decopoles; print(sorted(m for m in sys.modules if m.startswith('decopoles.')))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert done.stdout == "[]\n"
