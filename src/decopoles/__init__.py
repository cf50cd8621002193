"""Pole-catalogue models of decoherence and the moving preferred basis.

Expectation values relax through a discrete set of resonance poles plus a
slow background tail; dropping the short-lived poles past the decoherence
time defines a preferred trajectory and, at the matrix level, a moving
preferred eigenbasis.  The subpackages cover scalar signal synthesis and
timescale partitioning (pole_models), perturbative resonance poles
(friedrich), truncated coherent-state superpositions and their collective
decay (omnes), eigenbasis tracking and convergence (preferred_basis), and
the numerical kernels behind them (numerics).

Importing the package loads no submodule: each public name, and each
submodule, is imported on first access (PEP 562), so a caller pays only
for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# owner module -> the public names it exports through the package
_EXPORTS = {
    "errors": ("ConvergenceError", "RankDeficiencyError", "ValidationError"),
    "friedrich": ("PerturbativePole", "SpectralDensity", "perturbative_pole"),
    "numerics": (
        "DensityFamily", "DensityMatrix", "EigenDecomposition", "HermitianMatrix", "adaptive_simpson",
        "eigh", "fit_residual", "matrix_pencil_fit", "principal_value_integral",
    ),
    "omnes": (
        "CollectiveRate", "MacroscopicityReport", "NDComponents", "OmnesConfig",
        "QuasiCoherentState", "build_density_matrix", "collective_rate", "fock_overlap",
        "frame_catalogue_matrix", "frame_projection", "macroscopicity_check", "nd_block",
        "nd_decay", "overlap_error_bound", "overlap_truncated",
    ),
    "pole_models": (
        "CatalogueMatrix", "CoincidenceResult", "KhalfinTail", "Mode", "Model2Times", "Pole",
        "PoleCatalogue", "Signal", "TimescaleReport", "catalogue_from_json", "catalogue_to_json",
        "coincidence_check", "collective_rate_rule", "decoherence_time", "model1_times",
        "model2_times", "partition_report", "preferred_signal", "synthesize",
    ),
    "preferred_basis": (
        "BiFriedrichModel", "BiFriedrichResult", "MovingBasis", "bifriedrich_run",
        "convergence_profile", "moving_eigenbasis", "observable_signal", "preferred_state",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
