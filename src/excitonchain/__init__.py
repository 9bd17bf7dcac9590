"""Steady-state exciton transport through chains of multi-site unit cells.

The package builds tight-binding networks of repeated planar unit cells
with a linear energy gradient, couples them to phonon, photon, loss,
injection and extraction environments, and solves for steady-state
populations and currents with a population rate equation (cross-checked
by a non-secular density-matrix solver).
"""

__version__ = "0.1.0"

from .defaults import DEFAULTS
from .environment import Channel, DrudeLorentzBath, EnvironmentParams, \
    FlatStep, build_channels
from .experiments import FitResult, SweepSpec, build_system, \
    disorder_ensemble, fit_exponential, length_sweep, regime_grid, \
    solve_point
from .hamiltonian import DisorderSpec, Hamiltonian, HamiltonianParams, \
    apply_disorder, build_hamiltonian
from .lattice import CELL_LAYOUTS, Geometry, assign_dipoles, build_geometry
from .pme import Generator, SteadyStateReport, build_generator, \
    site_populations, solve_steady_state
from .spectral import BrightDarkCensus, EigenSystem, RateMatrix, \
    brightness, classify_bright_dark, diagonalize, eigenstructure_tables, \
    transition_matrix

__all__ = [
    "DEFAULTS",
    "CELL_LAYOUTS",
    "Geometry",
    "build_geometry",
    "assign_dipoles",
    "HamiltonianParams",
    "Hamiltonian",
    "DisorderSpec",
    "build_hamiltonian",
    "apply_disorder",
    "EnvironmentParams",
    "Channel",
    "DrudeLorentzBath",
    "FlatStep",
    "build_channels",
    "EigenSystem",
    "RateMatrix",
    "BrightDarkCensus",
    "diagonalize",
    "brightness",
    "transition_matrix",
    "classify_bright_dark",
    "eigenstructure_tables",
    "Generator",
    "SteadyStateReport",
    "build_generator",
    "site_populations",
    "solve_steady_state",
    "Liouvillian",
    "build_liouvillian",
    "brme_steady_state",
    "SweepSpec",
    "FitResult",
    "fit_exponential",
    "build_system",
    "solve_point",
    "length_sweep",
    "disorder_ensemble",
    "regime_grid",
]


def __getattr__(name: str):  # population runs never import brme
    if name in ("Liouvillian", "build_liouvillian", "brme_steady_state"):
        from . import brme
        return getattr(brme, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
