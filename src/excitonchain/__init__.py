"""Steady-state exciton transport through chains of multi-site unit cells.

The package builds tight-binding networks of repeated planar unit cells
with a linear energy gradient, couples them to phonon, photon, loss,
injection and extraction environments, and solves for steady-state
populations and currents with a population rate equation (cross-checked
by a non-secular density-matrix solver).
"""

__version__ = "0.1.0"

from .brme import Liouvillian, brme_steady_state, build_liouvillian
from .defaults import DEFAULTS
from .environment import Channel, DrudeLorentzBath, EnvironmentParams, \
    FlatStep, build_channels, drude_lorentz, step_spectrum
from .experiments import DisorderEnsembleSpec, FitResult, SweepSpec, \
    brightness_robustness, build_system, disorder_ensemble, \
    fit_exponential, length_sweep, population_profile, regime_grid, \
    solve_point
from .hamiltonian import DisorderSpec, Hamiltonian, HamiltonianParams, \
    apply_disorder, build_hamiltonian, dipole_coupling, dump_hamiltonian
from .lattice import CELL_LAYOUTS, Geometry, assign_dipoles, build_geometry
from .pme import Generator, SteadyStateReport, build_generator, \
    flux_report, site_populations, solve_steady_state, steady_current, \
    steady_state
from .spectral import BrightDarkCensus, EigenSystem, RateMatrix, \
    brightness, classify_bright_dark, diagonalize, eigenstructure_tables, \
    relaxation_profile, transition_matrix

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
    "dipole_coupling",
    "apply_disorder",
    "dump_hamiltonian",
    "EnvironmentParams",
    "Channel",
    "DrudeLorentzBath",
    "FlatStep",
    "drude_lorentz",
    "step_spectrum",
    "build_channels",
    "EigenSystem",
    "RateMatrix",
    "BrightDarkCensus",
    "diagonalize",
    "brightness",
    "transition_matrix",
    "relaxation_profile",
    "classify_bright_dark",
    "eigenstructure_tables",
    "Generator",
    "SteadyStateReport",
    "build_generator",
    "steady_state",
    "steady_current",
    "flux_report",
    "site_populations",
    "solve_steady_state",
    "Liouvillian",
    "build_liouvillian",
    "brme_steady_state",
    "SweepSpec",
    "DisorderEnsembleSpec",
    "FitResult",
    "fit_exponential",
    "build_system",
    "solve_point",
    "population_profile",
    "length_sweep",
    "disorder_ensemble",
    "regime_grid",
    "brightness_robustness",
]
