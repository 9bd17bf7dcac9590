"""Bath spectral densities and system-environment channels.

Each channel pairs a coupling operator with a spectral density whose
value at a transition frequency is the golden-rule rate density.  Every
operator in the model has one of two shapes, so a channel stores only its
site weights w (unit or dipole-weighted amplitudes): a phonon channel is
the single-site projector diag(w), every other channel is the ground <->
site operator sum_s w_s (|0><s| + |s><0|).  Rates are linear in every
channel's rate parameter, which enters exactly once as the plateau of its
spectral density.

Sign convention: a transition from state m into state n is evaluated at
omega = eps_m - eps_n, so positive frequencies correspond to energy
release into the bath.  One-sided flat spectra make ground <-> excited
channels uni-directional (emission-only or absorption-only); the phonon
spectrum carries a Bose-Einstein factor and satisfies detailed balance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULTS
from .lattice import Geometry


class ChannelError(ValueError):
    """Raised for invalid channel parameters."""


def drude_lorentz(omega, coupling: float, width: float, peak: float,
                  temperature: float):
    """Thermalized Drude-Lorentz rate density.

    S(omega) = pi |omega| width coupling / (width^2 + (|omega| - peak)^2)
               * [n_BE(|omega|, T) + step(omega)]

    evaluated elementwise; the omega -> 0 limit is finite and equals
    pi * width * coupling * T / (width^2 + peak^2).  The spontaneous part
    peaks at sqrt(peak^2 + width^2).
    """
    if temperature <= 0 or width <= 0:
        raise ChannelError("temperature and width must be positive")
    omega = np.asarray(omega, dtype=float)
    aw = np.abs(omega)
    lorentz = np.pi * width * coupling / (width**2 + (aw - peak) ** 2)
    x = aw / temperature
    with np.errstate(divide="ignore", over="ignore"):
        bose = np.where(x > 0, 1.0 / np.expm1(np.minimum(x, 700.0)), 0.0)
    value = lorentz * aw * (bose + (omega > 0))
    zero_limit = np.pi * width * coupling * temperature / (width**2 + peak**2)
    value = np.where(aw == 0, zero_limit, value)
    return value if value.ndim else float(value)


def step_spectrum(omega, rate: float, direction: str):
    """One-sided flat rate density: ``rate`` on one half-line, 0 elsewhere.

    The value at omega = 0 is 0 for both directions, so exact degeneracies
    never drive these channels.
    """
    if rate < 0:
        raise ChannelError(f"rate must be >= 0, got {rate}")
    omega = np.asarray(omega, dtype=float)
    if direction == "up":
        value = rate * (omega > 0)
    elif direction == "down":
        value = rate * (omega < 0)
    else:
        raise ChannelError(f"direction must be 'up' or 'down', got {direction!r}")
    return value if value.ndim else float(value)


@dataclass(frozen=True)
class DrudeLorentzBath:
    coupling: float
    width: float
    peak: float
    temperature: float

    def __call__(self, omega):
        return drude_lorentz(omega, self.coupling, self.width, self.peak,
                             self.temperature)


@dataclass(frozen=True)
class FlatStep:
    rate: float
    direction: str

    def __call__(self, omega):
        return step_spectrum(omega, self.rate, self.direction)


@dataclass(frozen=True)
class Channel:
    """One system-environment interaction.

    ``operator`` is the 1-D array of site weights w (length n_sites), or
    None for eigenbasis-targeted injection/extraction, which is resolved
    against the eigensystem when rates are built.  ``kind`` is one of
    "phonon", "radiative", "nonradiative", "injection", "extraction" and
    fixes how w couples: a phonon channel acts as diag(w) and must be
    single-site; every other kind acts as the ground <-> site operator
    sum_s w_s (|0><s| + |s><0|).
    """

    kind: str
    spectral: object
    operator: np.ndarray | None = None
    site: int | None = None
    eigen_target: str | None = None

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.site is not None:
            out["site"] = int(self.site)
        if self.eigen_target is not None:
            out["eigen_target"] = self.eigen_target
        sp = self.spectral
        if isinstance(sp, FlatStep):
            out["spectral"] = {"type": "flat_step", "rate": sp.rate,
                               "direction": sp.direction}
        elif isinstance(sp, DrudeLorentzBath):
            out["spectral"] = {
                "type": "drude_lorentz", "coupling": sp.coupling,
                "width": sp.width, "peak": sp.peak,
                "temperature": sp.temperature,
            }
        return out


@dataclass(frozen=True)
class EnvironmentParams:
    """Rates and bath parameters for the full channel set.

    ``bath_peak = None`` places the phonon spectral peak so that the
    spontaneous part is fastest at transition frequency ``delta_e``
    (peak^2 = delta_e^2 - width^2), the single-chain optimum; the same
    peak is kept for every geometry so unit cells compare fairly.
    """

    gamma_rad: float = DEFAULTS["gamma_rad"]
    gamma_nr: float = DEFAULTS["gamma_nr"]
    gamma_phonon: float = DEFAULTS["gamma_phonon"]
    gamma_inj: float = DEFAULTS["gamma_inj"]
    gamma_ext: float = DEFAULTS["gamma_ext"]
    temperature: float = DEFAULTS["temperature"]
    bath_width: float = DEFAULTS["bath_width"]
    bath_peak: float | None = None

    def resolve_peak(self, delta_e: float) -> float:
        if self.bath_peak is not None:
            return self.bath_peak
        return float(np.sqrt(max(delta_e**2 - self.bath_width**2, 0.0)))


def _site_weights(n_sites: int, site: int) -> np.ndarray:
    w = np.zeros(n_sites)
    w[site] = 1.0
    return w


def build_channels(geometry: Geometry, params: EnvironmentParams,
                   delta_e: float = DEFAULTS["delta_e"],
                   injection_mode: str = "site") -> list[Channel]:
    """Construct the complete channel set for a geometry.

    Per site: one phonon channel (Drude-Lorentz, unit weight on that site)
    and one non-radiative loss channel to the ground state.  One collective
    radiative channel connects the ground state to every site with unit
    weight, or three Cartesian channels weighted by the dipole components
    when dipoles are assigned.
    Injection channels act on every site of cell 1 with the total rate split
    evenly (rate gamma_inj / n each) so the overall excitation rate is the
    same for every cell kind; extraction channels act on every site of the
    last cell at rate gamma_ext.

    ``injection_mode = "eigen"`` instead returns single injection and
    extraction channels targeting the highest- and lowest-energy excited
    eigenstates; their operators are None and are resolved later, against
    the diagonalized system.
    """
    for name in ("gamma_rad", "gamma_nr", "gamma_phonon", "gamma_inj",
                 "gamma_ext"):
        if getattr(params, name) < 0:
            raise ChannelError(f"{name} must be >= 0")
    if injection_mode not in ("site", "eigen"):
        raise ChannelError(f"unknown injection mode {injection_mode!r}")

    n = geometry.sites_per_cell
    ns = geometry.n_sites
    peak = params.resolve_peak(delta_e)
    bath = DrudeLorentzBath(coupling=params.gamma_phonon,
                            width=params.bath_width, peak=peak,
                            temperature=params.temperature)
    channels: list[Channel] = []

    for s in range(ns):
        channels.append(Channel(kind="phonon", spectral=bath,
                                operator=_site_weights(ns, s), site=s))

    if geometry.dipoles is not None:
        for axis in range(3):
            channels.append(Channel(
                kind="radiative",
                spectral=FlatStep(params.gamma_rad, "up"),
                operator=geometry.dipoles[:, axis].copy(),
            ))
    else:
        channels.append(Channel(
            kind="radiative",
            spectral=FlatStep(params.gamma_rad, "up"),
            operator=np.ones(ns),
        ))

    for s in range(ns):
        channels.append(Channel(
            kind="nonradiative",
            spectral=FlatStep(params.gamma_nr, "up"),
            operator=_site_weights(ns, s),
            site=s,
        ))

    if injection_mode == "eigen":
        channels.append(Channel(kind="injection",
                                spectral=FlatStep(params.gamma_inj, "down"),
                                eigen_target="highest"))
        channels.append(Channel(kind="extraction",
                                spectral=FlatStep(params.gamma_ext, "up"),
                                eigen_target="lowest"))
        return channels

    for s in geometry.cell_sites(1):
        channels.append(Channel(
            kind="injection",
            spectral=FlatStep(params.gamma_inj / n, "down"),
            operator=_site_weights(ns, s),
            site=int(s),
        ))
    for s in geometry.cell_sites(geometry.n_cells):
        channels.append(Channel(
            kind="extraction",
            spectral=FlatStep(params.gamma_ext, "up"),
            operator=_site_weights(ns, s),
            site=int(s),
        ))
    return channels
