"""Bath spectral densities and system-environment channels.

Each channel pairs the coupling operators of one kind with the spectral
density they share, whose value at a transition frequency is the
golden-rule rate density.  Every operator in the model has one of two
shapes, so a channel stores only site weights: its ``operator`` is an
(m, n_sites) array with one row w (unit or dipole-weighted amplitudes)
per operator.  A phonon row is the single-site projector diag(w); every
other row is the ground <-> site operator sum_s w_s (|0><s| + |s><0|).
The rows' rates add.  Their coupling vectors in an eigenbasis are worked
out only in :mod:`excitonchain.spectral`, which both solvers read.
:func:`build_channels` returns one channel per kind, so it alone decides
which operators share a product.  Rates are linear in every channel's
rate parameter, which enters exactly once as the plateau of its spectral
density.

Sign convention: a transition from state m into state n is evaluated at
omega = eps_m - eps_n, so positive frequencies correspond to energy
release into the bath.  One-sided flat spectra make ground <-> excited
channels uni-directional (emission-only or absorption-only); the phonon
spectrum carries a Bose-Einstein factor and satisfies detailed balance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .defaults import DEFAULTS
from .lattice import Geometry


class ChannelError(ValueError):
    """Raised for invalid channel parameters."""


def _check_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ChannelError(f"{name} must be finite, got {value}")


class SpectralDensity:
    """A rate density S(omega): a frozen dataclass of its parameters, named
    by its ``type``, that writes its value at a float array into that array
    (``_evaluate``); a call evaluates a copy."""

    def __call__(self, omega):
        value = self._evaluate(np.array(omega, dtype=float))
        return value if value.ndim else float(value)

    def describe(self) -> dict:
        return {"type": self.type, **asdict(self)}


@dataclass(frozen=True)
class DrudeLorentzBath(SpectralDensity):
    """Thermalized Drude-Lorentz rate density.

    S(omega) = pi |omega| width coupling / (width^2 + (|omega| - peak)^2)
               * [n_BE(|omega|, T) + step(omega)]

    evaluated elementwise; the omega -> 0 limit is finite and equals
    pi * width * coupling * T / (width^2 + peak^2).  The spontaneous part
    peaks at sqrt(peak^2 + width^2).  Every parameter must be finite, and
    the width and temperature positive.
    """

    type = "drude_lorentz"
    coupling: float
    width: float
    peak: float
    temperature: float

    def __post_init__(self):
        _check_finite(**vars(self))
        if self.temperature <= 0 or self.width <= 0:
            raise ChannelError("temperature and width must be positive")

    def _evaluate(self, omega: np.ndarray) -> np.ndarray:
        """The density at a float array omega, written into omega."""
        coupling, width, peak = self.coupling, self.width, self.peak
        temperature = self.temperature
        # lorentz * |omega| * (bose + step) in omega and one work array,
        # written in place: a rate stack's (R, dim, dim) temporaries are
        # each large enough to be mapped and faulted in afresh
        step = omega > 0
        aw = np.abs(omega, out=np.empty(omega.shape))
        zero = aw == 0
        value = np.subtract(aw, peak, out=omega)
        np.square(value, out=value)
        np.add(width**2, value, out=value)
        np.divide(np.pi * width * coupling, value, out=value)
        np.multiply(value, aw, out=value)
        bose = np.divide(aw, temperature, out=aw)
        positive = bose > 0
        np.minimum(bose, 700.0, out=bose)
        with np.errstate(divide="ignore", over="ignore"):
            np.expm1(bose, out=bose)
            np.divide(1.0, bose, out=bose)
        np.copyto(bose, 0.0, where=~positive)
        np.add(bose, step, out=bose)
        np.multiply(value, bose, out=value)
        zero_limit = (np.pi * width * coupling * temperature
                      / (width**2 + peak**2))
        np.copyto(value, zero_limit, where=zero)
        return value


@dataclass(frozen=True)
class FlatStep(SpectralDensity):
    """One-sided flat rate density: ``rate`` on one half-line, 0 elsewhere.

    ``direction`` "up" covers omega > 0 and "down" omega < 0; the value at
    omega = 0 is 0 for both, so exact degeneracies never drive these
    channels.  The rate must be finite and >= 0.
    """

    type = "flat_step"
    rate: float
    direction: str

    def __post_init__(self):
        _check_finite(rate=self.rate)
        if self.rate < 0:
            raise ChannelError(f"rate must be >= 0, got {self.rate}")
        if self.direction not in ("up", "down"):
            raise ChannelError("direction must be 'up' or 'down', got "
                               f"{self.direction!r}")

    def _evaluate(self, omega: np.ndarray) -> np.ndarray:
        """The density at a float array omega, written into omega."""
        on = omega > 0 if self.direction == "up" else omega < 0
        return np.multiply(self.rate, on, out=omega)


@dataclass(frozen=True)
class Channel:
    """All system-environment operators of one kind and spectral density.

    ``operator`` is an (m, n_sites) array of site weights, one row w per
    operator, or None for eigenbasis-targeted injection/extraction, which
    is resolved against the eigensystem when rates are built.  ``kind`` is
    one of "phonon", "radiative", "nonradiative", "injection",
    "extraction" and fixes how each row couples: a phonon row acts as
    diag(w) and must be single-site; a row of every other kind acts as the
    ground <-> site operator sum_s w_s (|0><s| + |s><0|).

    ``projectors`` is resolved on first use from an operator whose every
    row acts on one site: (sqrt(|w|) per phonon row or w per other row,
    sites), or (None, slice) for unit weights on contiguous sites; None
    otherwise.  A channel whose rates are never formed is never scanned.
    """

    kind: str
    spectral: SpectralDensity
    operator: np.ndarray | None = None
    eigen_target: str | None = None

    @cached_property
    def projectors(self) -> tuple | None:
        w = self.operator  # scanned once, into the mask of its nonzeros
        if not (isinstance(w, np.ndarray) and w.ndim == 2
                and np.count_nonzero(nonzero := w != 0) == len(w)):
            return None
        sites = nonzero.argmax(axis=1)
        scale = w[np.arange(len(w)), sites]
        if not scale.all():  # a row without weight: another holds two
            return None
        if self.kind == "phonon":
            scale = np.sqrt(np.abs(scale))
        if sites.size and (scale == 1).all() and (np.diff(sites) == 1).all():
            return None, slice(sites[0], sites[-1] + 1)
        return scale, sites

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.operator is not None:
            out["sites"] = np.flatnonzero(
                np.any(self.operator != 0, axis=0)).tolist()
        if self.eigen_target is not None:
            out["eigen_target"] = self.eigen_target
        out["spectral"] = self.spectral.describe()
        return out


@dataclass(frozen=True)
class EnvironmentParams:
    """Rates and bath parameters for the full channel set.

    ``bath_peak = None`` places the phonon spectral peak so that the
    spontaneous part is fastest at transition frequency ``delta_e``
    (peak^2 = delta_e^2 - width^2), the single-chain optimum; the same
    peak is kept for every geometry so unit cells compare fairly.  Every
    value given must be finite.
    """

    gamma_rad: float = DEFAULTS["gamma_rad"]
    gamma_nr: float = DEFAULTS["gamma_nr"]
    gamma_phonon: float = DEFAULTS["gamma_phonon"]
    gamma_inj: float = DEFAULTS["gamma_inj"]
    gamma_ext: float = DEFAULTS["gamma_ext"]
    temperature: float = DEFAULTS["temperature"]
    bath_width: float = DEFAULTS["bath_width"]
    bath_peak: float | None = None

    def __post_init__(self):
        _check_finite(**{name: value for name, value in vars(self).items()
                         if value is not None})

    def resolve_peak(self, delta_e: float) -> float:
        if self.bath_peak is not None:
            return self.bath_peak
        return float(np.sqrt(max(delta_e**2 - self.bath_width**2, 0.0)))


def build_channels(geometry: Geometry, params: EnvironmentParams,
                   delta_e: float = DEFAULTS["delta_e"],
                   injection_mode: str = "site") -> list[Channel]:
    """Construct the complete channel set for a geometry: one channel per kind.

    Phonon (Drude-Lorentz) and non-radiative loss channels carry one unit
    row per site.  The collective radiative channel connects the ground
    state to every site with one row of unit weights, or with three
    Cartesian rows weighted by the dipole components when dipoles are
    assigned.  The injection channel carries the unit rows of cell 1, each
    at rate gamma_inj / n, so the overall excitation rate is the same for
    every cell kind; the extraction channel carries the unit rows of the
    last cell at rate gamma_ext.  Unit rows are rows of one shared,
    read-only identity.

    ``injection_mode = "eigen"`` instead returns injection and extraction
    channels targeting the highest- and lowest-energy excited
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
    unit = np.eye(ns)
    unit.setflags(write=False)
    radiative = (np.ones((1, ns)) if geometry.dipoles is None
                 else geometry.dipoles.T.copy())
    channels = [
        Channel(kind="phonon", spectral=bath, operator=unit),
        Channel(kind="radiative", spectral=FlatStep(params.gamma_rad, "up"),
                operator=radiative),
        Channel(kind="nonradiative", spectral=FlatStep(params.gamma_nr, "up"),
                operator=unit),
    ]
    extraction = FlatStep(params.gamma_ext, "up")
    if injection_mode == "eigen":
        return channels + [
            Channel(kind="injection",
                    spectral=FlatStep(params.gamma_inj, "down"),
                    eigen_target="highest"),
            Channel(kind="extraction", spectral=extraction,
                    eigen_target="lowest"),
        ]
    # cell 1 holds sites 0..n-1, the last cell the final n sites
    return channels + [
        Channel(kind="injection",
                spectral=FlatStep(params.gamma_inj / n, "down"),
                operator=unit[:n]),
        Channel(kind="extraction", spectral=extraction,
                operator=unit[ns - n:]),
    ]
