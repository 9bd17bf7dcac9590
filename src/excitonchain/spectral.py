"""Eigenstructure analysis and golden-rule transition rates.

Diagonalization keeps the ground state as an exact basis vector (it is
coherently decoupled) and returns excited eigenstates in ascending energy
order with a deterministic basis:

- within every numerically degenerate multiplet the basis is fixed by
  diagonalizing the in-plane centroid operators (y, then z among remaining
  ties), so parallel-chain structures that happen to be symmetric resolve
  into reproducible, spatially distinct eigenstates instead of an
  arbitrary LAPACK mixture;
- degenerate partners are then ordered by their (x, y, z) site-support
  centroids and every eigenvector's largest-magnitude component is made
  positive.

Transition rates between eigenstates follow the golden rule: for each
channel the rate from state m into state n is the channel's spectral
density at eps_m - eps_n times the squared operator matrix element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .defaults import DARK_THRESHOLD
from .environment import Channel
from .hamiltonian import Hamiltonian

_DEGENERACY_RTOL = 1e-9


class SpectralError(RuntimeError):
    """Raised when diagonalization or rate construction fails."""


@dataclass
class EigenSystem:
    """Sorted eigenbasis of a transport Hamiltonian.

    ``energies`` is ascending with the ground state first; column k of
    ``vectors`` is the k-th eigenstate in the ground + site basis.
    ``brightness`` is filled in by :func:`brightness` (ground slot 0).
    """

    energies: np.ndarray
    vectors: np.ndarray
    hamiltonian: Hamiltonian
    brightness: np.ndarray | None = None

    @property
    def dimension(self) -> int:
        return self.energies.shape[0]

    @property
    def n_excited(self) -> int:
        return self.dimension - 1

    @property
    def excited_energies(self) -> np.ndarray:
        return self.energies[1:]

    @property
    def site_amplitudes(self) -> np.ndarray:
        """(n_excited, n_sites) array: row n holds state n's site amplitudes."""
        return self.vectors[1:, 1:].T

    @property
    def geometry(self):
        return self.hamiltonian.geometry

    def cell_centroids(self) -> np.ndarray:
        """Mean (1-based) cell index of each excited state's site support."""
        return self.site_amplitudes**2 @ self.geometry.cells


def _group_ranges(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    groups = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] - values[start] > tol:
            groups.append((start, k))
            start = k
    return groups


def _resolve_degeneracies(eps: np.ndarray, vecs: np.ndarray,
                          positions: np.ndarray) -> np.ndarray:
    """Fix a canonical eigenbasis inside each degenerate multiplet."""
    scale = max(1.0, float(np.abs(eps).max()))
    groups = _group_ranges(eps, _DEGENERACY_RTOL * scale)
    for axis in (1, 2):
        coords = positions[:, axis]
        refined = []
        for lo, hi in groups:
            if hi - lo < 2:
                refined.append((lo, hi))
                continue
            block = vecs[:, lo:hi]
            centroid_op = block.T @ (coords[:, None] * block)
            centroid_vals, rot = np.linalg.eigh(centroid_op)
            vecs[:, lo:hi] = block @ rot
            refined.extend((lo + a, lo + b)
                           for a, b in _group_ranges(centroid_vals, 1e-9))
        groups = refined
    # order any residual ties by centroid along the transport axis, then
    # in-plane, for reproducible exports
    scale_groups = _group_ranges(eps, _DEGENERACY_RTOL * scale)
    for lo, hi in scale_groups:
        if hi - lo < 2:
            continue
        block = vecs[:, lo:hi]
        keys = [(block[:, j] ** 2) @ positions for j in range(hi - lo)]
        order = sorted(range(hi - lo),
                       key=lambda j: tuple(np.round(keys[j], 9)))
        vecs[:, lo:hi] = block[:, order]
    return vecs


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[lead, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return vecs * signs


def diagonalize(h: Hamiltonian) -> EigenSystem:
    """Diagonalize the excited block and assemble the full eigensystem.

    Raises SpectralError if the solver fails or if any excited eigenvalue
    does not exceed the ground-state energy (the one-way ground <-> excited
    channels assume a strictly positive gap).
    """
    sym_dev = float(np.abs(h.matrix - h.matrix.T).max())
    if sym_dev > 0.0:
        raise SpectralError(f"Hamiltonian not symmetric (max dev {sym_dev:g})")
    block = h.excited_block
    try:
        eps, vecs = scipy.linalg.eigh(block)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare
        cond = np.linalg.cond(block)
        raise SpectralError(
            f"eigendecomposition failed (condition number {cond:.3e})"
        ) from exc
    eg = h.matrix[0, 0]
    if eps[0] <= eg:
        raise SpectralError(
            f"lowest excited eigenvalue {eps[0]:g} does not exceed the "
            f"ground-state energy {eg:g}; increase the manifold offset"
        )
    vecs = _resolve_degeneracies(eps, vecs, h.geometry.positions)
    vecs = _fix_signs(vecs)
    dim = block.shape[0] + 1
    energies = np.concatenate([[eg], eps])
    full = np.zeros((dim, dim))
    full[0, 0] = 1.0
    full[1:, 1:] = vecs
    return EigenSystem(energies=energies, vectors=full, hamiltonian=h)


def brightness(es: EigenSystem, channels: list[Channel]) -> np.ndarray:
    """Collective optical weight of each eigenstate.

    For the scalar radiative channel this is rate^2 times the squared sum
    of site amplitudes; with dipole weighting it is rate^2 times the
    squared Euclidean norm of the amplitude-weighted dipole sum.  The
    array is cached on ``es`` (ground slot 0).
    """
    radiative = [ch for ch in channels if ch.kind == "radiative"]
    if not radiative:
        raise SpectralError("no radiative channel supplied")
    amp = es.site_amplitudes
    total = np.zeros(es.dimension)
    for ch in radiative:
        rate = ch.spectral.rate
        total[1:] += rate**2 * (amp @ ch.operator) ** 2
    es.brightness = total
    return total


@dataclass
class RateMatrix:
    """Golden-rule rates between eigenstates, with per-kind blocks.

    ``w[n, m]`` is the total rate from state m into state n; ``blocks``
    splits it by channel kind ("phonon", "radiative", ...), summing to
    ``w`` exactly.
    """

    w: np.ndarray
    blocks: dict[str, np.ndarray]
    eigensystem: EigenSystem = field(repr=False)


def transition_matrix(es: EigenSystem,
                      channels: list[Channel]) -> RateMatrix:
    """Build the full rate matrix from an eigensystem and a channel set.

    Phonon channels (single-site projectors) sharing a spectral density
    are summed in one product over their sites; every other channel
    couples the ground state to the excited states through its site
    weights.  Channels with ``eigen_target`` set couple the ground state
    directly to the highest ("highest") or lowest ("lowest") excited
    eigenstate with unit matrix element.
    """
    dim = es.dimension
    energies = es.energies
    amp = es.site_amplitudes
    blocks: dict[str, np.ndarray] = {}

    def weights_of(ch: Channel) -> np.ndarray:
        if ch.operator is None or ch.operator.shape != (dim - 1,):
            raise SpectralError(
                f"{ch.kind} channel operator has wrong dimension")
        return ch.operator

    phonon_groups: dict[object, list[np.ndarray]] = {}
    for ch in channels:
        if ch.kind == "phonon":
            phonon_groups.setdefault(ch.spectral, []).append(weights_of(ch))
    if phonon_groups:
        omega_exc = energies[None, 1:] - energies[1:, None]
        target = blocks["phonon"] = np.zeros((dim, dim))
        for spectral, rows in phonon_groups.items():
            weights = np.array(rows)
            if np.any(np.count_nonzero(weights, axis=1) != 1):
                raise SpectralError("phonon channel must act on a single site")
            group, sites = np.nonzero(weights)
            # |<n| w_s P_s |m>|^2 = (|w_s| c_ns^2) (|w_s| c_ms^2)
            csq = amp[:, sites] ** 2 * np.abs(weights[group, sites])
            overlap = csq @ csq.T
            rates = spectral(omega_exc) * overlap
            np.fill_diagonal(rates, 0.0)
            target[1:, 1:] += rates

    omega_from_excited = energies[1:] - energies[0]   # excited -> ground
    omega_into_excited = energies[0] - energies[1:]   # ground -> excited
    for ch in channels:
        if ch.kind == "phonon":
            continue
        if ch.kind not in blocks:
            blocks[ch.kind] = np.zeros((dim, dim))
        target = blocks[ch.kind]
        if ch.eigen_target is not None:
            idx = dim - 1 if ch.eigen_target == "highest" else 1
            omega_down = energies[idx] - energies[0]
            target[0, idx] += float(ch.spectral(omega_down))
            target[idx, 0] += float(ch.spectral(-omega_down))
            continue
        alpha_sq = (amp @ weights_of(ch)) ** 2
        target[0, 1:] += np.asarray(ch.spectral(omega_from_excited)) * alpha_sq
        target[1:, 0] += np.asarray(ch.spectral(omega_into_excited)) * alpha_sq

    w = np.zeros((dim, dim))
    for b in blocks.values():
        w += b
    return RateMatrix(w=w, blocks=blocks, eigensystem=es)


@dataclass(frozen=True)
class RelaxationProfile:
    """Total downhill phonon rate out of each eigenstate."""

    downhill_rates: np.ndarray
    bottleneck_index: int | None


def relaxation_profile(rates: RateMatrix,
                       es: EigenSystem) -> RelaxationProfile:
    """Sum the phonon rates from each state into all lower-energy states.

    The bottleneck is the state with the smallest downhill sum among
    states that have at least one strictly lower-energy partner (the
    globally lowest state trivially has none and is skipped).
    """
    phonon = rates.blocks.get("phonon")
    if phonon is None:
        phonon = np.zeros_like(rates.w)
    energies = es.energies
    dim = es.dimension
    downhill = np.zeros(dim)
    has_lower = np.zeros(dim, dtype=bool)
    for n in range(1, dim):
        below = np.flatnonzero(energies < energies[n])
        below = below[below >= 1]
        if below.size:
            has_lower[n] = True
            downhill[n] = phonon[below, n].sum()
    candidates = np.flatnonzero(has_lower)
    bottleneck = (int(candidates[np.argmin(downhill[candidates])])
                  if candidates.size else None)
    return RelaxationProfile(downhill_rates=downhill,
                             bottleneck_index=bottleneck)


@dataclass(frozen=True)
class BrightDarkCensus:
    """Partition of the excited states by collective optical weight.

    ``band_gap`` is min(bright energies) - max(dark energies).
    ``band_gap_detrended`` first removes each state's share of the linear
    energy gradient (using its cell centroid), which measures the
    separation of the two bands as local band structure rather than in
    absolute energy; for long chains the gradient span can exceed the
    coupling-induced splitting even though every cell's bright states sit
    well above its dark states.
    """

    n_bright: int
    n_dark: int
    bright_indices: np.ndarray
    dark_indices: np.ndarray
    threshold: float
    band_gap: float | None
    band_gap_detrended: float | None


def classify_bright_dark(es: EigenSystem,
                         threshold_fraction: float = DARK_THRESHOLD
                         ) -> BrightDarkCensus:
    """Label each excited state dark iff its brightness is below
    ``threshold_fraction`` times the maximum brightness."""
    if not 0.0 < threshold_fraction < 1.0:
        raise SpectralError("threshold_fraction must lie in (0, 1)")
    if es.brightness is None:
        raise SpectralError("compute brightness before classifying")
    b = es.brightness[1:]
    cutoff = threshold_fraction * b.max()
    dark_mask = b < cutoff
    dark = np.flatnonzero(dark_mask) + 1
    bright = np.flatnonzero(~dark_mask) + 1
    gap = gap_removed = None
    if dark.size and bright.size:
        energies = es.excited_energies
        gap = float(energies[bright - 1].min() - energies[dark - 1].max())
        params = es.hamiltonian.params
        offsets = (es.geometry.n_cells - es.cell_centroids()) * params.delta_e
        detrended = energies - offsets
        gap_removed = float(detrended[bright - 1].min()
                            - detrended[dark - 1].max())
    return BrightDarkCensus(
        n_bright=int(bright.size), n_dark=int(dark.size),
        bright_indices=bright, dark_indices=dark,
        threshold=float(cutoff), band_gap=gap,
        band_gap_detrended=gap_removed,
    )


def eigenstructure_tables(es: EigenSystem) -> tuple[list[dict], list[dict]]:
    """Flatten an eigensystem into per-state and per-amplitude rows.

    Returns (states, amplitudes): one row per eigenstate with energy and
    brightness, and one row per (excited state, site) pair with the
    site-basis amplitude.
    """
    b = es.brightness if es.brightness is not None else np.zeros(es.dimension)
    states = [
        {"state_index": k, "energy": float(es.energies[k]),
         "brightness": float(b[k])}
        for k in range(es.dimension)
    ]
    geometry = es.geometry
    amp = es.site_amplitudes
    amplitudes = []
    for n in range(es.n_excited):
        for s in range(geometry.n_sites):
            amplitudes.append(
                {"state_index": n + 1, "energy": float(es.energies[n + 1]),
                 "brightness": float(b[n + 1]), "site_index": s,
                 "cell": int(geometry.cells[s]),
                 "slot": int(geometry.slots[s]),
                 "amplitude": float(amp[n, s])}
            )
    return states, amplitudes
