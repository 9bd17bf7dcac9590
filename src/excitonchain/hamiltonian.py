"""Single-excitation Hamiltonians with an energy gradient.

The Hilbert space is spanned by one shared ground state (basis index 0)
followed by one excited state per site, in flattened site order.  On-site
energies decrease linearly down the chain: a site in cell mu sits at
(N - mu) * delta_e + e0, so injection at cell 1 feeds the top of the
gradient and extraction at cell N drains the bottom.

Coherent couplings follow an inverse-cube law.  Within a cell every site
pair is coupled with scale ``jb``: N per-cell (n x n) blocks.  Between cells
only corresponding slots are coupled, with the fixed scale ``DEFAULTS["ja"]``
= 1: n per-slot (N x N) chains.  The network is a bundle of parallel chains
tied together by the intra-cell coupling; with ``jb = 0`` they decouple
exactly.  A geometry that carries site dipoles replaces the scalar 1/r^3
factor by the orientation-dependent point-dipole interaction; the same
dipoles weight its radiative channel (``environment.build_channels``).

A clean chain (every cell the first one shifted along x, and no dipoles
or one dipole on every site) has the excited block T (x) 1_n + 1_N (x) B:
T, slot 1's chain with the gradient diagonal, does not depend on jb, and
B, the in-cell couplings, not on N.  :func:`chain_block` builds T for
any geometry and :func:`cell_block` B; :func:`build_hamiltonian` records
the pair for a clean chain only, and disorder drops it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULTS
from .lattice import Geometry


class HamiltonianError(ValueError):
    """Raised for invalid Hamiltonian parameters or inputs."""


@dataclass(frozen=True)
class HamiltonianParams:
    """The energy scales, in units of the inter-cell coupling; each must
    be finite.  The in-cell coupling ``jb`` is an argument of the
    builders, and the geometry's dipoles make the couplings dipolar."""

    delta_e: float = DEFAULTS["delta_e"]
    e0: float = DEFAULTS["e0"]
    eg: float = DEFAULTS["eg"]

    def __post_init__(self):
        for name, value in vars(self).items():
            _finite_scale(name, value)


def _finite_scale(name: str, value: float) -> None:
    if not np.isfinite(value):
        raise HamiltonianError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Hamiltonian:
    """Dense symmetric Hamiltonian over the ground + site basis.

    ``matrix`` has dimension (n_sites + 1); row/column 0 is the decoupled
    ground state.  ``factors`` is (T, B) for a clean chain, whose excited
    block is T (x) 1_n + 1_N (x) B (:func:`chain_block`,
    :func:`cell_block`); it is None after disorder and for dipoles that
    differ between sites.
    """

    matrix: np.ndarray
    geometry: Geometry
    params: HamiltonianParams
    factors: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def excited_block(self) -> np.ndarray:
        return self.matrix[1:, 1:]


@dataclass(frozen=True)
class DisorderSpec:
    """Seeded Gaussian on-site energy perturbations.

    The draw for a given (seed, realization_index) pair is deterministic
    and independent across realization indices, so ensembles can be
    generated in parallel without sharing generator state.
    """

    sigma: float
    seed: int = 0
    realization_index: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma < np.inf:
            raise HamiltonianError(
                f"sigma must be finite and >= 0, got {self.sigma}")

    def draw(self, n_sites: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, self.realization_index])
        return rng.normal(0.0, self.sigma, n_sites)


@np.errstate(divide="ignore", invalid="ignore")
def _pair_couplings(pos: np.ndarray, dip: np.ndarray | None,
                    scale: float) -> np.ndarray:
    """Couplings of every site pair along axis -2 of (..., m, 3) arrays.

    Entry [..., i, j] is scale / r^3 for separation pos[i] - pos[j], or with
    dipoles scale * [d_i . d_j - 3 (d_i . rhat)(d_j . rhat)] / r^3.  Self
    pairs come out non-finite, without a warning.
    """
    sep = pos[..., :, None, :] - pos[..., None, :, :]
    dist = np.sqrt(np.vecdot(sep, sep))
    if dip is None:
        return scale / dist**3
    rhat = sep / dist[..., None]
    d_i, d_j = dip[..., :, None, :], dip[..., None, :, :]
    angular = (np.vecdot(d_i, d_j)
               - 3.0 * np.vecdot(d_i, rhat) * np.vecdot(d_j, rhat))
    return scale * angular / dist**3


def _dipoles(geometry: Geometry) -> np.ndarray | None:
    """The (N, n, 3) unit site dipoles of the geometry, or None."""
    if geometry.dipoles is None:
        return None
    norms = np.linalg.norm(geometry.dipoles, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise HamiltonianError("dipole vectors must have unit norm")
    return geometry.dipoles.reshape(geometry.n_cells,
                                    geometry.sites_per_cell, 3)


def _finite(couplings: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(couplings)):
        raise HamiltonianError("coincident sites have no finite coupling")
    return couplings


def _clean(geometry: Geometry, dip: np.ndarray | None) -> bool:
    """Whether every cell is the first one shifted along x (one x per
    cell, the same in-plane layout) and the dipoles, if any, are one
    vector: then every in-cell block and every slot's chain are equal."""
    pos = geometry.positions.reshape(geometry.n_cells,
                                     geometry.sites_per_cell, 3)
    return bool((pos[:, :, 1:] == pos[0, :, 1:]).all()
                and (pos[:, :, 0] == pos[:, :1, 0]).all()
                and (dip is None or (dip == dip[0, 0]).all()))


def chain_block(geometry: Geometry, params: HamiltonianParams):
    """T: slot 1's (N x N) chain, the gradient energies on its diagonal,
    the inter-cell couplings off it, and no ``jb``; of a clean chain,
    every slot's chain."""
    dip = _dipoles(geometry)
    n_cells, n = geometry.n_cells, geometry.sites_per_cell
    chain = _pair_couplings(geometry.positions[::n],
                            None if dip is None else dip[:, 0], DEFAULTS["ja"])
    chain[np.diag_indices(n_cells)] = ((n_cells - np.arange(1, n_cells + 1))
                                       * params.delta_e + params.e0)
    return chain


def cell_block(geometry: Geometry, jb: float) -> np.ndarray:
    """B of a clean chain: cell 1's (n x n) in-cell couplings at scale
    ``jb``, zero on the diagonal, and no N, so a one-cell geometry gives
    every length's B."""
    _finite_scale("jb", jb)
    n, dip = geometry.sites_per_cell, _dipoles(geometry)
    cell = _pair_couplings(geometry.positions[:n],
                           None if dip is None else dip[0], jb)
    cell[np.diag_indices(n)] = 0.0
    return _finite(cell)


def build_hamiltonian(geometry: Geometry, params: HamiltonianParams,
                      jb: float) -> Hamiltonian:
    """Assemble the dense Hamiltonian of a geometry at in-cell coupling jb.

    The (cell, slot, cell, slot) view of the excited block takes the N
    in-cell blocks and the n same-slot chains; its strict upper triangle is
    kept and mirrored.  Dipoles on the geometry, each of unit norm,
    replace the 1/r^3 factor by the point-dipole form.  A clean chain
    also records its factors (T, B).
    """
    cell = cell_block(geometry, jb)  # rejects a non-finite jb
    chain = chain_block(geometry, params)
    n_cells, n = geometry.n_cells, geometry.sites_per_cell
    ns = geometry.n_sites
    dip = _dipoles(geometry)
    pos = geometry.positions.reshape(n_cells, n, 3)
    chain_dip = None if dip is None else dip.swapaxes(0, 1)
    blocks = np.zeros((n_cells, n, n_cells, n))
    cells, slots = np.arange(n_cells), np.arange(n)
    blocks[cells, :, cells, :] = _pair_couplings(pos, dip, jb)
    blocks[:, slots, :, slots] = _pair_couplings(
        pos.swapaxes(0, 1), chain_dip, DEFAULTS["ja"])
    upper = np.triu_indices(ns, 1)
    couplings = _finite(blocks.reshape(ns, ns)[upper])
    h = np.zeros((ns + 1, ns + 1))
    h[0, 0] = params.eg
    excited = h[1:, 1:]
    excited[np.diag_indices(ns)] = np.repeat(np.diagonal(chain), n)
    excited[upper] = excited.T[upper] = couplings
    h.setflags(write=False)
    return Hamiltonian(matrix=h, geometry=geometry, params=params,
                       factors=(chain, cell) if _clean(geometry, dip)
                       else None)


def apply_disorder(h: Hamiltonian, spec: DisorderSpec) -> Hamiltonian:
    """Return a copy of ``h`` with Gaussian on-site shifts on the diagonal.

    Only excited on-site energies are perturbed; couplings and the ground
    state are untouched.  ``sigma = 0`` reproduces the input exactly.
    """
    ns = h.geometry.n_sites
    shifts = spec.draw(ns)
    matrix = h.matrix.copy()
    idx = np.arange(1, ns + 1)
    matrix[idx, idx] += shifts
    matrix.setflags(write=False)
    return Hamiltonian(matrix=matrix, geometry=h.geometry, params=h.params)
