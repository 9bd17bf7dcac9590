"""Single-excitation Hamiltonians with an energy gradient.

The Hilbert space is spanned by one shared ground state (basis index 0)
followed by one excited state per site, in flattened site order.  On-site
energies decrease linearly down the chain: a site in cell mu sits at
(N - mu) * delta_e + e0, so injection at cell 1 feeds the top of the
gradient and extraction at cell N drains the bottom.

Coherent couplings follow an inverse-cube law.  Within a cell every site
pair is coupled with scale ``jb``; between different cells only
corresponding slots (the same position in each cell) are coupled, with
scale ``ja``, so the network is a bundle of parallel chains tied together
by the intra-cell coupling.  With ``jb = 0`` the chains decouple exactly.
In dipole mode the scalar 1/r^3 factor is replaced by the orientation-
dependent point-dipole interaction.
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
    """Energy and coupling scales, in units of the inter-cell coupling."""

    delta_e: float = DEFAULTS["delta_e"]
    e0: float = DEFAULTS["e0"]
    eg: float = DEFAULTS["eg"]
    ja: float = DEFAULTS["ja"]
    jb: float = DEFAULTS["jb"]
    dipole_mode: bool = False

    def __post_init__(self):
        if self.ja != 1.0:
            raise HamiltonianError(
                "ja is fixed to 1 by the dimensionless rescaling; "
                f"got {self.ja}"
            )


@dataclass(frozen=True)
class Hamiltonian:
    """Dense symmetric Hamiltonian over the ground + site basis.

    ``matrix`` has dimension (n_sites + 1); row/column 0 is the decoupled
    ground state.
    """

    matrix: np.ndarray
    geometry: Geometry
    params: HamiltonianParams

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

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
        if self.sigma < 0:
            raise HamiltonianError(f"sigma must be >= 0, got {self.sigma}")

    def draw(self, n_sites: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, self.realization_index])
        return rng.normal(0.0, self.sigma, n_sites)


def dipole_coupling(r_i, d_i, r_j, d_j, j: float) -> float:
    """Point-dipole coupling between two sites.

    Returns j * [d_i . d_j - 3 (d_i . rhat)(d_j . rhat)] / |r_i - r_j|^3
    with rhat the unit vector along the separation.  Both dipoles must be
    unit vectors.
    """
    r_i = np.asarray(r_i, dtype=float)
    r_j = np.asarray(r_j, dtype=float)
    d_i = np.asarray(d_i, dtype=float)
    d_j = np.asarray(d_j, dtype=float)
    sep = r_i - r_j
    dist = np.linalg.norm(sep)
    if dist < 1e-12:
        raise HamiltonianError("coincident sites have no finite coupling")
    for d in (d_i, d_j):
        if abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise HamiltonianError("dipole vectors must have unit norm")
    rhat = sep / dist
    angular = d_i @ d_j - 3.0 * (d_i @ rhat) * (d_j @ rhat)
    return j * angular / dist**3


def build_hamiltonian(geometry: Geometry,
                      params: HamiltonianParams) -> Hamiltonian:
    """Assemble the dense Hamiltonian for a geometry.

    In dipole mode every site must carry a dipole vector; the same pairs
    are coupled as in scalar mode, with the point-dipole form replacing
    the plain 1/r^3 factor.
    """
    if params.dipole_mode and geometry.dipoles is None:
        raise HamiltonianError("dipole_mode requires dipoles on every site")
    n = geometry.sites_per_cell
    ns = geometry.n_sites
    pos = geometry.positions
    h = np.zeros((ns + 1, ns + 1))
    h[0, 0] = params.eg
    cells = geometry.cells
    diag = (geometry.n_cells - cells) * params.delta_e + params.e0
    h[np.arange(1, ns + 1), np.arange(1, ns + 1)] = diag
    for a in range(ns):
        for b in range(a + 1, ns):
            same_cell = a // n == b // n
            same_slot = a % n == b % n
            if not same_cell and not same_slot:
                continue
            scale = params.jb if same_cell else params.ja
            if params.dipole_mode:
                v = dipole_coupling(pos[a], geometry.dipoles[a],
                                    pos[b], geometry.dipoles[b], scale)
            else:
                dist = np.linalg.norm(pos[a] - pos[b])
                v = scale / dist**3
            h[a + 1, b + 1] = h[b + 1, a + 1] = v
    h.setflags(write=False)
    return Hamiltonian(matrix=h, geometry=geometry, params=params)


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
