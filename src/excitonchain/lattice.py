"""Site geometries for chains of repeated planar unit cells.

A transport network is a chain of ``n_cells`` identical unit cells along the
x axis (the transport direction), with the sites of each cell arranged in the
orthogonal y-z plane.  Neighbouring cells are exactly one length unit apart
and the nearest-neighbour spacing inside a cell is also one, so coupling
scales divided by cubed distances stay directly interpretable.

Supported cell kinds
--------------------
- ``mono``:   one site on the axis (a plain linear chain)
- ``dimer``:  two sites, 1 apart
- ``trimer``: three collinear sites, spaced 1 (three parallel chains)
- ``prism``:  equilateral triangle with side 1
- ``cuboid``: unit square
- custom:     any set of distinct in-plane coordinates

Sites are addressed either by (cell, slot), both 1-based, or by the flattened
index (cell - 1) * sites_per_cell + (slot - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

_SQRT3 = np.sqrt(3.0)

# In-plane (y, z) coordinates per named cell kind, each centred on the axis.
CELL_LAYOUTS: dict[str, np.ndarray] = {
    "mono": np.array([[0.0, 0.0]]),
    "dimer": np.array([[-0.5, 0.0], [0.5, 0.0]]),
    "trimer": np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
    "prism": np.array(
        [
            [0.0, 1.0 / _SQRT3],
            [0.5, -0.5 / _SQRT3],
            [-0.5, -0.5 / _SQRT3],
        ]
    ),
    "cuboid": np.array(
        [
            [-0.5, -0.5],
            [-0.5, 0.5],
            [0.5, -0.5],
            [0.5, 0.5],
        ]
    ),
}


class GeometryError(ValueError):
    """Raised for invalid cell layouts or dipole assignments."""


@dataclass(frozen=True)
class Geometry:
    """Immutable site layout of a transport network.

    Attributes:
        kind: cell-kind name ("mono", ..., or "custom").
        n_cells: number of unit cells N.
        sites_per_cell: sites per cell n.
        positions: (N*n, 3) array of site coordinates; cell mu occupies the
            plane x = mu - 1 and flattened site order is cell-major.
        dipoles: optional (N*n, 3) array of unit dipole vectors.
    """

    kind: str
    n_cells: int
    sites_per_cell: int
    positions: np.ndarray
    dipoles: np.ndarray | None = None

    @property
    def n_sites(self) -> int:
        return self.n_cells * self.sites_per_cell

    @property
    def cells(self) -> np.ndarray:
        """1-based cell index of every site, in flattened order."""
        return np.repeat(np.arange(1, self.n_cells + 1), self.sites_per_cell)

    @property
    def slots(self) -> np.ndarray:
        """1-based in-cell slot index of every site, in flattened order."""
        return np.tile(np.arange(1, self.sites_per_cell + 1), self.n_cells)

    def flat_index(self, cell: int, slot: int) -> int:
        if not (1 <= cell <= self.n_cells and 1 <= slot <= self.sites_per_cell):
            raise IndexError(f"site ({cell}, {slot}) outside geometry")
        return (cell - 1) * self.sites_per_cell + (slot - 1)

    def cell_sites(self, cell: int) -> np.ndarray:
        """Flattened indices of all sites in the given cell."""
        base = (cell - 1) * self.sites_per_cell
        return np.arange(base, base + self.sites_per_cell)


def build_geometry(
    kind: str,
    n_cells: int,
    custom_layout: np.ndarray | None = None,
) -> Geometry:
    """Construct site positions for ``n_cells`` repeated unit cells.

    Args:
        kind: one of the named kinds in ``CELL_LAYOUTS``, or "custom".
        n_cells: number of cells (>= 1).
        custom_layout: (n, 2) in-plane coordinates, required for "custom".
            The layout is re-centred so every cell sits on the transport axis.
    """
    if n_cells < 1:
        raise GeometryError(f"n_cells must be >= 1, got {n_cells}")
    if kind == "custom":
        if custom_layout is None:
            raise GeometryError("custom geometry requires an in-plane layout")
        layout = np.atleast_2d(np.asarray(custom_layout, dtype=float))
        if layout.ndim != 2 or layout.shape[1] != 2 or layout.shape[0] < 1:
            raise GeometryError("custom layout must be an (n, 2) array")
        diff = layout[:, None, :] - layout[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        np.fill_diagonal(dist, np.inf)
        if dist.min() < 1e-12:
            raise GeometryError("custom layout contains duplicate coordinates")
        layout = layout - layout.mean(axis=0)
    else:
        try:
            layout = CELL_LAYOUTS[kind]
        except KeyError:
            known = ", ".join(sorted(CELL_LAYOUTS))
            raise GeometryError(f"unknown cell kind {kind!r} (known: {known})")
    n = layout.shape[0]
    positions = np.empty((n_cells, n, 3))  # cell mu in the plane x = mu - 1
    positions[..., 0], positions[..., 1:] = np.arange(n_cells)[:, None], layout
    positions = positions.reshape(n_cells * n, 3)
    positions.setflags(write=False)
    return Geometry(kind=kind, n_cells=n_cells, sites_per_cell=n,
                    positions=positions)


def assign_dipoles(geometry: Geometry, scheme) -> Geometry:
    """Return a copy of ``geometry`` with unit dipole vectors attached.

    Args:
        geometry: the bare geometry.
        scheme: "transport" aligns every dipole with the transport (x) axis;
            a single 3-vector aligns every dipole with that axis; an
            (n_sites, 3) array sets dipoles per site.  All supplied vectors
            must be nonzero and are normalized to unit length.
    """
    ns = geometry.n_sites
    if isinstance(scheme, str):
        if scheme != "transport":
            raise GeometryError(f"unknown dipole scheme {scheme!r}")
        vecs = np.tile([1.0, 0.0, 0.0], (ns, 1))
    else:
        arr = np.asarray(scheme, dtype=float)
        if arr.shape == (3,):
            vecs = np.tile(arr, (ns, 1))
        elif arr.shape == (ns, 3):
            vecs = arr.copy()
        else:
            raise GeometryError(
                f"dipole scheme must be 'transport', a 3-vector, or an "
                f"({ns}, 3) array; got shape {arr.shape}"
            )
    norms = np.linalg.norm(vecs, axis=1)
    if np.any(norms < 1e-15):
        bad = int(np.argmin(norms))
        raise GeometryError(f"zero dipole vector at site index {bad}")
    vecs = vecs / norms[:, None]
    vecs.setflags(write=False)
    return replace(geometry, dipoles=vecs)
