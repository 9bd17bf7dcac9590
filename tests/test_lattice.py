import numpy as np
import pytest

from excitonchain.lattice import (CELL_LAYOUTS, GeometryError, assign_dipoles,
                                  build_geometry)

ALL_KINDS = sorted(CELL_LAYOUTS)


def intra_cell_distances(geometry, cell=1):
    sites = geometry.cell_sites(cell)
    pos = geometry.positions[sites]
    out = []
    for a in range(len(sites)):
        for b in range(a + 1, len(sites)):
            out.append(np.linalg.norm(pos[a] - pos[b]))
    return sorted(out)


def test_mono_positions_are_a_single_chain():
    geo = build_geometry("mono", 3)
    expected = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    np.testing.assert_array_equal(geo.positions, expected)


def test_dimer_in_cell_spacing_is_unit():
    geo = build_geometry("dimer", 1)
    assert intra_cell_distances(geo) == pytest.approx([1.0])


def test_prism_unit_side_and_unit_cell_spacing():
    geo = build_geometry("prism", 2)
    for cell in (1, 2):
        np.testing.assert_allclose(intra_cell_distances(geo, cell),
                                   [1.0, 1.0, 1.0], atol=1e-12)
    for slot in (1, 2, 3):
        a = geo.positions[geo.flat_index(1, slot)]
        b = geo.positions[geo.flat_index(2, slot)]
        assert np.linalg.norm(a - b) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("kind,multiset", [
    ("trimer", [1.0, 1.0, 2.0]),
    ("prism", [1.0, 1.0, 1.0]),
    ("cuboid", [1.0, 1.0, 1.0, 1.0, np.sqrt(2), np.sqrt(2)]),
])
def test_in_cell_distance_multisets(kind, multiset):
    geo = build_geometry(kind, 1)
    np.testing.assert_allclose(intra_cell_distances(geo), multiset,
                               atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_corresponding_sites_separated_by_cell_difference(kind):
    geo = build_geometry(kind, 5)
    for mu in range(1, 6):
        for nu in range(1, 6):
            for slot in range(1, geo.sites_per_cell + 1):
                a = geo.positions[geo.flat_index(mu, slot)]
                b = geo.positions[geo.flat_index(nu, slot)]
                assert np.linalg.norm(a - b) == pytest.approx(
                    abs(mu - nu), abs=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pairwise_distances_invariant_under_translation(kind, rng):
    positions = build_geometry(kind, 4).positions
    distances = [np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
                 for p in (positions, positions + rng.normal(size=3))]
    np.testing.assert_allclose(*distances, atol=1e-12)


def test_cells_are_centered_on_the_axis():
    for kind in ALL_KINDS:
        geo = build_geometry(kind, 3)
        for cell in (1, 2, 3):
            centroid = geo.positions[geo.cell_sites(cell)].mean(axis=0)
            np.testing.assert_allclose(centroid[1:], 0.0, atol=1e-12)


def test_custom_layout_is_centered_and_checked():
    geo = build_geometry("custom", 2, custom_layout=[[0.0, 0.0], [3.0, 0.0]])
    np.testing.assert_allclose(
        geo.positions[geo.cell_sites(1)].mean(axis=0)[1:], 0.0, atol=1e-12)
    with pytest.raises(GeometryError, match="duplicate"):
        build_geometry("custom", 1, custom_layout=[[0, 0], [0, 0]])
    with pytest.raises(GeometryError):
        build_geometry("custom", 1)


def test_invalid_inputs_rejected():
    with pytest.raises(GeometryError):
        build_geometry("mono", 0)
    with pytest.raises(GeometryError, match="unknown cell kind"):
        build_geometry("hexagon", 3)


def test_flat_index_is_bijective():
    geo = build_geometry("prism", 4)
    seen = set()
    for cell in range(1, 5):
        for slot in range(1, 4):
            k = geo.flat_index(cell, slot)
            assert geo.cells[k] == cell and geo.slots[k] == slot
            seen.add(k)
    assert seen == set(range(12))


def test_dipoles_along_transport():
    geo = assign_dipoles(build_geometry("prism", 2), "transport")
    np.testing.assert_array_equal(geo.dipoles,
                                  np.tile([1.0, 0, 0], (6, 1)))


def test_dipoles_along_axis_are_normalized():
    geo = assign_dipoles(build_geometry("dimer", 1), (0.0, 0.0, 2.0))
    np.testing.assert_allclose(geo.dipoles, np.tile([0, 0, 1.0], (2, 1)),
                               atol=1e-15)


def test_per_site_dipoles_validated():
    geo = build_geometry("dimer", 1)
    with pytest.raises(GeometryError, match="zero dipole"):
        assign_dipoles(geo, [[1.0, 0, 0], [0, 0, 0]])
    with pytest.raises(GeometryError):
        assign_dipoles(geo, [[1.0, 0, 0]])
    with pytest.raises(GeometryError, match="unknown dipole scheme"):
        assign_dipoles(geo, "sideways")
    out = assign_dipoles(geo, [[2.0, 0, 0], [0, 3.0, 0]])
    np.testing.assert_allclose(out.dipoles, [[1, 0, 0], [0, 1, 0]],
                               atol=1e-15)
