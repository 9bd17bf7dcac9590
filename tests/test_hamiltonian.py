import numpy as np
import pytest

from excitonchain.environment import EnvironmentParams, build_channels
from excitonchain.hamiltonian import (DisorderSpec, HamiltonianError,
                                      HamiltonianParams, apply_disorder,
                                      build_hamiltonian, cell_block,
                                      chain_block)
from excitonchain.lattice import Geometry, assign_dipoles, build_geometry

CUSTOM_LAYOUT = np.array([[0.0, 0.0], [1.3, 0.2], [0.4, 1.7], [-0.9, 0.8]])


def build(kind, n_cells, jb=1.0, **kwargs):
    return build_hamiltonian(build_geometry(kind, n_cells),
                             HamiltonianParams(**kwargs), jb)


def dipole_coupling(r_i, d_i, r_j, d_j, j):
    """Point-dipole coupling of one site pair, the brute-force oracle."""
    sep = np.asarray(r_i, dtype=float) - np.asarray(r_j, dtype=float)
    dist = np.linalg.norm(sep)
    rhat = sep / dist
    d_i = np.asarray(d_i, dtype=float)
    d_j = np.asarray(d_j, dtype=float)
    angular = d_i @ d_j - 3.0 * (d_i @ rhat) * (d_j @ rhat)
    return j * angular / dist**3


def pair_loop_matrix(geometry, params, jb):
    """The Hamiltonian assembled one site pair at a time."""
    n, ns = geometry.sites_per_cell, geometry.n_sites
    pos, dip = geometry.positions, geometry.dipoles
    h = np.zeros((ns + 1, ns + 1))
    h[0, 0] = params.eg
    for a in range(ns):
        h[a + 1, a + 1] = ((geometry.n_cells - a // n - 1) * params.delta_e
                           + params.e0)
        for b in range(a + 1, ns):
            same_cell = a // n == b // n
            if not same_cell and a % n != b % n:
                continue
            scale = jb if same_cell else 1.0
            if dip is not None:
                v = dipole_coupling(pos[a], dip[a], pos[b], dip[b], scale)
            else:
                v = scale / np.linalg.norm(pos[a] - pos[b])**3
            h[a + 1, b + 1] = h[b + 1, a + 1] = v
    return h


def two_sites(r_j, d_i=None, d_j=None):
    """One cell of two sites, the first at the origin."""
    positions = np.array([(0.0, 0.0, 0.0), r_j], dtype=float)
    dipoles = None if d_i is None else np.array([d_i, d_j], dtype=float)
    return Geometry(kind="custom", n_cells=1, sites_per_cell=2,
                    positions=positions, dipoles=dipoles)


def test_mono_two_cells_matches_direct_substitution():
    h = build("mono", 2, delta_e=1.0, e0=100.0)
    np.testing.assert_allclose(h.excited_block,
                               [[101.0, 1.0], [1.0, 100.0]], atol=0)
    assert h.matrix[0, 0] == 0.0


def test_dimer_single_cell_intra_coupling():
    h = build("dimer", 1, jb=10.0)
    np.testing.assert_allclose(h.excited_block,
                               [[100.0, 10.0], [10.0, 100.0]], atol=0)


def test_trimer_single_cell_inverse_cube_law():
    h = build("trimer", 1, jb=1.0)
    off = h.excited_block[np.triu_indices(3, k=1)]
    np.testing.assert_allclose(sorted(off), [1 / 8, 1.0, 1.0], atol=1e-15)


def test_matrix_exactly_symmetric_and_ground_decoupled():
    h = build("prism", 7, jb=3.7)
    assert np.abs(h.matrix - h.matrix.T).max() == 0.0
    assert np.all(h.matrix[0, 1:] == 0.0)
    assert np.all(h.matrix[1:, 0] == 0.0)


def test_long_range_couplings_present_between_all_cells():
    h = build("mono", 5)
    # corresponding sites three cells apart couple with 1/27
    assert h.excited_block[0, 3] == pytest.approx(1 / 27)


def test_cross_slot_inter_cell_pairs_uncoupled():
    h = build("dimer", 2, jb=5.0)
    geo = h.geometry
    a = geo.flat_index(1, 1)
    b = geo.flat_index(2, 2)
    assert h.excited_block[a, b] == 0.0


@pytest.mark.parametrize("kind", ["mono", "dimer", "trimer", "prism",
                                  "cuboid", "custom"])
@pytest.mark.parametrize("dipoles", ["scalar", "transport", "vector",
                                     "per-site"])
def test_build_matches_the_pair_loop_exactly(kind, dipoles):
    layout = CUSTOM_LAYOUT if kind == "custom" else None
    for n_cells in (1, 2, 7, 30):
        geo = build_geometry(kind, n_cells, layout)
        if dipoles == "transport":
            geo = assign_dipoles(geo, "transport")
        elif dipoles == "vector":
            geo = assign_dipoles(geo, (0.3, -0.7, 0.5))
        elif dipoles == "per-site":
            rng = np.random.default_rng([n_cells, geo.sites_per_cell])
            geo = assign_dipoles(geo, rng.normal(size=(geo.n_sites, 3)))
        for jb in (0.1, 3.7):
            params = HamiltonianParams()
            assert np.array_equal(build_hamiltonian(geo, params, jb).matrix,
                                  pair_loop_matrix(geo, params, jb))


@pytest.mark.parametrize("r_j,d_i,d_j,expected", [
    ((1.0, 0, 0), (1, 0, 0), (1, 0, 0), -2.0),
    ((1.0, 0, 0), (0, 1, 0), (0, 1, 0), 1.0),
    ((0, 2.0, 0), (1, 0, 0), (1, 0, 0), 1 / 8),
])
def test_dipole_coupling_reference_values(r_j, d_i, d_j, expected):
    h = build_hamiltonian(two_sites(r_j, d_i, d_j), HamiltonianParams(), 1.0)
    assert h.excited_block[0, 1] == pytest.approx(expected, abs=1e-15)
    assert h.excited_block[1, 0] == h.excited_block[0, 1]


def test_dipole_coupling_rejects_bad_inputs():
    with pytest.raises(HamiltonianError, match="coincident"):
        build_hamiltonian(two_sites((0, 0, 0), (1, 0, 0), (1, 0, 0)),
                          HamiltonianParams(), 1.0)
    with pytest.raises(HamiltonianError, match="coincident"):
        build_hamiltonian(two_sites((0, 0, 0)), HamiltonianParams(), 1.0)
    # two cells of one site each: the coincident pair is a chain pair
    stacked = Geometry(kind="custom", n_cells=2, sites_per_cell=1,
                       positions=np.zeros((2, 3)))
    with pytest.raises(HamiltonianError, match="coincident"):
        build_hamiltonian(stacked, HamiltonianParams(), 1.0)
    with pytest.raises(HamiltonianError, match="unit norm"):
        build_hamiltonian(two_sites((1, 0, 0), (2, 0, 0), (1, 0, 0)),
                          HamiltonianParams(), 1.0)


def test_transport_aligned_dipoles_double_the_inter_cell_coupling():
    geo = assign_dipoles(build_geometry("prism", 2), "transport")
    h = build_hamiltonian(geo, HamiltonianParams(), 4.0)
    a = geo.flat_index(1, 1)
    b = geo.flat_index(2, 1)
    assert h.excited_block[a, b] == pytest.approx(-2.0)
    # in-cell separations are orthogonal to the dipoles: plain 1/r^3
    c = geo.flat_index(1, 2)
    assert h.excited_block[a, c] == pytest.approx(4.0)


def test_dipoles_reduce_to_scalar_when_orthogonal():
    # trimer separations lie in the x-y plane; z dipoles are orthogonal to
    # every separation and mutually parallel
    geo = build_geometry("trimer", 3)
    scalar = build_hamiltonian(geo, HamiltonianParams(), 2.5)
    dipolar = build_hamiltonian(assign_dipoles(geo, (0.0, 0.0, 1.0)),
                                HamiltonianParams(), 2.5)
    np.testing.assert_allclose(dipolar.matrix, scalar.matrix, atol=1e-14)


def test_dipoles_switch_couplings_and_emission_together():
    # one input: the geometry's dipoles set both the point-dipole
    # couplings and the Cartesian rows of the radiative channel
    geo = assign_dipoles(build_geometry("prism", 5), "transport")
    h = build_hamiltonian(geo, HamiltonianParams(), 1.0)
    assert np.array_equal(h.matrix, pair_loop_matrix(geo, h.params, 1.0))
    # aligned along the chain, dipoles double the nearest chain coupling
    # and flip its sign
    assert h.excited_block[0, geo.sites_per_cell] == -2.0
    [radiative] = [ch for ch in build_channels(geo, EnvironmentParams())
                   if ch.kind == "radiative"]
    assert radiative.operator.shape == (3, geo.n_sites)
    assert np.array_equal(radiative.operator, geo.dipoles.T)


@pytest.mark.parametrize("dipoles", [None, "transport", (1.0, 2.0, 0.5)],
                         ids=["scalar", "transport", "vector"])
@pytest.mark.parametrize("kind", ["mono", "dimer", "trimer", "prism",
                                  "cuboid"])
def test_clean_chains_record_their_kronecker_factors(kind, dipoles):
    # the excited block is exactly T (x) 1_n + 1_N (x) B; T does not depend
    # on jb and B not on N, so a sweep may share their solves; N = 24 and
    # 40 bound the pinned rows, whose block is formed as this sum
    first = build_geometry(kind, 1)
    if dipoles is not None:
        first = assign_dipoles(first, dipoles)
    for n_cells in (1, 2, 7, 24, 30, 40, 100):
        geo = build_geometry(kind, n_cells)
        if dipoles is not None:
            geo = assign_dipoles(geo, dipoles)
        n = geo.sites_per_cell
        for jb in (0.1, 3.7):
            params = HamiltonianParams()
            h = build_hamiltonian(geo, params, jb)
            chain, cell = h.factors
            assert np.array_equal(
                h.excited_block,
                np.kron(chain, np.eye(n)) + np.kron(np.eye(n_cells), cell))
            assert np.array_equal(chain, chain_block(geo, params))
            assert np.array_equal(cell, cell_block(first, jb))


def test_disorder_and_differing_cells_record_no_factors():
    geo = build_geometry("prism", 4)
    h = build_hamiltonian(geo, HamiltonianParams(), 1.0)
    assert h.factors is not None
    assert apply_disorder(h, DisorderSpec(sigma=0.5, seed=1)).factors is None
    rng = np.random.default_rng(4)
    per_site = assign_dipoles(geo, rng.normal(size=(geo.n_sites, 3)))
    dense = build_hamiltonian(per_site, HamiltonianParams(), 1.0)
    assert dense.factors is None
    # T is still slot 1's chain, the gradient on its diagonal
    assert np.array_equal(chain_block(per_site, HamiltonianParams()),
                          dense.excited_block[::3, ::3])
    # a cell whose sites do not share one x, or a layout that is not
    # repeated, gives no factors
    assert build_hamiltonian(two_sites((1.0, 0.5, 0.0)),
                             HamiltonianParams(), 1.0).factors is None
    moved = geo.positions.copy()
    moved[-1, 1] += 0.25
    assert build_hamiltonian(Geometry("custom", 4, 3, moved),
                             HamiltonianParams(), 1.0).factors is None


def test_zero_sigma_disorder_is_identity():
    h = build("dimer", 3)
    out = apply_disorder(h, DisorderSpec(sigma=0.0, seed=5))
    assert np.array_equal(out.matrix, h.matrix)


def test_disorder_is_deterministic_per_seed_and_index():
    h = build("prism", 4)
    spec = DisorderSpec(sigma=0.9, seed=42, realization_index=7)
    first = apply_disorder(h, spec)
    second = apply_disorder(h, spec)
    assert np.array_equal(first.matrix, second.matrix)
    other = apply_disorder(h, DisorderSpec(sigma=0.9, seed=42,
                                           realization_index=8))
    assert not np.array_equal(first.matrix, other.matrix)


def test_disorder_touches_only_the_excited_diagonal():
    h = build("dimer", 2)
    out = apply_disorder(h, DisorderSpec(sigma=1.5, seed=3))
    delta = out.matrix - h.matrix
    off_diag = delta - np.diag(np.diag(delta))
    assert np.abs(off_diag).max() == 0.0
    assert delta[0, 0] == 0.0
    assert np.abs(np.diag(delta)[1:]).min() > 0.0


def test_disorder_sampling_statistics():
    # law-of-large-numbers check on the generator behind apply_disorder
    sigma = 0.9
    draws = DisorderSpec(sigma=sigma, seed=99).draw(10_000)
    assert abs(draws.mean()) < 3 * sigma / np.sqrt(10_000)
    assert abs(draws.std() - sigma) / sigma < 0.05


def test_negative_sigma_rejected():
    with pytest.raises(HamiltonianError):
        DisorderSpec(sigma=-0.1)


def test_non_finite_sigma_rejected():
    for sigma in (np.nan, np.inf):
        with pytest.raises(HamiltonianError, match="sigma"):
            DisorderSpec(sigma=sigma)


@pytest.mark.parametrize("name", ["delta_e", "e0", "eg", "jb"])
def test_non_finite_parameters_rejected_by_name(name):
    # jb is an argument of the builders, checked for clean chains and
    # for geometries with no factors alike
    clean = build_geometry("dimer", 2)
    per_site = assign_dipoles(
        clean, np.random.default_rng(4).normal(size=(clean.n_sites, 3)))
    for value in (np.nan, np.inf, -np.inf):
        match = f"^{name} must be finite"
        if name != "jb":
            with pytest.raises(HamiltonianError, match=match):
                HamiltonianParams(**{name: value})
            continue
        for geo in (clean, per_site):
            with pytest.raises(HamiltonianError, match=match):
                build_hamiltonian(geo, HamiltonianParams(), value)
            with pytest.raises(HamiltonianError, match=match):
                cell_block(geo, value)
