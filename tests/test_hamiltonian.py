import numpy as np
import pytest

from excitonchain.hamiltonian import (DisorderSpec, HamiltonianError,
                                      HamiltonianParams, apply_disorder,
                                      build_hamiltonian, dipole_coupling)
from excitonchain.lattice import assign_dipoles, build_geometry


def build(kind, n_cells, **kwargs):
    return build_hamiltonian(build_geometry(kind, n_cells),
                             HamiltonianParams(**kwargs))


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


@pytest.mark.parametrize("r_j,d_i,d_j,expected", [
    ((1.0, 0, 0), (1, 0, 0), (1, 0, 0), -2.0),
    ((1.0, 0, 0), (0, 1, 0), (0, 1, 0), 1.0),
    ((0, 2.0, 0), (1, 0, 0), (1, 0, 0), 1 / 8),
])
def test_dipole_coupling_reference_values(r_j, d_i, d_j, expected):
    value = dipole_coupling((0, 0, 0), d_i, np.array(r_j), d_j, 1.0)
    assert value == pytest.approx(expected, abs=1e-15)


def test_dipole_coupling_rejects_bad_inputs():
    with pytest.raises(HamiltonianError, match="coincident"):
        dipole_coupling((0, 0, 0), (1, 0, 0), (0, 0, 0), (1, 0, 0), 1.0)
    with pytest.raises(HamiltonianError, match="unit norm"):
        dipole_coupling((0, 0, 0), (2, 0, 0), (1, 0, 0), (1, 0, 0), 1.0)


def test_transport_aligned_dipoles_double_the_inter_cell_coupling():
    geo = assign_dipoles(build_geometry("prism", 2), "transport")
    h = build_hamiltonian(geo, HamiltonianParams(jb=4.0, dipole_mode=True))
    a = geo.flat_index(1, 1)
    b = geo.flat_index(2, 1)
    assert h.excited_block[a, b] == pytest.approx(-2.0)
    # in-cell separations are orthogonal to the dipoles: plain 1/r^3
    c = geo.flat_index(1, 2)
    assert h.excited_block[a, c] == pytest.approx(4.0)


def test_dipole_mode_reduces_to_scalar_when_orthogonal():
    # trimer separations lie in the x-y plane; z dipoles are orthogonal to
    # every separation and mutually parallel
    geo = assign_dipoles(build_geometry("trimer", 3), (0.0, 0.0, 1.0))
    scalar = build_hamiltonian(geo, HamiltonianParams(jb=2.5))
    dipolar = build_hamiltonian(geo, HamiltonianParams(jb=2.5,
                                                       dipole_mode=True))
    np.testing.assert_allclose(dipolar.matrix, scalar.matrix, atol=1e-14)


def test_dipole_mode_requires_dipoles():
    with pytest.raises(HamiltonianError, match="dipole"):
        build("mono", 2, dipole_mode=True)


def test_ja_is_pinned_by_the_rescaling():
    with pytest.raises(HamiltonianError, match="ja"):
        HamiltonianParams(ja=2.0)


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
