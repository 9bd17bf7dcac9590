from dataclasses import replace

import numpy as np
import pytest

from excitonchain.environment import EnvironmentParams, build_channels
from excitonchain.hamiltonian import HamiltonianParams, build_hamiltonian
from excitonchain.lattice import assign_dipoles, build_geometry
from excitonchain.spectral import (SpectralError, brightness,
                                   classify_bright_dark, diagonalize,
                                   eigenstructure_tables, relaxation_profile,
                                   transition_matrix)

GAMMA_RAD = EnvironmentParams().gamma_rad


def make_system(kind, n_cells, jb=1.0, dipoles=None, injection_mode="site",
                env=None, **ham_kwargs):
    geo = build_geometry(kind, n_cells)
    if dipoles is not None:
        geo = assign_dipoles(geo, dipoles)
    params = HamiltonianParams(jb=jb, dipole_mode=dipoles is not None,
                               **ham_kwargs)
    h = build_hamiltonian(geo, params)
    es = diagonalize(h)
    env = env or EnvironmentParams()
    channels = build_channels(geo, env, delta_e=params.delta_e,
                              injection_mode=injection_mode)
    return es, channels


def brute_force_rates(es, channels, eigenbasis_operator):
    """Straight evaluation of the golden-rule formula, channel by channel.

    Returns the rate blocks by channel kind.
    """
    dim = es.dimension
    energies = es.energies
    blocks = {}
    for ch in channels:
        op = eigenbasis_operator(es, ch)
        w = blocks.setdefault(ch.kind, np.zeros((dim, dim)))
        for n in range(dim):
            for m in range(dim):
                if n == m:
                    continue
                w[n, m] += ch.spectral(energies[m] - energies[n]) * op[n, m]**2
    return blocks


def test_dimer_single_cell_splitting_and_brightness():
    es, channels = make_system("dimer", 1, jb=10.0)
    np.testing.assert_allclose(es.excited_energies, [90.0, 110.0],
                               atol=1e-10)
    b = brightness(es, channels)
    assert b[1] == pytest.approx(0.0, abs=1e-24)
    assert b[2] == pytest.approx(2 * GAMMA_RAD**2, rel=1e-12)


def test_trimer_middle_eigenstate_is_dark():
    es, channels = make_system("trimer", 1, jb=1.0)
    amp = es.site_amplitudes
    # middle eigenstate: equal weight, opposite sign on the outer sites
    middle = amp[1]
    np.testing.assert_allclose(np.abs(middle),
                               [1 / np.sqrt(2), 0.0, 1 / np.sqrt(2)],
                               atol=1e-10)
    assert np.sign(middle[0]) != np.sign(middle[2])
    b = brightness(es, channels)
    assert b[2] == pytest.approx(0.0, abs=1e-24)


def test_mono_states_all_generically_bright():
    es, channels = make_system("mono", 20)
    b = brightness(es, channels)
    census = classify_bright_dark(es, 1e-6)
    assert census.n_dark == 0
    assert np.all(b[1:] > 0)


def test_orthonormality_and_reconstruction():
    es, _ = make_system("prism", 8, jb=10.0)
    v = es.vectors
    gram = v.T @ v
    assert np.abs(gram - np.eye(es.dimension)).max() < 1e-10
    h = es.hamiltonian.matrix
    rebuilt = v @ np.diag(es.energies) @ v.T
    assert np.abs(rebuilt - h).max() < 1e-8 * np.abs(h).max()


def test_energies_ascending_and_ground_preserved():
    es, _ = make_system("cuboid", 5, jb=10.0)
    assert np.all(np.diff(es.energies) >= 0)
    np.testing.assert_array_equal(es.vectors[:, 0],
                                  np.eye(es.dimension)[:, 0])
    assert es.energies[0] == 0.0


def test_sign_convention_and_determinism():
    es1, _ = make_system("prism", 6, jb=10.0)
    es2, _ = make_system("prism", 6, jb=10.0)
    np.testing.assert_array_equal(es1.vectors, es2.vectors)
    for k in range(1, es1.dimension):
        v = es1.vectors[:, k]
        assert v[np.argmax(np.abs(v))] > 0


def test_degenerate_chains_resolve_to_single_chain_states():
    # with jb = 0 the parallel chains decouple; the canonical basis must not
    # mix the exactly degenerate per-chain states
    es, _ = make_system("trimer", 4, jb=0.0)
    amp = es.site_amplitudes
    slots = es.geometry.slots
    for n in range(es.n_excited):
        support = {int(s) for s in slots[np.abs(amp[n]) > 1e-9]}
        assert len(support) == 1


def test_brightness_sum_rule_scalar_and_dipole(rng):
    for kind in ("mono", "dimer", "trimer", "prism", "cuboid"):
        es, channels = make_system(kind, 20, jb=10.0)
        total = brightness(es, channels).sum()
        expected = GAMMA_RAD**2 * es.geometry.n_sites
        assert total == pytest.approx(expected, rel=1e-10)
    # arbitrary unit dipoles satisfy the same completeness sum
    geo = build_geometry("prism", 20)
    vecs = rng.normal(size=(geo.n_sites, 3))
    es, channels = make_system("prism", 20, jb=10.0, dipoles=vecs)
    total = brightness(es, channels).sum()
    assert total == pytest.approx(GAMMA_RAD**2 * geo.n_sites, rel=1e-10)


def test_brightness_requires_radiative_channel():
    es, channels = make_system("mono", 2)
    with pytest.raises(SpectralError):
        brightness(es, [c for c in channels if c.kind != "radiative"])


def test_rejects_asymmetric_and_overlapping_spectra():
    geo = build_geometry("mono", 2)
    h = build_hamiltonian(geo, HamiltonianParams())
    bad = h.matrix.copy()
    bad[1, 2] = 2.0
    with pytest.raises(SpectralError, match="symmetric"):
        diagonalize(type(h)(matrix=bad, geometry=geo, params=h.params))
    with pytest.raises(SpectralError, match="exceed"):
        make_system("mono", 3, e0=1.0, eg=5.0)


@pytest.mark.parametrize("kind,n_cells,jb,options", [
    ("prism", 2, 4.0, {"env": EnvironmentParams(gamma_nr=0.003)}),
    ("dimer", 3, 2.0, {"injection_mode": "eigen"}),
    ("prism", 2, 4.0, {"dipoles": "transport"}),
], ids=["site", "eigen", "dipoles"])
def test_transition_matrix_matches_brute_force(kind, n_cells, jb, options,
                                               eigenbasis_operator):
    es, channels = make_system(kind, n_cells, jb=jb, **options)
    rates = transition_matrix(es, channels)
    expected = brute_force_rates(es, channels, eigenbasis_operator)
    np.testing.assert_allclose(rates.w, sum(expected.values()), atol=1e-16,
                               rtol=1e-12)
    assert rates.blocks.keys() == expected.keys()
    for kind_name, block in expected.items():
        np.testing.assert_allclose(rates.blocks[kind_name], block,
                                   atol=1e-16, rtol=1e-12)
    total = sum(rates.blocks.values())
    np.testing.assert_allclose(rates.w, total, atol=0)


def test_non_unit_site_weights_match_brute_force(eigenbasis_operator, rng):
    es, channels = make_system("prism", 2, jb=4.0)
    weighted = [replace(ch, operator=rng.uniform(0.5, 2.0) * ch.operator)
                for ch in channels]
    rates = transition_matrix(es, weighted)
    expected = brute_force_rates(es, weighted, eigenbasis_operator)
    np.testing.assert_allclose(rates.w, sum(expected.values()), atol=1e-16,
                               rtol=1e-12)


def test_phonon_channel_must_act_on_a_single_site():
    es, channels = make_system("mono", 2)
    spread = replace(channels[0], operator=np.ones(2))
    with pytest.raises(SpectralError, match="single site"):
        transition_matrix(es, [spread])


def test_phonon_detailed_balance_on_the_built_matrix():
    es, channels = make_system("mono", 5)
    rates = transition_matrix(es, channels)
    ph = rates.blocks["phonon"]
    temp = EnvironmentParams().temperature
    energies = es.energies
    for n in range(1, es.dimension):
        for m in range(1, es.dimension):
            if n == m or ph[n, m] == 0:
                continue
            ratio = ph[n, m] / ph[m, n]
            expected = np.exp((energies[m] - energies[n]) / temp)
            assert abs(ratio / expected - 1) < 1e-12


def test_radiative_rates_fold_in_the_plateau_and_stay_one_way():
    es, channels = make_system("dimer", 4, jb=1.0)
    b = brightness(es, channels)
    rates = transition_matrix(es, channels)
    rad = rates.blocks["radiative"]
    np.testing.assert_allclose(rad[0, 1:], b[1:] / GAMMA_RAD, rtol=1e-12,
                               atol=1e-30)
    assert np.all(rad[1:, 0] == 0.0)


def test_rates_nonnegative_and_phonon_avoids_ground():
    es, channels = make_system("cuboid", 3, jb=10.0)
    rates = transition_matrix(es, channels)
    assert rates.w.min() >= 0.0
    ph = rates.blocks["phonon"]
    assert np.all(ph[0, :] == 0.0) and np.all(ph[:, 0] == 0.0)


def test_disjoint_support_states_have_zero_phonon_rate():
    es, channels = make_system("dimer", 2, jb=0.0)
    amp = es.site_amplitudes
    slots = es.geometry.slots
    rates = transition_matrix(es, channels)
    ph = rates.blocks["phonon"]
    chain = [int(slots[np.argmax(amp[n] ** 2)]) for n in range(es.n_excited)]
    for n in range(es.n_excited):
        for m in range(es.n_excited):
            if chain[n] != chain[m]:
                assert ph[n + 1, m + 1] == pytest.approx(0.0, abs=1e-30)


def test_saturated_step_channels_at_default_offset():
    es, _ = make_system("prism", 20, jb=10.0)
    gaps = es.excited_energies - es.energies[0]
    assert gaps.min() > 50.0


def test_relaxation_profile_matches_brute_force_loop():
    es, channels = make_system("mono", 3)
    rates = transition_matrix(es, channels)
    profile = relaxation_profile(rates, es)
    ph = rates.blocks["phonon"]
    for n in range(es.dimension):
        expected = sum(ph[m, n] for m in range(1, es.dimension)
                       if es.energies[m] < es.energies[n])
        assert profile.downhill_rates[n] == pytest.approx(expected, abs=1e-20)
    # lowest excited state has nothing below it
    assert profile.downhill_rates[1] == 0.0
    assert profile.bottleneck_index != 1


def test_prism_bottleneck_sits_in_the_bright_band():
    es, channels = make_system("prism", 10, jb=10.0)
    brightness(es, channels)
    census = classify_bright_dark(es, 1e-6)
    rates = transition_matrix(es, channels)
    profile = relaxation_profile(rates, es)
    # drop the global lowest state, whose downhill sum is trivially zero
    bright = [i for i in census.bright_indices if i != 1]
    dark = [i for i in census.dark_indices if i != 1]
    min_bright = min(profile.downhill_rates[i] for i in bright)
    median_dark = np.median([profile.downhill_rates[i] for i in dark])
    assert min_bright < median_dark / 10.0
    assert profile.bottleneck_index in census.bright_indices


@pytest.mark.parametrize("kind,expected_bright,expected_dark", [
    ("dimer", 20, 20),
    ("prism", 20, 40),
])
def test_bright_dark_census_at_strong_intra_coupling(kind, expected_bright,
                                                     expected_dark):
    es, channels = make_system(kind, 20, jb=10.0)
    brightness(es, channels)
    census = classify_bright_dark(es, 1e-6)
    assert (census.n_bright, census.n_dark) == (expected_bright,
                                                expected_dark)
    # dark states sit below the bright band once the gradient is removed
    assert census.band_gap_detrended > 10.0 / 2
    energies = es.excited_energies
    assert energies[census.dark_indices - 1].min() < \
        energies[census.bright_indices - 1].min()


def test_census_threshold_validation():
    es, channels = make_system("dimer", 2)
    brightness(es, channels)
    with pytest.raises(SpectralError):
        classify_bright_dark(es, 0.0)
    es2, _ = make_system("dimer", 2)
    with pytest.raises(SpectralError, match="brightness"):
        classify_bright_dark(es2, 1e-6)


def test_slot_permutation_preserves_the_spectrum():
    base = build_geometry("prism", 3)
    layout = base.positions[base.cell_sites(1)][:, 1:]
    permuted = build_geometry("custom", 3, custom_layout=layout[[2, 0, 1]])
    params = HamiltonianParams(jb=7.0)
    eps_a = diagonalize(build_hamiltonian(base, params)).energies
    eps_b = diagonalize(build_hamiltonian(permuted, params)).energies
    np.testing.assert_allclose(np.sort(eps_a), np.sort(eps_b), atol=1e-9)


def test_eigenstructure_tables_shapes():
    es, channels = make_system("dimer", 10, jb=1.0)
    brightness(es, channels)
    states, amplitudes = eigenstructure_tables(es)
    assert len(states) == 21
    assert len(amplitudes) == 20 * 20
    assert set(states[0]) == {"state_index", "energy", "brightness"}
    assert {"site_index", "amplitude"} <= set(amplitudes[0])
