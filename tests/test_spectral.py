import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from excitonchain import spectral
from excitonchain.brme import BrmeError, build_liouvillian
from excitonchain.environment import EnvironmentParams, build_channels
from excitonchain.hamiltonian import (DisorderSpec, HamiltonianParams,
                                      apply_disorder, build_hamiltonian,
                                      cell_block, chain_block)
from excitonchain.lattice import CELL_LAYOUTS, assign_dipoles, build_geometry
from excitonchain.pme import _generator_rows, _steady_reports, \
    solve_steady_state
from excitonchain.spectral import (EigenSystem, SpectralError,
                                   _brightness_rows, _cell_modes,
                                   _couplings, _eigen_rows, _eigen_stack,
                                   _factor_eigen, _fix_signs, _full_eigen,
                                   _pinned_eigen, _rate_rows,
                                   _sector_rows, brightness,
                                   classify_bright_dark, diagonalize,
                                   eigenstructure_tables,
                                   transition_matrix)

GAMMA_RAD = EnvironmentParams().gamma_rad


def make_system(kind, n_cells, jb=1.0, dipoles=None, injection_mode="site",
                env=None, **ham_kwargs):
    geo = build_geometry(kind, n_cells)
    if dipoles is not None:
        geo = assign_dipoles(geo, dipoles)
    params = HamiltonianParams(**ham_kwargs)
    h = build_hamiltonian(geo, params, jb)
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
        w = blocks.setdefault(ch.kind, np.zeros((dim, dim)))
        for op in eigenbasis_operator(es, ch):
            for n in range(dim):
                for m in range(dim):
                    if n == m:
                        continue
                    w[n, m] += (ch.spectral(energies[m] - energies[n])
                                * op[n, m]**2)
    return blocks


def dense_per_channel_rates(es, channels):
    """The rate kernel with a dense (dim x dim) block per kind: each
    channel's rates added into its kind's block, the blocks summed into w.

    Returns (w, blocks).
    """
    dim = es.dimension
    omega = es.energies[None, :] - es.energies[:, None]  # [n, m]: m -> n
    blocks = {}
    for ch in channels:
        block = blocks.setdefault(ch.kind, np.zeros((dim, dim)))
        csq = _couplings(es.vectors[None], ch)[0] ** 2
        if ch.kind == "phonon":
            rates = ch.spectral(omega[1:, 1:]) * (csq @ csq.T)
            np.fill_diagonal(rates, 0.0)
            block[1:, 1:] += rates
        else:
            block[0, 1:] += ch.spectral(omega[0, 1:]) * csq.sum(-1)
            block[1:, 0] += ch.spectral(omega[1:, 0]) * csq.sum(-1)
    w = np.zeros((dim, dim))
    for block in blocks.values():
        w += block
    return w, blocks


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
    census = classify_bright_dark(es, b, 1e-6)
    assert census.n_dark == 0
    assert np.all(b[1:] > 0)


def test_without_radiative_coupling_every_state_is_dark():
    es, channels = make_system("dimer", 3, jb=10.0,
                               env=EnvironmentParams(gamma_rad=0.0))
    b = brightness(es, channels)
    assert np.all(b == 0.0)
    census = classify_bright_dark(es, b)
    assert (census.n_bright, census.n_dark) == (0, es.n_excited)
    assert census.band_gap is None


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
        # the first site within the degeneracy tolerance of the largest
        lead = np.argmax(np.abs(v) >= (1 - 1e-9) * np.abs(v).max())
        assert v[lead] > 0


@pytest.mark.parametrize("larger_first", [True, False])
def test_sign_rule_ignores_the_last_bits_of_mirror_components(larger_first):
    # mirror components whose magnitudes differ by one ulp: the first site
    # leads whichever is larger, so the sign does not follow rounding
    small = np.sqrt(0.5)
    large = np.nextafter(small, 1.0)
    first, second = (large, small) if larger_first else (small, large)
    for signs in ((1, -1), (-1, 1), (-1, -1)):
        vecs = np.array([[signs[0] * first], [signs[1] * second]])
        fixed = _fix_signs(vecs)
        assert fixed[0, 0] == first
        assert fixed[1, 0] == signs[0] * signs[1] * second
    # beyond the tolerance the largest component leads
    fixed = _fix_signs(np.array([[0.6, -0.6], [-0.8, 0.8]]))
    assert np.array_equal(fixed, [[-0.6, -0.6], [0.8, 0.8]])


def test_sign_rule_in_place_on_a_strided_view_is_bit_for_bit(rng):
    # the excited corner of a ground + site stack, as _eigen_rows holds it
    full = np.zeros((6, 9, 9))
    full[:, 1:, 1:] = rng.normal(size=(6, 8, 8))
    # mirror ties one ulp apart, an exact mirror tie, a zero leading entry
    # (an all-zero column) and a failed row of NaN
    full[0, 1:3, 1] = [np.sqrt(0.5), -np.nextafter(np.sqrt(0.5), 1.0)]
    full[0, 1:, 2] = 0.0
    full[1, 1:, 3] = -np.abs(full[1, 1:, 3]).max()
    full[2, 1:, 4] = 0.0
    full[3, 1:, 1:] = np.nan
    excited = full[:, 1:, 1:].copy()
    # the out-of-place form: a new array with every column's signs applied
    mag = np.abs(excited)
    top = mag.max(axis=-2, keepdims=True) * (1.0 - 1e-9)
    lead = np.argmax(mag >= top, axis=-2)
    signs = np.sign(np.take_along_axis(excited, lead[..., None, :], axis=-2))
    signs[signs == 0] = 1.0
    expected = excited * signs
    view = full[:, 1:, 1:]
    assert _fix_signs(view) is view
    np.testing.assert_array_equal(full[:, 1:, 1:], expected)
    assert (full[:, 0] == 0).all() and (full[:, :, 0] == 0).all()
    assert np.array_equal(np.signbit(full[:, 1:, 1:]), np.signbit(expected))


# stacks as the population path solves them, without the sign rule: a
# clean chain, a pinned row (syevr) and three disorder realizations
SIGN_STACKS = {"clean": ("prism", 6, 10.0, 0.0),
               "pinned": ("dimer", 30, 1.0, 0.0),
               "disordered": ("prism", 6, 10.0, 0.9)}


def unsigned_stack(kind, n_cells, jb, sigma):
    h = build_hamiltonian(build_geometry(kind, n_cells), HamiltonianParams(),
                          jb)
    stack = (_eigen_stack(h) if sigma == 0 else
             np.array([apply_disorder(h, DisorderSpec(sigma, 5, r))
                       .excited_block for r in range(3)]))
    energies, vectors, errors = _eigen_rows(stack, h.matrix[0, 0],
                                            h.geometry)
    assert errors == [None] * (1 if sigma == 0 else 3)
    channels = build_channels(h.geometry, EnvironmentParams(gamma_nr=0.003),
                              delta_e=h.params.delta_e)
    return energies, vectors, channels


@pytest.mark.parametrize("stack", SIGN_STACKS.values(), ids=SIGN_STACKS)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rates_and_steady_states_keep_their_bits_under_sign_flips(stack,
                                                                  data):
    # negating a vector negates every product and sum of its entries
    # exactly, so whatever is quadratic in it keeps its bits: the
    # population path needs no sign rule
    energies, vectors, channels = unsigned_stack(*stack)
    flips = data.draw(arrays(bool, (len(vectors), vectors.shape[-1] - 1)))
    flipped = vectors.copy()
    flipped[:, 1:, 1:] *= np.where(flips, -1.0, 1.0)[:, None, :]
    (w, ground, densities), (w2, ground2, densities2) = (
        _rate_rows(energies, v, channels) for v in (vectors, flipped))
    assert np.array_equal(w, w2)
    assert list(ground) == list(ground2)
    for kind, pair in ground.items():
        assert all(map(np.array_equal, pair, ground2[kind]))
    assert len(densities) == len(densities2) == 1
    assert np.array_equal(densities[0], densities2[0])
    assert np.array_equal(_brightness_rows(vectors, channels),
                          _brightness_rows(flipped, channels))
    for report, report2 in zip(_steady_reports(_generator_rows(w), ground),
                               _steady_reports(_generator_rows(w2), ground2)):
        assert np.array_equal(report.populations, report2.populations)
        assert report.current == report2.current
        assert report.fluxes == report2.fluxes
        assert report.residual == report2.residual


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


def test_brightness_leaves_the_eigensystem_unchanged():
    # brightness is a value: it returns a new array and stores nothing
    es, channels = make_system("prism", 4, jb=10.0)
    state = dict(vars(es))
    energies, vectors = es.energies.copy(), es.vectors.copy()
    b = brightness(es, channels)
    assert vars(es) == state
    assert np.array_equal(es.energies, energies)
    assert np.array_equal(es.vectors, vectors)
    assert not np.shares_memory(b, es.vectors)
    np.testing.assert_array_equal(brightness(es, channels), b)


def test_brightness_requires_radiative_channel():
    es, channels = make_system("mono", 2)
    with pytest.raises(SpectralError):
        brightness(es, [c for c in channels if c.kind != "radiative"])


def test_rejects_asymmetric_and_overlapping_spectra():
    geo = build_geometry("mono", 2)
    h = build_hamiltonian(geo, HamiltonianParams(), 1.0)
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
    # the same bits as a dense block per kind, built channel by channel
    dense_w, dense_blocks = dense_per_channel_rates(es, channels)
    np.testing.assert_array_equal(rates.w, dense_w)
    assert rates.blocks.keys() == dense_blocks.keys()
    for kind_name, block in dense_blocks.items():
        np.testing.assert_array_equal(rates.blocks[kind_name], block)
    # a channel with zero rate keeps its kind, with no rate and no flux
    fluxes = solve_steady_state(rates).fluxes
    if options.get("env", EnvironmentParams()).gamma_nr == 0:
        assert not rates.blocks["nonradiative"].any()
        assert fluxes["nonradiative"] == 0.0
    else:
        assert rates.blocks["nonradiative"].max() > 0
        assert fluxes["nonradiative"] > 0


def test_non_unit_site_weights_match_brute_force(eigenbasis_operator, rng):
    es, channels = make_system("prism", 2, jb=4.0)
    weighted = [replace(ch, operator=rng.uniform(0.5, 2.0,
                                                 (len(ch.operator), 1))
                        * ch.operator)
                for ch in channels]
    rates = transition_matrix(es, weighted)
    expected = brute_force_rates(es, weighted, eigenbasis_operator)
    np.testing.assert_allclose(rates.w, sum(expected.values()), atol=1e-16,
                               rtol=1e-12)


def test_single_site_couplings_are_the_product_columns(rng):
    # a row on one site reads its couplings as eigenvector columns: a view
    # for unit weights, scaled columns otherwise, with the values of the
    # general product amp @ w, and the rate pass writes no input
    es, channels = make_system("prism", 4, jb=3.0)
    vectors = np.stack([es.vectors, es.vectors[:, ::-1]])
    energies = np.stack([es.energies, es.energies + 0.5])
    given = vectors.copy(), energies.copy()
    amp = vectors[:, 1:, 1:].transpose(0, 2, 1)
    for ch in channels[1:]:
        scaled = replace(ch, operator=rng.uniform(-2.0, 2.0,
                                                  (len(ch.operator), 1))
                         * ch.operator)
        for channel, view in ((ch, ch.kind != "radiative"), (scaled, False)):
            couplings = _couplings(vectors, channel)
            assert np.shares_memory(couplings, vectors) == view
            np.testing.assert_array_equal(couplings,
                                          amp @ channel.operator.T)
    _rate_rows(energies, vectors, channels)
    for array, expected in zip((vectors, energies), given):
        assert np.array_equal(array.view(np.int64), expected.view(np.int64))


def test_rates_do_not_depend_on_shared_spectrum_objects():
    es, channels = make_system("prism", 4, jb=3.0)
    own = [replace(ch, spectral=replace(ch.spectral)) for ch in channels]
    np.testing.assert_array_equal(transition_matrix(es, own).w,
                                  transition_matrix(es, channels).w)


@pytest.mark.parametrize("build,error", [
    (transition_matrix, SpectralError),
    (lambda es, channels: build_liouvillian(es.energies[None],
                                            es.vectors[None], channels),
     BrmeError),
], ids=["transition_matrix", "build_liouvillian"])
def test_phonon_channel_must_act_on_a_single_site(build, error):
    es, channels = make_system("mono", 2)
    spread = replace(channels[0], operator=np.ones((1, 2)))
    with pytest.raises(error, match="single site"):
        build(es, [spread])


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
    # scalar coupling (one radiative row) and transport dipoles (three)
    for dipoles in (None, "transport"):
        es, channels = make_system("dimer", 4, jb=1.0, dipoles=dipoles)
        assert len(channels[1].operator) == (1 if dipoles is None else 3)
        b = brightness(es, channels)
        rates = transition_matrix(es, channels)
        rad = rates.blocks["radiative"]
        np.testing.assert_allclose(rad[0, 1:], b[1:] / GAMMA_RAD,
                                   rtol=1e-12, atol=1e-30)
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


@pytest.mark.parametrize("kind,expected_bright,expected_dark", [
    ("dimer", 20, 20),
    ("prism", 20, 40),
])
def test_bright_dark_census_at_strong_intra_coupling(kind, expected_bright,
                                                     expected_dark):
    es, channels = make_system(kind, 20, jb=10.0)
    census = classify_bright_dark(es, brightness(es, channels), 1e-6)
    assert (census.n_bright, census.n_dark) == (expected_bright,
                                                expected_dark)
    # dark states sit below the bright band once the gradient is removed
    assert census.band_gap_detrended > 10.0 / 2
    energies = es.excited_energies
    assert energies[census.dark_indices - 1].min() < \
        energies[census.bright_indices - 1].min()


def test_census_threshold_validation():
    es, channels = make_system("dimer", 2)
    b = brightness(es, channels)
    with pytest.raises(ValueError,
                       match=r"^dark_threshold must lie in \(0, 1\), got 0.0$"):
        classify_bright_dark(es, b, 0.0)


def test_slot_permutation_preserves_the_spectrum():
    base = build_geometry("prism", 3)
    layout = base.positions[base.cell_sites(1)][:, 1:]
    permuted = build_geometry("custom", 3, custom_layout=layout[[2, 0, 1]])
    params = HamiltonianParams()
    eps_a = diagonalize(build_hamiltonian(base, params, 7.0)).energies
    eps_b = diagonalize(build_hamiltonian(permuted, params, 7.0)).energies
    np.testing.assert_allclose(np.sort(eps_a), np.sort(eps_b), atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["mono", "dimer", "prism", "cuboid"]),
       n_cells=st.integers(2, 40), jb=st.sampled_from([0.1, 1.0, 10.0]))
@example(kind="dimer", n_cells=30, jb=1.0)  # pinned rows
@example(kind="cuboid", n_cells=30, jb=1.0)
def test_mirroring_the_cell_layout_keeps_the_current(kind, n_cells, jb):
    # y -> -y maps the chain onto itself, so the centroid rule picks the
    # mirror image of every basis, pinned rows included
    base = build_geometry(kind, n_cells)
    layout = base.positions[base.cell_sites(1)][:, 1:] * [-1.0, 1.0]
    currents = []
    for geo in (base, build_geometry("custom", n_cells,
                                     custom_layout=layout)):
        es = diagonalize(build_hamiltonian(geo, HamiltonianParams(), jb))
        rates = transition_matrix(es, build_channels(geo,
                                                     EnvironmentParams()))
        currents.append(solve_steady_state(rates).current)
    assert currents[1] == pytest.approx(currents[0], rel=1e-12, abs=0)


def test_eigenstructure_tables_shapes():
    es, channels = make_system("dimer", 10, jb=1.0)
    b = brightness(es, channels)
    states, amplitudes = eigenstructure_tables(es, b)
    assert len(states) == 21
    assert len(amplitudes) == 20 * 20
    assert [row["brightness"] for row in states] == b.tolist()
    assert set(states[0]) == {"state_index", "energy", "brightness"}
    assert {"site_index", "amplitude"} <= set(amplitudes[0])


# A clean chain's excited block is the Kronecker sum T (x) 1_n + 1_N (x) B
# of its chain block T and cell block B; diagonalize solves it from the two.
KINDS = ("mono", "dimer", "trimer", "prism", "cuboid")
DIPOLES = {"scalar": None, "transport": "transport",
           "vector": [1.0, 2.0, 0.5]}


def chain_and_cell_blocks(h):
    geo = h.geometry
    x = h.excited_block.reshape(geo.n_cells, geo.sites_per_cell,
                                geo.n_cells, geo.sites_per_cell)
    chain = x[:, 0, :, 0]
    return chain, x[0, :, 0, :] - chain[0, 0] * np.eye(geo.sites_per_cell)


def sector_solve(stack, geo):
    """Excited (energies, vectors) of a clean stack (chain half, [cell
    halves]), from the stacked sector path."""
    dim, count = geo.n_sites, len(stack[1])
    eps, vecs = np.empty((count, dim)), np.zeros((count, dim, dim))
    _sector_rows(stack, geo.positions, eps, vecs)
    return eps, vecs


def sector_eigen(h):
    """The sector path on a clean chain's factor solves, a stack of one."""
    (eps,), (vecs,) = sector_solve(_eigen_stack(h), h.geometry)
    return eps, vecs


def pinned_solves(solve):
    """The rows ``solve()`` hands to the pinned syevr solve, counted."""
    with mock.patch.object(spectral, "_pinned_eigen",
                           wraps=spectral._pinned_eigen) as pinned:
        solve()
    return pinned.call_count


def takes_pinned_path(h):
    """Whether the sector path hands the block to the pinned syevr solve."""
    return (h.factors is not None
            and pinned_solves(lambda: sector_eigen(h)) > 0)


def general_eigensystem(h):
    # the full-space path alone, whichever path diagonalize picks: the
    # pinned syevr solve of an unsplit tie, else the stacked syevd solve
    block, positions = h.excited_block, h.geometry.positions
    if takes_pinned_path(h):
        eps, vecs = _pinned_eigen(block, positions)
    else:
        (eps,), (vecs,) = _full_eigen(block[None], positions)
    vectors = np.eye(len(h.matrix))
    vectors[1:, 1:] = _fix_signs(vecs)
    return EigenSystem(energies=np.concatenate([[h.matrix[0, 0]], eps]),
                       vectors=vectors, hamiltonian=h)


def pme_current(es, channels):
    return solve_steady_state(transition_matrix(es, channels)).current


@pytest.mark.parametrize("dipoles", DIPOLES.values(), ids=DIPOLES)
@pytest.mark.parametrize("kind", KINDS)
def test_sector_spectrum_is_the_sorted_sum_of_block_levels(kind, dipoles):
    for n_cells in (1, 2, 7, 30):
        for jb in (0.1, 10.0):
            es, _ = make_system(kind, n_cells, jb=jb, dipoles=dipoles)
            h = es.hamiltonian
            assert sector_eigen(h) is not None
            chain, cell = chain_and_cell_blocks(h)
            sums = np.sort((np.linalg.eigvalsh(chain)[:, None]
                            + np.linalg.eigvalsh(cell)).ravel())
            np.testing.assert_allclose(es.excited_energies, sums,
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                es.excited_energies, np.linalg.eigvalsh(h.excited_block),
                rtol=1e-12, atol=0)


@pytest.mark.parametrize("dipoles", DIPOLES.values(), ids=DIPOLES)
@pytest.mark.parametrize("kind", KINDS)
def test_sector_currents_match_the_general_path(kind, dipoles):
    for n_cells in (1, 2, 7, 30):
        for jb in (0.1, 1.0, 10.0):
            es, channels = make_system(kind, n_cells, jb=jb, dipoles=dipoles)
            expected = pme_current(general_eigensystem(es.hamiltonian),
                                   channels)
            assert pme_current(es, channels) == pytest.approx(
                expected, rel=1e-12, abs=0)


def factor_stack(kind, n_cells, jb):
    """The clean stack of one of a clean chain, without its dense block."""
    geo = build_geometry(kind, n_cells)
    return geo, (_factor_eigen(chain_block(geo, HamiltonianParams())),
                 [_cell_modes(cell_block(geo, jb),
                              geo.positions[:geo.sites_per_cell])])


def reaches_pinned_path(kind, n_cells, jb):
    geo, stack = factor_stack(kind, n_cells, jb)
    return pinned_solves(lambda: sector_solve(stack, geo)) > 0


def test_pinned_rows_of_the_benchmark_grid():
    # a multiplet pins only when it holds two cell modes of different
    # levels of B with the same centroid label
    grid = [(kind, jb, n) for kind in ("mono", "dimer", "prism", "cuboid")
            for jb in (0.1, 1.0, 10.0) for n in range(2, 41)]
    grid += [("prism", jb, n) for jb in (0.1, 1.0, 10.0)
             for n in (60, 80, 100)]
    pinned = [(kind, jb, n) for kind, jb, n in grid
              if reaches_pinned_path(kind, n, jb)]
    assert pinned == ([("dimer", 1.0, n) for n in range(24, 41)]
                      + [("cuboid", 1.0, n) for n in range(27, 41)])


@pytest.mark.parametrize("kind", sorted(CELL_LAYOUTS))
def test_a_stacked_clean_solve_keeps_each_rows_bits(kind):
    # one chain's couplings are one clean stack (chain half, [cell
    # halves]) of the sector path, in any order and with a repeated half;
    # each row keeps the bits of its stack of one, the pinned rows (dimer
    # jb=1 from N=24, cuboid jb=1 from N=27) among unpinned ones included
    params, order = HamiltonianParams(), (10.0, 1.0, 0.1, 1.0)
    for n_cells in (1, 2, 7, 24, 27, 30):
        geo = build_geometry(kind, n_cells)
        chain = _factor_eigen(chain_block(geo, params))
        cells = {jb: _cell_modes(cell_block(geo, jb),
                                 geo.positions[:geo.sites_per_cell])
                 for jb in set(order)}
        halves = [cells[jb] for jb in order]
        assert halves[1] is halves[3]
        mixed = n_cells >= {"dimer": 24, "cuboid": 27}.get(kind, np.inf)
        assert [reaches_pinned_path(kind, n_cells, jb) for jb in order] == [
            False, mixed, False, mixed]
        stacked = []
        assert pinned_solves(lambda: stacked.extend(
            _eigen_rows((chain, halves), params.eg, geo))) == 2 * mixed
        energies, vectors, errors = stacked
        assert errors == [None] * len(halves)
        for r, half in enumerate(halves):
            (alone_energies,), (alone_vectors,), _ = _eigen_rows(
                (chain, [half]), params.eg, geo)
            assert energies[r].tobytes() == alone_energies.tobytes()
            assert vectors[r].tobytes() == alone_vectors.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_cell_rule_gives_the_full_space_basis(kind):
    # the factor rule's basis against the stacked full-space solve of the
    # dense block: the same levels, the same projector on each multiplet
    # and, but inside a cuboid's E pairs, which no centroid splits, the
    # same vectors.  The dense solve mixes multiplets closer than about
    # 1e-6 at the 1e-8 level (prism jb=1 N=30 has a gap of 1.5e-7), so
    # such multiplets are compared as one cluster, by projector only.
    for jb in (0.1, 1.0, 10.0):
        for n_cells in (2, 7, 30):
            if reaches_pinned_path(kind, n_cells, jb):
                continue
            geo, stack = factor_stack(kind, n_cells, jb)
            (eps,), (vecs,) = sector_solve(stack, geo)
            block = build_hamiltonian(geo, HamiltonianParams(),
                                      jb).excited_block
            (full_eps,), (full_vecs,) = _full_eigen(block[None],
                                                    geo.positions)
            np.testing.assert_allclose(eps, full_eps, rtol=1e-12, atol=0)
            tol = 1e-9 * np.abs(eps).max()
            edges = np.flatnonzero(np.diff(eps) > 1e3 * tol)
            for cols in np.split(np.arange(len(eps)), edges + 1):
                sector, full = vecs[:, cols], full_vecs[:, cols]
                np.testing.assert_allclose(sector @ sector.T, full @ full.T,
                                           rtol=0, atol=1e-10)
                if kind != "cuboid" and np.ptp(eps[cols]) <= tol:
                    np.testing.assert_allclose(_fix_signs(sector.copy()),
                                               _fix_signs(full.copy()),
                                               rtol=0, atol=1e-10)


def disordered(h):
    return apply_disorder(h, DisorderSpec(sigma=0.9, seed=5))


@pytest.mark.parametrize("kind,n_cells,jb,dipoles,perturb,pinned", [
    ("dimer", 30, 1.0, None, None, True),
    ("prism", 7, 10.0, "per-site", None, False),
    ("cuboid", 7, 1.0, None, disordered, False),
], ids=["unsplit-tie", "per-site-dipoles", "disorder"])
def test_general_path_is_kept_bit_for_bit(kind, n_cells, jb, dipoles,
                                          perturb, pinned, rng):
    if dipoles == "per-site":
        dipoles = rng.normal(size=(build_geometry(kind, n_cells).n_sites, 3))
    es, _ = make_system(kind, n_cells, jb=jb, dipoles=dipoles)
    h = es.hamiltonian if perturb is None else perturb(es.hamiltonian)
    # an unsplit tie takes the pinned syevr solve, the rest the stacked one
    assert takes_pinned_path(h) is pinned
    if not pinned:
        assert h.factors is None
    es, expected = diagonalize(h), general_eigensystem(h)
    np.testing.assert_array_equal(es.energies, expected.energies)
    np.testing.assert_array_equal(es.vectors, expected.vectors)
    # diagonalize applies the sign rule: each vector's first entry within
    # the degeneracy tolerance of its largest magnitude is positive
    mag = np.abs(es.vectors)
    lead = np.argmax(mag >= (1 - 1e-9) * mag.max(axis=0), axis=0)
    assert (es.vectors[lead, np.arange(es.dimension)] > 0).all()
    # with a clean chain of its layout and a disordered row, stacked per
    # kind of row, each row comes out as diagonalize gives it alone
    clean = build_hamiltonian(replace(h.geometry, dipoles=None),
                              HamiltonianParams(), 10.0)
    assert sector_eigen(clean) is not None
    stack = [clean, h, disordered(h)]
    ones = [_eigen_stack(m) for m in stack]
    is_factor = [isinstance(one, tuple) for one in ones]
    assert is_factor == [True, pinned, False]
    for kind in (True, False):
        picked = [r for r, factor in enumerate(is_factor) if factor == kind]
        # the clean rows share one chain (T has no jb): one chain half
        joined = ((ones[picked[0]][0], [ones[r][1][0] for r in picked])
                  if kind else np.concatenate([ones[r] for r in picked]))
        energies, vectors, errors = _eigen_rows(joined, h.matrix[0, 0],
                                                h.geometry)
        assert errors == [None] * len(picked)
        # the stacked rows leave the sign rule to exported eigensystems
        _fix_signs(vectors[:, 1:, 1:])
        for out, r in enumerate(picked):
            alone = diagonalize(stack[r])
            np.testing.assert_array_equal(energies[out], alone.energies)
            np.testing.assert_array_equal(vectors[out], alone.vectors)


def test_a_failing_row_of_the_stacked_solve_fails_alone(monkeypatch):
    es, _ = make_system("prism", 5, jb=10.0)
    h = es.hamiltonian
    stack = np.stack(
        [h.excited_block]
        + [apply_disorder(h, DisorderSpec(0.9, 5, r)).excited_block
           for r in range(4)])
    stack[2, 3, 3] = np.nan
    unsolvable = stack[3].copy()
    eigh = np.linalg.eigh

    def failing_eigh(blocks):
        # only the stacked solve and its row-by-row retry come here: factor
        # solves use the same numpy eigh, but this stack has no clean row
        assert blocks.ndim == 3
        # LAPACK fails on one row, which fails every stacked call holding it
        if any(np.array_equal(block, unsolvable) for block in blocks):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(blocks)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    eg = h.matrix[0, 0]
    energies, vectors, errors = _eigen_rows(stack.copy(), eg, h.geometry)
    assert [error is None for error in errors] == [True, True, False, False,
                                                   True]
    assert "non-finite" in str(errors[2])
    assert "converge" in str(errors[3])
    for row in (2, 3):
        assert isinstance(errors[row], SpectralError)
        assert np.isnan(energies[row, 1:]).all()
        assert np.isnan(vectors[row, 1:, 1:]).all()
    for row in (0, 1, 4):
        alone = _eigen_rows(stack[row][None], eg, h.geometry)
        np.testing.assert_array_equal(energies[row], alone[0][0])
        np.testing.assert_array_equal(vectors[row], alone[1][0])


def test_a_factor_solve_that_does_not_converge_raises(monkeypatch):
    chain, _ = build_hamiltonian(build_geometry("dimer", 4),
                                 HamiltonianParams(), 1.0).factors

    def failing_eigh(block):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(SpectralError,
                       match="^eigendecomposition did not converge$"):
        _factor_eigen(chain)


REFERENCE_FILE = (Path(__file__).resolve().parents[1] / "perfbench"
                  / "reference_currents.json")
# the clean points whose centroid rule leaves a tie across cell levels, so
# their basis is the general path's, plus the two largest sector systems
PINNED_POINTS = ([("dimer", 1.0, n) for n in range(24, 41)]
                 + [("cuboid", 1.0, n) for n in range(27, 41)]
                 + [("cuboid", 10.0, 40), ("prism", 0.1, 100)])
PINNED_SCRIPT = """
import json, sys
from excitonchain import EnvironmentParams, HamiltonianParams
from excitonchain.experiments import solve_point
print(json.dumps([solve_point(kind, n_cells, jb, HamiltonianParams(),
                              EnvironmentParams()).current
                  for kind, jb, n_cells in json.loads(sys.argv[1])]))
"""
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def test_pinned_basis_reproduces_the_stored_reference_currents():
    # LAPACK's mixture inside a tie the centroid rule leaves unsplit depends
    # on the BLAS thread count; the references were solved on one thread
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    run = subprocess.run(
        [sys.executable, "-c", PINNED_SCRIPT, json.dumps(PINNED_POINTS)],
        env=env, capture_output=True, text=True, check=True)
    with open(REFERENCE_FILE) as handle:
        stored = {(p["geometry"], float(p["jb"]), int(p["n_cells"])):
                  float(p["current"]) for p in json.load(handle)["points"]}
    for point, current in zip(PINNED_POINTS, json.loads(run.stdout)):
        assert current == pytest.approx(stored[point], rel=1e-10,
                                        abs=0), point
