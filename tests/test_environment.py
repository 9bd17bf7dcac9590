import math

import numpy as np
import pytest

from excitonchain.environment import (ChannelError, DrudeLorentzBath,
                                      EnvironmentParams, FlatStep,
                                      build_channels, drude_lorentz,
                                      step_spectrum)
from excitonchain.lattice import assign_dipoles, build_geometry

DL_ARGS = dict(coupling=0.01, width=0.4, peak=math.sqrt(0.84),
               temperature=2.5875)


def dl(omega, **overrides):
    args = {**DL_ARGS, **overrides}
    return drude_lorentz(omega, **args)


def test_detailed_balance_identity_single_point():
    omega, temp = 0.7, 2.5875
    ratio = dl(omega, temperature=temp) / dl(-omega, temperature=temp)
    assert ratio == pytest.approx(math.exp(omega / temp), rel=1e-12)


def test_detailed_balance_over_random_frequencies(rng):
    temp = DL_ARGS["temperature"]
    omegas = rng.uniform(1e-3, 5.0, size=100)
    ratios = dl(omegas) / dl(-omegas)
    expected = np.exp(omegas / temp)
    assert np.max(np.abs(ratios / expected - 1.0)) < 1e-12


def test_reference_value_against_independent_arithmetic():
    # written out symbol by symbol, independently of the implementation
    omega, coupling, width, temp = 1.0, 0.01, 0.4, 2.5875
    peak = math.sqrt(1.0 - width**2)
    bose = 1.0 / (math.exp(omega / temp) - 1.0)
    lorentz = math.pi * abs(omega) * width * coupling / (
        width**2 + (abs(omega) - peak) ** 2)
    expected = lorentz * (bose + 1.0)
    assert dl(omega) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.2348, abs=5e-5)


def test_spontaneous_part_peaks_at_the_cell_detuning():
    # the emission-side maximum sits at sqrt(peak^2 + width^2), which the
    # default peak rule places exactly at the inter-cell detuning
    width = DL_ARGS["width"]
    peak = DL_ARGS["peak"]
    grid = np.linspace(0.5, 1.5, 200_001)
    spontaneous = (np.pi * grid * width * DL_ARGS["coupling"]
                   / (width**2 + (grid - peak) ** 2))
    top = grid[np.argmax(spontaneous)]
    assert top == pytest.approx(math.sqrt(peak**2 + width**2), abs=1e-5)
    assert top == pytest.approx(1.0, abs=1e-5)


def test_zero_frequency_limit_is_finite():
    expected = (math.pi * DL_ARGS["width"] * DL_ARGS["coupling"]
                * DL_ARGS["temperature"]
                / (DL_ARGS["width"] ** 2 + DL_ARGS["peak"] ** 2))
    assert dl(0.0) == pytest.approx(expected, rel=1e-12)
    # continuity: tiny but finite frequencies approach the same limit
    assert dl(1e-9) == pytest.approx(expected, rel=1e-6)


def test_drude_lorentz_input_validation():
    with pytest.raises(ChannelError):
        dl(1.0, temperature=0.0)
    with pytest.raises(ChannelError):
        dl(1.0, width=0.0)


def test_step_spectrum_reference_points():
    assert step_spectrum(1.0, 0.021, "up") == 0.021
    assert step_spectrum(-1.0, 0.021, "up") == 0.0
    assert step_spectrum(0.0, 0.021, "up") == 0.0
    assert step_spectrum(-2.0, 0.5, "down") == 0.5
    assert step_spectrum(2.0, 0.5, "down") == 0.0
    assert step_spectrum(0.0, 0.5, "down") == 0.0
    with pytest.raises(ChannelError):
        step_spectrum(1.0, -0.1, "up")
    with pytest.raises(ChannelError):
        step_spectrum(1.0, 0.1, "sideways")


def test_channel_census_for_prism():
    geo = build_geometry("prism", 2)
    channels = build_channels(geo, EnvironmentParams(gamma_inj=1e-6))
    kinds = {}
    for ch in channels:
        kinds.setdefault(ch.kind, []).append(ch)
    assert len(kinds["phonon"]) == 6
    assert len(kinds["radiative"]) == 1
    assert len(kinds["nonradiative"]) == 6
    assert len(kinds["injection"]) == 3
    assert len(kinds["extraction"]) == 3
    for ch in kinds["injection"]:
        assert isinstance(ch.spectral, FlatStep)
        assert ch.spectral.rate == pytest.approx(1e-6 / 3)
        assert ch.spectral.direction == "down"
    for ch in kinds["extraction"]:
        assert ch.spectral.direction == "up"
    # injection targets cell 1, extraction targets the last cell
    assert sorted(ch.site for ch in kinds["injection"]) == [0, 1, 2]
    assert sorted(ch.site for ch in kinds["extraction"]) == [3, 4, 5]


def test_all_operators_hermitian():
    # diag(w) and the ground <-> site operator are Hermitian exactly when
    # the site weights w are real
    geo = build_geometry("cuboid", 2)
    for ch in build_channels(geo, EnvironmentParams()):
        assert ch.operator.shape == (geo.n_sites,)
        assert np.isrealobj(ch.operator)


def test_operators_are_site_weight_vectors():
    geo = build_geometry("cuboid", 2)
    unit = np.eye(geo.n_sites)
    for ch in build_channels(geo, EnvironmentParams()):
        if ch.kind == "radiative":
            np.testing.assert_array_equal(ch.operator, np.ones(geo.n_sites))
        else:
            np.testing.assert_array_equal(ch.operator, unit[ch.site])


def test_phonon_operators_are_site_projectors():
    geo = build_geometry("dimer", 2)
    channels = [c for c in build_channels(geo, EnvironmentParams())
                if c.kind == "phonon"]
    for ch in channels:
        expected = np.zeros(4)
        expected[ch.site] = 1.0
        assert np.array_equal(ch.operator, expected)


def test_zero_rate_channels_still_present():
    geo = build_geometry("mono", 3)
    channels = build_channels(geo, EnvironmentParams(gamma_nr=0.0))
    nr = [c for c in channels if c.kind == "nonradiative"]
    assert len(nr) == 3
    assert all(c.spectral.rate == 0.0 for c in nr)


def test_dipole_mode_splits_radiative_into_cartesian_channels():
    geo = assign_dipoles(build_geometry("dimer", 1),
                         [[1.0, 0, 0], [0, 1.0, 0]])
    channels = build_channels(geo, EnvironmentParams())
    rad = [c for c in channels if c.kind == "radiative"]
    assert len(rad) == 3
    amps = np.stack([c.operator for c in rad])
    np.testing.assert_allclose(amps, [[1, 0], [0, 1], [0, 0]], atol=1e-15)


def test_eigen_mode_defers_operator_resolution():
    geo = build_geometry("dimer", 2)
    channels = build_channels(geo, EnvironmentParams(),
                              injection_mode="eigen")
    inj = [c for c in channels if c.kind == "injection"]
    ext = [c for c in channels if c.kind == "extraction"]
    assert len(inj) == len(ext) == 1
    assert inj[0].eigen_target == "highest" and inj[0].operator is None
    assert ext[0].eigen_target == "lowest" and ext[0].operator is None
    assert inj[0].spectral.rate == pytest.approx(
        EnvironmentParams().gamma_inj)


def test_rate_validation_and_mode_validation():
    geo = build_geometry("mono", 1)
    with pytest.raises(ChannelError):
        build_channels(geo, EnvironmentParams(gamma_rad=-1.0))
    with pytest.raises(ChannelError):
        build_channels(geo, EnvironmentParams(), injection_mode="both")


def test_peak_rule_matches_detuning():
    env = EnvironmentParams(bath_width=0.4)
    assert env.resolve_peak(1.0) == pytest.approx(math.sqrt(0.84))
    pinned = EnvironmentParams(bath_peak=0.5)
    assert pinned.resolve_peak(1.0) == 0.5


def test_bath_dataclass_evaluates_like_the_function():
    bath = DrudeLorentzBath(**DL_ARGS)
    omegas = np.linspace(-3, 3, 11)
    np.testing.assert_array_equal(bath(omegas), dl(omegas))


def test_channel_descriptions_are_json_friendly():
    geo = build_geometry("mono", 2)
    described = [c.describe() for c in build_channels(geo,
                                                      EnvironmentParams())]
    assert all("kind" in d for d in described)
    rad = next(d for d in described if d["kind"] == "radiative")
    assert rad["spectral"]["rate"] == 0.01
