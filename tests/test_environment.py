import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from excitonchain.environment import (Channel, ChannelError,
                                      DrudeLorentzBath, EnvironmentParams,
                                      FlatStep, build_channels)
from excitonchain.hamiltonian import HamiltonianParams, build_hamiltonian
from excitonchain.lattice import assign_dipoles, build_geometry
from excitonchain.spectral import diagonalize, transition_matrix

DL_ARGS = dict(coupling=0.01, width=0.4, peak=math.sqrt(0.84),
               temperature=2.5875)


def dl(omega, **overrides):
    return DrudeLorentzBath(**{**DL_ARGS, **overrides})(omega)


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
    for name in ("temperature", "width"):
        with pytest.raises(ChannelError,
                           match="^temperature and width must be positive$"):
            DrudeLorentzBath(**{**DL_ARGS, name: 0.0})


@pytest.mark.parametrize("name", ["coupling", "width", "peak",
                                  "temperature"])
def test_drude_lorentz_rejects_non_finite_parameters_by_name(name):
    # a NaN temperature used to give the zero-temperature spectrum silently
    for value in (np.nan, np.inf, -np.inf):
        message = f"^{name} must be finite, got {value}$"
        with pytest.raises(ChannelError, match=message):
            DrudeLorentzBath(**{**DL_ARGS, name: value})
    if name in ("width", "temperature"):
        with pytest.raises(ChannelError, match="must be positive"):
            DrudeLorentzBath(**{**DL_ARGS, name: -1.0})


def test_step_spectrum_rejects_a_non_finite_rate_by_name():
    # a NaN rate used to give NaN rates
    for value in (np.nan, np.inf, -np.inf):
        message = f"^rate must be finite, got {value}$"
        for direction in ("up", "down"):
            with pytest.raises(ChannelError, match=message):
                FlatStep(value, direction)
    with pytest.raises(ChannelError, match="^rate must be >= 0, got -0.1$"):
        FlatStep(-0.1, "up")


def test_spectral_densities_check_their_parameters_when_built():
    # a bad parameter fails at construction, before the first rate
    with pytest.raises(ChannelError, match="^direction must be 'up' or "
                                           "'down', got 'sideways'$"):
        FlatStep(0.1, "sideways")
    with pytest.raises(ChannelError,
                       match="^temperature must be finite, got nan$"):
        DrudeLorentzBath(**{**DL_ARGS, "temperature": math.nan})


def test_step_spectrum_reference_points():
    up, down = FlatStep(0.021, "up"), FlatStep(0.5, "down")
    assert up(1.0) == 0.021
    assert up(-1.0) == 0.0
    assert up(0.0) == 0.0
    assert down(-2.0) == 0.5
    assert down(2.0) == 0.0
    assert down(0.0) == 0.0
    assert isinstance(up(1.0), float)
    omegas = np.array([-1.0, 0.0, 2.0])
    omegas.setflags(write=False)  # the argument is never written
    np.testing.assert_array_equal(up(omegas), [0.0, 0.0, 0.021])


def test_channel_census_for_prism():
    geo = build_geometry("prism", 2)
    channels = build_channels(geo, EnvironmentParams(gamma_inj=1e-6))
    # one channel per kind, in a fixed order
    assert [ch.kind for ch in channels] == [
        "phonon", "radiative", "nonradiative", "injection", "extraction"]
    kinds = {ch.kind: ch for ch in channels}
    assert kinds["phonon"].operator.shape == (6, 6)
    assert kinds["radiative"].operator.shape == (1, 6)
    assert kinds["nonradiative"].operator.shape == (6, 6)
    assert kinds["injection"].operator.shape == (3, 6)
    assert kinds["extraction"].operator.shape == (3, 6)
    injection = kinds["injection"].spectral
    assert isinstance(injection, FlatStep)
    assert injection.rate == pytest.approx(1e-6 / 3)
    assert injection.direction == "down"
    assert kinds["extraction"].spectral.direction == "up"
    # injection targets cell 1, extraction targets the last cell
    assert np.flatnonzero(kinds["injection"].operator.any(axis=0)).tolist() \
        == [0, 1, 2]
    assert np.flatnonzero(kinds["extraction"].operator.any(axis=0)).tolist() \
        == [3, 4, 5]


def test_all_operators_hermitian():
    # diag(w) and the ground <-> site operator are Hermitian exactly when
    # the site weights w are real
    geo = build_geometry("cuboid", 2)
    for ch in build_channels(geo, EnvironmentParams()):
        assert ch.operator.ndim == 2
        assert ch.operator.shape[1] == geo.n_sites
        assert np.isrealobj(ch.operator)


def test_operators_are_site_weight_vectors():
    geo = build_geometry("cuboid", 2)
    unit = np.eye(geo.n_sites)
    expected = {"phonon": unit, "radiative": np.ones((1, geo.n_sites)),
                "nonradiative": unit, "injection": unit[:4],
                "extraction": unit[4:]}
    channels = build_channels(geo, EnvironmentParams())
    assert len(channels) == len(expected)
    for ch in channels:
        np.testing.assert_array_equal(ch.operator, expected[ch.kind])


def test_channels_of_a_kind_share_one_spectrum_and_one_identity():
    geo = build_geometry("prism", 3)
    channels = build_channels(geo, EnvironmentParams())
    unit = channels[0].operator
    assert unit.shape == (geo.n_sites, geo.n_sites)
    assert not unit.flags.writeable
    assert len({ch.kind for ch in channels}) == len(channels)
    for ch in channels:
        if ch.kind == "radiative":
            continue
        assert ch.operator is unit or ch.operator.base is unit


def test_phonon_operators_are_site_projectors():
    geo = build_geometry("dimer", 2)
    (phonon,) = [c for c in build_channels(geo, EnvironmentParams())
                 if c.kind == "phonon"]
    # row s is the projector onto site s: one unit weight on that site
    for s, w in enumerate(phonon.operator):
        expected = np.zeros(4)
        expected[s] = 1.0
        assert np.array_equal(w, expected)


def test_single_site_rows_resolve_to_column_selections():
    # every kind resolves its one-site rows: unit weights on contiguous
    # sites to a slice, anything else to per-row scales and sites
    geo = build_geometry("prism", 3)
    channels = {c.kind: c for c in build_channels(geo, EnvironmentParams())}
    for kind, sites in (("phonon", slice(0, 9)), ("nonradiative",
                        slice(0, 9)), ("injection", slice(0, 3)),
                        ("extraction", slice(6, 9))):
        assert channels[kind].projectors == (None, sites), kind
    assert channels["radiative"].projectors is None
    unit = channels["nonradiative"].operator
    weights = -0.5 * unit[::-1]
    for kind, scale in (("phonon", np.sqrt(0.5)), ("nonradiative", -0.5)):
        scales, sites = replace(channels[kind], operator=weights).projectors
        assert np.array_equal(scales, np.full(9, scale)), kind
        assert np.array_equal(sites, np.arange(9)[::-1]), kind


def test_projectors_are_resolved_on_first_use():
    # a rate pass at the default gamma_nr = 0 skips the nonradiative
    # channel, so its (n_sites x n_sites) operator is never scanned; a
    # replaced operator resolves its own projectors
    h = build_hamiltonian(build_geometry("prism", 3), HamiltonianParams(), 1)
    channels = build_channels(h.geometry, EnvironmentParams())
    transition_matrix(diagonalize(h), channels)
    resolved = {c.kind: "projectors" in vars(c) for c in channels}
    assert resolved == {"phonon": True, "radiative": True,
                        "nonradiative": False, "injection": True,
                        "extraction": True}
    phonon = channels[0]
    moved = replace(phonon, operator=phonon.operator[::-1])
    scales, sites = moved.projectors  # descending sites: no slice
    assert np.array_equal(scales, np.ones(9))
    assert np.array_equal(sites, np.arange(9)[::-1])
    assert phonon.projectors == (None, slice(0, 9))


@pytest.mark.parametrize("kind,weights,expected", [
    ("nonradiative", [[1, 0, 0], [0, 0, 0], [0, 0, 1]], None),
    ("nonradiative", [[1, 1, 0], [0, 0, 0]], None),
    ("phonon", [[1, 0, 0], [0, 2, 3]], None),
    ("phonon", [[-4, 0, 0], [0, 0, -1]], ([2, 1], [0, 2])),
    ("injection", [[0, -4, 0], [0, 0, -1]], ([-4, -1], [1, 2])),
    ("extraction", [[1, 0, 0, 0], [0, 0, 0, 1]], ([1, 1], [0, 3])),
    ("extraction", [[0, 0, 1], [0, 1, 0]], ([1, 1], [2, 1])),
    ("phonon", np.zeros((0, 3)), ([], [])),
], ids=["zero-row", "zero-row-and-two-sites", "two-sites",
        "negative-phonon", "negative-ground", "non-contiguous",
        "descending", "no-rows"])
def test_projector_detection_edge_cases(kind, weights, expected):
    # a row without weight or with two sites gives no projectors; a phonon
    # row's scale is sqrt(|w|) and any other row's w; only unit weights on
    # ascending contiguous sites become a slice
    channel = Channel(kind=kind, spectral=FlatStep(1.0, "up"),
                      operator=np.array(weights, dtype=float))
    if expected is None:
        assert channel.projectors is None
        return
    scales, sites = channel.projectors
    assert np.array_equal(scales, np.array(expected[0], dtype=float))
    assert np.array_equal(sites, expected[1]) and sites.dtype == np.intp


def test_zero_rate_channels_still_present():
    geo = build_geometry("mono", 3)
    channels = build_channels(geo, EnvironmentParams(gamma_nr=0.0))
    (nr,) = [c for c in channels if c.kind == "nonradiative"]
    assert nr.operator.shape == (3, 3)
    assert nr.spectral.rate == 0.0


def test_dipole_mode_splits_radiative_into_cartesian_channels():
    geo = assign_dipoles(build_geometry("dimer", 1),
                         [[1.0, 0, 0], [0, 1.0, 0]])
    channels = build_channels(geo, EnvironmentParams())
    (rad,) = [c for c in channels if c.kind == "radiative"]
    # one row per Cartesian component, weighted by the dipoles
    np.testing.assert_allclose(rad.operator, [[1, 0], [0, 1], [0, 0]],
                               atol=1e-15)
    assert rad.operator.flags.c_contiguous


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


@pytest.mark.parametrize("name", ["gamma_rad", "gamma_nr", "gamma_phonon",
                                  "gamma_inj", "gamma_ext", "temperature",
                                  "bath_width", "bath_peak"])
def test_non_finite_parameters_rejected_by_name(name):
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ChannelError, match=f"^{name} must be finite"):
            EnvironmentParams(**{name: value})


def test_peak_rule_matches_detuning():
    env = EnvironmentParams(bath_width=0.4)
    assert env.resolve_peak(1.0) == pytest.approx(math.sqrt(0.84))
    pinned = EnvironmentParams(bath_peak=0.5)
    assert pinned.resolve_peak(1.0) == 0.5


def reference_density(bath, omega):
    """The Drude-Lorentz density as plain expressions, one temporary per
    step: the in-place evaluation must equal it bit for bit."""
    coupling, width, peak = bath.coupling, bath.width, bath.peak
    temperature = bath.temperature
    omega = np.asarray(omega, dtype=float)
    aw = np.abs(omega)
    lorentz = np.pi * width * coupling / (width**2 + (aw - peak) ** 2)
    x = aw / temperature
    with np.errstate(divide="ignore", over="ignore"):
        bose = np.where(x > 0, 1.0 / np.expm1(np.minimum(x, 700.0)), 0.0)
    value = lorentz * aw * (bose + (omega > 0))
    zero_limit = (np.pi * width * coupling * temperature
                  / (width**2 + peak**2))
    value = np.where(aw == 0, zero_limit, value)
    return value if value.ndim else float(value)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_bath_evaluates_arrays_like_scalars(rng):
    # an array is evaluated elementwise, bit for bit as the reference and
    # as scalars, with omega = 0 of either sign at its finite limit; the
    # special values are tiny and large |omega| and x = |omega| / T on
    # both sides of the 700 clamp
    bath = DrudeLorentzBath(**DL_ARGS)
    clamp = 700 * DL_ARGS["temperature"]
    special = np.array([0.0, 1e-300, 5000.0,
                        *(clamp * np.array([1 - 1e-12, 1, 1 + 1e-12]))])
    special = np.concatenate([special, -special])
    omegas = np.concatenate([rng.normal(0, 3, 10**5), special])
    given = omegas.copy()
    values = bath(omegas)
    assert values.shape == omegas.shape
    assert np.array_equal(bits(values), bits(reference_density(bath,
                                                               omegas)))
    assert np.array_equal(bits(omegas), bits(given))
    omegas.setflags(write=False)
    stack = omegas[:10**5].reshape(10, 100, 100)
    assert np.array_equal(bits(bath(stack)), bits(values[:10**5]).reshape(
        stack.shape))
    scalars = [bath(float(omega)) for omega in special]
    assert all(type(value) is float for value in scalars)
    assert np.array_equal(bits(scalars), bits(values[-len(special):]))
    assert values[-len(special)] == values[-len(special) // 2] == dl(0.0)


def test_bath_evaluates_a_rate_stack_in_two_work_arrays(rng):
    # each (R, dim, dim) temporary of a rate stack is large enough to be
    # mapped and faulted in afresh, so the density allocates two float
    # arrays and a few boolean masks, its result included
    bath = DrudeLorentzBath(**DL_ARGS)
    omegas = rng.normal(0, 3, (8, 60, 60))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        bath(omegas)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 3 * omegas.nbytes


def test_channel_descriptions_are_json_friendly():
    geo = build_geometry("mono", 2)
    described = [c.describe() for c in build_channels(geo,
                                                      EnvironmentParams())]
    assert [d["kind"] for d in described] == [
        "phonon", "radiative", "nonradiative", "injection", "extraction"]
    json.dumps(described)
    sites = {d["kind"]: d["sites"] for d in described}
    assert sites == {"phonon": [0, 1], "radiative": [0, 1],
                     "nonradiative": [0, 1], "injection": [0],
                     "extraction": [1]}
    rad = next(d for d in described if d["kind"] == "radiative")
    assert rad["spectral"]["rate"] == 0.01
    # each density describes its type and every parameter
    assert [d["spectral"] for d in described] == [
        {"type": "drude_lorentz", "coupling": 0.01, "width": 0.4,
         "peak": 0.916515138991168, "temperature": 2.5875},
        {"type": "flat_step", "rate": 0.01, "direction": "up"},
        {"type": "flat_step", "rate": 0.0, "direction": "up"},
        {"type": "flat_step", "rate": 1e-6, "direction": "down"},
        {"type": "flat_step", "rate": 0.021, "direction": "up"},
    ]
    eigen = [c.describe() for c in build_channels(
        geo, EnvironmentParams(), injection_mode="eigen")]
    assert eigen[3]["eigen_target"] == "highest"
    assert "sites" not in eigen[3] and "sites" not in eigen[4]
