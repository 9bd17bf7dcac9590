import json
import tracemalloc
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest

from excitonchain import brme, experiments, pme, spectral
from excitonchain.cli import main
from excitonchain.environment import ChannelError, EnvironmentParams
from excitonchain.experiments import (SweepSpec, build_system, derive_seed,
                                      disorder_ensemble, fit_exponential,
                                      length_sweep, regime_grid,
                                      solve_point)
from excitonchain.hamiltonian import (DisorderSpec, HamiltonianError,
                                      HamiltonianParams)
from excitonchain.pme import SteadyStateError, site_populations
from excitonchain.spectral import (SpectralError, brightness,
                                   classify_bright_dark)

HAM = HamiltonianParams()
ENV = EnvironmentParams()


def small_spec(**overrides):
    base = dict(geometries=("dimer",), n_cells_values=(2, 3, 4, 5),
                jb_values=(1.0,), ham=HAM, env=ENV,
                sigma=0.9, n_realizations=8, seed=11)
    base.update(overrides)
    return SweepSpec(**base)


def test_fit_recovers_exact_exponential():
    ns = np.arange(2, 30)
    alpha, beta = 3.7e-6, 0.21
    currents = alpha * np.exp(-beta * ns)
    fit = fit_exponential(ns, currents)
    assert fit.alpha == pytest.approx(alpha, rel=1e-10)
    assert fit.beta == pytest.approx(beta, rel=1e-10)
    assert fit.residual_norm < 1e-12


def test_fit_invariant_under_uniform_rescaling():
    ns = np.arange(4, 20)
    currents = 2e-7 * np.exp(-0.05 * ns)
    base = fit_exponential(ns, currents)
    scaled = fit_exponential(ns, 137.0 * currents)
    assert scaled.beta == pytest.approx(base.beta, rel=1e-12)
    assert scaled.alpha == pytest.approx(137.0 * base.alpha, rel=1e-12)


def test_fit_window_and_exclusions():
    ns = np.array([2, 3, 4, 5, 6])
    currents = np.array([1.0, 0.5, 0.25, -1.0, 0.0625])
    with pytest.warns(UserWarning, match="non-positive"):
        fit = fit_exponential(ns, currents, min_cells=3)
    assert fit.n_range == (3, 6)
    assert fit.n_points == 3
    assert fit.beta == pytest.approx(np.log(2), rel=1e-10)
    with pytest.warns(UserWarning), pytest.raises(ValueError):
        fit_exponential([2, 3], [1.0, -1.0])


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(geometries=())
    with pytest.raises(ValueError):
        small_spec(method="exact")
    with pytest.raises(ValueError, match="^n_realizations must be >= 1$"):
        small_spec(n_realizations=0)
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        small_spec(seed=-1)
    for sigma in (np.nan, np.inf, -0.1):
        message = f"^sigma must be finite and >= 0, got {sigma}$"
        with pytest.raises(ValueError, match=message):
            small_spec(sigma=sigma)


@pytest.mark.parametrize("threshold", [0.0, 1.0, 2.0, -1e-3, np.nan])
def test_spec_rejects_a_dark_threshold_outside_the_unit_interval(threshold):
    # checked with the spec, not when the census first runs mid-study
    with pytest.raises(ValueError, match="^dark_threshold must lie in"):
        small_spec(dark_threshold=threshold)


@pytest.mark.parametrize("field, values", [
    ("geometries", ("dimer", "prism", "dimer")),
    ("n_cells_values", (2, 3, 2)),
    ("jb_values", (1.0, 1.0)),
])
def test_sweep_grids_reject_repeated_values_by_name(field, values):
    # a repeated point would be solved twice and counted twice by a fit
    with pytest.raises(ValueError, match=field):
        small_spec(**{field: values})


def test_sweep_rejects_a_non_finite_coupling_before_any_solve():
    # a later coupling of the grid fails the spec, not the sweep after
    # the earlier couplings are solved
    for jb in (np.nan, np.inf):
        with pytest.raises(HamiltonianError, match="^jb must be finite"):
            small_spec(jb_values=(1.0, jb))


@pytest.mark.parametrize("scheme, named", [
    (np.ones((8, 3)), "ndarray"),
    (np.array([1.0, 2.0, 0.5]), "ndarray"),
    ([1.0, 0.0, 0.0], "list"),
    ("radial", "'radial'"),
], ids=["per-site", "vector", "vector-list", "unknown"])
def test_sweep_rejects_a_dipole_scheme_but_transport_by_name(scheme, named):
    # a sweep's chains are all clean: no dipoles, or "transport" on every
    # site; per-site dipoles of one length fit no other, and the spec
    # fails before any solve
    with pytest.raises(ValueError, match=(
            "^dipole_scheme must be None or 'transport', not " + named)):
        small_spec(dipole_scheme=scheme)
    assert small_spec(dipole_scheme="transport").dipole_scheme == "transport"


def test_a_point_raises_its_steady_state_error():
    # without phonons or radiation, eigen injection leaves five excited
    # states of prism N=2 that nothing enters or leaves
    env = EnvironmentParams(gamma_phonon=0, gamma_rad=0)
    with pytest.raises(SteadyStateError, match=(
            r"^degenerate steady state: rate graph has 5 disconnected "
            r"closed classes \[\[2\], \[3\], \[4\], \[5\], \[6\]\]$")):
        solve_point("prism", 2, 1.0, HAM, env, injection_mode="eigen")


def test_a_failed_density_matrix_build_is_each_rows_entry():
    # a nonradiative operator of the wrong width at rate 0 gives no rate,
    # so the population solve skips it, while the Liouvillian build fails:
    # the failure is the row's BRME entry, next to its PME report
    _, _, es, channels = build_system("dimer", 3, 1.0, HAM, ENV)
    wrong = [replace(ch, operator=np.eye(5)) if ch.kind == "nonradiative"
             else ch for ch in channels]
    [measured] = experiments._measure(["pme", "brme"], wrong,
                                      es.energies[None], es.vectors[None])
    [alone] = experiments._measure(["pme"], channels, es.energies[None],
                                   es.vectors[None])
    assert measured["pme"].current == alone["pme"].current
    error = measured["brme"]
    assert isinstance(error, brme.BrmeError)
    assert str(error) == "nonradiative channel operator has wrong dimension"


def test_a_method_that_does_not_apply_is_rejected_by_name(monkeypatch):
    with pytest.raises(ValueError, match="'brmee'"):
        solve_point("mono", 2, 1.0, HAM, ENV, method="brmee")
    spec = small_spec(n_cells_values=(3,), method="brme")
    with pytest.raises(ValueError, match="'pme' only, not 'brme'"):
        disorder_ensemble(spec)
    with pytest.raises(ValueError, match="'pme' only, not 'brme'"):
        regime_grid(spec)
    # beyond the BRME cap a PME-only study still names its own reason
    spec = small_spec(n_cells_values=(25,), method="brme")
    with pytest.raises(ValueError, match="'pme' only, not 'brme'"):
        disorder_ensemble(spec)
    # a sweep with the BRME, alone or beside the PME, needs one chain
    # length within the BRME cap, or it fails before any geometry is
    # solved ("both" would write population rows alone under a sidecar
    # that records both methods)
    cells = spy(monkeypatch, "_cell_solves")
    for method in ("brme", "both"):
        with pytest.raises(ValueError, match=(
                f"^method '{method}' needs a chain length at or below "
                "brme_max_cells = 20$")):
            length_sweep(small_spec(n_cells_values=(25, 26), method=method))
    assert cells == []


def test_length_sweep_rows_and_fits():
    rows, fits = length_sweep(small_spec(fit_min_cells=2))
    assert len(rows) == 4
    assert all(row["method"] == "pme" for row in rows)
    currents = [row["current"] for row in rows]
    assert all(c > 0 for c in currents)
    assert [row["run_id"] for row in rows] == [0, 1, 2, 3]
    for row in rows:
        outgoing = (row["flux_extraction"] + row["flux_radiative"]
                    + row["flux_nonradiative"])
        assert outgoing == pytest.approx(row["flux_injection"], rel=1e-10,
                                         abs=0)
    assert len(fits) == 1
    assert fits[0]["n_min"] == 2 and fits[0]["n_max"] == 5


def test_length_sweep_is_deterministic():
    spec = small_spec(jobs=2)
    first = length_sweep(spec)
    second = length_sweep(spec)
    assert first == second


def test_both_methods_respect_the_brme_cap():
    spec = small_spec(n_cells_values=(2, 3), method="both",
                      brme_max_cells=2)
    rows, _ = length_sweep(spec)
    methods = {(row["n_cells"], row["method"]) for row in rows}
    assert (2, "brme") in methods
    assert (3, "brme") not in methods
    pme = {row["n_cells"]: row["current"] for row in rows
           if row["method"] == "pme"}
    brme = {row["n_cells"]: row["current"] for row in rows
            if row["method"] == "brme"}
    assert abs(brme[2] - pme[2]) / pme[2] < 0.05


# (geometries, n_cells, sweep settings) of length sweeps whose rows must
# equal per-point solves; prism N=43 (dimension 130) is one chain whose
# three couplings the chunk rule splits into stacks of two and one, and
# the BRME rows reuse the eigensystems their chain's PME rows are solved on
SWEEP_CASES = {
    "site": (("mono", "dimer", "prism"), (2, 3, 7), {"jobs": 2}),
    "eigen": (("mono", "dimer", "prism"), (2, 3, 7),
              {"injection_mode": "eigen"}),
    "dipoles": (("mono", "dimer", "prism"), (2, 3, 7),
                {"dipole_scheme": "transport"}),
    "eigen-dipoles": (("mono", "dimer", "prism"), (2, 3, 7),
                      {"injection_mode": "eigen",
                       "dipole_scheme": "transport", "jobs": 2}),
    "split-chain": (("prism",), (43,), {}),
    # jb = 1 is a pinned point: its basis comes from the syevr solve of
    # its factors' Kronecker sum
    "pinned": (("dimer",), (24,), {"jobs": 2}),
    "long-prism": (("prism",), (30,), {}),
    "both": (("mono", "dimer", "prism"), (2, 3, 7),
             {"method": "both", "jobs": 2, "brme_max_cells": 3}),
    "brme": (("mono", "dimer", "prism"), (2, 3, 7),
             {"method": "brme", "injection_mode": "eigen",
              "dipole_scheme": "transport", "brme_max_cells": 3}),
}


@pytest.mark.parametrize("case", SWEEP_CASES.values(), ids=SWEEP_CASES)
def test_length_sweep_rows_equal_per_point_solves(case):
    geometries, n_cells, settings = case
    spec = SweepSpec(geometries=geometries, n_cells_values=n_cells,
                     jb_values=(0.1, 1.0, 10.0), ham=HAM, env=ENV,
                     **settings)
    if n_cells == (43,):
        assert experiments._chunk_size(3 * 43 + 1) == 2
    rows, _ = length_sweep(spec)
    methods = ["pme", "brme"] if spec.method == "both" else [spec.method]
    points = [(kind, jb, n, method) for kind in geometries
              for jb in spec.jb_values for n in n_cells for method in methods
              if method == "pme" or n <= spec.brme_max_cells]
    assert [(r["geometry"], r["jb"], r["n_cells"], r["method"])
            for r in rows] == points
    assert [r["run_id"] for r in rows] == list(range(len(points)))
    per_point = {"dipole_scheme": spec.dipole_scheme,
                 "injection_mode": spec.injection_mode}
    for row, (kind, jb, n, method) in zip(rows, points):
        report = solve_point(kind, n, jb, HAM, ENV, method=method,
                             **per_point)
        for column in ("current", "ground_population", "residual"):
            assert row[column] == getattr(report, column), column
        for flux in ("injection", "extraction", "radiative",
                     "nonradiative"):
            assert row[f"flux_{flux}"] == report.fluxes.get(flux, 0.0), flux


@pytest.mark.parametrize("jobs", [1, 2])
def test_length_sweep_raises_the_first_failing_point_in_grid_order(jobs):
    # at e0 = 10.65 the dimer's lowest level falls below the ground state
    # at (jb 10, N 4) and (jb 12, N 2) but not at (jb 10, N 2): the chain
    # N=2 is solved first, yet (jb 10, N 4) comes first in grid order
    ham = replace(HAM, e0=10.65)
    spec = small_spec(n_cells_values=(2, 4), jb_values=(10.0, 12.0),
                      ham=ham, jobs=jobs)
    solve_point("dimer", 2, 10.0, ham, ENV)
    with pytest.raises(SpectralError) as expected:
        solve_point("dimer", 4, 10.0, ham, ENV)
    with pytest.raises(SpectralError) as raised:
        length_sweep(spec)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


def test_length_sweep_stops_at_the_first_failing_chain_with_one_job(
        monkeypatch):
    # the dimer chains fail as above; the prism chains after them are not
    # solved once a failing point of the dimer geometry is known
    ham = replace(HAM, e0=10.65)
    spec = small_spec(geometries=("dimer", "prism"), n_cells_values=(2, 4),
                      jb_values=(10.0, 12.0), ham=ham)
    solved = []
    real = experiments._chain_reports
    monkeypatch.setattr(experiments, "_chain_reports",
                        lambda spec, kind, *chain: solved.append(kind)
                        or real(spec, kind, *chain))
    with pytest.raises(SpectralError):
        length_sweep(spec)
    assert solved == ["dimer", "dimer"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_length_sweep_raises_a_failed_chain_in_grid_order(monkeypatch,
                                                          jobs):
    # a negative phonon rate fails every chain as its channels are built,
    # before any diagonalization: the first dimer chain's error is raised
    # and no prism chain is solved
    solved = spy(monkeypatch, "_chain_reports")
    spec = small_spec(geometries=("dimer", "prism"), n_cells_values=(2, 3),
                      env=EnvironmentParams(gamma_phonon=-1), jobs=jobs)
    with pytest.raises(ChannelError, match="^gamma_phonon must be >= 0$"):
        length_sweep(spec)
    assert sorted(args[2] for args in solved) == [2, 3]
    assert {args[1] for args in solved} == {"dimer"}


@pytest.mark.parametrize("study", [disorder_ensemble, regime_grid])
def test_ensembles_raise_a_failed_clean_row_before_any_realization(
        monkeypatch, study):
    # a ground state above every excited level fails the clean row, which
    # is solved first and alone; its error is raised, not counted
    solves = spy(monkeypatch, "_solve_rows")
    spec = small_spec(n_cells_values=(4,), ham=HamiltonianParams(eg=1e3))
    with pytest.raises(SpectralError,
                       match="increase the manifold offset$"):
        study(spec)
    assert [args[1] for args in solves] == [1]


@pytest.mark.parametrize("study", [disorder_ensemble, regime_grid])
def test_ensembles_reject_more_than_one_chain_length(monkeypatch, study):
    solves = spy(monkeypatch, "_solve_rows")
    with pytest.raises(ValueError, match=r"^an ensemble solves one chain "
                                         r"length, not n_cells_values = "
                                         r"\(3, 4\)$"):
        study(small_spec(n_cells_values=(3, 4)))
    assert solves == []


def spy(monkeypatch, name):
    """The positional arguments of every call to experiments.<name>."""
    calls = []
    real = getattr(experiments, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(experiments, name, wrapper)
    return calls


@pytest.mark.parametrize("jobs", [1, 2])
def test_length_sweep_solves_each_factor_once(monkeypatch, jobs):
    # per geometry: B once per distinct cell block before the chains, then
    # T once per N; a chain of one site per cell has the 1 x 1 cell block
    # B = [[0]] at every jb, so it solves B once.  B is solved inside
    # spectral._cell_modes, T in experiments._chain_reports
    solves = []
    real = spectral._factor_eigen
    for module in (spectral, experiments):
        monkeypatch.setattr(module, "_factor_eigen",
                            lambda block: solves.append((block,))
                            or real(block))
    spec = small_spec(geometries=("mono", "dimer", "prism"),
                      n_cells_values=(4, 5, 6), jb_values=(0.1, 1.0, 10.0),
                      jobs=jobs)
    rows, _ = length_sweep(spec)
    assert len(rows) == 27
    sizes = [len(block) for block, in solves]
    assert len(sizes) == 16
    assert sizes[0] == 1
    assert [sorted(sizes[k:k + 3]) for k in range(1, 16, 3)] == [
        [4, 5, 6], [2] * 3, [4, 5, 6], [3] * 3, [4, 5, 6]]


@pytest.mark.parametrize("method", ["pme", "both", "brme"])
def test_a_chain_makes_one_rate_pass_for_both_solvers(monkeypatch, method):
    # each chain's three couplings are one stack: it makes one rate pass
    # and forms its generators once, which the population and the
    # density-matrix solve both read, and the stack's Liouvillians are
    # built and solved together
    passes, formed, builds = [], [], []
    real_rates, real_build = spectral._rate_rows, brme.build_liouvillian
    real_generators = pme._generator_rows
    counting = (lambda energies, *rest:
                passes.append(energies.shape) or real_rates(energies, *rest))
    forming = (lambda w: formed.append(w.shape[:2])
               or real_generators(w))
    for module in (experiments, brme):
        monkeypatch.setattr(module, "_rate_rows", counting)
    for module in (experiments, pme, brme):
        monkeypatch.setattr(module, "_generator_rows", forming)
    monkeypatch.setattr(brme, "build_liouvillian",
                        lambda energies, *rest: (
                            builds.append(energies.shape)
                            or real_build(energies, *rest)))
    spec = small_spec(geometries=("prism",), n_cells_values=(2, 3),
                      jb_values=(0.1, 1.0, 10.0), method=method)
    rows, _ = length_sweep(spec)
    assert len(rows) == (12 if method == "both" else 6)
    assert passes == formed == [(3, 7), (3, 10)]
    assert builds == ([] if method == "pme" else passes)


@pytest.mark.parametrize("kind,n_cells,jb,options", [
    ("prism", 10, 1.0, {}),
    ("dimer", 20, 10.0, {"dipole_scheme": "transport"}),
    ("cuboid", 8, 1.0, {"disorder_spec": DisorderSpec(sigma=0.9, seed=5)}),
    ("dimer", 60, 10.0, {}),
], ids=["prism", "dimer-transport", "cuboid-disorder", "dimer-60"])
def test_eigenvector_signs_change_no_report(kind, n_cells, jb, options):
    # negating eigenvectors D negates every product of both solves exactly:
    # a row and its sign-flipped copy, solved as one stack, give the same
    # bits in every report field, the density matrix as D rho D, so the
    # solvers need no sign rule
    _, _, es, channels = build_system(kind, n_cells, jb, HAM, ENV, **options)
    signs = np.random.default_rng(n_cells).choice([-1.0, 1.0],
                                                  len(es.energies))
    signs[0], signs[1] = 1.0, -1.0  # the ground column stays, state 1 flips
    vectors = np.stack([es.vectors, es.vectors * signs])
    solved = experiments._measure(["pme", "brme"], channels,
                                  np.stack([es.energies] * 2), vectors)
    assert np.array_equal(vectors[0], es.vectors)
    for method in ("pme", "brme"):
        report, flipped = (row[method] for row in solved)
        for name, value in vars(report).items():
            other = getattr(flipped, name)
            if name == "density_matrix" and value is not None:
                other = signs[:, None] * other * signs
            assert (np.array_equal(other, value)
                    if isinstance(value, np.ndarray) else other == value), name
    assert solved[0]["brme"].extras["krylov_iterations"] > 0


def test_benchmark_traffic_needs_no_class_search():
    # every row of the brme-check grid and of a disorder ensemble has a
    # rate from every excited state into the ground state, which proves
    # its steady state unique without a search; the density-matrix solver
    # takes the population solver's verdict and searches nothing itself
    assert "_closed_classes" not in vars(brme)
    sweep = SweepSpec(geometries=("mono", "dimer", "prism"),
                      n_cells_values=(2, 5, 10, 20),
                      jb_values=(0.1, 1.0, 10.0), method="both")
    ensemble = SweepSpec(geometries=("dimer", "prism"), n_cells_values=(20,),
                         jb_values=(10.0,), sigma=0.9, n_realizations=20,
                         seed=1)
    with mock.patch.object(pme, "_closed_classes",
                           wraps=pme._closed_classes) as searched:
        rows, _ = length_sweep(sweep)
        disorder_ensemble(ensemble)
    assert len(rows) == 2 * 3 * 4 * 3
    assert searched.call_count == 0


def test_length_sweep_applies_the_cell_rule_once_per_coupling(monkeypatch):
    # the centroid rule acts on the (n x n) cell modes, once per coupling
    # before the chains are shared out, never on a chain's product vectors
    shapes = []
    real = spectral._resolve_degeneracies

    def rule(eps, vecs, positions):
        shapes.append(vecs.shape)
        return real(eps, vecs, positions)

    monkeypatch.setattr(spectral, "_resolve_degeneracies", rule)
    spec = small_spec(geometries=("prism",),
                      n_cells_values=tuple(range(2, 13)),
                      jb_values=(0.1, 1.0, 10.0))
    rows, _ = length_sweep(spec)
    assert len(rows) == 33
    assert shapes == [(3, 3)] * 3


def test_clean_length_sweep_builds_no_dense_hamiltonian(monkeypatch):
    builds = spy(monkeypatch, "build_hamiltonian")
    spec = small_spec(geometries=("mono", "dimer", "prism"),
                      n_cells_values=(23, 24), jb_values=(1.0, 10.0))
    rows, _ = length_sweep(spec)
    assert len(rows) == 12
    # dimer N=24, jb=1 is a pinned point: its block is the Kronecker sum
    # of its factors, so no row of this grid builds a dense Hamiltonian
    assert builds == []


def test_length_sweep_warns_once_per_low_ground_population_point():
    # a mono chain is one system at every jb, solved once, and still warns
    # at each (jb, N) as a single point does
    spec = small_spec(geometries=("dimer", "mono"), n_cells_values=(2, 3),
                      jb_values=(1.0, 10.0),
                      env=EnvironmentParams(gamma_inj=0.05))
    with pytest.warns(UserWarning) as swept:
        length_sweep(spec)
    with pytest.warns(UserWarning) as single:
        for kind in spec.geometries:
            for jb in spec.jb_values:
                for n in spec.n_cells_values:
                    solve_point(kind, n, jb, HAM, spec.env)
    messages = sorted(str(w.message) for w in swept)
    assert len(messages) == 8
    assert all(m.startswith("ground population") for m in messages)
    assert messages == sorted(str(w.message) for w in single)


def steady_sites(tmp_path, *flags) -> tuple[list, dict]:
    """The site populations and the report of one ``steady`` run."""
    out = tmp_path / "_".join(flags)
    assert main(["steady", *flags, "--out", str(out)]) == 0
    payload = json.loads((out / "steady_state.json").read_text())
    return payload["site_populations"], payload


def test_population_profile_normalization_and_trend(tmp_path):
    # a profile is one steady run per radiative rate, relative to site 1
    gammas = [1e-4, 1e-3, 1e-2, 1e-1]
    tails = []
    for gamma in gammas:
        sites, payload = steady_sites(tmp_path, "--geometry", "mono",
                                      "--n-cells", "10", "--gamma-rad",
                                      str(gamma))
        # the library's site populations, through the JSON bit for bit
        system, report = experiments._solve_system("pme", partial(
            build_system, "mono", 10, 1.0, HAM,
            replace(ENV, gamma_rad=gamma)))
        assert sites == site_populations(report, system[2]).tolist()
        # site populations plus the ground population account for everything
        assert len(sites) == 10
        assert sum(sites) + payload["ground_population"] == pytest.approx(
            1.0, abs=1e-12)
        tails.append(sites[-1] / sites[0])
    # increasing radiative loss steepens the relative decay profile
    assert all(a > b for a, b in zip(tails, tails[1:]))


def test_lossless_profile_is_flattest(tmp_path):
    tails = []
    for gamma in ("0", "0.01"):
        sites, _ = steady_sites(tmp_path, "--geometry", "mono", "--n-cells",
                                "6", "--gamma-rad", gamma, "--gamma-nr", "0")
        tails.append(sites[-1] / sites[0])
    assert tails[0] > tails[1]


@pytest.mark.parametrize("kind", ["mono", "dimer"])
def test_disorder_ensemble_zero_sigma_collapses(kind):
    # at sigma = 0 every realization is the clean value
    spec = small_spec(geometries=(kind,), n_cells_values=(4,),
                      sigma=0.0, n_realizations=5, seed=3)
    stats, raw = disorder_ensemble(spec)
    entry = stats[0]
    assert entry["n_failed"] == 0
    for key in ("min", "max", "median", "q1", "q3"):
        assert entry[key] == entry["clean_current"], key
    assert len(raw) == 5


def test_disorder_ensemble_is_seeded_and_parallel_safe():
    spec = small_spec(n_cells_values=(4,), jobs=4)
    stats1, raw1 = disorder_ensemble(spec)
    stats2, raw2 = disorder_ensemble(small_spec(n_cells_values=(4,), jobs=1))
    assert stats1 == stats2
    assert raw1 == raw2
    other = disorder_ensemble(small_spec(n_cells_values=(4,), seed=12))[0]
    assert other[0]["median"] != stats1[0]["median"]


def test_disorder_rows_keep_their_bits_in_stacks_of_one(monkeypatch):
    # the stack budget decides only how rows are grouped: stacks of one
    # give every row the bits it gets in full stacks
    spec = small_spec(geometries=("dimer", "prism"), n_cells_values=(20,),
                      jb_values=(1.0, 10.0), n_realizations=40, seed=3)
    stacked = disorder_ensemble(spec)
    monkeypatch.setattr(experiments, "_CHUNK_ELEMENTS", 1)
    assert experiments._chunk_size(61) == 1
    assert disorder_ensemble(spec) == stacked


def test_a_disorder_stack_peaks_at_five_stack_arrays():
    # prism N=20 (dimension 61) with 8 realizations is one stack; its rate
    # pass and PME solve work in place, so at most five (R, dim, dim)
    # arrays are alive at once
    spec = small_spec(geometries=("prism",), n_cells_values=(20,),
                      jb_values=(10.0,), n_realizations=8, seed=1)
    assert experiments._chunk_size(61) >= 8
    disorder_ensemble(spec)  # first-call allocations are not the stack's
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        disorder_ensemble(spec)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 8 * 61**2 * 8


@pytest.mark.parametrize("sigma", [0.0, 0.9])
def test_disorder_ensemble_returns_every_raw_row(sigma):
    # one raw row per (geometry, jb, realization), in grid order, whether
    # or not the caller writes them
    spec = small_spec(geometries=("mono", "dimer"), n_cells_values=(3,),
                      jb_values=(1.0, 10.0), sigma=sigma, n_realizations=3)
    stats, raw = disorder_ensemble(spec)
    assert [(r["geometry"], r["jb"], r["realization"]) for r in raw] == [
        (kind, jb, r) for kind in ("mono", "dimer") for jb in (1.0, 10.0)
        for r in range(3)]
    assert all(row["error"] == "" and "n_dark" in row for row in raw)
    assert len(stats) == 4


def test_derive_seed_is_stable():
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


def test_regime_grid_reduces_to_the_clean_pipeline_at_zero_loss():
    spec = small_spec(n_cells_values=(5,),
                      sigma=0.0, n_realizations=1)
    rows = regime_grid(spec, gamma_nr_factors=(0.0,))
    clean = [r for r in rows if r["realization"] == -1
             and r["dipoles"] == "off"]
    reference = solve_point("dimer", 5, 1.0, HAM, ENV).current
    assert clean[0]["current"] == pytest.approx(reference, rel=1e-12, abs=0)


def test_regime_grid_layout():
    spec = small_spec(n_cells_values=(4,), jb_values=(1.0, 2.0),
                      sigma=0.9, n_realizations=3, seed=7)
    rows = regime_grid(spec, gamma_nr_factors=(0.1, 1.0))
    # 2 factors x 2 dipole settings x 2 jb x (1 clean + 3 realizations)
    assert len(rows) == 2 * 2 * 2 * 4
    assert {r["dipoles"] for r in rows} == {"on", "off"}
    assert {r["gamma_nr"] for r in rows} == {0.001, 0.01}
    assert {r["error"] for r in rows} == {""}


def test_ensembles_count_solver_failures_and_propagate_bugs(monkeypatch):
    # faults are injected at the ensemble engine's steady-state kernel, into
    # the realization stacks only: the clean row is solved alone, as a stack
    # of one, and the two realizations share one stack
    spec = small_spec(n_cells_values=(3,),
                      sigma=0.9, n_realizations=2, seed=0)
    real = experiments._steady_reports

    def realizations_only(fault):
        return lambda w, ground: (real(w, ground) if len(w) == 1
                                  else fault(w))

    def bug(w):
        raise TypeError("injected")

    def unsolvable(w):
        return [SteadyStateError("injected")] * len(w)

    # a programming error inside a realization is not a failed solve
    monkeypatch.setattr(experiments, "_steady_reports",
                        realizations_only(bug))
    with pytest.raises(TypeError, match="injected"):
        disorder_ensemble(spec)
    with pytest.raises(TypeError, match="injected"):
        regime_grid(spec, gamma_nr_factors=(1.0,))
    # a numerical failure is counted and the ensemble goes on
    monkeypatch.setattr(experiments, "_steady_reports",
                        realizations_only(unsolvable))
    stats, raw = disorder_ensemble(spec)
    assert stats[0]["n_failed"] == 2
    assert np.isfinite(stats[0]["clean_current"])
    assert [r["error"] for r in raw] == ["SteadyStateError"] * 2
    rows = regime_grid(spec, gamma_nr_factors=(1.0,))
    disordered = [r for r in rows if r["realization"] >= 0]
    assert len(disordered) == 4
    assert np.all(np.isnan([r["current"] for r in disordered]))
    assert {r["error"] for r in disordered} == {"SteadyStateError"}
    assert {r["error"] for r in rows if r["realization"] < 0} == {""}


# (geometry, n_cells, jb, sweep settings, sigma, realizations); prism N=20
# (dim 61) spans three chunks, and the clean prism keeps the degenerate
# multiplets that canonical basis resolution has to fix
ENGINE_CASES = {
    "site": ("prism", 20, 10.0, {}, 0.9, 20),
    "eigen": ("dimer", 6, 1.0, {"injection_mode": "eigen"}, 0.5, 10),
    "dipoles": ("prism", 5, 3.0, {"dipole_scheme": "transport"}, 0.5, 10),
    "clean-prism": ("prism", 6, 10.0, {}, 0.0, 3),
}


@pytest.mark.parametrize("case", ENGINE_CASES.values(), ids=ENGINE_CASES)
def test_ensemble_engine_matches_solve_point(case):
    kind, n_cells, jb, settings, sigma, count = case
    spec = SweepSpec(geometries=(kind,), n_cells_values=(n_cells,),
                     jb_values=(jb,), ham=HAM, env=ENV,
                     sigma=sigma, n_realizations=count, seed=5,
                     **settings)
    if sigma == 0:
        es = build_system(kind, n_cells, jb, HAM, ENV)[2]
        assert np.any(np.diff(es.excited_energies) <= 1e-9 * es.energies.max())
    _, raw = disorder_ensemble(spec)
    seed = derive_seed(5, 0, 0)
    assert len(raw) == count
    for row in raw:
        reference = solve_point(
            kind, n_cells, jb, HAM, ENV,
            disorder_spec=DisorderSpec(sigma, seed, row["realization"]),
            **settings)
        assert row["error"] == ""
        assert row["current"] == reference.current


@pytest.mark.parametrize("mode", ["site", "eigen"])
@pytest.mark.parametrize("kind", ["mono", "dimer", "prism"])
def test_clean_ensemble_values_equal_the_per_point_pipeline(kind, mode):
    # each ensemble point solves its clean row on the realizations' runner
    # and measure; that row equals solve_point exactly, and each
    # realization's census equals its eigensystem's census
    spec = small_spec(geometries=(kind,), n_cells_values=(5,),
                      jb_values=(1.0, 10.0), injection_mode=mode,
                      sigma=0.5, n_realizations=3, seed=0,
                      dark_threshold=1e-3)
    stats, raw = disorder_ensemble(spec)
    for entry in stats:
        assert entry["clean_current"] == solve_point(
            kind, 5, entry["jb"], HAM, ENV, injection_mode=mode).current
    for row in raw:
        seed = derive_seed(0, 0, spec.jb_values.index(row["jb"]))
        _, _, es, channels = build_system(
            kind, 5, row["jb"], HAM, ENV, injection_mode=mode,
            disorder_spec=DisorderSpec(0.5, seed, row["realization"]))
        assert row["n_dark"] == classify_bright_dark(
            es, brightness(es, channels), 1e-3).n_dark
    factors = (0.1, 10.0)
    rows = regime_grid(spec, gamma_nr_factors=factors)
    clean = [row for row in rows if row["realization"] == -1]
    assert len(clean) == len(factors) * 2 * len(spec.jb_values)
    for row in clean:
        env = replace(ENV, gamma_nr=row["gamma_nr"])
        scheme = "transport" if row["dipoles"] == "on" else None
        assert row["current"] == solve_point(
            kind, 5, row["jb"], HAM, env, dipole_scheme=scheme,
            injection_mode=mode).current


def test_zero_sigma_ensembles_diagonalize_only_the_clean_row(monkeypatch):
    # at sigma = 0 every realization is the clean value, solved once
    solves = spy(monkeypatch, "_eigen_rows")
    spec = small_spec(n_cells_values=(4,), jb_values=(1.0, 10.0),
                      sigma=0.0, n_realizations=8)
    _, raw = disorder_ensemble(spec)
    assert len(raw) == 16
    # each clean row is a clean stack of one, (chain half, [cell half])
    assert [len(cells) for (_, cells), _, _ in solves] == [1, 1]
    # a dimer chain of 4 cells has 4 dark states
    assert {row["n_dark"] for row in raw} == {4}


def test_ensemble_engine_isolates_failed_realizations():
    # at sigma = 40 two of these 40 draws push a level below the ground
    # state, which solve_point rejects with SpectralError
    spec = small_spec(n_cells_values=(4,), jb_values=(10.0,),
                      sigma=40.0, n_realizations=40)
    _, reports = experiments._ensemble(
        spec, "dimer", 10.0, 3, partial(experiments._census_rows, None))
    rows = experiments._realization_rows({}, reports)
    currents = [row["current"] for row in rows]
    errors = [row["error"] for row in rows]
    failed = 0
    for r in range(40):
        try:
            reference = solve_point("dimer", 4, 10.0, HAM, ENV,
                                    disorder_spec=DisorderSpec(40.0, 3, r))
        except SpectralError:
            failed += 1
            assert errors[r] == "SpectralError" and np.isnan(currents[r])
            continue
        assert errors[r] == ""
        assert currents[r] == pytest.approx(reference.current, rel=1e-12,
                                            abs=0)
    assert failed == 2


def test_low_ground_populations_are_counted_in_one_warning():
    env = EnvironmentParams(gamma_inj=0.05)
    spec = small_spec(n_cells_values=(3,), env=env,
                      sigma=0.9, n_realizations=5, seed=0)
    with pytest.warns(UserWarning) as record:
        stats, _ = disorder_ensemble(spec)
    assert stats[0]["n_failed"] == 0
    messages = [str(w.message) for w in record]
    # one warning for the clean solve, one count for the whole ensemble
    assert len(messages) == 2
    assert "5 of 5 disorder realizations" in messages[1]


def test_brightness_robustness_records_failed_realizations():
    # at sigma = 40 one draw (realization 19) pushes an excited level
    # below the ground state; its census is empty, the others are counted
    spec = SweepSpec(geometries=("dimer",), n_cells_values=(4,),
                     jb_values=(10.0,), ham=HAM, env=ENV,
                     sigma=40.0, n_realizations=40, seed=3)
    stats, raw = disorder_ensemble(spec)
    failed = [row for row in raw if row["error"]]
    assert [(row["realization"], row["error"]) for row in failed] == [
        (19, "SpectralError")]
    assert "n_dark" not in failed[0]
    assert all(0 <= row["n_dark"] <= 8 for row in raw if not row["error"])
    assert stats[0]["n_failed"] == 1
    # with every realization failed no census is left
    stats, raw = disorder_ensemble(replace(
        spec, sigma=1e4, n_realizations=3, seed=0))
    assert {row["error"] for row in raw} == {"SpectralError"}
    assert not any("n_dark" in row for row in raw)
    assert stats[0]["n_failed"] == 3 and np.isnan(stats[0]["median"])


def test_eigen_injection_single_cell_edge_case():
    report = solve_point("mono", 1, 1.0, HAM, ENV, injection_mode="eigen")
    assert np.isfinite(report.current) and report.current > 0


def test_eigen_injection_sweep_schema():
    rows, fits = length_sweep(small_spec(fit_min_cells=2,
                                         injection_mode="eigen"))
    assert len(rows) == 4
    assert len(fits) == 1


def test_brightness_robustness_zero_sigma_is_zero_width():
    # at sigma = 0 every realization's census is the clean one
    spec = small_spec(n_cells_values=(3,),
                      sigma=0.0, n_realizations=4)
    _, raw = disorder_ensemble(spec)
    _, _, es, channels = build_system("dimer", 3, 1.0, HAM, ENV)
    clean = classify_bright_dark(es, brightness(es, channels),
                                 spec.dark_threshold).n_dark
    assert [row["n_dark"] for row in raw] == [clean] * 4


def test_brightness_robustness_census_counts():
    # Disorder lends the dark states a residual brightness of order 1e-3 of
    # the maximum, so the partition must be read at a matching threshold.
    # There the prism census stays at its clean 2:1 dark:bright ratio in the
    # vast majority of draws while the dimer, whose dark states sit closer
    # to the bright band, loses its 1:1 census far more often.
    spec = SweepSpec(geometries=("dimer", "prism"), n_cells_values=(20,),
                     jb_values=(10.0,), ham=HAM, env=ENV,
                     sigma=0.9, n_realizations=40, seed=2,
                     dark_threshold=1e-3, jobs=4)
    _, raw = disorder_ensemble(spec)
    expected = {"dimer": 20, "prism": 40}  # 20 bright states each
    preserved = {kind: 0 for kind in expected}
    for row in raw:
        if row["n_dark"] == expected[row["geometry"]]:
            preserved[row["geometry"]] += 1
    assert preserved["prism"] >= 36  # >= 90% of draws
    assert preserved["dimer"] < preserved["prism"]


@pytest.mark.parametrize("threshold", [1e-6, 1e-3])
def test_disorder_census_matches_each_realization_solved_alone(threshold):
    # n_dark of each realization is classify_bright_dark of that
    # realization built and diagonalized alone; at sigma = 0 every row
    # reads the clean prism's 40 dark states
    spec = small_spec(geometries=("prism",), n_cells_values=(20,),
                      jb_values=(10.0,), dark_threshold=threshold,
                      sigma=0.9, n_realizations=20, seed=4)
    _, raw = disorder_ensemble(spec)
    seed = derive_seed(4, 0, 0)
    assert len(raw) == 20
    for row in raw:
        _, _, es, channels = build_system(
            "prism", 20, 10.0, HAM, ENV,
            disorder_spec=DisorderSpec(0.9, seed, row["realization"]))
        census = classify_bright_dark(es, brightness(es, channels),
                                      threshold)
        assert row["n_dark"] == census.n_dark
    _, raw = disorder_ensemble(replace(spec, sigma=0.0, n_realizations=20))
    assert [row["n_dark"] for row in raw] == [40] * 20
