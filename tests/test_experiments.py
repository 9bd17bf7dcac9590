import numpy as np
import pytest

from excitonchain import experiments
from excitonchain.environment import EnvironmentParams
from excitonchain.experiments import (DisorderEnsembleSpec, SweepSpec,
                                      brightness_robustness, derive_seed,
                                      disorder_ensemble, fit_exponential,
                                      length_sweep, population_profile,
                                      regime_grid, solve_point)
from excitonchain.hamiltonian import HamiltonianParams
from excitonchain.pme import SteadyStateError

HAM = HamiltonianParams()
ENV = EnvironmentParams()


def small_spec(**overrides):
    base = dict(geometries=("dimer",), n_cells_values=(2, 3, 4, 5),
                jb_values=(1.0,), ham=HAM, env=ENV,
                disorder=DisorderEnsembleSpec(sigma=0.9, n_realizations=8,
                                              base_seed=11))
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
    with pytest.raises(ValueError):
        small_spec(disorder=DisorderEnsembleSpec(n_realizations=0))


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
        assert outgoing == pytest.approx(row["flux_injection"], rel=1e-10)
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


def test_population_profile_normalization_and_trend():
    gammas = [1e-4, 1e-3, 1e-2, 1e-1]
    rows = population_profile("mono", 10, 1.0, gammas, HAM, ENV)
    by_gamma = {}
    for row in rows:
        by_gamma.setdefault(row["gamma_rad"], []).append(row)
    # absolute populations plus the ground population account for everything
    for gamma, chunk in by_gamma.items():
        total = sum(r["population"] for r in chunk)
        assert total + chunk[0]["ground_population"] == pytest.approx(
            1.0, abs=1e-12)
        assert chunk[0]["relative_population"] == pytest.approx(1.0)
    # increasing radiative loss steepens the relative decay profile
    last_site = {g: max(c, key=lambda r: r["site_index"])
                 ["relative_population"] for g, c in by_gamma.items()}
    values = [last_site[g] for g in gammas]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_lossless_profile_is_flattest():
    lossless = population_profile("mono", 6, 1.0, [0.0], HAM,
                                  EnvironmentParams(gamma_rad=0.0,
                                                    gamma_nr=0.0))
    lossy = population_profile("mono", 6, 1.0, [0.01], HAM, ENV)
    tail = max(r["site_index"] for r in lossless)
    rel0 = next(r["relative_population"] for r in lossless
                if r["site_index"] == tail)
    rel1 = next(r["relative_population"] for r in lossy
                if r["site_index"] == tail)
    assert rel0 > rel1


def test_disorder_ensemble_zero_sigma_collapses():
    spec = small_spec(n_cells_values=(4,),
                      disorder=DisorderEnsembleSpec(sigma=0.0,
                                                    n_realizations=5,
                                                    base_seed=3))
    stats, raw = disorder_ensemble(spec)
    entry = stats[0]
    assert entry["n_failed"] == 0
    assert entry["min"] == pytest.approx(entry["max"], rel=1e-12)
    assert entry["median"] == pytest.approx(entry["clean_current"],
                                            rel=1e-12)
    assert len(raw) == 5


def test_disorder_ensemble_is_seeded_and_parallel_safe():
    spec = small_spec(n_cells_values=(4,), jobs=4)
    stats1, raw1 = disorder_ensemble(spec)
    stats2, raw2 = disorder_ensemble(small_spec(n_cells_values=(4,), jobs=1))
    assert stats1 == stats2
    assert raw1 == raw2
    other = disorder_ensemble(small_spec(
        n_cells_values=(4,),
        disorder=DisorderEnsembleSpec(sigma=0.9, n_realizations=8,
                                      base_seed=12)))[0]
    assert other[0]["median"] != stats1[0]["median"]


def test_derive_seed_is_stable():
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


def test_regime_grid_reduces_to_the_clean_pipeline_at_zero_loss():
    spec = small_spec(n_cells_values=(5,),
                      disorder=DisorderEnsembleSpec(sigma=0.0,
                                                    n_realizations=1))
    rows = regime_grid(spec, gamma_nr_factors=(0.0,))
    clean = [r for r in rows if r["realization"] == -1
             and r["dipoles"] == "off"]
    reference = solve_point("dimer", 5, 1.0, HAM, ENV).current
    assert clean[0]["current"] == pytest.approx(reference, rel=1e-12)


def test_regime_grid_layout():
    spec = small_spec(n_cells_values=(4,), jb_values=(1.0, 2.0),
                      disorder=DisorderEnsembleSpec(sigma=0.9,
                                                    n_realizations=3,
                                                    base_seed=7))
    rows = regime_grid(spec, gamma_nr_factors=(0.1, 1.0))
    # 2 factors x 2 dipole settings x 2 jb x (1 clean + 3 realizations)
    assert len(rows) == 2 * 2 * 2 * 4
    assert {r["dipoles"] for r in rows} == {"on", "off"}
    assert {r["gamma_nr"] for r in rows} == {0.001, 0.01}


def test_ensembles_count_solver_failures_and_propagate_bugs(monkeypatch):
    clean_solve = experiments.solve_point
    spec = small_spec(n_cells_values=(3,),
                      disorder=DisorderEnsembleSpec(sigma=0.9,
                                                    n_realizations=2))

    def failing_realizations(error):
        def solve(*args, disorder_spec=None, **kwargs):
            if disorder_spec is not None:
                raise error("injected")
            return clean_solve(*args, **kwargs)
        monkeypatch.setattr(experiments, "solve_point", solve)

    # a programming error inside a realization is not a failed solve
    failing_realizations(TypeError)
    with pytest.raises(TypeError, match="injected"):
        disorder_ensemble(spec)
    with pytest.raises(TypeError, match="injected"):
        regime_grid(spec, gamma_nr_factors=(1.0,))
    # a numerical failure is counted and the ensemble goes on
    failing_realizations(SteadyStateError)
    stats, raw = disorder_ensemble(spec)
    assert stats[0]["n_failed"] == 2
    assert [r["error"] for r in raw] == ["SteadyStateError"] * 2
    rows = regime_grid(spec, gamma_nr_factors=(1.0,))
    disordered = [r["current"] for r in rows if r["realization"] >= 0]
    assert len(disordered) == 4 and np.all(np.isnan(disordered))


def test_eigen_injection_single_cell_edge_case():
    report = solve_point("mono", 1, 1.0, HAM, ENV, injection_mode="eigen")
    assert np.isfinite(report.current) and report.current > 0


def test_eigen_injection_sweep_schema():
    rows, fits = length_sweep(small_spec(fit_min_cells=2,
                                         injection_mode="eigen"))
    assert len(rows) == 4
    assert len(fits) == 1


def test_brightness_robustness_zero_sigma_is_zero_width():
    spec = small_spec(n_cells_values=(3,),
                      disorder=DisorderEnsembleSpec(sigma=0.0,
                                                    n_realizations=4))
    state_rows, census_rows = brightness_robustness(spec)
    assert len(state_rows) == 6
    for row in state_rows:
        assert row["min"] == pytest.approx(row["max"], abs=1e-18)
        assert row["median"] == pytest.approx(row["clean_brightness"],
                                              abs=1e-18)
    assert len(census_rows) == 4


def test_brightness_robustness_census_counts():
    # Disorder lends the dark states a residual brightness of order 1e-3 of
    # the maximum, so the partition must be read at a matching threshold.
    # There the prism census stays at its clean 2:1 dark:bright ratio in the
    # vast majority of draws while the dimer, whose dark states sit closer
    # to the bright band, loses its 1:1 census far more often.
    spec = SweepSpec(geometries=("dimer", "prism"), n_cells_values=(20,),
                     jb_values=(10.0,), ham=HAM, env=ENV,
                     disorder=DisorderEnsembleSpec(sigma=0.9,
                                                   n_realizations=40,
                                                   base_seed=2),
                     dark_threshold=1e-3, jobs=4)
    _, census_rows = brightness_robustness(spec)
    expected = {"dimer": (20, 20), "prism": (20, 40)}
    preserved = {kind: 0 for kind in expected}
    for row in census_rows:
        if (row["n_bright"], row["n_dark"]) == expected[row["geometry"]]:
            preserved[row["geometry"]] += 1
    assert preserved["prism"] >= 36  # >= 90% of draws
    assert preserved["dimer"] < preserved["prism"]
