"""End-to-end acceptance checks, one per release criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (visible with
``pytest tests/test_acceptance.py -v -s``) and enforces the criterion at
its stated tolerance.  Absolute current magnitudes are never asserted;
only ratios, exponents, orderings and conservation identities are.
"""

import os
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from excitonchain.brme import brme_steady_state, build_liouvillian
from excitonchain.environment import EnvironmentParams, build_channels
from excitonchain.experiments import (SweepSpec, disorder_ensemble,
                                      length_sweep, regime_grid,
                                      solve_point)
from excitonchain.hamiltonian import (DisorderSpec, HamiltonianParams,
                                      apply_disorder, build_hamiltonian)
from excitonchain.lattice import assign_dipoles, build_geometry
from excitonchain.pme import _steady_rows, build_generator, \
    solve_steady_state
from excitonchain.spectral import brightness, classify_bright_dark, \
    diagonalize, transition_matrix

HAM = HamiltonianParams()
ENV = EnvironmentParams()
JOBS = min(os.cpu_count() or 1, 8)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}  {detail}")
    assert ok, f"criterion {number}: {detail}"


def pipeline(kind, n_cells, jb, env=ENV, dipoles=None, disorder=None,
             injection_mode="site"):
    geo = build_geometry(kind, n_cells)
    if dipoles is not None:
        geo = assign_dipoles(geo, dipoles)
    params = HamiltonianParams()
    h = build_hamiltonian(geo, params, jb)
    if disorder is not None:
        h = apply_disorder(h, disorder)
    es = diagonalize(h)
    channels = build_channels(geo, env, delta_e=params.delta_e,
                              injection_mode=injection_mode)
    return es, channels


def test_criterion_01_decay_exponents():
    started = time.monotonic()
    spec = SweepSpec(geometries=("mono", "prism"),
                     n_cells_values=tuple(range(2, 41)),
                     jb_values=(0.1, 10.0), ham=HAM, env=ENV, jobs=1)
    _, fits = length_sweep(spec)
    table = {(f["geometry"], f["jb"]): f["beta"] for f in fits}
    elapsed = time.monotonic() - started
    beta_mono = table[("mono", 0.1)]          # mono ignores jb
    beta_soft = table[("prism", 0.1)]
    beta_stiff = table[("prism", 10.0)]
    ok = (abs(beta_mono - 0.31) <= 0.10
          and abs(beta_soft - 0.26) <= 0.10
          and beta_stiff < 1e-3
          and elapsed < 120.0)
    report(1, ok,
           f"beta(mono)={beta_mono:.4f} (0.31±0.10), "
           f"beta(prism,0.1)={beta_soft:.4f} (0.26±0.10), "
           f"beta(prism,10)={beta_stiff:.2e} (<1e-3), {elapsed:.1f}s")


def test_criterion_02_decoupled_limit_universality():
    currents = {}
    for kind in ("mono", "dimer", "trimer", "prism"):
        es, channels = pipeline(kind, 10, 0.0)
        currents[kind] = solve_steady_state(
            transition_matrix(es, channels)).current
    values = np.array(list(currents.values()))
    spread = np.ptp(values) / values.mean()
    ok = spread <= 1e-6
    report(2, ok, f"jb=0 currents agree to {spread:.2e} (tol 1e-6)")


def test_criterion_03_thermal_state():
    env = EnvironmentParams(gamma_rad=0.0, gamma_nr=0.0, gamma_inj=0.0,
                            gamma_ext=0.0)
    es, channels = pipeline("mono", 5, 1.0, env=env)
    rates = transition_matrix(es, channels)
    # the excited block alone, a stack of one
    [p], _, _ = _steady_rows(build_generator(rates.w[1:, 1:]).chi[None])
    energies = es.excited_energies
    gibbs = np.exp(-(energies - energies[0]) / ENV.temperature)
    gibbs /= gibbs.sum()
    deviation = np.abs(p / gibbs - 1.0).max()
    ok = deviation <= 1e-8
    report(3, ok, f"phonon-only populations match the thermal ratio "
                  f"to {deviation:.2e} (tol 1e-8)")


def test_criterion_04_detailed_balance():
    worst = 0.0
    grid = [("mono", 5, 1.0), ("dimer", 4, 10.0), ("trimer", 3, 1.0),
            ("prism", 4, 0.1), ("cuboid", 3, 10.0)]
    for kind, n_cells, jb in grid:
        es, channels = pipeline(kind, n_cells, jb)
        ph = transition_matrix(es, channels).blocks["phonon"]
        energies = es.energies
        for n in range(1, es.dimension):
            for m in range(n + 1, es.dimension):
                if ph[n, m] == 0.0 or ph[m, n] == 0.0:
                    continue
                expected = np.exp((energies[m] - energies[n])
                                  / ENV.temperature)
                worst = max(worst, abs(ph[n, m] / ph[m, n] / expected - 1.0))
    ok = worst <= 1e-12
    report(4, ok, f"phonon rate pairs satisfy detailed balance to "
                  f"{worst:.2e} (tol 1e-12)")


def test_criterion_05_brightness_sum_rule():
    worst = 0.0
    rng = np.random.default_rng(5)
    for kind in ("mono", "dimer", "trimer", "prism", "cuboid"):
        es, channels = pipeline(kind, 20, 10.0)
        total = brightness(es, channels).sum()
        expected = ENV.gamma_rad**2 * es.geometry.n_sites
        worst = max(worst, abs(total / expected - 1.0))
        vecs = rng.normal(size=(es.geometry.n_sites, 3))
        es_d, channels_d = pipeline(kind, 20, 10.0, dipoles=vecs)
        total_d = brightness(es_d, channels_d).sum()
        worst = max(worst, abs(total_d / expected - 1.0))
    ok = worst <= 1e-10
    report(5, ok, f"scalar and dipole sum rules hold to {worst:.2e} "
                  f"(tol 1e-10)")


def test_criterion_06_bright_dark_census():
    ok = True
    gaps = {}
    for kind, expected in (("dimer", (20, 20)), ("prism", (20, 40))):
        es, channels = pipeline(kind, 20, 10.0)
        census = classify_bright_dark(es, brightness(es, channels), 1e-6)
        gaps[kind] = census.band_gap_detrended
        ok = ok and (census.n_bright, census.n_dark) == expected
        ok = ok and census.band_gap_detrended > 10.0 / 2
    report(6, ok, "dimer 20/20, prism 20/40, gradient-referenced band "
                  f"gaps {gaps['dimer']:.1f} and {gaps['prism']:.1f} > 5")


def test_criterion_07_solver_cross_check():
    worst = 0.0
    worst_case = ""
    timing = None
    for kind in ("mono", "dimer", "prism"):
        for jb in (0.1, 1.0, 10.0):
            for n_cells in (2, 5, 10, 20):
                es, channels = pipeline(kind, n_cells, jb)
                pme_current = solve_steady_state(
                    transition_matrix(es, channels)).current
                started = time.monotonic()
                [brme_report] = brme_steady_state(build_liouvillian(
                    es.energies[None], es.vectors[None], channels))
                brme_current = brme_report.current
                elapsed = time.monotonic() - started
                if kind == "prism" and n_cells == 20:
                    timing = elapsed if timing is None else max(timing,
                                                                elapsed)
                rel = abs(brme_current - pme_current) / pme_current
                if rel > worst:
                    worst, worst_case = rel, f"{kind} N={n_cells} jb={jb}"
    ok = worst < 0.10 and timing < 300.0
    report(7, ok, f"population vs density-matrix currents within "
                  f"{worst:.2%} (worst: {worst_case}); largest solve "
                  f"{timing:.1f}s (<300s)")


def test_criterion_08_time_integration_oracle():
    worst = 0.0
    for kind, n_cells in (("mono", 2), ("prism", 5)):
        es, channels = pipeline(kind, n_cells, 1.0)
        rates = transition_matrix(es, channels)
        p_null = solve_steady_state(rates).populations
        chi = build_generator(rates).chi
        p = np.zeros(len(chi))
        p[0] = 1.0
        horizon = 1.0 / np.abs(np.diag(chi)).min()
        for _ in range(60):
            sol = solve_ivp(lambda _t, y: chi @ y, (0.0, horizon), p,
                            method="BDF", jac=lambda _t, _y: chi,
                            rtol=1e-12, atol=1e-18)
            p = np.clip(sol.y[:, -1], 0.0, None)
            p /= p.sum()
            if np.abs(chi @ p).max() < 1e-13:
                break
            horizon *= 4.0
        worst = max(worst, np.abs(p_null - p).max())
    ok = worst <= 1e-8
    report(8, ok, f"null-space and integrated steady states differ by "
                  f"{worst:.2e} (tol 1e-8)")


def test_criterion_09_flux_conservation():
    cases = []
    for kind, n_cells, jb, env, dipoles, mode in [
            ("mono", 10, 1.0, ENV, None, "site"),
            ("dimer", 8, 10.0, EnvironmentParams(gamma_nr=0.005), None,
             "site"),
            ("prism", 6, 4.0, EnvironmentParams(gamma_nr=0.1), "transport",
             "site"),
            ("prism", 5, 10.0, ENV, None, "eigen"),
            ("cuboid", 4, 0.1, ENV, None, "site")]:
        es, channels = pipeline(kind, n_cells, jb, env=env, dipoles=dipoles,
                                injection_mode=mode)
        cases.append(solve_steady_state(transition_matrix(es, channels)))
    spec = DisorderSpec(sigma=0.9, seed=3, realization_index=1)
    es, channels = pipeline("prism", 6, 10.0, disorder=spec)
    cases.append(solve_steady_state(transition_matrix(es, channels)))
    es, channels = pipeline("dimer", 4, 1.0)
    cases.extend(brme_steady_state(build_liouvillian(
        es.energies[None], es.vectors[None], channels)))
    worst = 0.0
    for rep in cases:
        outgoing = (rep.fluxes.get("extraction", 0.0)
                    + rep.fluxes.get("radiative", 0.0)
                    + rep.fluxes.get("nonradiative", 0.0))
        worst = max(worst, abs(outgoing / rep.fluxes["injection"] - 1.0))
    ok = worst <= 1e-10
    report(9, ok, f"injected flux balances all outflows to {worst:.2e} "
                  f"over {len(cases)} steady states (tol 1e-10)")


def test_criterion_10_disorder_robustness():
    started = time.monotonic()
    spec = SweepSpec(geometries=("dimer", "prism"), n_cells_values=(20,),
                     jb_values=(10.0,), ham=HAM, env=ENV,
                     sigma=0.9, n_realizations=1000, seed=1, jobs=JOBS)
    stats, raw = disorder_ensemble(spec)
    elapsed = time.monotonic() - started
    by_kind = {s["geometry"]: s for s in stats}
    prism = by_kind["prism"]
    clean = prism["clean_current"]
    prism_currents = np.array([r["current"] for r in raw
                               if r["geometry"] == "prism"])
    within = np.mean((prism_currents > clean / 10)
                     & (prism_currents < clean * 10))
    prism_iqr = prism["q3"] - prism["q1"]
    dimer_iqr = by_kind["dimer"]["q3"] - by_kind["dimer"]["q1"]
    rel_prism = prism_iqr / prism["median"]
    rel_dimer = dimer_iqr / by_kind["dimer"]["median"]
    ok = (within >= 0.90 and prism["n_failed"] == 0
          and prism_iqr < dimer_iqr and rel_prism < rel_dimer
          and elapsed < 600.0)
    report(10, ok, f"{within:.1%} of prism draws within one decade; "
                   f"IQR prism {prism_iqr:.2e} < dimer {dimer_iqr:.2e}; "
                   f"{elapsed:.0f}s")


def test_criterion_11_dipole_regimes():
    jb_grid = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0)
    env_equal = EnvironmentParams(gamma_nr=ENV.gamma_rad)
    currents = []
    for jb in jb_grid:
        rep = solve_point("prism", 20, jb, HAM, env_equal,
                          dipole_scheme="transport")
        currents.append(rep.current)
    peak = int(np.argmax(currents))
    interior = 0 < peak < len(jb_grid) - 1
    spec = SweepSpec(geometries=("prism",), n_cells_values=(20,),
                     jb_values=(10.0,), ham=HAM, env=ENV,
                     sigma=0.9, n_realizations=200, seed=4, jobs=JOBS)
    rows = regime_grid(spec, gamma_nr_factors=(10.0,))
    medians = {}
    for setting in ("on", "off"):
        values = [r["current"] for r in rows
                  if r["dipoles"] == setting and r["realization"] >= 0]
        medians[setting] = float(np.median(values))
    ok = interior and medians["on"] > medians["off"]
    report(11, ok, f"aligned-dipole current peaks inside the grid at "
                   f"jb={jb_grid[peak]}; heavy-loss medians on/off = "
                   f"{medians['on']:.2e}/{medians['off']:.2e}")


def test_criterion_12_eigenbasis_injection():
    spec = SweepSpec(geometries=("dimer", "prism"),
                     n_cells_values=tuple(range(2, 41)),
                     jb_values=(10.0,), ham=HAM, env=ENV,
                     injection_mode="eigen", jobs=JOBS)
    _, fits = length_sweep(spec)
    betas = {f["geometry"]: f["beta"] for f in fits}
    flat = all(beta < 1e-2 for beta in betas.values())
    mono_wins = True
    for n_cells in range(2, 7):
        mono = solve_point("mono", n_cells, 10.0, HAM, ENV,
                           injection_mode="eigen").current
        for kind in ("dimer", "trimer", "prism"):
            other = solve_point(kind, n_cells, 10.0, HAM, ENV,
                                injection_mode="eigen").current
            mono_wins = mono_wins and mono > other
    ok = flat and mono_wins
    report(12, ok, f"eigenbasis-injection betas {betas['dimer']:.2e} "
                   f"(dimer), {betas['prism']:.2e} (prism) < 1e-2; single "
                   f"chain leads for N<=6")


def test_length_ordering_at_strong_coupling():
    # supporting ordering property: prism > dimer > mono at N = 40, jb = 10
    currents = {}
    for kind in ("mono", "dimer", "prism"):
        currents[kind] = solve_point(kind, 40, 10.0, HAM, ENV).current
    assert currents["prism"] > currents["dimer"] > currents["mono"]
