import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from excitonchain import brme
from excitonchain.brme import BrmeError, brme_steady_state, build_liouvillian
from excitonchain.environment import Channel, EnvironmentParams, FlatStep, \
    build_channels
from excitonchain.hamiltonian import HamiltonianParams, build_hamiltonian
from excitonchain.lattice import assign_dipoles, build_geometry
from excitonchain.pme import build_generator, site_populations, \
    solve_steady_state
from excitonchain.spectral import SpectralError, diagonalize, \
    transition_matrix

FREQ_GROUP_TOL = 1e-9


def make_system(kind, n_cells, jb=1.0, env=None, injection_mode="site",
                dipole_scheme=None):
    geo = build_geometry(kind, n_cells)
    if dipole_scheme is not None:
        geo = assign_dipoles(geo, dipole_scheme)
    h = build_hamiltonian(geo, HamiltonianParams(), jb)
    es = diagonalize(h)
    channels = build_channels(geo, env or EnvironmentParams(),
                              injection_mode=injection_mode)
    return es, channels


def frequency_decompose(es, op):
    """Split an eigenbasis operator into fixed-frequency components.

    Returns (omega, A(omega)) pairs, where A(omega) collects the matrix
    elements with eps_m - eps_n = omega (grouped with absolute tolerance
    ``FREQ_GROUP_TOL``).  The components sum back to the full operator
    exactly.
    """
    dim = es.dimension
    energies = es.energies
    entries = []
    for n in range(dim):
        for m in range(dim):
            if op[n, m] != 0.0:
                entries.append((energies[m] - energies[n], n, m))
    entries.sort(key=lambda e: e[0])
    components = []
    k = 0
    while k < len(entries):
        omega0 = entries[k][0]
        mat = np.zeros((dim, dim))
        omegas = []
        while k < len(entries) and entries[k][0] - omega0 <= FREQ_GROUP_TOL:
            w, n, m = entries[k]
            mat[n, m] = op[n, m]
            omegas.append(w)
            k += 1
        components.append((float(np.mean(omegas)), mat))
    return components


def brute_force_liouvillian(es, channels, eigenbasis_operator):
    """Direct evaluation of the dissipator from its frequency components.

    Loops over every (omega, omega') pair explicitly, which is the written
    definition and completely independent of the factorized production
    builder.  Row-major vectorization throughout.
    """
    dim = es.dimension
    eye = np.eye(dim)
    energies = es.energies
    liouv = -1j * (np.kron(np.diag(energies), eye)
                   - np.kron(eye, np.diag(energies))).astype(complex)
    for ch in channels:
        for op in eigenbasis_operator(es, ch):
            comps = frequency_decompose(es, op)
            for w, a_w in comps:
                s_w = float(ch.spectral(w))
                if s_w == 0.0:
                    continue
                for _wp, a_wp in comps:
                    # S(w)/2 [A(w) rho A(w')^dag - A(w')^dag A(w) rho] + h.c.
                    liouv += s_w / 2 * (np.kron(a_w, a_wp)
                                        - np.kron(a_wp.T @ a_w, eye))
                    liouv += s_w / 2 * (np.kron(a_wp, a_w)
                                        - np.kron(eye, (a_w.T @ a_wp).T))
    return liouv


def test_frequency_components_recover_the_operator(eigenbasis_operator):
    # the components of the densely rebuilt operator sum back to the one
    # the solver's coupling vectors stand for (unit weights: u u^T for a
    # phonon channel, e0 a^T + a e0^T otherwise)
    es, channels = make_system("dimer", 2)
    liouv = build_liouvillian(es, channels)
    ops = [op for ch in channels for op in eigenbasis_operator(es, ch)]
    assert len(ops) == len(liouv.matrix) == len(liouv.kinds)
    e0 = np.eye(es.dimension)[0]
    for op, kind, vec in zip(ops, liouv.kinds, liouv.matrix):
        comps = frequency_decompose(es, op)
        total = sum(mat for _w, mat in comps)
        expected = (np.outer(vec, vec) if kind == "phonon"
                    else np.outer(e0, vec) + np.outer(vec, e0))
        assert np.abs(total - expected).max() < 1e-12


def test_site_projector_frequencies_two_level(eigenbasis_operator):
    es, channels = make_system("mono", 2)
    projector = next(c for c in channels if c.kind == "phonon")
    comps = frequency_decompose(es, eigenbasis_operator(es, projector)[0])
    gap = es.energies[2] - es.energies[1]
    freqs = sorted(w for w, _ in comps)
    np.testing.assert_allclose(freqs, [-gap, 0.0, gap], atol=1e-9)


def test_frequency_count_matches_pairwise_enumeration(eigenbasis_operator):
    es, channels = make_system("mono", 3)
    projector = next(c for c in channels if c.kind == "phonon")
    comps = frequency_decompose(es, eigenbasis_operator(es, projector)[0])
    # brute force: distinct pairwise differences of the excited energies
    eps = es.excited_energies
    diffs = {round(float(b - a), 9) for a in eps for b in eps}
    assert len(comps) == len(diffs)


# small systems (dim <= 16) with every channel shape: site, eigenbasis
# targets and dipole-weighted radiative channels
BRUTE_FORCE_CASES = pytest.mark.parametrize("kind,n_cells,jb,options", [
    ("dimer", 2, 2.0, {"env": EnvironmentParams(gamma_nr=0.004)}),
    ("mono", 3, 1.0, {"injection_mode": "eigen"}),
    ("dimer", 2, 2.0, {"dipole_scheme": "transport"}),
], ids=["site", "eigen", "dipoles"])


def random_complex(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_hermitian(rng, dim):
    raw = random_complex(rng, dim)
    return raw + raw.conj().T


def real_form(rho):
    """S = Re rho + Im rho, the real form the Krylov solve works on."""
    return rho.real + rho.imag


def assert_apply_matches(liouv, brute, rng):
    for _ in range(5):
        rho = random_complex(rng, liouv.dimension)
        drho = liouv.apply(rho).reshape(-1)
        assert np.abs(drho - brute @ rho.reshape(-1)).max() < 1e-12


def dense_ground_flux(es, ch, rho, eigenbasis_operator):
    """Net flow into the ground state through one channel, from the
    dissipator's [0, 0] element with dense operators, summed over its
    rows."""
    energies = es.energies
    spectrum = ch.spectral(energies[None, :] - energies[:, None])
    flux = 0.0
    for a in eigenbasis_operator(es, ch):
        g = spectrum * a
        gain = g @ rho @ a + a @ rho @ g.T
        loss = a @ g @ rho + rho @ g.T @ a
        flux += float(np.real(gain - loss)[0, 0] / 2)
    return flux


@BRUTE_FORCE_CASES
def test_fast_builder_matches_brute_force(kind, n_cells, jb, options,
                                          eigenbasis_operator, rng):
    es, channels = make_system(kind, n_cells, jb=jb, **options)
    brute = brute_force_liouvillian(es, channels, eigenbasis_operator)
    assert_apply_matches(build_liouvillian(es, channels), brute, rng)


@BRUTE_FORCE_CASES
def test_krylov_solve_matches_a_dense_solve(kind, n_cells, jb, options,
                                            eigenbasis_operator):
    es, channels = make_system(kind, n_cells, jb=jb, **options)
    dim = es.dimension
    # bordered LU solve of the brute-force matrix:
    # L(rho) + |0><0| tr(rho) = |0><0|
    bordered = brute_force_liouvillian(es, channels, eigenbasis_operator)
    bordered[0, :: dim + 1] += 1.0
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    rho = np.linalg.solve(bordered, rhs).reshape(dim, dim)
    expected = sum(dense_ground_flux(es, ch, rho, eigenbasis_operator)
                   for ch in channels if ch.kind == "extraction")
    report = brme_steady_state(build_liouvillian(es, channels))
    assert report.extras["krylov_iterations"] > 0
    assert report.current == pytest.approx(expected, rel=1e-10, abs=0)
    assert (np.abs(report.density_matrix - rho).max()
            <= 1e-10 * np.abs(rho).max())
    assert np.array_equal(report.density_matrix,
                          report.density_matrix.conj().T)


@BRUTE_FORCE_CASES
def test_real_form_matches_the_complex_operator(kind, n_cells, jb, options,
                                                eigenbasis_operator, rng):
    es, channels = make_system(kind, n_cells, jb=jb, **options)
    dim = es.dimension
    brute = brute_force_liouvillian(es, channels, eigenbasis_operator)
    liouv = build_liouvillian(es, channels)
    coherences = liouv.coherence_diagonal
    coherences = np.where(coherences == 0, 1.0, coherences)
    chi = build_generator(liouv.rates).chi
    chi[0] += 1.0
    precondition = brme._secular_inverse(liouv)
    off = ~np.eye(dim, dtype=bool)
    for _ in range(5):
        rho = random_hermitian(rng, dim)
        image = (brute @ rho.reshape(-1)).reshape(dim, dim)
        assert (np.abs(liouv.apply_real(real_form(rho)) - real_form(image))
                .max() < 1e-12)
        # the coherences scale as r / c, the populations solve chi p = r
        scaled = real_form(rho / coherences)
        z = precondition(real_form(rho).reshape(-1)).reshape(dim, dim)
        assert np.abs(z[off] - scaled[off]).max() <= 1e-12 * np.abs(
            scaled).max()
        np.testing.assert_allclose(z.diagonal(), np.linalg.solve(
            chi, rho.diagonal().real), rtol=1e-12, atol=0)


def test_non_unit_site_weights_match_brute_force(eigenbasis_operator, rng):
    es, channels = make_system("dimer", 2, jb=2.0)
    weighted = [replace(ch, operator=rng.uniform(0.5, 2.0,
                                                 (len(ch.operator), 1))
                        * ch.operator)
                for ch in channels]
    brute = brute_force_liouvillian(es, weighted, eigenbasis_operator)
    assert_apply_matches(build_liouvillian(es, weighted), brute, rng)


def one_row_channels(channels):
    """The same operator rows, split into one channel per row."""
    split = []
    for ch in channels:
        if ch.operator is None:
            split.append(ch)
        else:
            split.extend(replace(ch, operator=w[None]) for w in ch.operator)
    return split


@pytest.mark.parametrize("kind,options", [
    ("prism", {"dipole_scheme": "transport"}),
    ("dimer", {"injection_mode": "eigen"}),
], ids=["prism-transport", "dimer-eigen"])
def test_bundling_rows_into_channels_changes_no_rate_or_liouvillian(
        kind, options, rng):
    # nonradiative loss switched on, so its rows are summed for real
    es, channels = make_system(kind, 3, jb=2.0,
                               env=EnvironmentParams(gamma_nr=0.003),
                               **options)
    split = one_row_channels(channels)
    assert len(split) > len(channels)
    bundled = transition_matrix(es, channels)
    single = transition_matrix(es, split)
    assert bundled.blocks["nonradiative"].max() > 0
    assert single.blocks.keys() == bundled.blocks.keys()
    for kind_name, block in bundled.blocks.items():
        np.testing.assert_allclose(single.blocks[kind_name], block,
                                   atol=1e-16, rtol=1e-12)
    np.testing.assert_allclose(single.w, bundled.w, atol=1e-16, rtol=1e-12)
    liouv = build_liouvillian(es, channels)
    liouv_split = build_liouvillian(es, split)
    assert liouv_split.kinds == liouv.kinds
    for _ in range(5):
        rho = random_complex(rng, es.dimension)
        np.testing.assert_allclose(liouv_split.apply(rho), liouv.apply(rho),
                                   atol=1e-16, rtol=1e-12)


@pytest.mark.parametrize("kind,options", [
    ("prism", {}),
    ("dimer", {"injection_mode": "eigen"}),
    ("prism", {"dipole_scheme": "transport"}),
], ids=["prism-site", "dimer-eigen", "prism-transport"])
def test_secular_rates_are_the_population_rates(kind, options):
    # one rate kernel serves both solvers, so the secular rates equal the
    # population equation's bit for bit
    es, channels = make_system(kind, 4, jb=2.0,
                               env=EnvironmentParams(gamma_nr=0.003),
                               **options)
    rates = build_liouvillian(es, channels).rates
    w = transition_matrix(es, channels).w
    off = ~np.eye(es.dimension, dtype=bool)
    assert np.array_equal(rates[off], w[off])


def test_trace_is_a_left_null_vector():
    es, channels = make_system("prism", 5, jb=10.0)
    liouv = build_liouvillian(es, channels)
    dim = es.dimension
    for k in range(dim * dim):
        basis = np.zeros((dim, dim))
        basis.flat[k] = 1.0
        assert abs(np.trace(liouv.apply(basis))) < 1e-10


def test_hermiticity_is_preserved(rng):
    es, channels = make_system("dimer", 3, jb=1.0)
    liouv = build_liouvillian(es, channels)
    for _ in range(5):
        raw = random_complex(rng, es.dimension)
        drho = liouv.apply(raw + raw.conj().T)
        assert np.abs(drho - drho.conj().T).max() < 1e-10


def test_zero_channels_leave_a_degenerate_null_space():
    es, _ = make_system("mono", 2)
    liouv = build_liouvillian(es, [])
    with pytest.raises(BrmeError, match="degenerate"):
        brme_steady_state(liouv)


def test_unconverged_krylov_solve_raises(monkeypatch):
    # mono N=3 converges in 6 iterations; two iterations fall short
    es, channels = make_system("mono", 3)
    monkeypatch.setattr(brme, "_GMRES_RESTART", 2)
    monkeypatch.setattr(brme, "_GMRES_MAX_RESTARTS", 1)
    with pytest.raises(BrmeError, match="did not converge in 2 iterations"):
        brme_steady_state(build_liouvillian(es, channels))


@pytest.mark.parametrize("n, restart, max_restarts", [
    (30, 40, 5), (200, 40, 5), (200, 8, 30), (200, 5, 40), (200, 3, 4)])
def test_gmres_follows_scipy(monkeypatch, n, restart, max_restarts):
    # seeded nonsymmetric systems under an inexact preconditioner, each
    # restarted at least once (the last one never converges): the same
    # iteration count, verdict and solution as scipy's
    from scipy.sparse.linalg import gmres

    rng = np.random.default_rng(n + restart)
    a = (np.diag(rng.uniform(1, 10, n))
         + rng.standard_normal((n, n)) * 2 / np.sqrt(n))
    m = np.diag(1 / np.diag(a))
    b = rng.standard_normal(n)
    monkeypatch.setattr(brme, "_GMRES_RESTART", restart)
    monkeypatch.setattr(brme, "_GMRES_MAX_RESTARTS", max_restarts)
    ours, theirs = [], []
    x, converged = brme._gmres(a.__matmul__, m.__matmul__, b, ours.append)
    expected, info = gmres(a, b, rtol=brme._GMRES_RTOL, atol=0.0,
                           restart=restart, maxiter=max_restarts, M=m,
                           callback=theirs.append, callback_type="pr_norm")
    assert len(ours) == len(theirs) > min(restart, n)
    assert np.allclose(ours, theirs, rtol=1e-12, atol=0)
    assert converged == (info == 0)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


def test_gmres_breakdown_on_the_identity_converges_at_once():
    # every step is exact here, so the first Arnoldi vector leaves an
    # exactly zero remainder, which must not be normalized
    b = np.full(64, 0.5)
    residuals = []
    x, converged = brme._gmres(np.copy, np.copy, b, residuals.append)
    assert converged
    assert residuals == [0.0]
    assert np.array_equal(x, b)


def test_importing_brme_loads_no_scipy_module():
    # a fresh interpreter, so no other test's imports count
    script = ("import sys, excitonchain.brme; print(sorted(m for m in "
              "sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_prism_25_solves_with_balanced_flux():
    # dim 76, above the largest system of the criterion-7 grid (61)
    es, channels = make_system("prism", 25, jb=10.0)
    assert es.dimension == 76
    report = brme_steady_state(build_liouvillian(es, channels))
    outgoing = (report.fluxes["extraction"] + report.fluxes["radiative"]
                + report.fluxes["nonradiative"])
    assert outgoing == pytest.approx(report.fluxes["injection"], rel=1e-10,
                                     abs=0)


def test_radiative_only_decays_to_the_ground_projector():
    es, channels = make_system("mono", 2)
    radiative = [c for c in channels if c.kind == "radiative"]
    liouv = build_liouvillian(es, radiative)
    report = brme_steady_state(liouv)
    rho = report.density_matrix
    expected = np.zeros_like(rho)
    expected[0, 0] = 1.0
    assert np.abs(rho - expected).max() < 1e-8


def test_steady_state_is_normalized_and_nearly_positive():
    es, channels = make_system("prism", 4, jb=10.0)
    report = brme_steady_state(build_liouvillian(es, channels))
    assert abs(np.trace(report.density_matrix).real - 1.0) < 1e-12
    assert report.extras["min_eigenvalue"] > -1e-8
    assert report.extras["coherence_fraction"] < 0.05


def test_current_agrees_with_site_population_formula():
    es, channels = make_system("dimer", 5, jb=10.0)
    report = brme_steady_state(build_liouvillian(es, channels))
    geo = es.geometry
    vex = es.vectors[1:, 1:]
    rho_sites = vex @ report.density_matrix[1:, 1:] @ vex.T
    gamma_ext = EnvironmentParams().gamma_ext
    last = geo.cell_sites(geo.n_cells)
    expected = gamma_ext * np.trace(rho_sites[np.ix_(last, last)]).real
    assert report.current == pytest.approx(expected, rel=1e-12, abs=0)


def test_site_populations_count_the_coherences():
    # diag(V rho V^T): with rho_00 it sums to one, the extraction cell's
    # sites give the current as the population solver's do, and the whole
    # profile stays within brme-check's 2% of the population solver's
    es, channels = make_system("prism", 5, jb=10.0)
    report = brme_steady_state(build_liouvillian(es, channels))
    sites = site_populations(report, es)
    assert sites.sum() + report.density_matrix[0, 0].real == pytest.approx(
        1.0, rel=0, abs=1e-12)
    last = es.geometry.cell_sites(es.geometry.n_cells)
    gamma_ext = EnvironmentParams().gamma_ext
    assert gamma_ext * sites[last].sum() == pytest.approx(
        report.current, rel=1e-12, abs=0)
    pme_report = solve_steady_state(transition_matrix(es, channels))
    np.testing.assert_allclose(sites, site_populations(pme_report, es),
                               rtol=0.02, atol=0)


def test_flux_conservation_in_the_density_matrix_solver():
    es, channels = make_system("prism", 3, jb=2.0,
                               env=EnvironmentParams(gamma_nr=0.005))
    report = brme_steady_state(build_liouvillian(es, channels))
    outgoing = (report.fluxes["extraction"] + report.fluxes["radiative"]
                + report.fluxes["nonradiative"])
    assert outgoing == pytest.approx(report.fluxes["injection"], rel=1e-10,
                                     abs=0)


@pytest.mark.parametrize("kind,n_cells,jb", [
    ("mono", 2, 1.0),
    ("mono", 5, 1.0),
    ("dimer", 5, 10.0),
    ("prism", 5, 0.1),
])
def test_agreement_with_population_solver(kind, n_cells, jb):
    es, channels = make_system(kind, n_cells, jb=jb)
    pme_report = solve_steady_state(transition_matrix(es, channels))
    brme_report = brme_steady_state(build_liouvillian(es, channels))
    rel = abs(brme_report.current - pme_report.current) / pme_report.current
    assert rel < 0.05


def test_eigen_mode_current_uses_the_target_state():
    es, channels = make_system("mono", 2, injection_mode="eigen")
    report = brme_steady_state(build_liouvillian(es, channels))
    gamma_ext = EnvironmentParams().gamma_ext
    expected = gamma_ext * report.density_matrix[1, 1].real
    assert report.current == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("build,error", [
    (transition_matrix, SpectralError),
    (build_liouvillian, BrmeError),
], ids=["transition_matrix", "build_liouvillian"])
def test_operator_dimension_validation(build, error):
    es, _ = make_system("mono", 2)
    # neither a dense (dim x dim) matrix nor a bare vector of the two site
    # weights is an (m, n_sites) array of weight rows
    for operator in (np.zeros((3, 3)), np.ones(2)):
        bad = Channel(kind="radiative", spectral=FlatStep(0.01, "up"),
                      operator=operator)
        with pytest.raises(error, match="dimension"):
            build(es, [bad])
