import os
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import excitonchain
from excitonchain import brme
from excitonchain.brme import BrmeError, brme_steady_state, build_liouvillian
from excitonchain.environment import Channel, EnvironmentParams, FlatStep, \
    SpectralDensity, build_channels
from excitonchain.hamiltonian import HamiltonianParams, build_hamiltonian
from excitonchain.lattice import assign_dipoles, build_geometry
from excitonchain.pme import _class_errors, build_generator, \
    site_populations, solve_steady_state
from excitonchain.spectral import SpectralError, _degeneracy_tol, \
    _group_ranges, diagonalize, transition_matrix

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


def liouvillian(es, channels):
    """The Liouvillian of one eigensystem, a stack of one."""
    return build_liouvillian(es.energies[None], es.vectors[None], channels)


def solve(es, channels):
    """The density-matrix report of one eigensystem, solved as a stack of
    one; its BrmeError is raised."""
    [report] = brme_steady_state(liouvillian(es, channels))
    if isinstance(report, BrmeError):
        raise report
    return report


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
    # phonon row, e0 a^T + a e0^T for a ground <-> site row); the rows are
    # kept by role, and the phonon channel comes first in channel order
    es, channels = make_system("dimer", 2)
    liouv = liouvillian(es, channels)
    e0 = np.eye(es.dimension)[0]
    [(density, phonon_rows)] = liouv.phonon
    rows = [("phonon", np.outer(u, u)) for u in phonon_rows[0]] + [
        (kind, np.outer(e0, a) + np.outer(a, e0))
        for kind, a in zip(liouv.kinds, liouv.matrix[0], strict=True)]
    ops = [(ch.kind, op) for ch in channels
           for op in eigenbasis_operator(es, ch)]
    assert len(ops) == len(rows)
    for (kind, op), (row_kind, expected) in zip(ops, rows):
        comps = frequency_decompose(es, op)
        total = sum(mat for _w, mat in comps)
        assert kind == row_kind
        assert np.abs(total - expected).max() < 1e-12
    # off the excited block the phonon density holds S(0) alone, at [0, 0]
    assert density[0, 0, 0] == channels[0].spectral(0.0)
    assert not density[0, 0, 1:].any() and not density[0, 1:, 0].any()


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


def apply(liouv, rho):
    """L(rho) of any complex (dim x dim) rho from the real form alone: rho
    = H1 + i H2 with H1, H2 Hermitian, and L(rho) = L(H1) + i L(H2), where
    L(H) = sym(W) + i antisym(W) with W the real-form image of H."""
    images = []
    for h in ((rho + rho.conj().T) / 2, (rho - rho.conj().T) / 2j):
        w = liouv.apply_real(real_form(h)[None])[0]
        images.append(0.5 * (w + w.T) + 0.5j * (w - w.T))
    return images[0] + 1j * images[1]


def assert_apply_matches(liouv, brute, rng):
    for _ in range(5):
        rho = random_complex(rng, liouv.matrix.shape[-1])
        drho = apply(liouv, rho).reshape(-1)
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
    assert_apply_matches(liouvillian(es, channels), brute, rng)


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
    report = solve(es, channels)
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
    liouv = liouvillian(es, channels)
    coherences = liouv.coherence_diagonal[0]
    coherences = np.where(coherences == 0, 1.0, coherences)
    chi = liouv.generators[0].copy()
    chi[0] += 1.0
    precondition, _ = brme._secular_inverse(liouv)
    off = ~np.eye(dim, dtype=bool)
    for _ in range(5):
        rho = random_hermitian(rng, dim)
        image = (brute @ rho.reshape(-1)).reshape(dim, dim)
        assert (np.abs(liouv.apply_real(real_form(rho)[None])[0]
                       - real_form(image)).max() < 1e-12)
        # the coherences scale as r / c, the populations solve chi p = r
        scaled = real_form(rho / coherences)
        z = precondition(real_form(rho).reshape(1, -1)).reshape(dim, dim)
        assert np.abs(z[off] - scaled[off]).max() <= 1e-12 * np.abs(
            scaled).max()
        np.testing.assert_allclose(z.diagonal(), np.linalg.solve(
            chi, rho.diagonal().real), rtol=1e-12, atol=0)


@dataclass(frozen=True)
class FlatBath(SpectralDensity):
    """A phonon density flat at ``c`` on both half-lines, omega = 0
    included: its Redfield dissipator is the Lindblad one of the jumps
    sqrt(c) A."""

    type = "flat"
    c: float

    def _evaluate(self, omega):
        omega[...] = self.c
        return omega


def gkls_current(geometry, jb, channels):
    """The extraction current of the dense site-basis Lindblad steady
    state, from the Hamiltonian and the channels' weight rows alone.

    Jumps: sqrt(c) diag(w) per phonon row, sqrt(rate) sum_s w_s |0><s|
    per row of an emitting (``up``) channel, sqrt(rate) sum_s w_s |s><0|
    per injection row.  The superoperator acts on row-major vec(rho), and
    the trace replaces the equation of rho_00.
    """
    h = build_hamiltonian(geometry, HamiltonianParams(), jb).matrix
    dim = len(h)
    jumps = []
    for ch in channels:
        for w in ch.operator:
            op = np.zeros((dim, dim))
            if ch.kind == "phonon":
                op[1:, 1:] = np.sqrt(ch.spectral.c) * np.diag(w)
            elif ch.spectral.direction == "up":
                op[0, 1:] = np.sqrt(ch.spectral.rate) * w
            else:
                op[1:, 0] = np.sqrt(ch.spectral.rate) * w
            jumps.append(op)
    jumps = np.array(jumps)
    eye = np.eye(dim)
    decay = np.einsum("kji,kjl->il", jumps, jumps)
    # sum_k L_k (x) L_k as one product: [(i, k), (j, l)] -> [(i, j), (k, l)]
    flat = jumps.reshape(len(jumps), -1)
    gain = (flat.T @ flat).reshape((dim,) * 4).transpose(0, 2, 1, 3)
    lindblad = (-1j * (np.kron(h, eye) - np.kron(eye, h))
                + gain.reshape(dim * dim, dim * dim)
                - 0.5 * (np.kron(decay, eye) + np.kron(eye, decay.T)))
    lindblad[0] = eye.reshape(-1)
    rhs = np.zeros(dim * dim)
    rhs[0] = 1.0
    rho = np.linalg.solve(lindblad, rhs).reshape(dim, dim)
    [extraction] = [ch for ch in channels if ch.kind == "extraction"]
    weights = extraction.operator
    return extraction.spectral.rate * float(np.einsum(
        "ks,st,kt->", weights, rho[1:, 1:], weights).real)


@pytest.mark.parametrize("dipole_scheme", [None, "transport"])
def test_brme_with_a_flat_phonon_bath_is_the_gkls_steady_state(
        dipole_scheme):
    # with a flat phonon density every dissipator is the Lindblad one of
    # its jumps, up to terms within the ground <-> excited coherences,
    # which vanish in the steady state; so the density-matrix current is
    # the dense Lindblad one, a check that shares no eigenbasis algebra
    # with the solver
    cases = [(kind, n_cells, jb) for kind, n_cells in
             (("mono", 10), ("mono", 20), ("dimer", 10), ("prism", 10))
             for jb in (1.0, 10.0)]
    for kind, n_cells, jb in cases:
        es, channels = make_system(kind, n_cells, jb=jb,
                                   dipole_scheme=dipole_scheme)
        assert channels[0].kind == "phonon"
        channels[0] = replace(channels[0], spectral=FlatBath(0.05))
        expected = gkls_current(es.hamiltonian.geometry, jb, channels)
        assert solve(es, channels).current == pytest.approx(
            expected, rel=1e-10, abs=0), (kind, n_cells, jb)


def test_non_unit_site_weights_match_brute_force(eigenbasis_operator, rng):
    es, channels = make_system("dimer", 2, jb=2.0)
    weighted = [replace(ch, operator=rng.uniform(0.5, 2.0,
                                                 (len(ch.operator), 1))
                        * ch.operator)
                for ch in channels]
    brute = brute_force_liouvillian(es, weighted, eigenbasis_operator)
    assert_apply_matches(liouvillian(es, weighted), brute, rng)


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
    liouv = liouvillian(es, channels)
    liouv_split = liouvillian(es, split)
    assert liouv_split.kinds == liouv.kinds
    for _ in range(5):
        rho = random_complex(rng, es.dimension)
        np.testing.assert_allclose(apply(liouv_split, rho), apply(liouv, rho),
                                   atol=1e-16, rtol=1e-12)


@pytest.mark.parametrize("kind,options", [
    ("prism", {}),
    ("dimer", {"injection_mode": "eigen"}),
    ("prism", {"dipole_scheme": "transport"}),
], ids=["prism-site", "dimer-eigen", "prism-transport"])
def test_secular_rates_are_the_population_rates(kind, options):
    # one rate kernel serves both solvers, so the secular rates, the
    # off-diagonal of the secular generator, equal the population
    # equation's bit for bit, and so does the whole generator
    es, channels = make_system(kind, 4, jb=2.0,
                               env=EnvironmentParams(gamma_nr=0.003),
                               **options)
    generator = liouvillian(es, channels).generators[0]
    w = transition_matrix(es, channels).w
    off = ~np.eye(es.dimension, dtype=bool)
    assert np.array_equal(generator[off], w[off])
    assert np.array_equal(generator, build_generator(w).chi)


def test_trace_is_a_left_null_vector():
    es, channels = make_system("prism", 5, jb=10.0)
    liouv = liouvillian(es, channels)
    dim = es.dimension
    for k in range(dim * dim):
        basis = np.zeros((dim, dim))
        basis.flat[k] = 1.0
        assert abs(np.trace(apply(liouv, basis))) < 1e-10


def test_hermiticity_is_preserved(rng):
    # L = i omega o rho + D(rho) keeps rho Hermitian exactly when its
    # dissipator D, real on real matrices, commutes with transposition;
    # on a real form S, L is omega o S^T + D(S)
    es, channels = make_system("dimer", 3, jb=1.0)
    liouv = liouvillian(es, channels)
    omega = es.energies[None, :] - es.energies[:, None]

    def dissipator(s):
        return liouv.apply_real(s[None])[0] - omega * s.T

    for _ in range(5):
        s = rng.normal(size=(es.dimension, es.dimension))
        assert np.abs(dissipator(s.T) - dissipator(s).T).max() < 1e-10


def test_zero_channels_leave_a_degenerate_null_space():
    es, _ = make_system("mono", 2)
    assert liouvillian(es, []).matrix.shape == (1, 0, es.dimension)
    with pytest.raises(BrmeError, match="degenerate"):
        solve(es, [])


def test_unconverged_krylov_solve_raises(monkeypatch):
    # mono N=3 converges in 6 iterations; two iterations fall short
    es, channels = make_system("mono", 3)
    monkeypatch.setattr(brme, "_GMRES_RESTART", 2)
    monkeypatch.setattr(brme, "_GMRES_MAX_RESTARTS", 1)
    with pytest.raises(BrmeError, match="did not converge in 2 iterations"):
        solve(es, channels)


# three seed offsets per (n, restart) case, each system restarted at
# least once
GMRES_SEEDS = {(30, 40): (0, 110, 119), (200, 40): (0, 1, 2),
               (200, 8): (0, 1, 2), (200, 5): (0, 1, 3), (200, 3): (0, 1, 2)}


@pytest.mark.parametrize("n, restart, max_restarts", [
    (30, 40, 5), (200, 40, 5), (200, 8, 30), (200, 5, 40), (200, 3, 4)])
def test_gmres_follows_scipy(monkeypatch, n, restart, max_restarts):
    # three seeded nonsymmetric systems under an inexact preconditioner,
    # each restarted at least once (the last case never converges), solved
    # as one lockstep stack: each row has the same iteration count,
    # verdict and solution as scipy's solve of that system alone
    from scipy.sparse.linalg import gmres

    systems = []
    for offset in GMRES_SEEDS[n, restart]:
        rng = np.random.default_rng(n + restart + offset)
        a = (np.diag(rng.uniform(1, 10, n))
             + rng.standard_normal((n, n)) * 2 / np.sqrt(n))
        systems.append((a, np.diag(1 / np.diag(a)), rng.standard_normal(n)))
    a, m, b = map(np.array, zip(*systems))
    monkeypatch.setattr(brme, "_GMRES_RESTART", restart)
    monkeypatch.setattr(brme, "_GMRES_MAX_RESTARTS", max_restarts)
    ours = [[] for _ in systems]
    x, converged = brme._gmres(
        lambda v: (a @ v[..., None])[..., 0],
        lambda v: (m @ v[..., None])[..., 0], b,
        lambda r, value: ours[r].append(value))
    for r, (a_r, m_r, b_r) in enumerate(systems):
        theirs = []
        expected, info = gmres(a_r, b_r, rtol=brme._GMRES_RTOL, atol=0.0,
                               restart=restart, maxiter=max_restarts,
                               M=m_r, callback=theirs.append,
                               callback_type="pr_norm")
        assert len(ours[r]) == len(theirs) > min(restart, n)
        assert np.allclose(ours[r], theirs, rtol=1e-12, atol=0)
        assert converged[r] == (info == 0)
        assert (np.linalg.norm(x[r] - expected)
                <= 1e-12 * np.linalg.norm(expected))
        # and the bits of its own solve, a stack of one, however the other
        # rows end their cycles
        alone = []
        x_alone, converged_alone = brme._gmres(
            lambda v: (a[r:r + 1] @ v[..., None])[..., 0],
            lambda v: (m[r:r + 1] @ v[..., None])[..., 0], b[r:r + 1],
            lambda _, value: alone.append(value))
        assert (alone == ours[r] and converged_alone[0] == converged[r]
                and np.array_equal(x_alone[0], x[r]))


def test_gmres_breakdown_on_the_identity_converges_at_once():
    # every step is exact here, so the first Arnoldi vector leaves an
    # exactly zero remainder, which must not be normalized
    b = np.full((1, 64), 0.5)
    residuals = []
    x, converged = brme._gmres(lambda v: v.copy(), lambda v: v.copy(), b,
                               lambda r, value: residuals.append(value))
    assert converged.all()
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


BRME_ON_DEMAND_SCRIPT = """
import sys
import excitonchain
from excitonchain import cli
from excitonchain.environment import EnvironmentParams
from excitonchain.experiments import solve_point
from excitonchain.hamiltonian import HamiltonianParams

solve_point("prism", 3, 1.0, HamiltonianParams(), EnvironmentParams())
loaded = ["excitonchain.brme" in sys.modules]
from excitonchain import brme_steady_state
loaded.append("excitonchain.brme" in sys.modules)
assert brme_steady_state is excitonchain.brme.brme_steady_state
print(loaded)
"""


def test_the_package_imports_brme_at_its_first_use():
    # a fresh interpreter: the package and a population solve leave the
    # density-matrix solver unimported, and asking for one of its names
    # imports it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", BRME_ON_DEMAND_SCRIPT],
                         env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[False, True]"
    with pytest.raises(AttributeError, match="no attribute 'brme_solver'"):
        excitonchain.brme_solver


def test_prism_25_solves_with_balanced_flux():
    # dim 76, above the largest system of the criterion-7 grid (61)
    es, channels = make_system("prism", 25, jb=10.0)
    assert es.dimension == 76
    report = solve(es, channels)
    outgoing = (report.fluxes["extraction"] + report.fluxes["radiative"]
                + report.fluxes["nonradiative"])
    assert outgoing == pytest.approx(report.fluxes["injection"], rel=1e-10,
                                     abs=0)


def test_radiative_only_decays_to_the_ground_projector():
    es, channels = make_system("mono", 2)
    radiative = [c for c in channels if c.kind == "radiative"]
    report = solve(es, radiative)
    rho = report.density_matrix
    expected = np.zeros_like(rho)
    expected[0, 0] = 1.0
    assert np.abs(rho - expected).max() < 1e-8


def test_steady_state_is_normalized_and_nearly_positive():
    es, channels = make_system("prism", 4, jb=10.0)
    report = solve(es, channels)
    assert abs(np.trace(report.density_matrix).real - 1.0) < 1e-12
    assert report.extras["min_eigenvalue"] > -1e-8
    assert report.extras["coherence_fraction"] < 0.05


def test_current_agrees_with_site_population_formula():
    es, channels = make_system("dimer", 5, jb=10.0)
    report = solve(es, channels)
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
    report = solve(es, channels)
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
    report = solve(es, channels)
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
    brme_report = solve(es, channels)
    rel = abs(brme_report.current - pme_report.current) / pme_report.current
    assert rel < 0.05


def test_eigen_mode_current_uses_the_target_state():
    es, channels = make_system("mono", 2, injection_mode="eigen")
    report = solve(es, channels)
    gamma_ext = EnvironmentParams().gamma_ext
    expected = gamma_ext * report.density_matrix[1, 1].real
    assert report.current == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("build,error", [
    (transition_matrix, SpectralError),
    (liouvillian, BrmeError),
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


def stacked_system(kind, n_cells, jb_values, env=None, **options):
    """The eigensystems of one chain at each coupling as one stack
    (energies, vectors), the chain's channels, and the eigensystems."""
    systems = [make_system(kind, n_cells, jb=jb, env=env, **options)
               for jb in jb_values]
    stack = (np.stack([es.energies for es, _ in systems]),
             np.stack([es.vectors for es, _ in systems]))
    return stack, systems[0][1], [es for es, _ in systems]


def assert_same_report(report, expected):
    assert report.current == expected.current
    assert report.fluxes == expected.fluxes
    assert report.residual == expected.residual
    assert report.extras == expected.extras
    assert np.array_equal(report.populations, expected.populations)
    assert np.array_equal(report.density_matrix, expected.density_matrix)


@pytest.mark.parametrize("n_cells", [10, 20])
def test_a_stack_solves_each_row_as_its_own_solve(n_cells):
    # dimer N=20 takes 11, 13 and 12 Krylov iterations, so its rows leave
    # the lockstep at different steps
    stack, channels, singles = stacked_system("dimer", n_cells,
                                              (0.1, 1.0, 10.0))
    liouv = build_liouvillian(*stack, channels)
    generators = liouv.generators.copy()
    reports = brme_steady_state(liouv)
    # the secular preconditioner borders a copy of the generators
    assert np.array_equal(liouv.generators.view(np.int64),
                          generators.view(np.int64))
    assert len(reports) == 3
    for report, single in zip(reports, singles):
        assert_same_report(report, solve(single, channels))
    counts = {r.extras["krylov_iterations"] for r in reports}
    assert len(counts) == (3 if n_cells == 20 else 1)


def solve_alone(es, channels):
    """A row's own solve, a stack of one: its report, or the BrmeError it
    failed with."""
    return brme_steady_state(liouvillian(es, channels))[0]


def test_a_row_that_does_not_converge_fails_alone(monkeypatch):
    # dimer N=20 at jb 0.1, 1, 10 needs 11, 13 and 12 iterations.  With
    # one cycle of 12 the first row converges in 11; the inner loops of
    # the others stop at 11 and 10, where the true residual is still too
    # large, so they fail, as their own solves do
    stack, channels, singles = stacked_system("dimer", 20, (0.1, 1.0, 10.0))
    monkeypatch.setattr(brme, "_GMRES_RESTART", 12)
    monkeypatch.setattr(brme, "_GMRES_MAX_RESTARTS", 1)
    reports = brme_steady_state(build_liouvillian(*stack, channels))
    assert [str(r) for r in reports[1:]] == [
        "GMRES did not converge in 11 iterations",
        "GMRES did not converge in 10 iterations"]
    for report, single in zip(reports, singles):
        alone = solve_alone(single, channels)
        if isinstance(alone, BrmeError):
            assert str(report) == str(alone)
        else:
            assert_same_report(report, alone)
    assert reports[0].extras["krylov_iterations"] == 11


def test_a_degenerate_row_fails_alone():
    # no secular rate leaves excited states 1 and 2 of the first row, so
    # each is a closed class of its own; the population solver gives the
    # same verdict in the same words
    stack, channels, singles = stacked_system("prism", 4, (0.1, 1.0, 10.0))
    liouv = build_liouvillian(*stack, channels)
    # columns 1 and 2 of the generator hold the rates out of states 1 and
    # 2 and, on the diagonal, their sums
    liouv.generators[0][:, 1:3] = 0.0
    reports = brme_steady_state(liouv)
    assert isinstance(reports[0], BrmeError)
    assert str(reports[0]) == ("degenerate steady state: rate graph has 2 "
                               "disconnected closed classes [[1], [2]]")
    [verdict], _ = _class_errors(liouv.generators[:1])
    assert str(reports[0]) == str(verdict)
    for r in (1, 2):
        assert_same_report(reports[r], solve(singles[r], channels))


def test_a_singular_secular_generator_is_a_brme_error(monkeypatch):
    # LAPACK fails to solve one row's bordered generator chi + e0 1^T,
    # which fails the stacked solve: it falls back row by row, and only
    # that row fails
    stack, channels, singles = stacked_system("dimer", 3, (0.1, 1.0, 10.0))
    liouv = build_liouvillian(*stack, channels)
    singular = liouv.generators[1].copy()
    singular[0] += 1.0
    lapack_solve = np.linalg.solve

    def failing_solve(a, b):
        if any(np.array_equal(m, singular) for m in a.reshape(
                -1, *a.shape[-2:])):
            raise np.linalg.LinAlgError("Singular matrix")
        return lapack_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    reports = brme_steady_state(liouv)
    assert isinstance(reports[1], BrmeError)
    assert "singular" in str(reports[1])
    for r in (0, 2):
        assert_same_report(reports[r], solve(singles[r], channels))
    # solved alone, a stack of one, the row fails the same way
    with pytest.raises(BrmeError, match="singular"):
        solve(singles[1], channels)


def test_row_norms_have_the_bits_of_numpy_norm(rng):
    # the lockstep GMRES batches its norms; each must be the norm of its
    # row alone
    for n in (9, 36, 441, 3721, 20000):
        a = rng.standard_normal((3, n))
        assert np.array_equal(brme._norms(a), [np.linalg.norm(row)
                                               for row in a])


def test_population_share_of_a_long_mono_chain():
    # mono N=80, jb=1: the non-secular terms raise every eigenstate
    # population, and populations carry about 96% of the extraction flux
    es, channels = make_system("mono", 80)
    report = solve(es, channels)
    assert report.extras["population_share"] == pytest.approx(0.956,
                                                              abs=0.005)


def test_population_share_where_both_solvers_agree():
    # prism N=5, jb=10: the secular and the full solve agree to 1e-4, and
    # populations carry the extraction flux to within 0.1%
    es, channels = make_system("prism", 5, jb=10.0)
    report = solve(es, channels)
    pme_report = solve_steady_state(transition_matrix(es, channels))
    assert report.current == pytest.approx(pme_report.current, rel=1e-4)
    assert report.extras["population_share"] >= 0.99
    assert report.extras["population_share"] == pytest.approx(1, abs=1e-3)
    out = transition_matrix(es, channels).blocks["extraction"][0]
    assert report.extras["population_share"] == pytest.approx(
        out @ report.populations / report.current, rel=1e-12)


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(["prism", "cuboid"]), n_cells=st.integers(2, 12),
       jb=st.sampled_from([0.1, 1.0, 10.0]), seed=st.integers(0, 2**32 - 1))
def test_rotating_the_multiplets_keeps_the_current(kind, n_cells, jb, seed):
    # the density-matrix solve does not depend on the basis inside a
    # degenerate multiplet; only its secular preconditioner does
    es, channels = make_system(kind, n_cells, jb=jb)
    eps = es.energies[1:]
    multiplets = [(lo + 1, hi + 1)
                  for lo, hi in _group_ranges(eps, _degeneracy_tol(eps))
                  if hi - lo > 1]
    assert multiplets  # the prism and cuboid cells hold degenerate pairs
    rng = np.random.default_rng(seed)
    vectors = es.vectors.copy()
    for lo, hi in multiplets:
        q, _ = np.linalg.qr(rng.normal(size=(hi - lo, hi - lo)))
        vectors[:, lo:hi] = vectors[:, lo:hi] @ q
    expected = solve(es, channels).current
    [rotated] = brme_steady_state(build_liouvillian(es.energies[None],
                                                    vectors[None], channels))
    assert rotated.current == pytest.approx(expected, rel=1e-9, abs=0)
