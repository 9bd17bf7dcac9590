import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from excitonchain import pme
from excitonchain.environment import EnvironmentParams, build_channels
from excitonchain.hamiltonian import HamiltonianParams, build_hamiltonian
from excitonchain.lattice import build_geometry
from excitonchain.pme import (Generator, SteadyStateError, _closed_classes,
                              _generator_rows, _steady_rows, build_generator,
                              site_populations, solve_steady_state)
from excitonchain.spectral import RateMatrix, diagonalize, transition_matrix


def make_rates(kind, n_cells, jb=1.0, env=None, injection_mode="site"):
    geo = build_geometry(kind, n_cells)
    h = build_hamiltonian(geo, HamiltonianParams(), jb)
    es = diagonalize(h)
    channels = build_channels(geo, env or EnvironmentParams(),
                              injection_mode=injection_mode)
    return transition_matrix(es, channels), es


def steady(generator):
    """(populations, residual) of one generator, solved as a stack of one
    by ``_steady_rows`` on a copy; its SteadyStateError is raised."""
    p, residual, [error] = _steady_rows(generator.chi[None].copy())
    if error is not None:
        raise error
    return p[0], float(residual[0])


def integrate_to_steady(chi, p0=None, target=1e-13):
    """Adaptive long-time integration of dP/dt = chi P (test oracle)."""
    dim = chi.shape[0]
    p = np.zeros(dim) if p0 is None else np.array(p0, dtype=float)
    if p0 is None:
        p[0] = 1.0
    horizon = 1.0 / max(np.abs(np.diag(chi)).min(), 1e-12)
    for _ in range(60):
        sol = solve_ivp(lambda _t, y: chi @ y, (0.0, horizon), p,
                        method="BDF", jac=lambda _t, _y: chi,
                        rtol=1e-12, atol=1e-18)
        p = sol.y[:, -1]
        p = np.clip(p, 0.0, None)
        p /= p.sum()
        if np.abs(chi @ p).max() < target:
            return p
        horizon *= 4.0
    raise AssertionError("time integration did not reach a steady state")


def test_two_state_generator_definition():
    gen = build_generator(np.array([[0.0, 1.0], [2.0, 0.0]]))
    np.testing.assert_array_equal(gen.chi, [[-2.0, 1.0], [2.0, -1.0]])


def test_generator_zero_rates_and_validation():
    assert np.all(build_generator(np.zeros((3, 3))).chi == 0.0)
    with pytest.raises(ValueError):
        build_generator(np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        build_generator(np.zeros((2, 3)))


def test_generator_columns_sum_to_zero():
    rates, _ = make_rates("prism", 10, jb=10.0)
    gen = build_generator(rates)
    assert np.abs(gen.chi.sum(axis=0)).max() < 1e-14


def test_two_state_analytic_balance():
    gen = build_generator(np.array([[0.0, 1.0], [2.0, 0.0]]))
    p, residual = steady(gen)
    np.testing.assert_allclose(p, [1 / 3, 2 / 3], rtol=1e-14)
    assert residual < 1e-15
    assert _closed_classes(gen.chi) == [[0, 1]]


def test_disconnected_rate_graph_reports_components():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 2.0
    with pytest.raises(SteadyStateError) as err:
        steady(build_generator(w))
    assert sorted(map(sorted, err.value.components)) == [[0, 1], [2, 3]]


def test_phonon_only_excited_manifold_thermalizes():
    env = EnvironmentParams(gamma_rad=0.0, gamma_nr=0.0, gamma_inj=0.0,
                            gamma_ext=0.0)
    rates, es = make_rates("mono", 5, env=env)
    # ground is disconnected without the one-way channels: solve the
    # excited block on its own
    gen = build_generator(rates.w[1:, 1:])
    p, _ = steady(gen)
    energies = es.excited_energies
    gibbs = np.exp(-(energies - energies[0])
                   / EnvironmentParams().temperature)
    gibbs /= gibbs.sum()
    np.testing.assert_allclose(p, gibbs, rtol=1e-8)
    # and the dynamics relax there from an arbitrary start
    p0 = np.ones(5) / 5
    p_time = integrate_to_steady(gen.chi, p0)
    np.testing.assert_allclose(p_time, gibbs, rtol=1e-6)


def test_phonon_only_full_system_is_degenerate():
    env = EnvironmentParams(gamma_rad=0.0, gamma_nr=0.0, gamma_inj=0.0,
                            gamma_ext=0.0)
    rates, _ = make_rates("mono", 4, env=env)
    with pytest.raises(SteadyStateError, match="disconnected"):
        steady(build_generator(rates))


def test_steady_state_matches_time_integration():
    rates, _ = make_rates("mono", 2)
    gen = build_generator(rates)
    p_null, _ = steady(gen)
    p_time = integrate_to_steady(gen.chi)
    assert np.abs(p_null - p_time).max() < 1e-8


def test_zero_extraction_means_zero_current():
    env = EnvironmentParams(gamma_ext=0.0)
    rates, _ = make_rates("dimer", 3, env=env)
    report = solve_steady_state(rates)
    assert report.current == 0.0


def test_current_equals_site_population_formula():
    rates, es = make_rates("prism", 4, jb=10.0)
    report = solve_steady_state(rates)
    current = report.current
    geo = es.geometry
    gamma_ext = EnvironmentParams().gamma_ext
    per_site = site_populations(report, es)
    expected = gamma_ext * per_site[geo.cell_sites(geo.n_cells)].sum()
    assert current == pytest.approx(expected, rel=1e-12, abs=0)


def test_decoupled_cells_give_identical_currents():
    currents = {}
    for kind in ("mono", "dimer", "trimer", "prism"):
        rates, _ = make_rates(kind, 10, jb=0.0)
        currents[kind] = solve_steady_state(rates).current
    values = np.array(list(currents.values()))
    assert values.std() / values.mean() < 1e-9


def test_flux_conservation_and_lossless_limit():
    env = EnvironmentParams(gamma_rad=0.0, gamma_nr=0.0)
    rates, _ = make_rates("dimer", 5, env=env)
    report = solve_steady_state(rates)
    assert report.fluxes["extraction"] == pytest.approx(
        report.fluxes["injection"], rel=1e-12, abs=0)
    rates, _ = make_rates("dimer", 5, env=EnvironmentParams(gamma_nr=0.002))
    report = solve_steady_state(rates)
    outgoing = (report.fluxes["extraction"] + report.fluxes["radiative"]
                + report.fluxes["nonradiative"])
    assert outgoing == pytest.approx(report.fluxes["injection"], rel=1e-10,
                                     abs=0)


def test_long_single_chain_is_radiation_dominated():
    rates, _ = make_rates("mono", 20)
    report = solve_steady_state(rates)
    assert report.fluxes["radiative"] / report.fluxes["injection"] > 0.9
    assert report.ground_population > 0.95


def test_current_never_increases_with_radiative_rate():
    for n_cells in (5, 10):
        previous = np.inf
        for gamma_rad in (0.001, 0.003, 0.01, 0.03, 0.1):
            rates, _ = make_rates("mono", n_cells,
                                  env=EnvironmentParams(gamma_rad=gamma_rad))
            current = solve_steady_state(rates).current
            assert current <= previous * (1 + 1e-12)
            previous = current


def test_steady_state_invariant_under_relabeling(rng):
    rates, _ = make_rates("dimer", 4, jb=2.0)
    p, _ = steady(build_generator(rates))
    perm = rng.permutation(rates.w.shape[0])
    w_perm = rates.w[np.ix_(perm, perm)]
    p_perm, _ = steady(build_generator(w_perm))
    np.testing.assert_allclose(p_perm, p[perm], atol=1e-12)


def test_negative_populations_clipped_and_normalized():
    rates, _ = make_rates("mono", 6)
    report = solve_steady_state(rates)
    assert report.populations.min() >= 0.0
    assert report.populations.sum() == pytest.approx(1.0, abs=1e-14)
    assert report.residual < 1e-10 * np.abs(build_generator(rates).chi).max()


def test_low_ground_population_warns():
    env = EnvironmentParams(gamma_inj=0.05, gamma_ext=0.001)
    rates, _ = make_rates("mono", 3, env=env)
    with pytest.warns(UserWarning, match="ground population"):
        solve_steady_state(rates)


def test_report_serializes_to_plain_json_types():
    rates, _ = make_rates("mono", 4)
    payload = solve_steady_state(rates).to_json_dict()
    assert payload["method"] == "pme"
    assert isinstance(payload["fluxes"]["extraction"], float)
    assert len(payload["populations"]) == 5


@pytest.mark.parametrize("kind, n_cells", [("mono", 100), ("prism", 30)])
def test_current_matches_a_40_digit_solve_of_the_same_generator(kind,
                                                                n_cells):
    # dark-chain currents here are 4e-20 (mono) and 5e-10 (prism)
    rates, _ = make_rates(kind, n_cells, jb=0.1)
    chi = build_generator(rates).chi
    dim = chi.shape[0]
    with mpmath.workdps(40):
        a = mpmath.matrix(chi.tolist())
        for j in range(dim):
            a[0, j] = 1
        rhs = mpmath.matrix(dim, 1)
        rhs[0] = 1
        p = mpmath.lu_solve(a, rhs)
        extraction = rates.blocks["extraction"][0]
        exact = float(mpmath.fsum(extraction[m] * p[m]
                                  for m in range(1, dim)))
    current = solve_steady_state(rates).current
    assert current == pytest.approx(exact, rel=1e-10, abs=0)


def test_state_reduction_resolves_what_the_lu_cancels():
    # 0 -> 2 at 1e-5 and 1 -> 0 at 1e-30 beside a fast 1 <-> 2 pair: the
    # row-replaced LU returns p0 = -4.6e-12 through cancellation
    w = np.array([[0.0, 1e-30, 0.0], [0.0, 0.0, 1.0], [1e-5, 1.0, 0.0]])
    p, _ = steady(build_generator(w))
    np.testing.assert_allclose(p, np.array([1e-25, 1.0, 1.0]) / (2 + 1e-25),
                               rtol=1e-14, atol=0)
    # a transient state 0 whose exit rate vanishes beside 1 makes the LU
    # pivot exactly zero
    w[0, 1], w[2, 0] = 0.0, 1e-17
    p, _ = steady(build_generator(w))
    np.testing.assert_array_equal(p, [0.0, 0.5, 0.5])


def test_a_singular_row_sends_only_itself_to_state_reduction(monkeypatch):
    # the transient-state generator above makes the LU pivot exactly zero;
    # stacked beside it, a regular generator keeps its own LU solution
    singular = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                         [1e-17, 1.0, 0.0]])
    regular = np.array([[0.0, 0.3, 0.2], [0.5, 0.0, 0.7], [0.1, 0.4, 0.0]])
    alone, alone_residual, _ = _steady_rows(
        _generator_rows(regular[None].copy()))
    calls = []
    real = pme._reduce_states
    monkeypatch.setattr(pme, "_reduce_states",
                        lambda *args: calls.append(args) or real(*args))
    p, residual, errors = _steady_rows(
        _generator_rows(np.stack([regular, singular])))
    assert errors == [None, None]
    assert len(calls) == 1
    np.testing.assert_array_equal(p[0], alone[0])
    assert residual[0] == alone_residual[0]
    np.testing.assert_array_equal(p[1], [0.0, 0.5, 0.5])


def test_a_stack_searches_only_its_row_without_direct_rates(monkeypatch):
    rates, _ = make_rates("dimer", 3)
    w = rates.w * np.linspace(1.0, 2.0, 6)[:, None, None]
    w[3, 0, 1] = 0.0  # no rate from state 1 into 0, still one closed class
    calls = []
    real = pme._closed_classes
    monkeypatch.setattr(pme, "_closed_classes",
                        lambda m: calls.append(m) or real(m))
    chi = _generator_rows(w)
    _, _, errors = _steady_rows(chi)
    assert errors == [None] * 6
    # the other rows have a rate from every state into state 0, which alone
    # proves their one closed class
    [searched] = calls
    np.testing.assert_array_equal(searched, chi[3])


def test_degenerate_rows_inside_the_stacked_solve_fail_alone():
    # state 0 feeds two closed classes, {1, 2} and {3, 4}, in one row and
    # two absorbing states, 2 and 4, in another; in the last, state 0 is a
    # closed class of its own, beside {1, 2, 3, 4}.  Their bordered
    # generators are singular (exactly so for the absorbing pair), yet the
    # stack takes one solve, no degenerate row warns, and none keeps a
    # population
    cycles = np.zeros((5, 5))
    cycles[1, 0], cycles[3, 0] = 0.1, 0.3
    cycles[2, 1], cycles[1, 2] = 0.7, 0.5
    cycles[4, 3], cycles[3, 4] = 0.2, 0.4
    absorbing = np.zeros((5, 5))
    absorbing[1:, 0] = 0.1
    absorbing[2, 1], absorbing[4, 3] = 0.7, 0.2
    isolated = np.zeros((5, 5))
    isolated[[2, 3, 4, 1], [1, 2, 3, 4]] = 0.5  # 1 -> 2 -> 3 -> 4 -> 1
    regular = make_rates("mono", 4)[0].w
    stack = np.stack([regular, cycles, 2 * regular, absorbing, isolated])
    chi = _generator_rows(stack.copy())
    given = chi.copy()
    solve = mock.patch.object(np.linalg, "solve", wraps=np.linalg.solve)
    with warnings.catch_warnings(), solve as solved:
        warnings.simplefilter("error")
        p, residual, errors = _steady_rows(chi)
    assert solved.call_count == 1
    # the LU ran on chi with row 0 and the degenerate rows swapped in, and
    # they are restored bit for bit
    assert np.array_equal(chi.view(np.int64), given.view(np.int64))
    assert errors[1].components == [[1, 2], [3, 4]]
    assert errors[3].components == [[2], [4]]
    assert errors[4].components == [[0], [1, 2, 3, 4]]
    for r in (1, 3, 4):
        assert isinstance(errors[r], SteadyStateError)
        assert np.isnan(p[r]).all() and np.isnan(residual[r])
    for r in (0, 2):
        assert errors[r] is None
        alone, alone_residual, _ = _steady_rows(
            _generator_rows(stack[r][None].copy()))
        np.testing.assert_array_equal(p[r], alone[0])
        assert residual[r] == alone_residual[0]
    # the public functions work on copies: a degenerate rate matrix and
    # its rate report come back bit for bit
    w = cycles.copy()
    build_generator(w)
    rates = RateMatrix(w=w, blocks={"phonon": w.copy()})
    with pytest.raises(SteadyStateError):
        solve_steady_state(rates)
    for array, expected in ((w, cycles), (rates.w, cycles),
                            (rates.blocks["phonon"], cycles)):
        assert np.array_equal(array.view(np.int64), expected.view(np.int64))


def test_public_solvers_leave_their_arguments_untouched():
    # the rate pass, the generator and the steady state write only arrays
    # of their own
    geo = build_geometry("prism", 4)
    es = diagonalize(build_hamiltonian(geo, HamiltonianParams(), 1.0))
    channels = build_channels(geo, EnvironmentParams())
    given = es.energies.copy(), es.vectors.copy()
    rates = transition_matrix(es, channels)
    for array, expected in zip((es.energies, es.vectors), given):
        assert np.array_equal(array.view(np.int64), expected.view(np.int64))
    w, blocks = rates.w.copy(), {k: b.copy() for k, b in rates.blocks.items()}
    report = solve_steady_state(rates)
    generator = build_generator(rates)
    chi = generator.chi.copy()
    build_generator(rates.w)
    assert np.array_equal(steady(generator)[0], report.populations)
    for array, expected in ((rates.w, w), (generator.chi, chi),
                            *((rates.blocks[k], blocks[k]) for k in blocks)):
        assert np.array_equal(array.view(np.int64), expected.view(np.int64))


def _closed_class_count(w):
    """Closed classes by transitive closure: a state is recurrent when
    every state it reaches reaches it back."""
    n = len(w)
    reach = (w.T > 0) | np.eye(n, dtype=bool)  # reach[i, j]: i -> j
    for _ in range(n.bit_length()):
        reach = (reach.astype(int) @ reach.astype(int)) > 0
    recurrent = [i for i in range(n) if reach[reach[i], i].all()]
    return len({reach[i].tobytes() for i in recurrent})


# rates are exactly zero or log-uniform over 32 decades
RATES = st.one_of(st.just(0.0), st.floats(-30.0, 2.0).map(lambda e: 10**e))
RATE_MATRICES = st.integers(2, 12).flatmap(
    lambda n: st.lists(RATES, min_size=n * n, max_size=n * n).map(
        lambda values: np.array(values).reshape(n, n)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(RATE_MATRICES)
def test_generator_and_steady_state_properties(w):
    chi = _generator_rows(w[None])[0]
    off = ~np.eye(len(w), dtype=bool)
    assert np.all(chi[off] >= 0)
    assert np.all(np.abs(chi.sum(axis=0))
                  <= 1e-14 * np.abs(chi).sum(axis=0))
    n_closed = _closed_class_count(w)
    if n_closed > 1:
        with pytest.raises(SteadyStateError, match="disconnected") as err:
            steady(Generator(chi))
        assert len(err.value.components) == n_closed
        return
    p, _ = steady(Generator(chi))
    assert np.all(p >= 0)
    assert p.sum() == pytest.approx(1.0, rel=0, abs=1e-14)
    # flux balance state by state; the solver accepts populations at 1e-10
    # before clipping and normalizing them
    rates = np.where(off, w, 0.0)
    inflow = rates @ p
    outflow = rates.sum(axis=0) * p
    assert np.all(np.abs(inflow - outflow) <= 1e-9 * (inflow + outflow))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(RATE_MATRICES, st.booleans())
def test_a_rate_into_the_ground_state_from_every_state_is_one_class(w,
                                                                   direct):
    if direct:  # give every excited state a rate into state 0
        w[0, 1:] = np.where(w[0, 1:] > 0, w[0, 1:], 1e-20)
    direct = bool((w[0, 1:] > 0).all())
    search = mock.patch.object(pme, "_closed_classes", wraps=_closed_classes)
    reduction = mock.patch.object(pme, "_reduce_states",
                                  wraps=pme._reduce_states)
    with search as searched, reduction as reduced:
        _, _, errors = _steady_rows(_generator_rows(w[None]))
    n_closed = _closed_class_count(w)
    if direct:
        assert n_closed == 1
        assert errors == [None]
    # a row is searched at most once: for the verdict when it lacks the
    # direct rates, else for the class of the row state reduction redoes
    assert searched.call_count == max(not direct, reduced.call_count)
    if n_closed > 1:
        assert isinstance(errors[0], SteadyStateError)
        assert len(errors[0].components) == n_closed
        assert all(str(c) in str(errors[0]) for c in errors[0].components)


def test_only_rows_without_direct_rates_are_searched_for_classes():
    # state 0 feeds 1 and 2; only 1 -> 0 is missing in the second row,
    # and the third row has two absorbing states, 1 and 2
    direct = np.array([[0.0, 0.3, 0.2], [0.5, 0.0, 0.7], [0.1, 0.4, 0.0]])
    one_class = direct.copy()
    one_class[0, 1] = 0.0
    two_classes = np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0],
                            [0.1, 0.0, 0.0]])
    chi = _generator_rows(np.stack([direct, one_class, two_classes]))
    with mock.patch.object(pme, "_closed_classes",
                           wraps=_closed_classes) as searched:
        p, _, errors = _steady_rows(chi)
    assert searched.call_count == 2
    for (args, _), r in zip(searched.call_args_list, (1, 2)):
        np.testing.assert_array_equal(args[0], chi[r])
    assert errors[:2] == [None, None]
    assert np.isfinite(p[:2]).all()
    assert isinstance(errors[2], SteadyStateError)
    assert errors[2].components == [[1], [2]]
    assert "[[1], [2]]" in str(errors[2])


def _scipy_closed_classes(edges):
    """Closed classes of a directed graph from scipy's strong components
    (test oracle), sorted."""
    from scipy.sparse.csgraph import connected_components

    count, labels = connected_components(edges, directed=True,
                                         connection="strong")
    src, dst = np.nonzero(edges)
    leaving = set(labels[src][labels[src] != labels[dst]].tolist())
    return sorted(np.flatnonzero(labels == c).tolist()
                  for c in range(count) if c not in leaving)


# directed graphs of 1..30 states as out-neighbour lists, many of them
# short or empty
GRAPHS = st.integers(1, 30).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, n - 1), max_size=n), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(GRAPHS)
def test_closed_classes_match_scipy_strong_components(targets):
    n = len(targets)
    edges = np.zeros((n, n), dtype=bool)
    for i, row in enumerate(targets):
        edges[i, row] = True
    np.fill_diagonal(edges, False)
    # rates[j, i] is the rate from i into j; classes come by smallest member
    assert _closed_classes(edges.T.astype(float)) == \
        _scipy_closed_classes(edges)


def test_negative_populations_are_judged_against_the_largest():
    # zero rates keep every row in flux balance; only the sign test acts
    chi = np.zeros((3, 3, 3))
    p = np.array([[1.0, 0.0, -5e-13], [1e-3, 0.0, -5e-13],
                  [1.0, np.nan, 0.0]])
    assert pme._acceptable(chi, p).tolist() == [True, False, False]
