import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from cooplab import equilibria
from cooplab.agents import ConventionTable, build_convention_table
from cooplab.game_core import BimatrixGame, GameError, TypeSpace, expected_payoff
from cooplab.equilibria import (
    EQ_TOL,
    CapacityError,
    EquilibriumError,
    EquilibriumProfile,
    NashEnumeration,
    _deviation_gain,
    _solve_stack,
    _support_pairs,
    enumerate_nash,
    is_nash,
    pareto_optimal_nash,
    worst_pone_payoff,
)
from cooplab.harness import fixture_path
from scalar_agents import best_response


def coordination_game():
    m = np.array([[2.0, 0.0], [0.0, 1.0]])
    return BimatrixGame(payoff_row=m, payoff_col=m)


def pd_game():
    m = np.array([[2.0, 0.0], [3.0, 1.0]])
    return BimatrixGame(payoff_row=m, payoff_col=m)


def grid_search_2x2_equilibria(game, steps=2000, tol=2e-3):
    """Independent oracle: scan (p, q) on a grid and keep approximate
    equilibria as (p, q) pairs.  Only reliable for games whose equilibria are
    well separated on the grid."""
    A, B = game.payoff_row, game.payoff_col
    grid = np.linspace(0.0, 1.0, steps + 1)
    P, Q = np.meshgrid(grid, grid, indexing="ij")
    # Row payoff of action a against the mixed column strategy (q, 1-q).
    row0 = A[0, 0] * Q + A[0, 1] * (1 - Q)
    row1 = A[1, 0] * Q + A[1, 1] * (1 - Q)
    col0 = B[0, 0] * P + B[0, 1] * (1 - P)
    col1 = B[1, 0] * P + B[1, 1] * (1 - P)
    gain_row = np.maximum(row0, row1) - (P * row0 + (1 - P) * row1)
    gain_col = np.maximum(col0, col1) - (Q * col0 + (1 - Q) * col1)
    gain = np.maximum(gain_row, gain_col)
    found = []
    for p0, q0 in zip(P[gain <= tol], Q[gain <= tol]):
        if not any(abs(p0 - fp) < 0.05 and abs(q0 - fq) < 0.05 for fp, fq in found):
            found.append((float(p0), float(q0)))
    return found


def test_best_response_values_and_ties():
    g = coordination_game()
    actions, value = best_response(g, [1.0, 0.0], "row")
    assert actions == [0] and value == pytest.approx(2.0)
    # Against the mixed profile (1/3, 2/3) both actions tie at 2/3.
    actions, value = best_response(g, [1 / 3, 2 / 3], "row")
    assert actions == [0, 1] and value == pytest.approx(2 / 3)


def test_coordination_game_equilibrium_set():
    g = coordination_game()
    result = enumerate_nash(g)
    assert not result.degenerate
    keys = sorted(
        (round(p.sigma_row[0], 6), round(p.sigma_col[0], 6)) for p in result.profiles
    )
    assert keys == [(0.0, 0.0), (round(1 / 3, 6), round(1 / 3, 6)), (1.0, 1.0)]
    mixed = [p for p in result.profiles if 0 < p.sigma_row[0] < 1][0]
    assert mixed.value_row == pytest.approx(2 / 3)
    assert mixed.value_col == pytest.approx(2 / 3)


def test_pd_has_unique_equilibrium():
    result = enumerate_nash(pd_game())
    assert len(result.profiles) == 1
    prof = result.profiles[0]
    assert prof.sigma_row[1] == pytest.approx(1.0)
    assert prof.payoffs() == (pytest.approx(1.0), pytest.approx(1.0))


def test_enumeration_matches_grid_search_on_random_2x2():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 12:
        A = rng.integers(0, 6, size=(2, 2)).astype(float)
        B = rng.integers(0, 6, size=(2, 2)).astype(float)
        # The grid oracle cannot separate equilibria of degenerate games.
        if len(set(A.flatten())) < 4 or len(set(B.flatten())) < 4:
            continue
        g = BimatrixGame(payoff_row=A, payoff_col=B)
        result = enumerate_nash(g)
        if result.degenerate:
            continue
        oracle = grid_search_2x2_equilibria(g)
        assert len(result.profiles) == len(oracle)
        for prof in result.profiles:
            assert any(
                abs(prof.sigma_row[0] - p0) < 5e-3 and abs(prof.sigma_col[0] - q0) < 5e-3
                for p0, q0 in oracle
            )
        checked += 1


def test_every_enumerated_profile_is_nash():
    rng = np.random.default_rng(5)
    for trial in range(40):
        n = 2 + trial % 2
        g = BimatrixGame(payoff_row=rng.random((n, n)), payoff_col=rng.random((n, n)))
        for prof in enumerate_nash(g).profiles:
            assert is_nash(g, prof.sigma_row, prof.sigma_col, tol=1e-7)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_profile_values_are_bit_equal_to_expected_payoff(n):
    rng = np.random.default_rng(100 + n)
    kept = 0
    for _ in range(20):
        g = BimatrixGame(payoff_row=rng.random((n, n)), payoff_col=rng.random((n, n)))
        for prof in enumerate_nash(g).profiles:
            assert prof.value_row == expected_payoff(prof.sigma_row, prof.sigma_col, g, "row")
            assert prof.value_col == expected_payoff(prof.sigma_row, prof.sigma_col, g, "col")
            kept += 1
    assert kept >= 20


def test_random_games_have_at_least_one_equilibrium():
    # Nash existence; support enumeration can only miss equilibria of
    # degenerate games, which are flagged.
    rng = np.random.default_rng(6)
    for _ in range(40):
        g = BimatrixGame(payoff_row=rng.random((3, 3)), payoff_col=rng.random((3, 3)))
        result = enumerate_nash(g)
        assert result.profiles or result.degenerate


def test_cross_type_fixture_mixed_equilibrium():
    # The two-type fixture's cross game was constructed to have a unique
    # fully-mixed equilibrium; values verified by the indifference conditions
    # by hand.
    ts = TypeSpace.from_file(fixture_path("typespace_2.json"))
    g = ts.game("gamma", "delta")
    result = enumerate_nash(g)
    assert len(result.profiles) == 1
    prof = result.profiles[0]
    assert prof.sigma_row[0] == pytest.approx(0.95, abs=1e-9)
    assert prof.sigma_col[0] == pytest.approx(0.2, abs=1e-9)
    assert prof.value_row == pytest.approx(0.26, abs=1e-9)
    assert prof.value_col == pytest.approx(0.581, abs=1e-9)


def test_pareto_filter_keeps_undominated_profiles():
    g = coordination_game()
    pone = pareto_optimal_nash(g)
    # (0,0) with payoffs (2,2) dominates both other equilibria.
    assert len(pone) == 1
    assert pone.profiles[0].sigma_row[0] == pytest.approx(1.0)


def test_pareto_filter_is_antichain_and_idempotent():
    rng = np.random.default_rng(7)
    from cooplab.equilibria import _strongly_dominates

    for _ in range(30):
        g = BimatrixGame(payoff_row=rng.random((2, 2)), payoff_col=rng.random((2, 2)))
        nash = enumerate_nash(g)
        pone = pareto_optimal_nash(g, nash=nash)
        for a, b in itertools.permutations(pone.profiles, 2):
            assert not _strongly_dominates(a, b, 1e-9)
        again = pareto_optimal_nash(g, nash=NashEnumeration(profiles=pone.profiles))
        assert len(again) == len(pone)


def test_pareto_keeps_incomparable_profiles():
    # Battle-of-the-sexes payoffs: the two pure equilibria are incomparable.
    A = np.array([[2.0, 0.0], [0.0, 1.0]])
    B = np.array([[1.0, 0.0], [0.0, 2.0]])
    g = BimatrixGame(payoff_row=A, payoff_col=B)
    pone = pareto_optimal_nash(g)
    pure = [p for p in pone.profiles if p.sigma_row.max() > 1 - 1e-9]
    assert len(pure) == 2


def test_worst_pone_payoff_values():
    assert worst_pone_payoff(coordination_game(), "row") == pytest.approx(2.0)
    assert worst_pone_payoff(coordination_game(), "col") == pytest.approx(2.0)
    assert worst_pone_payoff(pd_game(), "col") == pytest.approx(1.0)
    ts = TypeSpace.from_file(fixture_path("typespace_2.json"))
    assert worst_pone_payoff(ts.game("gamma", "delta"), "col") == pytest.approx(0.581)


def test_worst_pone_payoff_never_below_nash_minimum():
    rng = np.random.default_rng(8)
    for _ in range(30):
        g = BimatrixGame(payoff_row=rng.random((2, 2)), payoff_col=rng.random((2, 2)))
        nash = enumerate_nash(g)
        if not nash.profiles:
            continue
        for player in ("row", "col"):
            tau = worst_pone_payoff(g, player)
            values = [p.value_row if player == "row" else p.value_col for p in nash.profiles]
            assert tau >= min(values) - 1e-9


def test_empty_pone_set_raises():
    from cooplab.equilibria import PoneSet

    with pytest.raises(EquilibriumError):
        worst_pone_payoff(coordination_game(), "row", pone=PoneSet(profiles=[]))


def test_enumeration_capacity_guard():
    rng = np.random.default_rng(9)
    g = BimatrixGame(payoff_row=rng.random((6, 6)), payoff_col=rng.random((6, 6)))
    with pytest.raises(CapacityError):
        enumerate_nash(g)


# ---------------------------------------------------------------------------
# The per-support loop, kept as the oracle for the batched enumeration.


def _solve_support(matrix, own_support, opp_support):
    """Solve one indifference system: the opponent mixes over ``opp_support``
    so that every action in ``own_support`` earns the same value.  Returns
    (opponent strategy over opp_support, common value) or None if singular."""
    s = len(own_support)
    a = np.zeros((s + 1, s + 1))
    a[:s, :s] = matrix[np.ix_(own_support, opp_support)]
    a[:s, s] = -1.0
    a[s, :s] = 1.0
    b = np.zeros(s + 1)
    b[s] = 1.0
    try:
        sol = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    return sol[:s], float(sol[s])


def reference_enumerate_nash(game):
    """Support enumeration one support pair at a time, in canonical order."""
    n = game.num_actions
    A, B = game.payoff_row, game.payoff_col
    result = NashEnumeration(profiles=[])
    seen = set()
    for size in range(1, n + 1):
        for support_row in itertools.combinations(range(n), size):
            for support_col in itertools.combinations(range(n), size):
                sol_q = _solve_support(A, support_row, support_col)
                sol_p = _solve_support(B, support_col, support_row)
                if sol_q is None or sol_p is None:
                    if size > 1:
                        result.degenerate = True
                    continue
                q_sub, _ = sol_q
                p_sub, _ = sol_p
                if q_sub.min() < EQ_TOL or p_sub.min() < EQ_TOL:
                    continue
                p = np.zeros(n)
                q = np.zeros(n)
                p[list(support_row)] = p_sub
                q[list(support_col)] = q_sub
                p /= p.sum()
                q /= q.sum()
                if _deviation_gain(game, p, q) > EQ_TOL:
                    continue
                key = tuple(np.round(np.concatenate([p, q]), 9))
                if key in seen:
                    result.degenerate = True
                    continue
                seen.add(key)
                result.profiles.append(
                    EquilibriumProfile(
                        sigma_row=p,
                        sigma_col=q,
                        value_row=expected_payoff(p, q, game, "row"),
                        value_col=expected_payoff(p, q, game, "col"),
                    )
                )
    return result


def assert_same_enumeration(got, want):
    assert got.degenerate == want.degenerate
    assert len(got.profiles) == len(want.profiles)
    for g, w in zip(got.profiles, want.profiles):
        # Bit-equal, not approximately equal: the batched solve must not round
        # differently from the per-system one.
        assert g.sigma_row.tobytes() == w.sigma_row.tobytes()
        assert g.sigma_col.tobytes() == w.sigma_col.tobytes()
        assert (g.value_row, g.value_col) == (w.value_row, w.value_col)


@st.composite
def bimatrix_games(draw):
    n = draw(st.integers(2, 5))
    # Small integers produce singular systems and repeated profiles; uniform
    # floats give nondegenerate games.
    elements = draw(st.sampled_from([
        st.floats(0.0, 1.0),
        st.integers(-2, 2).map(float),
        st.integers(0, 1).map(float),
    ]))
    return BimatrixGame(
        payoff_row=draw(arrays(np.float64, (n, n), elements=elements)),
        payoff_col=draw(arrays(np.float64, (n, n), elements=elements)),
    )


@settings(max_examples=150, deadline=None)
@given(game=bimatrix_games())
def test_batched_enumeration_equals_per_support_loop(game):
    assert_same_enumeration(enumerate_nash(game), reference_enumerate_nash(game))


def per_size_enumerate_nash(game):
    """Support enumeration with one full array pass per support size: each
    size's stacked solve, validity mask, normalisation, deviation test and
    duplicate check run before the next size's."""
    n = game.num_actions
    A, B = game.payoff_row, game.payoff_col
    systems = np.zeros((2, n + 1, n + 1))
    systems[:, :n, :n], systems[:, :n, n], systems[:, n, :n] = (B, A), -1.0, 1.0
    slack = 8 * (n + 2) * 2.0**-52 * (np.abs(A).max() + np.abs(B).max())
    result = NashEnumeration(profiles=[])
    seen = set()
    for size in range(1, n + 1):
        gather, flat = _support_pairs(n, size)
        sol = _solve_stack(systems[gather]).reshape(2, -1, size + 1)
        solved = np.isfinite(sol).all(axis=(0, 2))
        if size > 1 and not solved.all():
            result.degenerate = True
        keep = solved & (sol[..., :size].min(axis=(0, 2)) >= EQ_TOL)
        pq = np.zeros((2, len(keep), n))
        pq.put(flat, sol[..., :size])
        pq = pq[:, keep]
        pq /= pq.sum(axis=2, keepdims=True)
        P, Q = pq
        rv, cv = Q @ A.T, P @ B.T
        gain = np.maximum(rv.max(1) - (P * rv).sum(1), cv.max(1) - (Q * cv).sum(1))
        passed = gain <= EQ_TOL - slack
        for i in (~passed & ~(gain > EQ_TOL + slack)).nonzero()[0]:
            passed[i] = _deviation_gain(game, P[i], Q[i]) <= EQ_TOL
        keys = np.round(np.concatenate([P, Q], axis=1)[passed], 9).tolist()
        for i, key in zip(passed.nonzero()[0], map(tuple, keys)):
            if key in seen:
                result.degenerate = True
                continue
            seen.add(key)
            result.profiles.append(EquilibriumProfile(
                P[i], Q[i], float(P[i] @ A @ Q[i]), float(Q[i] @ B @ P[i])))
    return result


@settings(max_examples=200, deadline=None)
@given(game=bimatrix_games())
def test_one_pass_over_all_sizes_equals_a_pass_per_size(game):
    # Integer-valued games are often degenerate: singular systems, and one
    # profile found at two sizes, where the order of the sizes decides which
    # one is kept.
    assert_same_enumeration(enumerate_nash(game), per_size_enumerate_nash(game))


# ---------------------------------------------------------------------------
# The batched deviation test decides every candidate whose batched gain is
# clear of a rounding band around EQ_TOL; only those inside go to
# _deviation_gain.


@pytest.fixture
def exact_checks(monkeypatch):
    """The (p, q) of every candidate that enumerate_nash hands to _deviation_gain."""
    calls = []
    exact = equilibria._deviation_gain

    def counted(game, p, q):
        calls.append((p.copy(), q.copy()))
        return exact(game, p, q)

    monkeypatch.setattr(equilibria, "_deviation_gain", counted)
    return calls


def test_pure_candidate_a_few_ulps_from_eq_tol_goes_to_the_exact_test(exact_checks):
    # The candidate (row 0, column 0) gains exactly d by the row player's
    # switch to 1, in every summation order; every other candidate is clear.
    d = EQ_TOL
    for _ in range(4):
        d = np.nextafter(d, 0.0)
    for _ in range(9):  # 4 ulps below EQ_TOL to 4 above
        game = BimatrixGame(payoff_row=[[0.0, 0.0], [d, 1.0]], payoff_col=np.eye(2))
        exact_checks.clear()
        result = enumerate_nash(game)
        assert_same_enumeration(result, reference_enumerate_nash(game))
        assert [(p.tolist(), q.tolist()) for p, q in exact_checks] == [([1.0, 0.0], [1.0, 0.0])]
        kept = [p.sigma_row.tolist() for p in result.profiles]
        assert ([1.0, 0.0] in kept) == (d <= EQ_TOL), d
        d = np.nextafter(d, 1.0)
    exact_checks.clear()
    for d in (EQ_TOL / 2, EQ_TOL * (1 - 1e-3), EQ_TOL * (1 + 1e-3), EQ_TOL * 2):
        game = BimatrixGame(payoff_row=[[0.0, 0.0], [d, 1.0]], payoff_col=np.eye(2))
        assert_same_enumeration(enumerate_nash(game), reference_enumerate_nash(game))
    assert exact_checks == []


def games_with_a_gain_at_eq_tol(rng, count):
    """Random games with a mixed equilibrium whose support leaves out a row
    action; that action's payoffs are shifted so that leaving for it gains
    EQ_TOL give or take a few ulps.  The batched and per-candidate sums round
    that gain differently for some of them, on either side of EQ_TOL."""
    while count:
        n = int(rng.integers(3, 6))
        A, B = rng.random((n, n)), rng.random((n, n))
        for prof in enumerate_nash(BimatrixGame(payoff_row=A, payoff_col=B)).profiles:
            unused = np.flatnonzero(prof.sigma_row == 0)
            if (prof.sigma_row > 0).sum() > 1 and len(unused):
                values = A @ prof.sigma_col
                A[unused[0]] += values.max() - values[unused[0]] + EQ_TOL
                A[unused[0]] += int(rng.integers(-3, 4)) * 2.0**-53
                yield BimatrixGame(payoff_row=A, payoff_col=B)
                count -= 1
                break


def test_mixed_candidates_at_eq_tol_keep_the_per_candidate_set(exact_checks):
    rng = np.random.default_rng(2024)
    for game in games_with_a_gain_at_eq_tol(rng, 200):
        exact_checks.clear()
        assert_same_enumeration(enumerate_nash(game), reference_enumerate_nash(game))
        assert exact_checks  # the shifted candidate is in the band
        for p, q in exact_checks:
            assert abs(_deviation_gain(game, p, q) - EQ_TOL) < 1e-12
    # Random games: every candidate's gain is near 0 or far above EQ_TOL.
    exact_checks.clear()
    for n in (2, 3, 4, 5):
        for _ in range(10):
            game = BimatrixGame(payoff_row=rng.random((n, n)), payoff_col=rng.random((n, n)))
            assert_same_enumeration(enumerate_nash(game), reference_enumerate_nash(game))
    assert exact_checks == []


def test_batched_enumeration_equals_per_support_loop_on_fixtures():
    for name in ("typespace_2.json", "typespace_4.json", "coordination_2x2.json",
                 "prisoners_dilemma.json"):
        ts = TypeSpace.from_file(fixture_path(name))
        for joint in ts.joint_types():
            game = ts.game(*joint)
            result = enumerate_nash(game)
            assert not result.degenerate, (name, joint)
            assert_same_enumeration(result, reference_enumerate_nash(game))


def test_singular_system_does_not_hide_an_equilibrium_of_the_same_size():
    # Matching pennies on actions {0, 1}; the row player's action 2 repeats
    # action 1, so the size-2 support pair ({1, 2}, {0, 1}) has a singular
    # system.  A stacked solve fails for the whole size-2 stack, which holds
    # the true mixed equilibrium ({0, 1}, {0, 1}) too.
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    B = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [-1.0, -1.0, -1.0]])
    game = BimatrixGame(payoff_row=A, payoff_col=B)
    result = enumerate_nash(game)
    assert result.degenerate
    found = [(p.sigma_row.tolist(), p.sigma_col.tolist()) for p in result.profiles]
    assert ([0.5, 0.5, 0.0], [0.5, 0.5, 0.0]) in found
    assert_same_enumeration(result, reference_enumerate_nash(game))


def test_degenerate_game_is_flagged_on_the_pareto_set_and_refused():
    flat = np.ones((2, 2))
    game = BimatrixGame(payoff_row=flat, payoff_col=flat, joint_type=("a", "b"))
    pone = pareto_optimal_nash(game)
    assert pone.degenerate and pone.profiles
    with pytest.raises(GameError, match=r"\('a', 'b'\)"):
        worst_pone_payoff(game, "row")
    with pytest.raises(GameError, match="degenerate"):
        worst_pone_payoff(game, "col", pone=pone)


def test_convention_table_refuses_a_degenerate_type_space():
    # (coord, coord) is nondegenerate; every game against the flat type is not.
    ts = TypeSpace(
        types=("coord", "flat"),
        payoff_table={"coord": [[2.0, 0.0], [0.0, 1.0]], "flat": [[1.0, 1.0], [1.0, 1.0]]},
    )
    assert not enumerate_nash(ts.game("coord", "coord")).degenerate
    with pytest.raises(GameError, match=r"\('coord', 'flat'\)"):
        build_convention_table(ts)
    # Row plays 0 and column (0.7, 0.3) is a Pareto-optimal equilibrium of
    # (coord, flat) that support enumeration does not list; the table is
    # refused as degenerate rather than checked against the incomplete set.
    assert is_nash(ts.game("coord", "flat"), [1.0, 0.0], [0.7, 0.3])
    entries = {f"{a}|{b}": {"sigma_row": [1.0, 0.0], "sigma_col": [1.0, 0.0]}
               for a, b in ts.joint_types()}
    entries["coord|flat"]["sigma_col"] = [0.7, 0.3]
    with pytest.raises(GameError, match="degenerate"):
        ConventionTable.from_dict(entries, ts)
