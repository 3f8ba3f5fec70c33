import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cooplab.game_core import BimatrixGame, EpisodeTrace, GameError
from cooplab.regret import azuma_thresholds, expected_external_regret


def pd_game():
    m = np.array([[2.0, 0.0], [3.0, 1.0]])
    return BimatrixGame(payoff_row=m, payoff_col=m, joint_type=("pd", "pd"))


def make_trace(history, row_strategies=None, col_strategies=None, n=2):
    def degenerate(actions):
        out = []
        for a in actions:
            v = np.zeros(n)
            v[a] = 1.0
            out.append(v)
        return out

    if row_strategies is None:
        row_strategies = degenerate([a for a, _ in history])
    if col_strategies is None:
        col_strategies = degenerate([b for _, b in history])
    return EpisodeTrace(
        history=tuple(history),
        row_strategies=row_strategies,
        col_strategies=col_strategies,
    )


# A trace whose announcements are its sampled actions has an expected
# external regret equal to the realized one: the best fixed action in
# hindsight minus the realized payoffs.


def test_external_regret_mutual_cooperation():
    # Ten rounds of (C, C): defecting every round would have paid 30 vs 20.
    g = pd_game()
    trace = make_trace([(0, 0)] * 10)
    assert expected_external_regret(trace, g, "row") == pytest.approx(10.0)
    assert expected_external_regret(trace, g, "col") == pytest.approx(10.0)


def test_external_regret_zero_cases():
    g = pd_game()
    assert expected_external_regret(make_trace([]), g, "row") == 0.0
    # All-defection is the best response to itself.
    assert expected_external_regret(make_trace([(1, 1)] * 7), g, "row") == pytest.approx(0.0)


@st.composite
def matrices_and_histories(draw):
    """An arbitrary N x N payoff matrix (N = 2-5), a history of up to 40
    stages and an own action to make weakly dominant."""
    n = draw(st.integers(2, 5))
    m = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n * n, max_size=n * n)))
    actions = st.integers(0, n - 1)
    history = draw(st.lists(st.tuples(actions, actions), max_size=40))
    return m.reshape(n, n), history, draw(actions)


def seeded_pd_histories():
    """The prisoner's-dilemma histories this test drew from a seeded
    generator before it took hypothesis inputs; defection dominates."""
    rng = random.Random(3)
    return [
        (pd_game().payoff_row, [(rng.getrandbits(1), rng.getrandbits(1))
                                for _ in range(rng.randint(1, 40))], 1)
        for _ in range(200)
    ]


def with_examples(cases):
    """Run ``cases`` as explicit examples of a hypothesis test of ``case``."""
    def decorate(test):
        for case in cases:
            test = example(case=case)(test)
        return test
    return decorate


@with_examples(seeded_pd_histories())
@settings(max_examples=200, deadline=None)
@given(case=matrices_and_histories())
def test_external_regret_is_nonnegative_on_random_histories(case):
    # Regret is nonnegative when an own action weakly dominates, or when the
    # player keeps one action; on other histories it can be negative.
    m, history, best = case
    dominated = m.copy()
    dominated[best] = m.max(axis=0)
    tol = 1e-12 * (1 + len(history)) * (1 + np.abs(m).max())
    first = history[0] if history else (0, 0)
    n = len(m)
    for player in ("row", "col"):
        trace = make_trace(history, n=n)
        assert expected_external_regret(trace, BimatrixGame(dominated, dominated), player) >= -tol
        kept = [(first[0], b) if player == "row" else (a, first[1]) for a, b in history]
        assert expected_external_regret(make_trace(kept, n=n), BimatrixGame(m, m), player) >= -tol


def test_external_regret_is_negative_when_every_stage_is_a_best_response():
    g = BimatrixGame(payoff_row=np.eye(2), payoff_col=np.eye(2))
    assert expected_external_regret(make_trace([(0, 0), (1, 1)]), g, "row") == -1.0


def test_external_regret_brute_force_agreement():
    # Best fixed action in hindsight minus the announced strategies' expected
    # payoffs against the sampled column actions.
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        g = BimatrixGame(payoff_row=rng.random((n, n)), payoff_col=rng.random((n, n)))
        T = int(rng.integers(1, 20))
        h = [(int(rng.integers(n)), int(rng.integers(n))) for _ in range(T)]
        sigmas = [rng.dirichlet(np.ones(n)) for _ in range(T)]
        best = max(
            sum(g.payoff_row[a, b] for _, b in h) for a in range(n)
        )
        expected = sum(sigma @ g.payoff_row[:, b] for sigma, (_, b) in zip(sigmas, h))
        trace = make_trace(h, row_strategies=sigmas, n=n)
        assert expected_external_regret(trace, g, "row") == pytest.approx(best - expected, abs=1e-12)


def test_expected_external_regret_uniform_row():
    # Row announces uniform each stage while the column player cooperates:
    # expected payoff 2.5/stage vs counterfactual 3/stage.
    g = pd_game()
    h = [(0, 0)] * 10
    uniform = [np.array([0.5, 0.5])] * 10
    trace = make_trace(h, row_strategies=uniform)
    assert expected_external_regret(trace, g, "row") == pytest.approx(5.0)
    # Degenerate announcements recover realized regret.
    best = max(sum(g.payoff_row[a, b] for _, b in h) for a in range(2))
    realized = sum(g.payoff_row[a, b] for a, b in h)
    assert expected_external_regret(make_trace(h), g, "row") == pytest.approx(best - realized)


def test_expected_external_regret_prefix_and_errors():
    g = pd_game()
    trace = make_trace([(0, 0)] * 10, row_strategies=[np.array([0.5, 0.5])] * 10)
    assert expected_external_regret(trace, g, "row", up_to=4) == pytest.approx(2.0)
    assert expected_external_regret(trace, g, "row", up_to=0) == 0.0
    with pytest.raises(GameError):
        expected_external_regret(trace, g, "row", up_to=11)


def test_regret_invariance_under_constant_shift():
    rng = np.random.default_rng(14)
    base = rng.random((2, 2))
    g1 = BimatrixGame(payoff_row=base, payoff_col=base)
    g2 = BimatrixGame(payoff_row=base + 7.5, payoff_col=base + 7.5)
    h = [(int(rng.integers(2)), int(rng.integers(2))) for _ in range(30)]
    trace = make_trace(h, row_strategies=[rng.dirichlet(np.ones(2)) for _ in h])
    assert expected_external_regret(trace, g1, "row") == pytest.approx(
        expected_external_regret(trace, g2, "row"), abs=1e-9
    )


def test_azuma_thresholds_frozen_values():
    th = azuma_thresholds(1000, 0.05)
    assert th.expected_bound == pytest.approx(85.89388166934751, abs=1e-9)
    assert th.realized_bound == pytest.approx(187.23304483287944, abs=1e-9)
    assert th.relation_slack == pytest.approx(38.7022756020495, abs=1e-9)


def test_azuma_thresholds_monotone_in_delta_and_T():
    a = azuma_thresholds(1000, 0.05)
    b = azuma_thresholds(1000, 0.01)
    c = azuma_thresholds(4000, 0.05)
    assert b.expected_bound > a.expected_bound
    assert c.expected_bound == pytest.approx(2 * a.expected_bound)
    with pytest.raises(GameError):
        azuma_thresholds(0, 0.05)
    with pytest.raises(GameError):
        azuma_thresholds(10, 1.5)


def test_regret_functionals_of_one_trace():
    g = pd_game()
    trace = make_trace([(0, 0)] * 4)
    # Degenerate announcements: expected regret is the realized one.
    assert expected_external_regret(trace, g, "row") == pytest.approx(4.0)
    assert expected_external_regret(trace, g, "col") == pytest.approx(4.0)


def test_expected_external_regret_of_a_prefix_is_that_of_the_shorter_trace():
    g = pd_game()
    history = [(0, 0), (1, 0), (0, 1), (1, 1)]
    trace = make_trace(history, row_strategies=[np.array([0.25, 0.75])] * 4)
    for t in range(len(history) + 1):
        shorter = make_trace(history[:t], row_strategies=[np.array([0.25, 0.75])] * t)
        assert expected_external_regret(trace, g, "row", up_to=t) == (
            expected_external_regret(shorter, g, "row"))
    assert expected_external_regret(trace, g, "row", up_to=4) == (
        expected_external_regret(trace, g, "row"))
