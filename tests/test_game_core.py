import math

import numpy as np
import pytest

from cooplab.game_core import (
    BimatrixGame,
    CapacityError,
    EpisodeTrace,
    GameError,
    GameFormatError,
    TypeSpace,
    check_mixed,
    expected_payoff,
    history_distribution,
    normalize_game,
)
from cooplab.harness import fixture_path
from scalar_agents import best_response, check_joint, exact_episode_value


def coordination_game():
    m = np.array([[2.0, 0.0], [0.0, 1.0]])
    return BimatrixGame(payoff_row=m, payoff_col=m)


def pd_game():
    # Mutual cooperation (2, 2); defecting against a cooperator pays 3.
    m = np.array([[2.0, 0.0], [3.0, 1.0]])
    return BimatrixGame(payoff_row=m, payoff_col=m)


def test_check_mixed_accepts_valid_and_rejects_invalid():
    p = check_mixed([0.25, 0.75])
    assert p.shape == (2,)
    with pytest.raises(GameError):
        check_mixed([0.5, 0.6])
    with pytest.raises(GameError):
        check_mixed([-0.1, 1.1])
    with pytest.raises(GameError):
        check_mixed([0.5, 0.5], n=3)
    # NaN compares false with everything, so it must fail the sum test itself.
    for bad in ([math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0]):
        with pytest.raises(GameError):
            check_mixed(bad)


def test_check_joint_validation():
    z = check_joint([[0.3, 0.2], [0.1, 0.4]])
    assert z.sum() == pytest.approx(1.0)
    with pytest.raises(GameError):
        check_joint([[0.5, 0.5]])
    with pytest.raises(GameError):
        check_joint([[0.9, 0.0], [0.0, 0.2]])
    with pytest.raises(GameError):
        check_joint([[math.nan, 0.0], [0.0, math.nan]])


def test_expected_payoff_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        g = BimatrixGame(payoff_row=rng.random((n, n)), payoff_col=rng.random((n, n)))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        for player in ("row", "col"):
            brute = sum(
                p[i] * q[j] * (g.payoff_row[i, j] if player == "row" else g.payoff_col[j, i])
                for i in range(n)
                for j in range(n)
            )
            assert expected_payoff(p, q, g, player) == pytest.approx(brute, abs=1e-12)


def test_expected_payoff_pure_profile_recovers_entry():
    g = coordination_game()
    assert expected_payoff([1, 0], [1, 0], g, "row") == pytest.approx(2.0)
    assert expected_payoff([0, 1], [0, 1], g, "col") == pytest.approx(1.0)


def test_normalize_game_maps_into_unit_interval():
    g = pd_game()
    ng = normalize_game(g)
    assert ng.payoff_row.min() == 0.0 and ng.payoff_row.max() == 1.0
    # Affine rescale of [[2,0],[3,1]] with range 3.
    assert ng.payoff_row[0, 0] == pytest.approx(2.0 / 3.0)
    constant = BimatrixGame(payoff_row=np.full((2, 2), 5.0), payoff_col=np.zeros((2, 2)))
    assert np.all(normalize_game(constant).payoff_row == 0.0)


def test_normalize_game_preserves_best_responses():
    rng = np.random.default_rng(1)
    for _ in range(30):
        g = BimatrixGame(
            payoff_row=rng.normal(size=(3, 3)) * 10 + 4,
            payoff_col=rng.normal(size=(3, 3)) * 10 - 2,
        )
        ng = normalize_game(g)
        q = rng.dirichlet(np.ones(3))
        for player in ("row", "col"):
            a1, _ = best_response(g, q, player)
            a2, _ = best_response(ng, q, player)
            assert a1 == a2


def test_type_space_roundtrip_and_hash(tmp_path):
    ts = TypeSpace.from_file(fixture_path("typespace_2.json"))
    assert ts.types == ("gamma", "delta")
    assert ts.num_actions == 2
    path = tmp_path / "ts.json"
    ts.to_file(path)
    ts2 = TypeSpace.from_file(path)
    assert ts2.content_hash() == ts.content_hash()


def test_type_space_joint_game_assembly():
    ts = TypeSpace.from_file(fixture_path("typespace_2.json"))
    g = ts.game("gamma", "delta")
    assert np.allclose(g.payoff_row, ts.payoff_table["gamma"])
    assert np.allclose(g.payoff_col, ts.payoff_table["delta"])
    assert len(ts.joint_types()) == 4
    with pytest.raises(GameError):
        ts.game("gamma", "zeta")


def test_type_space_format_errors():
    with pytest.raises(GameFormatError):
        TypeSpace.from_dict({"num_actions": 2, "types": ["a"], "payoffs": {}})
    with pytest.raises(GameFormatError):
        TypeSpace.from_dict(
            {"num_actions": 2, "types": ["a"], "payoffs": {"a": [1, 2, 3]}}
        )
    with pytest.raises(GameError):
        TypeSpace(types=("a", "a"), payoff_table={"a": np.zeros((2, 2))})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(GameError):
            TypeSpace.from_dict(
                {"num_actions": 2, "types": ["a"], "payoffs": {"a": [1, bad, 0, 1]}}
            )


def test_bimatrix_game_rejects_non_finite_payoffs():
    # Built directly, not from a TypeSpace: a NaN payoff used to reach
    # enumerate_nash, which then listed non-equilibria with value nan.
    for bad in (math.nan, math.inf, -math.inf):
        m = np.array([[1.0, bad], [0.0, 1.0]])
        with pytest.raises(GameError, match="row payoff matrix has NaN or infinite"):
            BimatrixGame(payoff_row=m, payoff_col=np.eye(2))
        with pytest.raises(GameError, match="column payoff matrix has NaN or infinite"):
            BimatrixGame(payoff_row=np.eye(2), payoff_col=m)


def test_episode_trace_rejects_impossible_samples():
    with pytest.raises(GameError):
        EpisodeTrace(
            history=((1, 0),),
            row_strategies=[np.array([1.0, 0.0])],
            col_strategies=[np.array([1.0, 0.0])],
        )


def test_exact_episode_value_pure_strategies():
    g = pd_game()
    always = lambda a: (lambda h: [1.0 if i == a else 0.0 for i in range(2)])
    v1, v2 = exact_episode_value(always(0), always(0), g, T=4)
    assert (v1, v2) == (pytest.approx(8.0), pytest.approx(8.0))
    v1, v2 = exact_episode_value(always(1), always(0), g, T=4)
    assert (v1, v2) == (pytest.approx(12.0), pytest.approx(0.0))


def test_exact_episode_value_matches_monte_carlo():
    import random

    g = coordination_game()
    mixed = lambda h: [0.3, 0.7] if len(h) % 2 == 0 else [0.8, 0.2]
    v1, _ = exact_episode_value(mixed, lambda h: [0.5, 0.5], g, T=3)
    rng = random.Random(11)
    total = 0.0
    trials = 200000
    for _ in range(trials):
        h = ()
        for _ in range(3):
            p = mixed(h)
            a = 0 if rng.random() < p[0] else 1
            b = rng.getrandbits(1)
            total += g.payoff_row[a, b]
            h = h + ((a, b),)
    assert v1 == pytest.approx(total / trials, abs=0.02)


def test_exact_episode_value_capacity_guard():
    g = coordination_game()
    with pytest.raises(CapacityError):
        exact_episode_value(lambda h: [0.5, 0.5], lambda h: [0.5, 0.5], g, T=30)


def test_history_distribution_sums_to_one_and_tv():
    p = history_distribution(lambda h: [0.4, 0.6], lambda h: [0.5, 0.5], 2, 2)
    assert sum(p.values()) == pytest.approx(1.0, abs=1e-12)
    assert p[((0, 0), (0, 0))] == pytest.approx(0.04)
    q = history_distribution(lambda h: [0.6, 0.4], lambda h: [0.5, 0.5], 2, 2)
    tv = lambda a, b: 0.5 * sum(abs(a.get(h, 0.0) - b.get(h, 0.0)) for h in {*a, *b})
    assert tv(p, p) == 0.0
    assert 0.0 < tv(p, q) <= 1.0


def test_type_space_rejects_a_type_id_with_the_key_separator():
    with pytest.raises(GameError, match="without"):
        TypeSpace(types=("a|b", "c"), payoff_table={"a|b": np.eye(2), "c": np.eye(2)})
