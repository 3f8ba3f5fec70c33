"""The level-order tree walker and the level-at-a-time act functions, checked
against the recursive walkers and the rebuild-and-replay act function they
replaced, which are kept here as reference implementations."""
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cooplab.game_core import (
    PROB_TOL,
    BimatrixGame,
    CapacityError,
    GameError,
    TypeSpace,
    check_mixed,
    history_distribution,
)
from cooplab.agents import (
    AgentSpec,
    build_agent,
    build_convention_table,
    theorem26_params,
    tree_act_fn,
)
from cooplab.population import Population, flatten_population
from cooplab.imitation_commit import fit_imitation
from cooplab.harness import fixture_path
from scalar_agents import exact_episode_value, tuple_dataset


TS2 = TypeSpace.from_file(fixture_path("typespace_2.json"))
TS4 = TypeSpace.from_file(fixture_path("typespace_4.json"))
# Three types in two-digit codewords: the opponent's prefix (1, 1) is invalid.
TS3 = TypeSpace(
    types=("a", "b", "c"),
    payoff_table={t: TS4.payoff_table[old] for t, old in zip("abc", TS4.types)},
)


# ---------------------------------------------------------------------------
# Reference implementations: the recursive walkers and the replay act function


def recursive_episode_value(act_row, act_col, game, T):
    n = game.num_actions
    A, B = game.payoff_row, game.payoff_col

    def rec(h, depth):
        if depth == T:
            return 0.0, 0.0
        p = check_mixed(act_row(h), n)
        q = check_mixed(act_col(h), n)
        v1 = float(p @ A @ q)
        v2 = float(q @ B @ p)
        for i in range(n):
            if p[i] <= 0.0:
                continue
            for j in range(n):
                w = p[i] * q[j]
                if w <= 0.0:
                    continue
                r1, r2 = rec(h + ((i, j),), depth + 1)
                v1 += w * r1
                v2 += w * r2
        return v1, v2

    return rec((), 0)


def recursive_distribution(act_row, act_col, n, T):
    out = {}

    def rec(h, prob, depth):
        if depth == T:
            out[h] = out.get(h, 0.0) + prob
            return
        p = check_mixed(act_row(h), n)
        q = check_mixed(act_col(h), n)
        for i in range(n):
            for j in range(n):
                w = prob * p[i] * q[j]
                if w > 0.0:
                    rec(h + ((i, j),), w, depth + 1)

    rec((), 1.0, 0)
    return out


def _step(agent, own, opp):
    """One stage of a batch agent: announce, then observe the actions."""
    agent.act()
    agent.observe(np.atleast_1d(own), np.atleast_1d(opp))


def replay_act_fn(factory, seat="row"):
    """A fresh one-episode agent stepped through the whole history, alone."""
    def fn(history):
        agent = factory()
        for a, b in history:
            _step(agent, *((a, b) if seat == "row" else (b, a)))
        return agent.act()[0].tolist()

    return fn


def random_act_fn(seed: int, n: int, zero_share: float):
    """A deterministic random behavioral strategy: each history gets its own
    strategy, some entries exactly zero, some strategies pure."""

    def act(history):
        rng = random.Random(f"{seed}:{history}")
        w = [0.0 if rng.random() < zero_share else rng.random() for _ in range(n)]
        if not any(w):
            w[rng.randrange(n)] = 1.0
        total = sum(w)
        return [x / total for x in w]

    return act


# ---------------------------------------------------------------------------
# The walker against the recursive reference


def _malformed_keys(n, T):
    """Keys no length-T distribution over n actions holds: hashable ones a
    dict looks up and misses, then unhashable ones a dict would refuse."""
    full = tuple((n - 1, 0) for _ in range(T))
    hashable = [full + ((0, 0),), "x", 3, None, ((0,),) * max(T, 1), ((0, 0, 0),) * max(T, 1)]
    if T:
        hashable += [full[:-1], full[:-1] + ((n, 0),), full[:-1] + ((0, -1),),
                     full[:-1] + ((0.5, 0),), full[:-1] + ("ab",)]
    return hashable, [list(full), full + ([0, 0],)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    T=st.integers(0, 4),
    zero_share=st.sampled_from([0.0, 0.3, 0.6]),
    data=st.data(),
)
def test_history_distribution_matches_recursive_walk(seed, n, T, zero_share, data):
    if n ** (2 * T) > 3**8:
        T -= 1  # N = 4 walks T = 3: 4^8 leaves make a slow recursive walk
    row, col = random_act_fn(seed, n, zero_share), random_act_fn(seed + 1, n, zero_share)
    got = history_distribution(row, col, n, T)
    want = recursive_distribution(row, col, n, T)
    # Same keys in the same order, bit-equal probabilities, strictly
    # increasing codes.
    assert list(got) == list(want)
    assert list(got.values()) == list(want.values())
    assert got == want and want == got
    assert np.all(np.diff(got.codes) > 0)
    # Lookups behave as the dict's: present, absent (in range, zero
    # probability) and malformed keys.
    action = st.integers(0, n - 1)
    drawn = data.draw(st.lists(st.tuples(*[st.tuples(action, action)] * T), max_size=5))
    hashable, unhashable = _malformed_keys(n, T)
    for key in list(want)[:5] + drawn + hashable:
        assert (key in got) == (key in want)
        assert got.get(key, -1.0) == want.get(key, -1.0)
        if key in want:
            assert got[key] == want[key]
        else:
            with pytest.raises(KeyError):
                got[key]
    for key in unhashable:
        assert key not in got and got.get(key) is None
        with pytest.raises(KeyError):
            got[key]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3]),
    T=st.integers(0, 4),
    zero_share=st.sampled_from([0.0, 0.3, 0.6]),
)
def test_exact_episode_value_matches_recursive_walk(seed, n, T, zero_share):
    rng = np.random.default_rng(seed)
    game = BimatrixGame(rng.random((n, n)), rng.random((n, n)))
    row, col = random_act_fn(seed, n, zero_share), random_act_fn(seed + 1, n, zero_share)
    got = exact_episode_value(row, col, game, T)
    want = recursive_episode_value(row, col, game, T)
    assert got == pytest.approx(want, abs=1e-12, rel=0)


def test_empty_horizon():
    uniform = lambda h: [0.5, 0.5]
    assert history_distribution(uniform, uniform, 2, 0) == {(): 1.0}
    assert exact_episode_value(uniform, uniform, BimatrixGame(np.eye(2), np.eye(2)), 0) == (0.0, 0.0)


def test_walker_asks_each_live_node_once_parents_first():
    asked = []

    def row(h):
        asked.append(h)
        return [1.0, 0.0] if h else [0.5, 0.5]

    history_distribution(row, lambda h: [0.5, 0.5], 2, 3)
    assert len(asked) == len(set(asked)) == 1 + 4 + 8
    assert all(h[:-1] in asked[: asked.index(h)] for h in asked if h)


# ---------------------------------------------------------------------------
# The walker rejects what check_mixed rejects


# Where the bad strategy is announced: alone at the root, or at the child
# (1, 0) among valid neighbours of its level.
PLACES = {"root": (), "child": ((1, 0),)}


def _bad_at(bad, place):
    return lambda h: bad if h == PLACES[place] else [0.5, 0.5]


REJECTED = {
    "nan": [math.nan, 1.0],
    "wrong_length": [0.25, 0.25, 0.5],
    "ragged": [0.5, [0.5]],
    "negative": [1.0 + 2 * PROB_TOL, -2 * PROB_TOL],
    "sum_off": [0.5, 0.5 + 2e-9],
}


@pytest.mark.parametrize("case", sorted(REJECTED))
@pytest.mark.parametrize("place", sorted(PLACES))
@pytest.mark.parametrize("seat", ["row", "col"])
def test_history_distribution_rejects_what_check_mixed_rejects(case, place, seat):
    bad = REJECTED[case]
    with pytest.raises(GameError):
        check_mixed(bad, 2)
    fns = [lambda h: [0.5, 0.5], _bad_at(bad, place)]
    if seat == "row":
        fns.reverse()
    with pytest.raises(GameError):
        history_distribution(*fns, 2, 2)


@pytest.mark.parametrize("case", sorted(REJECTED))
@pytest.mark.parametrize("place", sorted(PLACES))
@pytest.mark.parametrize("seat", ["row", "col"])
def test_exact_episode_value_rejects_what_check_mixed_rejects(case, place, seat):
    fns = [lambda h: [0.5, 0.5], _bad_at(REJECTED[case], place)]
    if seat == "row":
        fns.reverse()
    with pytest.raises(GameError):
        exact_episode_value(*fns, BimatrixGame(np.eye(2), np.eye(2)), 2)


def test_walker_accepts_negatives_within_tolerance_and_drops_them():
    row = lambda h: [1.0 + PROB_TOL / 2, -PROB_TOL / 2]
    dist = history_distribution(row, lambda h: [0.5, 0.5], 2, 2)
    assert all(a == 0 for h in dist for a, _ in h)
    assert dist == recursive_distribution(row, lambda h: [0.5, 0.5], 2, 2)


def test_history_distribution_capacity_guard():
    with pytest.raises(CapacityError):
        history_distribution(lambda h: [0.5, 0.5], lambda h: [0.5, 0.5], 2, 30)


# ---------------------------------------------------------------------------
# tree_act_fn against the replay reference


def _protocol(ts, k):
    eps1 = theorem26_params(0.1, 6, k, ts.num_actions).eps1
    return AgentSpec("Protocol", {"eps1": eps1, "k": k}), ts


MIXED_POPULATION = Population(
    members=[
        AgentSpec("FixedSequence", {"actions": [0, 1, 1]}),
        AgentSpec("FixedMixed", {"probs": [0.3, 0.7]}),
        AgentSpec("GrimTrigger", {"coop_action": 0, "punish_action": 1}),
        AgentSpec("MW", {}),
        AgentSpec("Protocol", {"eps1": 0.1, "k": 1}),
    ],
    weights=[0.2, 0.2, 0.2, 0.2, 0.2],
)

def _ic_specs(tilde_T):
    """One IC spec per seat, each with a policy fit for that seat on random
    play of TS2's types."""
    rng = random.Random(3)
    episodes = [
        (rng.choice(TS2.types), rng.choice(TS2.types),
         tuple((rng.randrange(2), rng.randrange(2)) for _ in range(tilde_T)))
        for _ in range(40)
    ]
    dataset = tuple_dataset(episodes, tilde_T, 2)
    return {
        seat: AgentSpec("IC", {"policy": fit_imitation(dataset, tilde_T, seat), "tilde_T": tilde_T})
        for seat in ("row", "col")
    }


AGENTS = {
    "FixedMixed": (AgentSpec("FixedMixed", {"probs": [0.6, 0.4]}), TS2),
    "UniformRandom": (AgentSpec("UniformRandom"), TS2),
    "FixedSequence": (AgentSpec("FixedSequence", {"actions": [1, 0, 0]}), TS2),
    "GrimTrigger": (AgentSpec("GrimTrigger", {"coop_action": 1, "punish_action": 0}), TS2),
    "BestResponder": (AgentSpec("BestResponder"), TS2),
    "MW": (AgentSpec("MW", {}), TS2),
    "Protocol-k1": _protocol(TS2, 1),
    "Protocol-k2": _protocol(TS4, 2),
    "Protocol-k2-invalid-codewords": _protocol(TS3, 2),
    # Small eps1: the tripwire fires within the horizon, so fallback MW runs.
    "Protocol-k1-fallback": (AgentSpec("Protocol", {"eps1": 0.1, "k": 1}), TS2),
    "Flattened": (flatten_population(MIXED_POPULATION), TS2),
    # Imitates for two stages, then commits: the walks cross tilde_T.
    "IC": (_ic_specs(tilde_T=2), TS2),
}


TABLES = {id(ts): build_convention_table(ts) for ts in (TS2, TS3, TS4)}


def _build(name, seat, horizon):
    spec, ts = AGENTS[name]
    if isinstance(spec, dict):  # one spec per seat
        spec = spec[seat]
    return build_agent(
        spec, ts, horizon, seat=seat, own_type=ts.types[0], convention_table=TABLES[id(ts)]
    )


def _histories(n, T):
    for t in range(T + 1):
        yield from itertools.product(itertools.product(range(n), repeat=2), repeat=t)


@pytest.mark.parametrize("name", sorted(AGENTS))
@pytest.mark.parametrize("seat", ["row", "col"])
def test_tree_act_fn_matches_replay(name, seat):
    horizon = 4
    fn = tree_act_fn(_build(name, seat, horizon), seat)
    oracle = replay_act_fn(lambda: _build(name, seat, horizon), seat)
    histories = list(_histories(2, horizon))
    # Depth order, as the walker asks.
    for h in histories:
        assert fn(h) == oracle(h)
    assert len(fn.nodes) == len(histories)
    # Any other order is refused: a shallower history after a deeper one,
    # and a history whose parent was not asked.
    with pytest.raises(GameError, match="out of depth order"):
        fn(((0, 1),))
    fresh = tree_act_fn(_build(name, seat, horizon), seat)
    for h in [(), ((0, 0),), ((0, 1),)]:
        assert fresh(h) == oracle(h)
    with pytest.raises(GameError, match="before its parent"):
        fresh(((1, 0), (0, 0)))


@pytest.mark.parametrize("name", sorted(AGENTS))
@pytest.mark.parametrize("seat", ["row", "col"])
def test_tree_act_fn_answers_a_depth_asked_in_any_order(name, seat):
    horizon = 4
    fn = tree_act_fn(_build(name, seat, horizon), seat)
    oracle = replay_act_fn(lambda: _build(name, seat, horizon), seat)
    rng = random.Random(f"{name} {seat}")
    answers = []
    for depth in range(horizon + 1):
        level = list(itertools.product(itertools.product(range(2), repeat=2), repeat=depth))
        rng.shuffle(level)
        for h in level:
            answers.append(fn(h))
            assert answers[-1] == oracle(h), h
    assert fn.nodes == answers
    # The refusals hold in any order: half of depth 1 asked, a child of the
    # other half is refused, and then the asked half's children still answer.
    fresh = tree_act_fn(_build(name, seat, horizon), seat)
    level = list(itertools.product(range(2), repeat=2))
    rng.shuffle(level)
    for h in [()] + [(pair,) for pair in level[:2]]:
        assert fresh(h) == oracle(h)
    with pytest.raises(GameError, match="before its parent"):
        fresh((level[3], (1, 1)))
    for pair in level[:2]:
        for h in [(pair, (1, 0)), (pair, (0, 1))]:
            assert fresh(h) == oracle(h)
    with pytest.raises(GameError, match="out of depth order"):
        fresh((level[0],))
    with pytest.raises(GameError, match="out of depth order"):
        fresh((level[0], (1, 0), (0, 0), (1, 1)))


@pytest.mark.parametrize("name", sorted(AGENTS))
def test_clone_shares_no_state_with_its_parent(name):
    # A clone is a take of the parent's rows, here its one row twice.
    parent = _build(name, "row", 6)
    for own, opp in [(0, 1), (1, 1)]:
        _step(parent, own, opp)
    before = parent.act().tolist()
    child = parent.take(np.array([0, 0]))
    assert child.act().tolist() == before * 2
    for own, opp in [(1, 0), (0, 0), (1, 1), (0, 1)]:
        _step(child, [own, opp], [opp, own])
    assert parent.act().tolist() == before
    after = child.act().tolist()
    _step(parent, 0, 0)
    assert child.act().tolist() == after


def test_tree_act_fn_rejects_an_unknown_seat():
    with pytest.raises(GameError):
        tree_act_fn(_build("MW", "row", 4), "middle")

