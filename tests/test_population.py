import math
import random
from collections import Counter

import numpy as np
import pytest

from cooplab.game_core import GameError, GameFormatError, TypeSpace, history_distribution, total_variation
from cooplab.agents import AgentSpec, build_agent, build_convention_table, replay_act_fn, theorem26_params
from cooplab.population import (
    Dataset,
    Population,
    TypeDistribution,
    derive_episode_seed,
    flatten_population,
    generate_dataset,
    play_episode,
    read_dataset,
    run_episode,
    write_dataset,
)
from cooplab.harness import fixture_path


@pytest.fixture(scope="module")
def ts2():
    return TypeSpace.from_file(fixture_path("typespace_2.json"))


def simple_population():
    return Population(
        members=[
            AgentSpec("FixedMixed", {"probs": [0.7, 0.3]}),
            AgentSpec("UniformRandom", {}),
        ],
        weights=[0.6, 0.4],
    )


def test_population_validation():
    with pytest.raises(GameError):
        Population(members=[], weights=[])
    with pytest.raises(GameError):
        Population(members=[AgentSpec("UniformRandom", {})], weights=[0.5])
    for bad in ([math.nan], [math.inf]):
        with pytest.raises(GameError):
            Population(members=[AgentSpec("UniformRandom", {})], weights=bad)
    pop = simple_population()
    assert pop.content_hash() == Population.from_dict(pop.to_dict()).content_hash()


def test_type_distribution_validation(ts2):
    with pytest.raises(GameError):
        TypeDistribution(support=[("gamma", "gamma")], weights=[0.9])
    for bad in ([math.nan, math.nan], [math.inf, 0.0]):
        with pytest.raises(GameError):
            TypeDistribution(support=[("gamma", "gamma"), ("gamma", "delta")], weights=bad)
    mu = TypeDistribution.uniform(ts2)
    assert len(mu.support) == 4
    assert sum(mu.weights) == pytest.approx(1.0)
    bad = TypeDistribution(support=[("gamma", "zeta")], weights=[1.0])
    with pytest.raises(GameError):
        bad.validate_types(ts2)


def test_derive_episode_seed_is_stable_and_spread():
    seeds = [derive_episode_seed(42, j) for j in range(100)]
    assert seeds == [derive_episode_seed(42, j) for j in range(100)]
    assert len(set(seeds)) == 100
    assert derive_episode_seed(42, 0) != derive_episode_seed(43, 0)


def test_play_episode_records_strategies(ts2):
    a = build_agent(AgentSpec("FixedMixed", {"probs": [0.3, 0.7]}), ts2, 10)
    b = build_agent(AgentSpec("UniformRandom", {}), ts2, 10, seat="col")
    trace = play_episode(a, b, 10, random.Random(1), joint_type=("gamma", "delta"))
    assert trace.num_stages == 10
    assert all(np.allclose(s, [0.3, 0.7]) for s in trace.row_strategies)
    for (act_r, _), sigma in zip(trace.history, trace.row_strategies):
        assert sigma[act_r] > 0.0


def test_run_episode_reproducible(ts2):
    spec_a = AgentSpec("MW", {})
    spec_b = AgentSpec("UniformRandom", {})
    t1 = run_episode(spec_a, spec_b, ts2, ("gamma", "delta"), 50, seed=77)
    t2 = run_episode(spec_a, spec_b, ts2, ("gamma", "delta"), 50, seed=77)
    t3 = run_episode(spec_a, spec_b, ts2, ("gamma", "delta"), 50, seed=78)
    assert t1.history == t2.history
    assert t1.history != t3.history


def test_generate_dataset_reproducible_and_distributed(ts2):
    pop = simple_population()
    mu = TypeDistribution(
        support=[("gamma", "gamma"), ("gamma", "delta")], weights=[0.3, 0.7]
    )
    ds1 = generate_dataset(pop, mu, ts2, 300, 5, master_seed=9)
    ds2 = generate_dataset(pop, mu, ts2, 300, 5, master_seed=9)
    assert ds1.episodes == ds2.episodes
    counts = Counter((t1, t2) for t1, t2, _ in ds1.episodes)
    assert counts[("gamma", "delta")] > counts[("gamma", "gamma")]
    assert ds1.metadata["type_space_hash"] == ts2.content_hash()


def test_dataset_roundtrip_byte_identical(ts2, tmp_path):
    pop = simple_population()
    mu = TypeDistribution.uniform(ts2)
    ds = generate_dataset(pop, mu, ts2, 20, 7, master_seed=4)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(ds, p1)
    write_dataset(read_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    restored = read_dataset(p1)
    assert restored.episodes == ds.episodes
    assert restored.metadata["T"] == 7


def test_read_dataset_error_reporting(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text("")
    with pytest.raises(GameFormatError):
        read_dataset(p)
    p.write_text('{"version": 99}\n')
    with pytest.raises(GameFormatError, match="version"):
        read_dataset(p)
    p.write_text(
        '{"N": 2, "T": 2, "n": 1, "version": 1}\n'
        '{"theta1": "a", "theta2": "b", "actions": [0, 1]}\n'
    )
    with pytest.raises(GameFormatError, match="line 2"):
        read_dataset(p)
    p.write_text('{"N": 2, "T": 2, "n": 3, "version": 1}\n')
    with pytest.raises(GameFormatError, match="promises"):
        read_dataset(p)


def test_dataset_sampling_matches_weights_chi_square(ts2):
    # Member-pair draw frequencies should match the product weights; a loose
    # chi-square-style check guards the sampling plumbing.
    pop = simple_population()
    mu = TypeDistribution.uniform(ts2)
    n = 4000
    ds = generate_dataset(pop, mu, ts2, n, 1, master_seed=12)
    type_counts = Counter((t1, t2) for t1, t2, _ in ds.episodes)
    for joint in mu.support:
        freq = type_counts[joint] / n
        assert abs(freq - 0.25) < 0.03


def test_flattened_agent_matches_population_mixture(ts2):
    pop = Population(
        members=[
            AgentSpec("FixedSequence", {"actions": [0, 1]}),
            AgentSpec("FixedMixed", {"probs": [0.2, 0.8]}),
        ],
        weights=[0.5, 0.5],
    )
    horizon = 3
    probe = lambda h: [0.5, 0.5]

    def col_fn(spec):
        return replay_act_fn(
            lambda: build_agent(spec, ts2, horizon, seat="col", own_type="gamma"), "col"
        )

    mixture = {}
    for member, w in zip(pop.members, pop.weights):
        for h, pr in history_distribution(probe, col_fn(member), 2, horizon).items():
            mixture[h] = mixture.get(h, 0.0) + w * pr
    flat = history_distribution(probe, col_fn(flatten_population(pop)), 2, horizon)
    assert total_variation(mixture, flat) <= 1e-12


def test_flattened_agent_posterior_collapse(ts2):
    # After observing an action only one member could play, the flattened
    # agent behaves exactly like that member.
    pop = Population(
        members=[
            AgentSpec("FixedSequence", {"actions": [0, 0, 0]}),
            AgentSpec("FixedSequence", {"actions": [1, 1, 0]}),
        ],
        weights=[0.5, 0.5],
    )
    agent = build_agent(flatten_population(pop), ts2, 5, seat="row")
    assert agent.act() == pytest.approx([0.5, 0.5])
    agent.observe(1, 0)  # only the second member plays 1 first
    assert agent.act() == pytest.approx([0.0, 1.0])


def test_flattened_agent_unreachable_history_goes_uniform(ts2):
    pop = Population(
        members=[AgentSpec("FixedSequence", {"actions": [0]})], weights=[1.0]
    )
    agent = build_agent(flatten_population(pop), ts2, 5, seat="row")
    agent.observe(1, 0)  # impossible under every member
    assert agent.act() == pytest.approx([0.5, 0.5])


def test_protocol_population_dataset_has_handshake_prefix(ts2):
    params = theorem26_params(0.1, 20, 1, 2)
    pop = Population(
        members=[AgentSpec("Protocol", {"eps1": params.eps1, "k": 1})], weights=[1.0]
    )
    mu = TypeDistribution(support=[("gamma", "delta")], weights=[1.0])
    ds = generate_dataset(
        pop, mu, ts2, 10, 20, master_seed=2,
        convention_table=build_convention_table(ts2),
    )
    for _, _, history in ds.episodes:
        assert history[0] == (0, 1)  # gamma announces index 0, delta index 1
