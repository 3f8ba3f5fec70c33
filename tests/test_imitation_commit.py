import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cooplab.agents import AgentSpec, build_agents
from cooplab.game_core import GameError, TypeSpace
from cooplab.population import Dataset, Population
from cooplab.imitation_commit import (
    ImitateThenCommitAgent,
    ImitationPolicy,
    auth_failure_probability,
    bound_report,
    commitment_mixtures,
    delta_K,
    fit_imitation,
    partition_replies,
    theorem42_bound,
)
from cooplab.harness import fixture_path
from scalar_agents import (
    empirical_joint_n,
    episode_tuples,
    mixture_from_joint,
    policy_strategy,
    named_dataset,
    sample_component,
    tuple_dataset,
    type_codes,
)


def make_dataset(episodes, T, n=2, metadata=None):
    return tuple_dataset(episodes, T, n, metadata)


def test_fit_imitation_counts_frequencies():
    # Type "a" opens with 0 twice and 1 once: the empty-history strategy is
    # (2/3, 1/3).
    episodes = [
        ("a", "x", ((0, 0), (1, 1))),
        ("a", "x", ((0, 1), (0, 0))),
        ("a", "x", ((1, 0), (1, 1))),
    ]
    policy = fit_imitation(make_dataset(episodes, 2), tilde_T=2)
    assert policy_strategy(policy, "a", ()) == pytest.approx([2 / 3, 1 / 3])
    # Conditioned on the first stage having been (0, 0), type "a" played 1.
    assert policy_strategy(policy, "a", ((0, 0),)) == pytest.approx([0.0, 1.0])
    assert policy.counts[("a", ())].sum() == 3


def test_fit_imitation_unseen_keys_uniform_and_col_seat():
    episodes = [("a", "b", ((0, 1), (1, 0)))]
    policy = fit_imitation(make_dataset(episodes, 2), tilde_T=2, seat="col")
    # The column player (type "b") played 1 at the empty history.
    assert policy_strategy(policy, "b", ()) == pytest.approx([0.0, 1.0])
    assert policy_strategy(policy, "b", ((1, 1),)) == pytest.approx([0.5, 0.5])
    assert policy_strategy(policy, "never-seen", ()) == pytest.approx([0.5, 0.5])


def fit_by_prefix_loop(dataset, tilde_T, seat):
    """The counting loop fit_imitation ran on tuple histories before its trie
    walk, kept as its oracle: one numpy increment per stage, keyed by the
    whole prefix.  Returns the counts, a plain dict in order of first visit."""
    n = dataset.metadata["N"]
    counts = {}
    own = 0 if seat == "row" else 1
    for episode in episode_tuples(dataset):
        history = episode[2]
        for t in range(min(tilde_T, len(history))):
            key = (episode[own], history[:t])
            if key not in counts:
                counts[key] = np.zeros(n)
            counts[key][history[t][own]] += 1.0
    return counts


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=3),
    T=st.integers(min_value=0, max_value=8),
    seat=st.sampled_from(["row", "col"]),
)
def test_fit_imitation_matches_prefix_loop(data, n, T, seat):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    episodes = data.draw(st.lists(
        st.tuples(st.sampled_from("ab"), st.sampled_from("ab"),
                  st.lists(pair, min_size=T, max_size=T).map(tuple)),
        max_size=30,
    ))
    tilde_T = data.draw(st.integers(min_value=0, max_value=T))
    dataset = make_dataset(episodes, T, n)
    fitted = fit_imitation(dataset, tilde_T, seat=seat)
    got, expected = fitted.counts, fit_by_prefix_loop(dataset, tilde_T, seat)
    assert list(got) == list(expected)  # same keys, in the same order
    assert all(got[key].tolist() == expected[key].tolist() for key in expected)
    # The fitted trie: every key's path from its type's root reaches a node of
    # its own with the key's strategy, and every other pair leads to node 0.
    assert len(fitted.strategies) == len(expected) + 1
    assert fitted.strategies[0].tolist() == [1.0 / n] * n
    reached = set()
    for own_type, history in expected:
        node = fitted.roots[own_type]
        for a, b in history:
            node = fitted.children[node, a * n + b]
        c = expected[own_type, history]
        assert node != 0 and fitted.strategies[node].tolist() == (c / c.sum()).tolist()
        reached.add(node)
    assert reached == set(range(1, len(expected) + 1))
    assert set(fitted.roots) == {own_type for own_type, history in expected if not history}
    assert np.count_nonzero(fitted.children) == sum(1 for _, history in expected if history)
    assert fitted.children[0].tolist() == [0] * (n * n)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([2, 3]),
    T=st.integers(min_value=1, max_value=8),
    cut=st.integers(min_value=1, max_value=8),
    K=st.integers(min_value=0, max_value=60),
    seat=st.sampled_from(["row", "col"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=3, T=4, cut=2, K=0, seat="col", seed=0)
@example(n=2, T=6, cut=6, K=0, seat="row", seed=0)
# Three own types and 9**24 prefixes of 24 stages: 3 * 9**24 keys do not fit
# one int64, so the sort keys take two words.
@example(n=3, T=24, cut=24, K=60, seat="row", seed=1)
def test_array_fit_equals_the_tuple_oracle(n, T, cut, K, seat, seed):
    # Mostly action 0, so that episodes share long prefixes and the trie is deep.
    rng = np.random.default_rng(seed)
    actions = np.where(rng.random((K, T, 2)) < 0.7, 0, rng.integers(0, n, size=(K, T, 2)))
    types = [tuple(joint) for joint in rng.choice(["a", "b", "c"], size=(K, 2)).tolist()]
    dataset = named_dataset(actions.astype(np.uint8), types, {"version": 1, "T": T, "N": n, "n": K})
    tilde_T = min(cut, T)
    got = fit_imitation(dataset, tilde_T, seat=seat).counts
    expected = fit_by_prefix_loop(dataset, tilde_T, seat)
    # The same keys, in the same order, with the same counts.
    assert [(key, v.tolist()) for key, v in got.items()] == (
        [(key, v.tolist()) for key, v in expected.items()]
    )


def fit_random(seed):
    rng = np.random.default_rng(seed)
    dataset = Dataset(rng.integers(0, 2, size=(50, 6, 2)), [("a", "b")], np.zeros(50, np.intp),
                      {"version": 1, "T": 6, "N": 2, "n": 50})
    return fit_imitation(dataset, 4)


def test_imitation_policies_compare_by_content():
    first, again, other = fit_random(1), fit_random(1), fit_random(2)
    assert first is not again and first.counts is not again.counts
    assert first == again and not first != again
    assert first != other and not first == other
    assert (first == "policy") is False and (first == first.counts) is False


def three_types_dataset():
    rng = np.random.default_rng(7)
    return Dataset(rng.integers(0, 3, size=(40, 5, 2)), [("a", "b"), ("b", "a"), ("c", "c")],
                   rng.integers(0, 3, size=40), {"version": 1, "T": 5, "N": 3, "n": 40})


def test_content_hash_of_a_fixed_fit_is_pinned():
    # Digests taken when fit_imitation still built every key as it fit.
    assert fit_random(1).content_hash() == (
        "c6375fdfe23584e0b97a09298eb1bfbf324c4a043adc13cd88e1e77a0ef7f4c9")
    fits = {seat: fit_imitation(three_types_dataset(), 3, seat=seat) for seat in ("row", "col")}
    assert fits["row"].content_hash() == (
        "10bdbc477cfe60b9c0e069ed2e02b463b41a6bc1bd0728732ad7208bbc26b2ce")
    assert fits["col"].content_hash() == (
        "60704577e73b8f472121ce9bf638e157abe2fafe5d9e80352e666237c5a3df8e")
    assert [(seat, list(fit.roots.items()), len(fit.counts)) for seat, fit in fits.items()] == [
        ("row", [("b", 1), ("c", 4), ("a", 11)], 59), ("col", [("a", 1), ("c", 4), ("b", 11)], 59)]


@pytest.mark.parametrize("seat", ["row", "col"])
def test_fitted_policies_compare_by_their_derived_counts(seat):
    dataset = three_types_dataset()
    fitted, again = fit_imitation(dataset, 3, seat=seat), fit_imitation(dataset, 3, seat=seat)
    assert "counts" not in vars(fitted)  # no key is built by the fit
    assert fitted == again and again == fitted and not fitted != again
    assert fitted.content_hash() == again.content_hash()
    oracle = fit_by_prefix_loop(dataset, 3, seat)
    assert list(fitted.counts) == list(oracle)
    assert all(np.array_equal(fitted.counts[key], c) for key, c in oracle.items())
    # The counts are derived once and kept: a second read is the same object.
    assert fitted.counts is fitted.counts and "counts" in vars(fitted)
    assert {v.dtype for v in fitted.counts.values()} == {np.dtype(float)}
    # One more episode, a copy of the first: the same keys, some counts apart.
    longer = Dataset(np.concatenate([dataset.actions, dataset.actions[:1]]), dataset.joints,
                     np.append(dataset.codes, dataset.codes[0]), dict(dataset.metadata, n=41))
    other = fit_imitation(longer, 3, seat=seat)
    assert list(other.counts) == list(fitted.counts)
    assert fitted != other and other != fitted


def test_population_hash_of_an_ic_member_hashes_the_policy_content(monkeypatch):
    first, again, other = fit_random(1), fit_random(1), fit_random(2)
    assert first is not again and list(first.counts) != list(other.counts)

    def no_repr(policy):
        raise AssertionError("the policy's repr was built")

    monkeypatch.setattr(ImitationPolicy, "__repr__", no_repr)
    hashes = [Population([AgentSpec("IC", {"policy": p, "tilde_T": 4}), AgentSpec("MW")],
                         [0.5, 0.5]).content_hash() for p in (first, again, other)]
    assert hashes[0] == hashes[1] != hashes[2]


def test_fit_imitation_rejects_actions_outside_the_action_set():
    with pytest.raises(GameError):
        fit_imitation(make_dataset([("a", "b", ((0, 2),))], 1), tilde_T=1, seat="col")


def test_fit_imitation_rejects_long_cutoff():
    with pytest.raises(GameError):
        fit_imitation(make_dataset([("a", "b", ((0, 0),))], 1), tilde_T=5)


def test_fit_imitation_refuses_a_cutoff_past_the_stages_a_short_dataset_holds():
    # The header's horizon is 6, but only 3 stages were played and kept.
    episodes = [("a", "b", ((0, 1), (1, 1), (0, 0)))]
    short = make_dataset(episodes, 3, metadata={"version": 1, "T": 6, "N": 2, "n": 1})
    assert fit_imitation(short, 3) == fit_imitation(make_dataset(episodes, 3), 3)
    with pytest.raises(GameError, match="^tilde_T=4 exceeds the dataset's 3 stages$"):
        fit_imitation(short, 4)


def test_fit_imitation_rejects_an_unknown_seat_and_a_negative_cutoff():
    dataset = make_dataset([("a", "b", ((0, 1), (1, 0)))], 2)
    for seat in ("column", "Row", None):
        with pytest.raises(GameError, match="^seat must be 'row' or 'col', got "):
            fit_imitation(dataset, 2, seat=seat)
    for tilde_T in (-1, -2):
        with pytest.raises(GameError, match=f"^tilde_T must be >= 0, got {tilde_T}$"):
            fit_imitation(dataset, tilde_T)
    # No imitation at all stays a valid fit: only node 0, which plays uniformly.
    empty = fit_imitation(dataset, 0, seat="col")
    assert (empty.tilde_T, empty.seat, empty.counts, empty.roots) == (0, "col", {}, {})
    assert empty.strategies.tolist() == [[0.5, 0.5]]


def test_empirical_joint_frequencies():
    h = ((0, 1), (0, 1), (1, 0), (0, 1))
    z = empirical_joint_n(h, 4, 2)
    assert z[0, 1] == pytest.approx(0.75)
    assert z[1, 0] == pytest.approx(0.25)
    assert z.sum() == pytest.approx(1.0)
    assert empirical_joint_n(h, 2, 3).shape == (3, 3)
    with pytest.raises(GameError):
        empirical_joint_n(h, 5, 2)
    with pytest.raises(GameError):
        empirical_joint_n(h, 0, 2)


def test_mixture_from_joint_components():
    z = np.array([[0.3, 0.2], [0.1, 0.4]])
    mix = mixture_from_joint(z)
    assert len(mix.components) == 2
    x0, w0 = mix.components[0]
    x1, w1 = mix.components[1]
    assert w0 == pytest.approx(0.4) and w1 == pytest.approx(0.6)
    assert x0 == pytest.approx([0.75, 0.25])
    assert x1 == pytest.approx([1 / 3, 2 / 3])


def test_mixture_drops_empty_columns_and_renormalizes():
    z = np.array([[0.5, 0.0], [0.5, 0.0]])
    mix = mixture_from_joint(z)
    assert len(mix.components) == 1
    assert mix.components[0][1] == pytest.approx(1.0)
    with pytest.raises(GameError):
        mixture_from_joint(np.zeros((2, 2)) + 1e-15 * np.eye(2))
    conditionals, weights, _ = commitment_mixtures(np.stack([z, z.T]))
    assert weights.tolist() == [[1.0, 0.0], [0.5, 0.5]]
    assert conditionals[0].tolist() == [[0.5, 0.5], [0.0, 0.0]]
    with pytest.raises(GameError):
        commitment_mixtures(np.stack([z, 1e-15 * np.eye(2)]))


def test_mixture_sampling_distribution():
    z = np.array([[0.3, 0.2], [0.1, 0.4]])
    mix = mixture_from_joint(z)
    rng = random.Random(8)
    hits = sum(sample_component(mix, rng)[0] > 0.5 for _ in range(20000))
    # Component 0 (x = (0.75, 0.25)) has weight 0.4.
    assert abs(hits / 20000 - 0.4) < 0.02


def test_response_function_partition_grouping():
    # Columns 0 and 1 share the conditional (0.5, 0.5); the reply mixes them
    # proportionally to their marginals regardless of which is queried.
    z = np.array([[0.2, 0.1, 0.0], [0.2, 0.1, 0.0], [0.0, 0.0, 0.4]])
    y0, y1, y2 = mixture_from_joint(z).replies()
    assert y0 == pytest.approx([2 / 3, 1 / 3, 0.0])
    assert y1 == pytest.approx(y0)
    assert y2 == pytest.approx([0.0, 0.0, 1.0])
    replies = partition_replies(commitment_mixtures(z[None]))[0]
    assert np.array_equal(replies, [y0, y1, y2])


@st.composite
def joints_and_payoffs(draw):
    """A joint strategy of N = 2-5 actions whose columns may be empty or
    multiples of another column, and an arbitrary column payoff matrix."""
    n = draw(st.integers(2, 5))
    w = np.array(draw(st.lists(st.integers(0, 9), min_size=n * n, max_size=n * n)), float)
    w = w.reshape(n, n)
    for j in range(n):
        shape = draw(st.sampled_from(["drawn", "empty", "duplicate"]))
        if shape == "empty":
            w[:, j] = 0.0
        elif shape == "duplicate":
            w[:, j] = w[:, draw(st.integers(0, n - 1))] * draw(st.integers(1, 3))
    assume(w.sum() > 0)
    B = draw(st.lists(st.floats(-100, 100), min_size=n * n, max_size=n * n))
    return w / w.sum(), np.array(B).reshape(n, n)


def seeded_joints_and_payoffs():
    """The dense cases this test drew from a seeded generator before it took
    hypothesis inputs."""
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(50):
        n = int(rng.integers(2, 5))
        z = rng.random((n, n))
        z /= z.sum()
        cases.append((z, rng.random((n, n))))
    return cases


def with_examples(cases):
    """Run ``cases`` as explicit examples of a hypothesis test of ``case``."""
    def decorate(test):
        for case in cases:
            test = example(case=case)(test)
        return test
    return decorate


@with_examples(seeded_joints_and_payoffs())
@settings(max_examples=200, deadline=None)
@given(case=joints_and_payoffs())
def test_response_function_payoff_identity_random(case):
    z, B = case
    n = len(z)
    direct = sum(z[i, j] * B[j, i] for i in range(n) for j in range(n))
    mix = mixture_from_joint(z)
    via_mixture = sum(
        w * float(y @ B @ x) for (x, w), y in zip(mix.components, mix.replies(), strict=True)
    )
    assert via_mixture == pytest.approx(direct, abs=1e-9 * (1.0 + np.abs(B).max()))


def step(agent, own, opp):
    agent.observe(np.array([own]), np.array([opp]))


def test_ic_agent_imitates_then_commits():
    episodes = [("a", "x", ((0, 0), (0, 1), (1, 1)))] * 5
    policy = fit_imitation(make_dataset(episodes, 3), tilde_T=2)
    agent = ImitateThenCommitAgent(policy, tilde_T=2, T=6, own_type="a", seed=3)
    assert agent.act()[0] == pytest.approx([1.0, 0.0])
    step(agent, 0, 0)
    assert agent.act()[0] == pytest.approx([1.0, 0.0])
    step(agent, 0, 1)
    committed = agent.act()[0]
    assert sum(committed) == pytest.approx(1.0)
    step(agent, int(np.argmax(committed)), 0)
    assert agent.act()[0] == pytest.approx(committed)  # held for the rest


def test_ic_agent_col_seat_conditions_on_opponent():
    policy = fit_imitation(
        make_dataset([("a", "b", ((0, 1), (1, 0)))], 2), tilde_T=1, seat="col"
    )
    agent = ImitateThenCommitAgent(policy, 1, 4, own_type="b", seat="col", seed=0)
    assert agent.act()[0] == pytest.approx([0.0, 1.0])
    step(agent, 1, 0)  # own=1, opp=0, counted as (row=0, col=1)
    committed = agent.act()[0]
    # Empirical joint is a point mass on (0, 1); transposed for the column
    # seat, the only commitment component is a point mass on action 1.
    assert committed == pytest.approx([0.0, 1.0])


def test_ic_agent_seat_mismatch_and_horizon_checks():
    policy = fit_imitation(make_dataset([("a", "b", ((0, 0),))], 1), tilde_T=1)
    # tilde_T = T is behaviour cloning; a longer imitation, or none, is refused.
    assert ImitateThenCommitAgent(policy, 1, 1, own_type="a").tilde_T == 1
    for tilde_T in (0, 2):
        with pytest.raises(GameError):
            ImitateThenCommitAgent(policy, tilde_T, 1, own_type="a")
    with pytest.raises(GameError):
        ImitateThenCommitAgent(policy, 1, 4, own_type="a", seat="col")


def test_delta_K_closed_form():
    # 2^(2*(3+1)) * 2 * 9 * ln(1e5) / 1e5, below the trivial cap of tilde_T.
    assert delta_K(2, 3, 2, 100000) == pytest.approx(0.5305156054258281, abs=1e-12)
    assert delta_K(2, 3, 2, 10) == 3.0  # trivial cap binds
    assert delta_K(2, 3, 2, 0) == 3.0
    # Each refused argument is named with its value.
    for args, got in (((0, 3, 2, 10), "N=0"), ((2, 0, 2, 10), "tilde_T=0"),
                      ((2, 3, 0, 10), "theta_count=0"), ((2, 3, 2, -1), "K=-1"),
                      ((2, 0, 2, -5), "tilde_T=0, K=-5")):
        with pytest.raises(GameError, match=f"got {got}$"):
            delta_K(*args)


def test_delta_K_eventually_decreasing_in_K():
    values = [delta_K(2, 2, 2, K) for K in (10**3, 10**4, 10**5, 10**6)]
    assert values == sorted(values, reverse=True)


def test_theorem42_bound_closed_form():
    assert theorem42_bound(0.05, 0.1, 0.2, 100, 20) == pytest.approx(0.56, abs=1e-12)
    with pytest.raises(GameError):
        theorem42_bound(0.05, 0.1, 0.2, 10, 20)


def test_auth_failure_probability_values():
    p = auth_failure_probability(2, 2, 8)
    assert p.corrected == pytest.approx(0.375)
    assert p.as_printed == pytest.approx(0.125)
    assert auth_failure_probability(2, 3, 0).corrected == pytest.approx(0.875)
    assert auth_failure_probability(2, 2, 16).corrected == 0.0
    with pytest.raises(GameError):
        auth_failure_probability(2, 2, 17)


def test_auth_failure_probability_refuses_a_negative_k_and_fewer_than_one_action():
    # At k = -1 the product form would read -1; at N = 0 it divides by zero.
    assert auth_failure_probability(1, 0, 1).corrected == 0.0
    with pytest.raises(GameError, match="got k=-1, N=2"):
        auth_failure_probability(2, -1, 0)
    with pytest.raises(GameError, match="got k=2, N=0"):
        auth_failure_probability(0, 2, 0)


def test_bound_report_renders_all_quantities():
    report = bound_report(
        N=2, k=2, M=8, K=1000, tilde_T=10, T=100, theta_count=2, delta=0.05, eps=0.5
    )
    text = report.render()
    assert "delta(K)" in text and "auth failure" in text
    assert report.theorem42_bound == pytest.approx(
        2 * 0.05 + report.delta_K + (2 * 90 / 100 + 1) * 0.5
    )
    assert len(report.notes) == 3


@settings(max_examples=100, deadline=None)
@given(own_types=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30))
def test_batch_ic_roots_equal_the_per_episode_lookup(own_types):
    # The IC builder gathers each episode's root from one per type of the
    # type space; "c" is missing from the policy and starts at node 0.
    ts = TypeSpace(types=("a", "b", "c"), payoff_table={t: np.eye(2) for t in "abc"})
    episodes = [("a", "x", ((0, 0), (1, 1))), ("b", "x", ((1, 0), (0, 1)))]
    policy = fit_imitation(make_dataset(episodes, 2), tilde_T=2)
    policy.type_space_hash = ts.content_hash()
    agent = build_agents(AgentSpec("IC", {"policy": policy, "tilde_T": 2}), ts, 4, "row",
                         type_codes(ts, own_types), np.arange(len(own_types)))
    assert agent.node.tolist() == [policy.roots.get(t, 0) for t in own_types]
