"""The batched engine against the scalar reference agents of
``scalar_agents.py``: the same random streams, the same sampled actions and
phase transitions, the same regrets."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cooplab.agents import (
    AGENT_BUILDERS,
    AgentSpec,
    build_agent,
    build_agents,
    build_convention_table,
    build_seat,
    default_eta,
    theorem26_params,
    tree_act_fn,
)
from cooplab.engine import (
    BatchAdaptive,
    BatchAgent,
    BatchFixedMixed,
    BatchFixedSequence,
    BatchGroups,
    BatchMW,
    EpisodeStreams,
    GAMMA,
    RegretKernel,
    ScalarStream,
    _hedge,
    mix64,
    play_batch,
    sample_actions,
)
from cooplab.game_core import GameError
from cooplab.harness import (
    CONSISTENCY_ADVERSARIES,
    MW_ADVERSARIES,
    STREAM_TAGS,
    ExperimentConfig,
    fixture_type_space,
    run_experiment,
)
from cooplab.imitation_commit import BatchIC, commitment_draws, fit_imitation
from cooplab.population import (
    Population,
    TypeDistribution,
    _sample_action,
    derive_episode_seed,
    derive_episode_seeds,
    generate_dataset,
)
from cooplab import engine, population
from cooplab.regret import expected_external_regret
from scalar_agents import (
    PHASES,
    FixedMixedAgent,
    ImitateThenCommitAgent,
    MWAgent,
    ProtocolAgent,
    SplitMix64,
    batch_protocol_phases,
    build_scalar,
    categorical,
    type_codes,
    play_episode,
    policy_strategy,
    run_episode,
    tagged_stream,
    tuple_dataset,
)

TS4 = fixture_type_space("typespace_4.json")
CT4 = build_convention_table(TS4)

seeds = st.integers(min_value=0, max_value=2**64 - 1)


class Recorder(BatchAgent):
    """Passes calls through to a batch agent and keeps what it announced and
    observed, stage by stage."""

    def __init__(self, agent):
        self.agent = agent
        self.strategies, self.actions, self.phases, self.accumulators = [], [], [], []

    def act(self, partner=None):
        out = self.agent.act(partner)
        self.strategies.append(np.array(out))
        return out

    def observe(self, own, opp):
        self.agent.observe(own, opp)
        self.actions.append(np.array(own))
        if hasattr(self.agent, "fallback_stage"):
            self.phases.append(batch_protocol_phases(self.agent))
            kernel = self.agent.kernel
            self.accumulators.append((kernel.counterfactual.copy(), kernel.expected.copy()))


class FixedDraw:
    """A stand-in for a stream whose next draw is fixed."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def oracle_draws(seed: int, count: int) -> list[float]:
    """The first ``count`` stage uniforms of the oracle stream of ``seed``,
    after its two agent seeds."""
    rng = SplitMix64(seed)
    rng.getrandbits63()
    rng.getrandbits63()
    return [rng.random() for _ in range(count)]


def test_splitmix64_known_answers():
    # SplitMix64's reference outputs for seed 0: the key-0 stream's
    # first three draws, in the engine, the scalar stream and the oracle.
    known = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    oracle = SplitMix64(0)
    assert [oracle.next64() for _ in known] == known
    stream = ScalarStream(0)
    assert [stream.draw() for _ in known] == known
    assert [mix64((c + 1) * GAMMA & (2**64 - 1)) for c in range(3)] == known
    streams = EpisodeStreams([0])
    assert streams.agent_seeds[:, 0].tolist() == [known[0] >> 1, known[1] >> 1]
    assert streams.uniforms(1)[0, 0] == (known[2] >> 11) / 2**53


@settings(max_examples=40, deadline=None)
@given(
    episode_seeds=st.lists(seeds, min_size=1, max_size=6),
    counts=st.lists(st.integers(min_value=1, max_value=2 * engine.BLOCK + 3), min_size=1,
                    max_size=5),
)
@example(episode_seeds=[0, 2**64 - 1], counts=[2 * engine.BLOCK, 2 * engine.BLOCK + 1, 5])
def test_streams_match_the_splitmix64_oracle(episode_seeds, counts):
    # Chunks of any size, past the 2 * BLOCK uniforms play_batch draws at once.
    streams = EpisodeStreams(episode_seeds)
    for e, seed in enumerate(episode_seeds):
        oracle = SplitMix64(seed)
        assert streams.agent_seeds[:, e].tolist() == [oracle.getrandbits63(),
                                                      oracle.getrandbits63()]
    got = np.concatenate([streams.uniforms(c) for c in counts])
    for e, seed in enumerate(episode_seeds):
        assert got[:, e].tolist() == oracle_draws(seed, len(got))
        scalar = ScalarStream(seed)
        assert [scalar.draw() >> 1 for _ in range(2)] == streams.agent_seeds[:, e].tolist()
        assert [scalar.random() for _ in range(len(got))] == got[:, e].tolist()


def test_drawn_uniforms_are_never_overwritten_by_later_draws():
    episode_seeds = [11, 2**64 - 1, 2**32, 5]
    streams = EpisodeStreams(episode_seeds)
    # Equal counts in a row: a buffer reused by draws of one shape shows.
    kept = [streams.uniforms(c) for c in (3, 3, 300, 300, 17, 17, 400, 400)]
    got = np.concatenate(kept)
    for e, seed in enumerate(episode_seeds):
        assert got[:, e].tolist() == oracle_draws(seed, len(got))


@settings(max_examples=50, deadline=None)
@given(
    master=st.one_of(seeds, st.integers(min_value=2**64, max_value=2**130)),
    indices=st.lists(seeds, min_size=1, max_size=5),
)
def test_derive_episode_seeds_match_the_scalar_hash(master, indices):
    expected = [derive_episode_seed(master, i) for i in indices]
    assert derive_episode_seeds(master, indices).tolist() == expected
    # Episode i's key is mix64 of the master key plus i times GAMMA.
    key = population._master_key(master)
    assert expected == [mix64((key + i * GAMMA) % 2**64) for i in indices]


def test_derive_episode_seeds_keep_masters_apart():
    # Masters one word apart, and one and two words long, key different streams.
    masters = [0, 1, 2**64 - 1, 2**64, 2**64 + 1, 2**65]
    keys = [population._master_key(m) for m in masters]
    assert len(set(keys)) == len(keys)
    with pytest.raises(GameError):
        derive_episode_seeds(-1, [0])


def test_derive_episode_seed_rejects_indices_outside_64_bits():
    for index in (-1, 2**64):
        with pytest.raises(GameError):
            derive_episode_seed(1, index)


@settings(max_examples=200, deadline=None)
@given(
    probs=st.lists(
        st.lists(
            st.sampled_from([-1e-13, 0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0]), min_size=1, max_size=5
        ),
        min_size=1,
        max_size=6,
    ),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
@example(probs=[[-1e-13, 0.5, 0.5], [0.25, -1e-13, 0.25, 0.5]], u=0.5 - 5e-14)
def test_sample_actions_matches_scalar_sampler(probs, u):
    # Rows need not sum to one: rows short of it exercise the rounding guard.
    # A negative entry within check_mixed's tolerance is skipped like a zero.
    # A row with no positive entry is rejected, as the scalar loop's
    # EpisodeTrace rejects the action sampled from it.
    # A (stages, E) block of uniforms, as a held stretch passes, samples
    # every stage as the row of uniforms would.
    n = max(len(row) for row in probs)
    matrix = np.array([row + [0.0] * (n - len(row)) for row in probs])
    block = np.array([[u], [0.0], [1.0 - 2**-53], [0.5 - 5e-14]]) + np.zeros(len(matrix))
    if not (matrix > 0.0).any(axis=1).all():
        for draws in (np.full(len(matrix), u), block):
            with pytest.raises(GameError, match="no action of positive probability"):
                sample_actions(matrix, draws)
        return
    got = sample_actions(matrix, np.full(len(matrix), u))
    assert got.tolist() == [_sample_action(row.tolist(), FixedDraw(u)) for row in matrix]
    assert sample_actions(matrix, block).tolist() == [
        [_sample_action(row.tolist(), FixedDraw(draw)) for row in matrix] for draw in block[:, 0]]


@settings(max_examples=40, deadline=None)
@given(
    episodes=st.lists(
        st.tuples(seeds, st.sampled_from(TS4.types), st.sampled_from(TS4.types)),
        min_size=1,
        max_size=4,
    ),
    adversary=st.sampled_from(CONSISTENCY_ADVERSARIES),
    k=st.sampled_from([2, 3]),
    extra_stages=st.integers(min_value=1, max_value=57),
    eps1=st.floats(min_value=0.0, max_value=0.6),
)
def test_batched_protocol_matches_scalar_episodes(episodes, adversary, k, extra_stages, eps1):
    # k = 3 leaves half of the 8 codewords unused, so adversaries can send
    # invalid prefixes; a small eps1 makes the regret tripwire fire.
    T = k + extra_stages
    proto = AgentSpec("Protocol", {"eps1": eps1, "k": k})
    adv = AgentSpec(adversary)
    streams = EpisodeStreams([seed for seed, _, _ in episodes])
    row = Recorder(build_agents(proto, TS4, T, "row", type_codes(TS4, [a for _, a, _ in episodes]),
                                streams.agent_seeds[0], CT4))
    col = Recorder(build_agents(adv, TS4, T, "col", type_codes(TS4, [b for _, _, b in episodes]),
                                streams.agent_seeds[1], CT4))
    play_batch(row, col, T, streams)
    regrets = row.agent.kernel.regret()

    for e, (seed, a, b) in enumerate(episodes):
        trace = run_episode(proto, adv, TS4, (a, b), T, seed, convention_table=CT4)
        assert [(int(r[e]), int(c[e])) for r, c in zip(row.actions, col.actions)] == list(
            trace.history
        )
        for t in range(T):
            assert np.allclose(row.strategies[t][e], trace.row_strategies[t], rtol=0, atol=1e-12)
            assert np.allclose(col.strategies[t][e], trace.col_strategies[t], rtol=0, atol=1e-12)
        assert regrets[e] == pytest.approx(
            expected_external_regret(trace, TS4.game(a, b), "row"), abs=1e-9
        )

        # Replay the scalar agent on the history: same phase after every
        # stage, same tripwire accumulator, exactly, until it falls back.
        agent = ProtocolAgent(a, "row", TS4, CT4, k, T, eps1)
        first_fallback = -1
        for t, (i, j) in enumerate(trace.history):
            accruing = agent.phase != "fallback"
            agent.observe(i, j)
            if accruing:
                cf, expected = row.accumulators[t]
                assert cf[e].tolist() == agent.cum_counterfactual
                assert expected[e] == agent.cum_expected
            assert PHASES[row.phases[t][e]] == agent.phase
            if agent.phase == "fallback" and first_fallback < 0:
                first_fallback = t + 1
        assert row.agent.fallback_stage[e] == first_fallback


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=3),
    T=st.integers(min_value=2, max_value=12),
    K=st.integers(min_value=0, max_value=25),
    seat=st.sampled_from(["row", "col"]),
    episode_seeds=st.lists(seeds, min_size=1, max_size=5),
)
def test_batched_ic_matches_scalar_agent(data, n, T, K, seat, episode_seeds):
    # Few episodes over three types, of which "c" never occurs: the agents
    # meet unseen prefixes and unseen types, and K = 0 gives an empty policy.
    # tilde_T = T is plain behaviour cloning.
    tilde_T = data.draw(st.integers(min_value=1, max_value=T))
    actions = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    episodes = data.draw(st.lists(
        st.tuples(st.sampled_from("ab"), st.sampled_from("ab"),
                  st.lists(actions, min_size=T, max_size=T).map(tuple)),
        min_size=K, max_size=K,
    ))
    dataset = tuple_dataset(episodes, T, n)
    policy = fit_imitation(dataset, tilde_T, seat=seat)
    own_types = data.draw(st.lists(st.sampled_from("abc"), min_size=len(episode_seeds),
                                   max_size=len(episode_seeds)))
    weights = data.draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    partner_probs = [w / sum(weights) for w in weights]

    streams = EpisodeStreams(episode_seeds)
    ic_seeds = streams.agent_seeds[0 if seat == "row" else 1]
    draws = commitment_draws(ic_seeds)
    roots = [policy.roots.get(t, 0) for t in own_types]
    ic = Recorder(BatchIC(policy, tilde_T, T, roots, seat, draws))
    partner = BatchFixedMixed([partner_probs] * len(episode_seeds))
    row, col = (ic, partner) if seat == "row" else (partner, ic)
    record = play_batch(row, col, T, streams, record=True)

    for e, seed in enumerate(episode_seeds):
        rng = SplitMix64(seed)
        agent_seeds = (rng.getrandbits63(), rng.getrandbits63())
        agent = ImitateThenCommitAgent(policy, tilde_T, T, own_types[e], seat,
                                       seed=agent_seeds[0 if seat == "row" else 1])
        scalar_row, scalar_col = (
            (agent, FixedMixedAgent(partner_probs)) if seat == "row"
            else (FixedMixedAgent(partner_probs), agent)
        )
        trace = play_episode(scalar_row, scalar_col, T, rng)
        assert record[:, :, e].tolist() == [list(pair) for pair in trace.history]
        announced = trace.row_strategies if seat == "row" else trace.col_strategies
        for t in range(T):
            assert ic.strategies[t][e].tolist() == announced[t].tolist()
        if tilde_T == T:
            assert ic.agent.commitment is None and agent.commitment is None
        else:
            assert ic.agent.commitment[e].tolist() == agent.commitment.tolist()


def test_batched_ic_rejects_the_horizons_the_scalar_agent_rejects():
    policy = fit_imitation(tuple_dataset([], 4, 2), 2)
    for tilde_T, T in ((0, 4), (5, 4)):
        with pytest.raises(GameError):
            BatchIC(policy, tilde_T, T, [0], "row", [0.5])
    with pytest.raises(GameError):
        ImitateThenCommitAgent(policy, 5, 4, "a")
    with pytest.raises(GameError):
        BatchIC(policy, 2, 4, [0], "col", [0.5])


def test_batched_ic_with_tilde_T_equal_to_T_imitates_to_the_end():
    # Behaviour cloning: every stage plays the policy at its trie node, and
    # no commitment is ever drawn.
    T = 4
    episodes = [("a", "a", ((0, 1), (1, 1), (1, 0), (0, 0))),
                ("a", "a", ((1, 1), (0, 1), (0, 0), (1, 0)))]
    policy = fit_imitation(tuple_dataset(episodes, T, 2), T)
    ic = Recorder(BatchIC(policy, T, T, [policy.roots["a"]] * 2, "row", [0.5, 0.5]))
    partner = BatchFixedSequence([[1, 1, 0, 0], [1, 1, 0, 0]], 2)
    record = play_batch(ic, partner, T, EpisodeStreams([1, 2]), record=True)
    assert ic.agent.commitment is None
    for e in range(2):
        history = tuple(map(tuple, record[:, :, e].tolist()))
        for t in range(T):
            expected = policy_strategy(policy, "a", history[:t])
            assert ic.strategies[t][e].tolist() == expected.tolist()


def _mw_expected_regret(A, T, eta, adversary, rng):
    """The scalar mw-regret loop the batched experiment replaced, kept as its
    oracle: expected external regret of an MW learner against one opponent
    sequence; the adaptive adversaries react to the announced strategy."""
    n = len(A)
    logw = [0.0] * n
    cf = [0.0] * n
    cum_expected = 0.0
    uniform = [1.0 / n] * n
    random_actions = [categorical(uniform, rng) for _ in range(T * (adversary == "random"))]
    const_action = categorical(uniform, rng) if adversary == "constant" else 0
    for t in range(T):
        m = max(logw)
        w = [math.exp(x - m) for x in logw]
        s = sum(w)
        sigma = [x / s for x in w]
        if adversary == "adaptive-min":
            j = min(
                range(n),
                key=lambda jj: sum(sigma[a] * A[a][jj] for a in range(n)),
            )
        elif adversary == "adaptive-regret":
            j = max(
                range(n),
                key=lambda jj: max(A[a][jj] for a in range(n))
                - sum(sigma[a] * A[a][jj] for a in range(n)),
            )
        elif adversary == "random":
            j = int(random_actions[t])
        elif adversary == "constant":
            j = const_action
        else:  # alternating
            j = t % n
        exp_pay = 0.0
        for a in range(n):
            g = A[a][j]
            cf[a] += g
            exp_pay += sigma[a] * g
            logw[a] += eta * g
        cum_expected += exp_pay
    return max(cf) - cum_expected


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=2, max_value=5),
    T=st.integers(min_value=3, max_value=60),
    episodes=st.integers(min_value=1, max_value=12),
)
def test_batched_mw_regret_matches_scalar_loop(seed, n, T, episodes):
    _, artifacts = run_experiment(
        ExperimentConfig(kind="mw-regret", episodes=episodes, horizon=T, num_actions=n, seed=seed)
    )
    rows = [line.split(",") for line in artifacts[f"mw_regret_N{n}.csv"].splitlines()[1:]]
    assert len(rows) == episodes
    eta = default_eta(n, T)
    for r, (run, adversary, regret, _) in enumerate(rows):
        assert (int(run), adversary) == (r, MW_ADVERSARIES[r % len(MW_ADVERSARIES)])
        rng = tagged_stream(seed, STREAM_TAGS["mw-regret runs"], r)
        A = [[rng.random() for _ in range(n)] for _ in range(n)]
        assert float(regret) == pytest.approx(
            _mw_expected_regret(A, T, eta, adversary, rng), abs=1e-9
        )


def test_batched_mw_matches_agent_state():
    rng = np.random.default_rng(2)
    matrices = rng.random((3, 3, 3))
    agents = [MWAgent(m, eta=0.3) for m in matrices]
    batch = BatchMW(matrices, 0.3)
    for opp in ([0, 2, 1], [2, 2, 0], [1, 0, 1], [1, 1, 2], [0, 0, 0]):
        for agent, j in zip(agents, opp):
            agent.observe(0, j)
        batch.act()  # announced first, as in play
        batch.observe(None, np.array(opp))
    assert np.allclose(batch.act(), [agent.act() for agent in agents], rtol=0, atol=1e-12)


class Announces(BatchAgent):
    def __init__(self, announced):
        self.announced = np.asarray(announced)

    def act(self, partner=None):
        return self.announced


@pytest.mark.parametrize("seat", ["row", "col"])
def test_play_batch_rejects_a_strategy_with_no_positive_entry(seat):
    # Episode 1 of the given seat announces no action with positive
    # probability: the scalar loop's EpisodeTrace rejects such an episode.
    good = Announces([[0.5, 0.5], [0.5, 0.5]])
    bad = Announces([[0.5, 0.5], [0.0, -1e-13]])
    row, col = (bad, good) if seat == "row" else (good, bad)
    with pytest.raises(GameError, match="no action of positive probability"):
        play_batch(row, col, 3, EpisodeStreams([5, 2**40]))


@pytest.mark.parametrize("col", [
    Announces([[0.0, 1.0], [1.0, 0.0]]),         # (E, N) strategies
    Announces(np.eye(2, dtype=np.intp)),         # (E, N) one-hot integers
    BatchFixedSequence([[0, 1], [1, 0]], 2),     # a spec-built agent's strategies
    Announces([1, 0, 1]),                        # an action too many
    Announces([1]),                              # an action too few
    Announces([1.0, 0.0]),                       # actions of a float dtype
])
def test_play_batch_without_streams_needs_the_column_seats_integer_actions(col):
    with pytest.raises(GameError, match="integer actions"):
        play_batch(BatchMW(np.ones((2, 2, 2)), 0.3), col, 3)


def test_flattened_seat_matches_scalar_episodes():
    # Flattened row seats against a FixedSequence column seat play as the
    # scalar agents do: the same actions and, over members that use no exp,
    # bit for bit the same announced strategies (MW's exp may differ from
    # math.exp in the last bit).
    learners = AgentSpec("Flattened", {"members": [{"kind": "MW"}, {"kind": "UniformRandom"}],
                                       "weights": [0.4, 0.6]})
    zoo = AgentSpec("Flattened", {
        "members": [{"kind": "FixedSequence", "params": {"actions": [0, 1]}},
                    {"kind": "FixedMixed", "params": {"probs": [0.3, 0.7]}},
                    {"kind": "GrimTrigger"}, {"kind": "BestResponder"},
                    {"kind": "Protocol", "params": {"eps1": 0.5, "k": 2}}],
        "weights": [0.1, 0.3, 0.2, 0.15, 0.25],
    })
    fixed = AgentSpec("FixedSequence", {"actions": [1, 0, 0]})
    T, episodes = 15, [(3, "alpha", "beta"), (2**40, "beta", "beta"), (77, "gamma", "alpha")]
    for flattened, atol in ((learners, 1e-12), (zoo, 0.0)):
        streams = EpisodeStreams([seed for seed, _, _ in episodes])
        seats = [
            Recorder(build_agents(spec, TS4, T, seat,
                                  type_codes(TS4, [episode[1 + s] for episode in episodes]),
                                  streams.agent_seeds[s], CT4))
            for s, (spec, seat) in enumerate(((flattened, "row"), (fixed, "col")))
        ]
        record = play_batch(*seats, T, streams, record=True)
        for e, (seed, a, b) in enumerate(episodes):
            trace = run_episode(flattened, fixed, TS4, (a, b), T, seed, convention_table=CT4)
            assert record[:, :, e].tolist() == [list(pair) for pair in trace.history]
            for t in range(T):
                assert np.allclose(seats[0].strategies[t][e], trace.row_strategies[t], rtol=0,
                                   atol=atol)
                assert seats[1].strategies[t][e].tolist() == list(trace.col_strategies[t])


# One spec per kind that a BatchGroups part may be built from.
GROUP_SPECS = {
    "Protocol": AgentSpec("Protocol", {"eps1": 0.05, "k": 2}),
    "GrimTrigger": AgentSpec("GrimTrigger"),
    "BestResponder": AgentSpec("BestResponder"),
    "MW": AgentSpec("MW"),
    "FixedMixed": AgentSpec("FixedMixed", {"probs": [0.3, 0.7]}),
}


def _draw_partition(data, E):
    """1-4 nonempty parts of range(E), as lists of episodes, drawn at random."""
    parts = data.draw(st.integers(min_value=1, max_value=min(4, E)))
    extra = data.draw(st.lists(st.integers(0, parts - 1), min_size=E - parts, max_size=E - parts))
    labels = data.draw(st.permutations(list(range(parts)) + extra))
    return [[e for e in range(E) if labels[e] == i] for i in range(parts)]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    episodes=st.lists(
        st.tuples(seeds, st.sampled_from(TS4.types), st.sampled_from(TS4.types)),
        min_size=1,
        max_size=9,
    ),
    grouped_seat=st.sampled_from(["row", "col"]),
    T=st.integers(min_value=1, max_value=40),
)
def test_batch_groups_play_as_one_batch_per_part(data, episodes, grouped_seat, T):
    # Parts of mixed kinds on one seat, one kind on the other: the actions,
    # the announced strategies of both seats and the row seat's regret equal,
    # bit for bit, one play_batch per part on that part's streams.
    index = _draw_partition(data, len(episodes))
    kinds = data.draw(st.lists(st.sampled_from(sorted(GROUP_SPECS)), min_size=len(index),
                               max_size=len(index)))
    other_kind = data.draw(st.sampled_from(sorted(GROUP_SPECS)))
    other_seat = "col" if grouped_seat == "row" else "row"
    seed_list = [seed for seed, _, _ in episodes]

    def stack(kind, seat, ids):
        own_types = [episodes[e][1 if seat == "row" else 2] for e in ids]
        return build_agents(GROUP_SPECS[kind], TS4, T, seat, type_codes(TS4, own_types),
                            [0] * len(ids), CT4)

    def kernel(ids):
        return RegretKernel([TS4.payoff_table[episodes[e][1]] for e in ids])

    def seated(own, other):
        return (own, other) if grouped_seat == "row" else (other, own)

    def row_regret(row, record, ids):
        """The row seat's expected external regret of its announced
        strategies against the recorded column actions."""
        regret = kernel(ids)
        for t in range(T):
            regret.update(row.strategies[t], record[t, 1])
        return regret.regret()

    grouped = Recorder(BatchGroups(
        [(ids, stack(kind, grouped_seat, ids)) for ids, kind in zip(index, kinds)], TS4.num_actions
    ))
    other = Recorder(stack(other_kind, other_seat, range(len(episodes))))
    record = play_batch(*seated(grouped, other), T, EpisodeStreams(seed_list), record=True)
    regret = row_regret(seated(grouped, other)[0], record, range(len(episodes)))

    for ids, kind in zip(index, kinds):
        part = Recorder(stack(kind, grouped_seat, ids))
        partner = Recorder(stack(other_kind, other_seat, ids))
        part_record = play_batch(*seated(part, partner), T,
                                 EpisodeStreams([seed_list[e] for e in ids]), record=True)
        assert np.array_equal(record[:, :, ids], part_record)
        for t in range(T):
            assert np.array_equal(grouped.strategies[t][ids], part.strategies[t])
            assert np.array_equal(other.strategies[t][ids], partner.strategies[t])
        assert np.array_equal(regret[ids], row_regret(seated(part, partner)[0], part_record, ids))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=4),
    E=st.integers(min_value=1, max_value=10),
    T=st.integers(min_value=1, max_value=30),
    grouped_seat=st.sampled_from(["row", "col"]),
    matrix_seed=st.integers(min_value=0, max_value=2**32),
)
def test_batch_groups_without_streams_as_in_mw_regret(data, n, E, T, grouped_seat, matrix_seed):
    # No streams: the row seat's action is None, which each part receives as
    # None.  Grouped row seat: MW learners of several rates against one
    # adaptive adversary.  Column seat: one MW learner against one adversary
    # agent of adaptive and scripted parts, which plays as each part alone;
    # its strategy-aware rows come first, so the episodes are relabelled in
    # that order.
    rng = np.random.default_rng(matrix_seed)
    A = rng.random((E, n, n))
    scripts = rng.integers(0, n, size=(E, data.draw(st.integers(1, 5))))
    index = _draw_partition(data, E)
    kinds = data.draw(st.lists(st.sampled_from(BatchAdaptive.KINDS + ("script",)),
                               min_size=len(index), max_size=len(index)))
    etas = data.draw(st.lists(st.floats(0.01, 2.0), min_size=len(index), max_size=len(index)))
    adaptive = data.draw(st.sampled_from(BatchAdaptive.KINDS))

    def pair(i, ids):
        if grouped_seat == "row":
            return BatchMW(A[ids], etas[i]), BatchAdaptive(adaptive, A[ids])
        adversary = (BatchAdaptive((), A[:0], scripts[ids]) if kinds[i] == "script"
                     else BatchAdaptive(kinds[i], A[ids]))
        return BatchMW(A[ids], 0.3), adversary

    if grouped_seat == "row":
        parts = [(ids, pair(i, ids)[0]) for i, ids in enumerate(index)]
        row, col = Recorder(BatchGroups(parts, n)), Recorder(BatchAdaptive(adaptive, A))
    else:
        aware = [kind != "script" for kind in kinds]
        order = np.concatenate([ids for _, ids in sorted(zip(aware, index), key=lambda p: not p[0])])
        A, scripts = A[order], scripts[order]
        index = [np.argsort(order)[ids] for ids in index]
        strategy_aware = sum(len(ids) for ids, a in zip(index, aware) if a)
        row_kinds = np.empty(strategy_aware, dtype=object)
        for ids, kind, a in zip(index, kinds, aware):
            if a:
                row_kinds[ids] = kind
        row = Recorder(BatchMW(A, 0.3))
        col = Recorder(BatchAdaptive(row_kinds, A[:strategy_aware], scripts[strategy_aware:]))
    assert play_batch(row, col, T) is None
    # The MW learners' own regret kernels, by episode.
    regret = np.empty(E)
    for ids, learner in parts if grouped_seat == "row" else [(range(E), row.agent)]:
        regret[ids] = learner.kernel.regret()

    for i, ids in enumerate(index):
        part_row, part_col = map(Recorder, pair(i, ids))
        play_batch(part_row, part_col, T)
        for t in range(T):
            assert np.array_equal(row.strategies[t][ids], part_row.strategies[t])
            assert np.array_equal(col.strategies[t][ids], part_col.strategies[t])
        assert np.array_equal(regret[ids], part_row.agent.kernel.regret())

    # One adaptive adversary with a kind per row plays as each row's kind
    # alone, as the scalar loop picks: the first column of least value for
    # adaptive-min, of most regret for adaptive-regret.  Small integer
    # payoffs make ties common.
    if data.draw(st.booleans()):
        A = rng.integers(0, 3, size=(E, n, n)).astype(float)
    row_kinds = data.draw(st.lists(st.sampled_from(BatchAdaptive.KINDS), min_size=E, max_size=E))
    learner, adversary = Recorder(BatchMW(A, 0.3)), Recorder(BatchAdaptive(row_kinds, A))
    play_batch(learner, adversary, T)
    for e, kind in enumerate(row_kinds):
        alone = Recorder(BatchAdaptive(kind, A[e : e + 1]))
        play_batch(BatchMW(A[e : e + 1], 0.3), alone, T)
        best = A[e].max(axis=0)
        for t in range(T):
            sigma = learner.strategies[t][e].tolist()
            value = [sum(sigma[a] * A[e, a, j] for a in range(n)) for j in range(n)]
            pick = (min(range(n), key=value.__getitem__) if kind == "adaptive-min"
                    else max(range(n), key=lambda j: best[j] - value[j]))
            assert adversary.strategies[t][e] == pick
            assert np.array_equal(alone.strategies[t][0], adversary.strategies[t][e])


def test_adversary_take_plays_on_as_its_rows():
    # Two strategy-aware rows, then two scripted ones; taken after 3 stages,
    # with repeats, the rows play on as in the whole batch, the scripts
    # still cycling.
    rng = np.random.default_rng(4)
    A = rng.random((4, 3, 3))
    adversary = BatchAdaptive(["adaptive-min", "adaptive-regret"], A[:2], [[0, 2], [1, 1]])
    learner = BatchMW(A, 0.5)
    play_batch(learner, adversary, 3)
    idx = [1, 1, 0, 3, 2, 3]
    part_learner, part = learner.take(idx), adversary.take(idx)
    for _ in range(4):
        q = adversary.act(learner.act())
        assert part.act(part_learner.act()).tolist() == q[idx].tolist()
        learner.observe(None, q)
        adversary.observe(q, None)
        part_learner.observe(None, q[idx])
        part.observe(q[idx], None)
    with pytest.raises(GameError, match="scripted rows must follow"):
        adversary.take([0, 2, 1])


def _halves(widths=(2, 2)):
    return [BatchFixedMixed(np.full((2, w), 1.0 / w)) for w in widths]


@pytest.mark.parametrize("indices", [
    [],                           # no part
    [[0, 1], [1, 2]],             # overlap
    [[0, 1], [3, 4]],             # gap
    [[0, 1], []],                 # empty part
    [[-1, 0], [1, 2]],            # an index below 0
    [[1, 2]],                     # one part that misses episode 0
])
def test_batch_groups_reject_indices_that_do_not_partition_the_episodes(indices):
    with pytest.raises(GameError, match="partition"):
        BatchGroups(list(zip(indices, _halves() + _halves())), 2)


def test_batch_groups_reject_a_part_of_another_width():
    groups = BatchGroups(list(zip([[0, 2], [1, 3]], _halves((2, 3)))), 2)
    with pytest.raises(GameError, match="width 2"):
        groups.act()
    # Adversaries that announce actions are parts of no width.
    groups = BatchGroups([([0], BatchAdaptive("adaptive-min", np.ones((1, 2, 2)))),
                          ([1], BatchAdaptive((), np.ones((0, 2, 2)), [[1]]))], 2)
    with pytest.raises(GameError, match="width 2"):
        groups.act(np.full((2, 2), 0.5))


def test_batch_groups_return_a_single_whole_part_unwrapped():
    part = _halves()[0]
    assert BatchGroups([(np.arange(2), part)], 2) is part


def _ic_spec(seat):
    """An IC spec whose policy is fit for ``seat`` on protocol self-play."""
    pop = Population([AgentSpec("Protocol", {"eps1": 0.2})], [1.0])
    dataset = generate_dataset(pop, TypeDistribution.uniform(TS4), TS4, 40, 12, master_seed=1,
                               convention_table=CT4)
    return AgentSpec("IC", {"policy": fit_imitation(dataset, 4, seat), "tilde_T": 4})


# One spec per registered kind (IC's per seat).  A kind registered later
# fails the conformance test until it is given a spec here.
KIND_SPECS = {
    "MW": AgentSpec("MW"),
    # The tripwire fires mid-episode in some of the test's episodes.
    "Protocol": AgentSpec("Protocol", {"eps1": 0.15, "k": 2}),
    "FixedMixed": AgentSpec("FixedMixed", {"probs": [0.3, 0.7]}),
    "FixedSequence": AgentSpec("FixedSequence", {"actions": [0, 1, 1]}),
    "GrimTrigger": AgentSpec("GrimTrigger"),
    "UniformRandom": AgentSpec("UniformRandom"),
    "BestResponder": AgentSpec("BestResponder"),
    "Flattened": AgentSpec("Flattened", {
        "members": [{"kind": "MW"}, {"kind": "Protocol", "params": {"eps1": 0.15, "k": 2}},
                    {"kind": "FixedSequence", "params": {"actions": [1, 0]}}],
        "weights": [0.3, 0.5, 0.2],
    }),
    "IC": _ic_spec,
}


@pytest.mark.parametrize("seat", ["row", "col"])
@pytest.mark.parametrize("kind", sorted(AGENT_BUILDERS))
def test_every_kind_plays_alone_as_in_a_seat(kind, seat):
    # Seven episodes of one kind on one seat, in two build_seat parts, against
    # uniform play.  Each episode played alone (build_agent + play_episode,
    # inside run_episode) has the same actions and, bit for bit, the same
    # announced strategies; and rows taken from the seat after a stage's act,
    # some of them twice, observe that stage and go on as their episodes do
    # alone, as the exact tree walk steps them.
    assert kind in KIND_SPECS, f"give the agent kind {kind!r} a spec in KIND_SPECS"
    spec = KIND_SPECS[kind](seat) if callable(KIND_SPECS[kind]) else KIND_SPECS[kind]
    partner = AgentSpec("UniformRandom")
    T, mine = 20, 0 if seat == "row" else 1
    seeds = [11, 2**40 + 3, 7, 2**63 + 1, 0, 99, 12345]
    joints = [(TS4.types[e % 4], TS4.types[(3 * e + 1) % 4]) for e in range(len(seeds))]
    own_types = type_codes(TS4, [joint[mine] for joint in joints])

    def seat_agent(agent_seeds):
        return build_seat([spec, spec], [0, 1, 1, 0, 1, 1, 0], TS4, T, seat, own_types,
                          agent_seeds, CT4)

    streams = EpisodeStreams(seeds)
    agent = Recorder(seat_agent(streams.agent_seeds[mine]))
    other = build_agents(partner, TS4, T, ("col", "row")[mine],
                         type_codes(TS4, [j[1 - mine] for j in joints]),
                         streams.agent_seeds[1 - mine], CT4)
    record = play_batch(*((agent, other) if seat == "row" else (other, agent)), T, streams,
                        record=True)
    alone = []
    for e, (seed, joint) in enumerate(zip(seeds, joints)):
        specs = (spec, partner) if seat == "row" else (partner, spec)
        trace = population.run_episode(*specs, TS4, joint, T, seed, convention_table=CT4)
        assert record[:, :, e].tolist() == [list(pair) for pair in trace.history]
        alone.append(trace.row_strategies if seat == "row" else trace.col_strategies)
        for t in range(T):
            assert agent.strategies[t][e].tolist() == alone[e][t].tolist()

    own, opp = record[:, mine].astype(np.intp), record[:, 1 - mine].astype(np.intp)
    idx = np.array([5, 0, 6, 3, 0, 6, 2])
    if kind == "Protocol":
        # The takes carry the MW state of fallen rows: taken rows fall back at
        # stages 4 and 10 (row seat) or at 8 (column seat), and row 0 (row
        # seat) or row 6 (column seat), taken twice, has fallen back by the
        # last take, at stage 11.
        fell = np.full(len(seeds), -1)
        for index, part in agent.agent.parts:
            fell[index] = part.fallback_stage
        assert sorted(set(fell[idx].tolist()) - {-1}) == ([4, 10] if seat == "row" else [8])
        assert 0 <= fell[0 if seat == "row" else 6] <= 11
    for stage in (0, 4, 11):  # the take comes after the stage's act
        full = seat_agent(EpisodeStreams(seeds).agent_seeds[mine])
        for t in range(stage):
            full.act()
            full.observe(own[t], opp[t])
        full.act()
        part = full.take(idx)
        for t in range(stage, T):
            if t > stage:
                got = part.act()
                for row, e in enumerate(idx):
                    assert got[row].tolist() == alone[e][t].tolist()
            part.observe(own[t, idx], opp[t, idx])


def test_fallen_protocol_rows_play_hedge_of_the_sums_since_their_fall():
    # A fallen row announces Hedge of eta times its counterfactual sums less
    # those at the stage it fell, both read from the sums recorded after
    # every stage.  So do the rows of a take after stage 8's act, in which
    # row 4 (fell at 7) and row 3 (falls at 10) are taken twice.
    T, seeds = 40, [11, 2**40 + 3, 7, 2**63 + 1, 0, 99, 12345, 5]
    E = len(seeds)
    own_types = np.arange(E) % 4
    opp_types = (3 * np.arange(E) + 1) % 4

    def seats():
        streams = EpisodeStreams(seeds)
        row = build_agents(AgentSpec("Protocol", {"eps1": 0.1, "k": 2}), TS4, T, "row",
                           own_types, streams.agent_seeds[0], CT4)
        col = build_agents(AgentSpec("UniformRandom"), TS4, T, "col", opp_types,
                           streams.agent_seeds[1], CT4)
        return row, col, streams

    row, col, streams = seats()
    row = Recorder(row)
    record = play_batch(row, col, T, streams, record=True)
    fell = row.agent.fallback_stage
    assert fell.tolist() == [3, -1, -1, 10, 7, -1, -1, 11]
    # sums[t]: the counterfactual sums when stage t acts.
    sums = [np.zeros((E, TS4.num_actions))] + [cf for cf, _ in row.accumulators]
    eta = row.agent.eta

    def assert_hedge_since_fall(strategies, episodes, t):
        for r, e in enumerate(episodes):
            if 0 <= fell[e] <= t:
                want = _hedge(eta * (sums[t][e] - sums[fell[e]][e])[None])[0]
                assert strategies[r].tolist() == want.tolist()

    for t in range(T):
        assert_hedge_since_fall(row.strategies[t], range(E), t)

    idx = np.array([4, 3, 0, 4, 7, 1, 3])
    full, _, _ = seats()
    own, opp = record[:, 0].astype(np.intp), record[:, 1].astype(np.intp)
    for t in range(8):
        full.act()
        full.observe(own[t], opp[t])
    full.act()
    part = full.take(idx)
    assert part.fallen.tolist() == [0, 2, 3]  # episodes 4, 0, 4
    for t in range(8, T):
        if t > 8:
            assert_hedge_since_fall(part.act(), idx, t)
        part.observe(own[t, idx], opp[t, idx])
    assert part.fallback_stage.tolist() == fell[idx].tolist()


# ---------------------------------------------------------------------------
# Held stretches: the stages that both seats hold, stepped as one


class Stretches(BatchAgent):
    """Passes calls through to a batch agent, holding as it holds, and keeps
    the length of every stretch it observes."""

    def __init__(self, agent):
        self.agent, self.lengths = agent, []

    def act(self, partner=None):
        return self.agent.act(partner)

    def held(self, stages):
        return self.agent.held(stages)

    def observe(self, own, opp):
        self.lengths.append(1)
        self.agent.observe(own, opp)

    def observe_block(self, own, opp):
        self.lengths.append(len(own))
        self.agent.observe_block(own, opp)


def scalar_episode(specs, ts, joint, T, seed):
    """One episode of the scalar agents of ``specs`` (row, col) on the
    stream of ``seed``: its trace and both agents after play."""
    rng = SplitMix64(seed)
    agent_seeds = rng.getrandbits63(), rng.getrandbits63()
    agents = [build_scalar(spec, ts, T, seat, own, agent_seed, CT4)
              for spec, seat, own, agent_seed in zip(specs, ("row", "col"), joint, agent_seeds)]
    return play_episode(*agents, T, rng), agents


def replayed_protocol(spec, joint, seat, T, history) -> ProtocolAgent:
    """The scalar protocol agent of ``seat`` after observing ``history``."""
    agent = build_scalar(spec, TS4, T, seat, joint[seat == "col"], 0, CT4)
    for a, b in history:
        agent.observe(*((a, b) if seat == "row" else (b, a)))
    return agent


def assert_protocol_rows_match(batch, agents, histories, seat):
    """Every row of the batch protocol agent against its scalar agent after
    the same stages: the fallback stage and, bit for bit, the kernel's
    counterfactual sums over every stage (added up in stage order) and, for
    a row that never fell, the scalar agent's sums (it stops accruing when
    it falls)."""
    kernel = batch.kernel
    for e, (agent, history) in enumerate(zip(agents, histories)):
        assert batch.fallback_stage[e] == agent.fallback_stage
        sums = [0.0] * agent.n
        for pair in history:
            for a in range(agent.n):
                sums[a] += agent.matrix[a][pair[seat == "row"]]
        assert kernel.counterfactual[e].tolist() == sums
        if agent.fallback_stage < 0:
            assert kernel.counterfactual[e].tolist() == agent.cum_counterfactual
            assert kernel.expected[e] == agent.cum_expected


def test_held_protocols_play_as_the_scalar_agents():
    # Both seats protocol agents on typespace_4 (k = 2), every joint type
    # four times.  At eps1 = 0.3 and T = 12 the tripwire threshold is 2.14:
    # after the handshake the bound clears the checks of stages 2-4, so the
    # first window ends at stage 5, and rows of both seats trip at that
    # check and fall back at stage 6.  The take after stage 3 comes inside
    # that window, while its stages are kept out of the kernel.
    T, k = 12, 2
    spec = AgentSpec("Protocol", {"eps1": 0.3, "k": k})
    joints = [(a, b) for a in TS4.types for b in TS4.types] * 4
    seeds = derive_episode_seeds(7, np.arange(len(joints)))
    streams = EpisodeStreams(seeds)
    seats = [Stretches(build_agents(spec, TS4, T, seat, type_codes(TS4, [j[s] for j in joints]),
                                    streams.agent_seeds[s], CT4))
             for s, seat in enumerate(("row", "col"))]
    first = play_batch(*seats, k + 2, streams, record=True)
    assert [seat.agent._check_at for seat in seats] == [5, 5]
    assert all(seat.agent._kept for seat in seats)
    idx = np.array([5, 0, 63, 5, 17, 40])
    taken = [seat.agent.take(idx) for seat in seats]
    record = np.concatenate((first, play_batch(*seats, T - k - 2, streams, record=True)))
    assert [max(seat.lengths) for seat in seats] == [2, 2]

    episodes = [scalar_episode((spec, spec), TS4, joint, T, int(seed))
                for joint, seed in zip(joints, seeds)]
    for e, (trace, _) in enumerate(episodes):
        assert record[:, :, e].tolist() == [list(pair) for pair in trace.history]
    for s, (seat, part) in enumerate(zip(("row", "col"), taken)):
        assert_protocol_rows_match(seats[s].agent, [agents[s] for _, agents in episodes],
                                   [trace.history for trace, _ in episodes], seat)
        assert (seats[s].agent.fallback_stage == 6).any()
        histories = [episodes[e][0].history[: k + 2] for e in idx]
        assert_protocol_rows_match(
            part, [replayed_protocol(spec, joints[e], seat, T, h) for e, h in zip(idx, histories)],
            histories, seat)


@pytest.mark.parametrize("E, eps1", [(2000, None), (20_000, 0.15)])
def test_protocol_self_play_keeps_its_tripwire_within_the_byte_budget(monkeypatch, E, eps1):
    # ic-eval's dataset chunk: protocol self-play on typespace_2 at T = 40,
    # k = 1 and the eps1 of delta = 0.1.  Its bound clears the whole horizon
    # after the handshake, so the kernels add nothing until they are read.
    # At E = 20 000 and eps1 = 0.15 the byte budget cuts the window to 26
    # stages, and rows of both seats fall back.  Either way the kept actions
    # stay within the budget, and the records, fallback stages and kernel
    # sums are bit for bit those of per-stage stepping (a window of one).
    T, k = 40, 1
    ts = fixture_type_space("typespace_2.json")
    spec = AgentSpec("Protocol", {"eps1": eps1 or theorem26_params(0.1, T, k, 2).eps1, "k": k})
    codes = np.array([[0, 0], [0, 1], [1, 1]])[np.arange(E) % 3]
    seeds = derive_episode_seeds(3, np.arange(E))
    budget, kept, updates = engine.ROW_BLOCK_CELLS * 8, [], []
    update, observe_block = RegretKernel.update, engine.BatchProtocol.observe_block

    def counted(self, sigma, opp):
        updates.append(len(opp))
        update(self, sigma, opp)

    def measured(self, own, opp):
        observe_block(self, own, opp)
        kept.append(sum(block.nbytes for block in self._kept))

    monkeypatch.setattr(RegretKernel, "update", counted)
    monkeypatch.setattr(engine.BatchProtocol, "observe_block", measured)

    def play():
        streams = EpisodeStreams(seeds)
        seats = [build_agents(spec, ts, T, seat, codes[:, s], streams.agent_seeds[s],
                              build_convention_table(ts))
                 for s, seat in enumerate(("row", "col"))]
        return play_batch(*seats, T, streams, record=True), seats

    record, seats = play()
    assert len(updates) == 2 if E == 2000 else len(updates) > 2  # 2: the handshake stage
    assert 0 < max(kept) <= budget
    fell = [seat.fallback_stage for seat in seats]
    assert all((f >= 0).any() for f in fell) == (E > 2000)
    monkeypatch.setattr(engine, "ROW_BLOCK_CELLS", 0)  # every stage checked
    expected, stepped = play()
    assert np.array_equal(record, expected)
    for seat, other in zip(seats, stepped):
        assert np.array_equal(seat.fallback_stage, other.fallback_stage)
        for name in ("counterfactual", "expected"):
            assert getattr(seat.kernel, name).tobytes() == getattr(other.kernel, name).tobytes()


def _protocol_dataset_policy(T, tilde_T):
    pop = Population(members=[AgentSpec("Protocol", {"eps1": 0.3, "k": 2})], weights=[1.0])
    dataset = generate_dataset(pop, TypeDistribution.uniform(TS4), TS4, 60, T, master_seed=3,
                               convention_table=CT4)
    return fit_imitation(dataset, tilde_T, seat="row")


@pytest.mark.parametrize("partner", ["IC", "FixedMixed"])
@pytest.mark.parametrize("eps1", [0.3, 0.8])
def test_held_partners_of_protocol_agents_play_as_the_scalar_agents(partner, eps1):
    # A row seat that holds, IC from tilde_T = 3 on or FixedMixed from the
    # start, against protocol agents (k = 2) of the column seat: at
    # eps1 = 0.3 some of them fall back, at 0.8 none do, and both seats
    # hold the stretches the protocol agents' windows allow.
    T, tilde_T = 12, 3
    row_spec = (AgentSpec("IC", {"policy": _protocol_dataset_policy(T, tilde_T),
                                 "tilde_T": tilde_T})
                if partner == "IC" else AgentSpec("FixedMixed", {"probs": [0.3, 0.7]}))
    col_spec = AgentSpec("Protocol", {"eps1": eps1, "k": 2})
    joints = [(a, b) for a in TS4.types for b in TS4.types] * 2
    seeds = derive_episode_seeds(11, np.arange(len(joints)))
    streams = EpisodeStreams(seeds)
    row, col = (Stretches(build_agents(spec, TS4, T, seat, type_codes(TS4, [j[s] for j in joints]),
                                       streams.agent_seeds[s], CT4))
                for s, (seat, spec) in enumerate((("row", row_spec), ("col", col_spec))))
    record = play_batch(row, col, T, streams, record=True)
    assert max(col.lengths) > 1

    episodes = [scalar_episode((row_spec, col_spec), TS4, joint, T, int(seed))
                for joint, seed in zip(joints, seeds)]
    for e, (trace, _) in enumerate(episodes):
        assert record[:, :, e].tolist() == [list(pair) for pair in trace.history]
    assert_protocol_rows_match(col.agent, [agents[1] for _, agents in episodes],
                               [trace.history for trace, _ in episodes], "col")
    assert (col.agent.fallback_stage >= 0).any() == (eps1 == 0.3)


def test_tree_act_fn_over_a_held_protocol_matches_the_scalar_agent():
    # The tree walk steps the agent a depth at a time, with a take at every
    # depth.  At eps1 = 0.3 and T = 8 (threshold 1.36) the bound clears the
    # check of stage 2, the first after the handshake (k = 2), and some
    # histories trip at the check of stage 3 and fall back at stage 4, inside
    # the horizon of 5.
    T, horizon = 8, 5
    spec = AgentSpec("Protocol", {"eps1": 0.3, "k": 2})
    joint = ("alpha", "alpha")
    fn = tree_act_fn(build_agent(spec, TS4, T, "row", joint[0], 0, CT4), "row")
    fell = set()
    for t in range(horizon + 1):
        for h in itertools.product(itertools.product(range(2), repeat=2), repeat=t):
            agent = replayed_protocol(spec, joint, "row", T, h)
            fell.add(agent.fallback_stage)
            if agent.fallback_stage < 0:
                assert fn(h) == agent.act()
            else:
                assert fn(h) == pytest.approx(agent.act(), rel=0, abs=1e-12)
    assert fell == {-1, 4}
