"""The batched engine against the scalar reference: the same random streams,
the same sampled actions and phase transitions, the same regrets."""
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cooplab.agents import (
    AgentSpec,
    FixedMixedAgent,
    MWAgent,
    ProtocolAgent,
    build_agent,
    build_convention_table,
    default_eta,
)
from cooplab.engine import (
    FALLBACK,
    BatchAgent,
    BatchMW,
    EpisodeStreams,
    play_batch,
    sample_actions,
    stack_agents,
)
from cooplab.game_core import GameError
from cooplab.harness import (
    CONSISTENCY_ADVERSARIES,
    MW_ADVERSARIES,
    ExperimentConfig,
    fixture_type_space,
    run_experiment,
)
from cooplab.population import _sample_action, run_episode
from cooplab.regret import expected_external_regret

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
        if hasattr(self.agent, "phase"):
            self.phases.append(self.agent.phase.copy())
            kernel = self.agent.kernel
            self.accumulators.append((kernel.counterfactual.copy(), kernel.expected.copy()))


class FixedDraw:
    """A stand-in for random.Random whose next draw is fixed."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_streams_reproduce_random_random_across_twists():
    episode_seeds = [0, 1, 2**63 + 5, 987654321987654321]
    streams = EpisodeStreams(episode_seeds)
    # Chunks of odd sizes cross the 624-word regeneration several times.
    got = np.concatenate([streams.uniforms(c) for c in (1, 311, 64, 700, 2, 1500)])
    for e, seed in enumerate(episode_seeds):
        rng = random.Random(seed)
        rng.getrandbits(63)
        rng.getrandbits(63)
        assert got[:, e].tolist() == [rng.random() for _ in range(len(got))]


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
    # Rows need not sum to one: rows short of it exercise the rounding guard,
    # rows of zeros the all-skipped case.  A negative entry within
    # check_mixed's tolerance is skipped like a zero.
    n = max(len(row) for row in probs)
    matrix = np.array([row + [0.0] * (n - len(row)) for row in probs])
    got = sample_actions(matrix, np.full(len(matrix), u))
    assert got.tolist() == [_sample_action(row.tolist(), FixedDraw(u)) for row in matrix]


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
    row = Recorder(stack_agents(
        [build_agent(proto, TS4, T, "row", a, convention_table=CT4) for _, a, _ in episodes]
    ))
    col = Recorder(stack_agents(
        [build_agent(adv, TS4, T, "col", b, convention_table=CT4) for _, _, b in episodes]
    ))
    play_batch(row, col, T, EpisodeStreams([seed for seed, _, _ in episodes]))
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
            code = {"handshake": 0, "convention": 1, "fallback": FALLBACK}[agent.phase]
            assert row.phases[t][e] == code
            if agent.phase == "fallback" and first_fallback < 0:
                first_fallback = t + 1
        assert row.agent.fallback_stage[e] == first_fallback


def _mw_expected_regret(A, T, eta, adversary, rng):
    """The scalar mw-regret loop the batched experiment replaced, kept as its
    oracle: expected external regret of an MW learner against one opponent
    sequence; the adaptive adversaries react to the announced strategy."""
    n = len(A)
    logw = [0.0] * n
    cf = [0.0] * n
    cum_expected = 0.0
    random_actions = rng.integers(0, n, size=T) if adversary == "random" else None
    const_action = int(rng.integers(0, n)) if adversary == "constant" else 0
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
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6D77, n, r]))
        A = rng.random((n, n)).tolist()
        assert float(regret) == pytest.approx(
            _mw_expected_regret(A, T, eta, adversary, rng), abs=1e-9
        )


def test_batched_mw_matches_agent_state():
    rng = np.random.default_rng(2)
    matrices = rng.random((3, 3, 3))
    agents = [MWAgent(m, eta=0.3) for m in matrices]
    batch = stack_agents(agents)
    assert isinstance(batch, BatchMW)
    for opp in ([0, 2, 1], [2, 2, 0], [1, 0, 1], [1, 1, 2], [0, 0, 0]):
        for agent, j in zip(agents, opp):
            agent.observe(0, j)
        batch.observe(None, np.array(opp))
    assert np.allclose(batch.act(), [agent.act() for agent in agents], rtol=0, atol=1e-12)


def test_stack_agents_rejects_mixed_or_unbatched_kinds():
    with pytest.raises(GameError):
        stack_agents([])
    mixed = [MWAgent(np.eye(2), 0.1), FixedMixedAgent([0.5, 0.5])]
    with pytest.raises(GameError):
        stack_agents(mixed)
    flattened = build_agent(
        AgentSpec("Flattened", {"members": [{"kind": "UniformRandom"}], "weights": [1.0]}),
        TS4, 10, own_type=TS4.types[0],
    )
    with pytest.raises(GameError):
        stack_agents([flattened])
