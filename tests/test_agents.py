import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cooplab
from cooplab import agents
from cooplab.game_core import GameError, GameFormatError, TypeSpace
from cooplab.agents import (
    AgentSpec,
    ConventionTable,
    build_agent,
    build_agents,
    build_convention_table,
    build_seat,
    default_eta,
    default_handshake_length,
    handshake_encode,
    protocol_threshold,
    theorem26_params,
)
from cooplab.engine import BatchBestResponder, BatchMW, _hedge
from cooplab.harness import fixture_path
from scalar_agents import PHASES, batch_protocol_phases, handshake_decode, handshake_prefix_valid

HANDSHAKE, CONVENTION, FALLBACK = range(len(PHASES))


def step(agent, own, opp):
    """One observed stage of a one-episode batch agent."""
    agent.observe(np.array([own]), np.array([opp]))


def strategy(agent) -> list[float]:
    """The strategy a one-episode batch agent announces."""
    return agent.act()[0].tolist()


@pytest.fixture(scope="module")
def ts2():
    return TypeSpace.from_file(fixture_path("typespace_2.json"))


@pytest.fixture(scope="module")
def ts4():
    return TypeSpace.from_file(fixture_path("typespace_4.json"))


def test_default_eta_frozen_values():
    assert default_eta(2, 1000) == pytest.approx(0.07446594822118069, abs=1e-12)
    assert default_eta(5, 200) == pytest.approx(0.2537272482359039, abs=1e-12)
    with pytest.raises(GameError):
        default_eta(1, 100)
    # The literal sqrt(8 ln(N/T)) form is only defined for N > T.
    with pytest.raises(GameError):
        default_eta(2, 1000, form="as-printed")
    assert default_eta(100, 2, form="as-printed") == pytest.approx(
        math.sqrt(8 * math.log(50.0))
    )


def test_mw_agent_single_step():
    # Identity payoffs, opponent plays 0, eta=1: weights become (e, 1).
    agent = BatchMW(np.eye(2)[None], 1.0)
    assert strategy(agent) == [0.5, 0.5]
    step(agent, 1, 0)
    new = strategy(agent)
    e = math.e
    assert new[0] == pytest.approx(e / (e + 1), abs=1e-12)
    assert new[1] == pytest.approx(1 / (e + 1), abs=1e-12)
    with pytest.raises(GameError):
        BatchMW(np.eye(2)[None], -0.5)


def test_mw_agent_plays_hedge_of_its_kernel_sums():
    # At every stage the strategy is Hedge of eta times the kernel's
    # counterfactual sums, and those sums are the payoff rows against the
    # opponent's actions, added up stage by stage.
    rng = np.random.default_rng(4)
    A = rng.random((3, 3, 3))
    eta = np.array([0.1, 0.7, 2.0])
    agent = BatchMW(A, eta)
    sums = np.zeros((3, 3))
    for opp in rng.integers(0, 3, size=(50, 3)):
        assert agent.act().tolist() == _hedge(eta[:, None] * agent.kernel.counterfactual).tolist()
        agent.observe(None, opp)
        sums += A[np.arange(3), :, opp]
        assert agent.kernel.counterfactual.tolist() == sums.tolist()


def test_mw_agent_long_horizon_no_overflow():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    agent = BatchMW(A[None], eta=5.0)
    for _ in range(20000):
        agent.act()  # announced first, as in play
        step(agent, 0, 0)
    probs = strategy(agent)
    assert probs[0] == pytest.approx(1.0)
    assert all(math.isfinite(p) for p in probs)


def test_handshake_code_roundtrip():
    for N in (2, 3):
        for k in (1, 2, 3):
            for idx in range(N**k):
                digits = handshake_encode(idx, k, N)
                assert len(digits) == k
                assert handshake_decode(digits, N**k, N) == idx
    assert handshake_encode(5, 3, 2) == [1, 0, 1]
    assert handshake_decode([1, 1], 3, 2) is None  # index 3 outside 3 types
    assert handshake_decode([2, 0], 4, 2) is None  # digit out of range
    with pytest.raises(GameError):
        handshake_encode(4, 2, 2)


def test_handshake_prefix_validity():
    # 3 types, N=2, k=2: codes are 00, 01, 10; prefix 1 is still extendable,
    # prefix 11 is not.
    assert handshake_prefix_valid([1], 2, 3, 2)
    assert not handshake_prefix_valid([1, 1], 2, 3, 2)
    assert handshake_prefix_valid([0], 2, 3, 2)


def test_default_handshake_length():
    assert default_handshake_length(1, 2) == 0
    assert default_handshake_length(2, 2) == 1
    assert default_handshake_length(4, 2) == 2
    assert default_handshake_length(5, 2) == 3
    assert default_handshake_length(9, 3) == 2


def test_theorem26_params_frozen_values():
    p = theorem26_params(0.1, 1000, 2, 2)
    assert p.eps0 == pytest.approx(0.07748207205598052, abs=1e-12)
    assert p.eps1 == pytest.approx(0.09711920757770041, abs=1e-12)
    assert p.eps == pytest.approx(33.99387364519354, abs=1e-9)
    with pytest.raises(GameError):
        theorem26_params(0.1, 2, 2, 2)


def test_theorem26_params_refuse_a_negative_k_and_fewer_than_one_action():
    assert theorem26_params(0.1, 10, 0, 1).eps0 > 0.0  # k = 0 and N = 1 are allowed
    with pytest.raises(GameError, match="got k=-1, N=2"):
        theorem26_params(0.1, 1000, -1, 2)
    for N in (0, -2):
        with pytest.raises(GameError, match=f"got k=2, N={N}"):
            theorem26_params(0.1, 1000, 2, N)


def test_protocol_threshold_frozen_value():
    p = theorem26_params(0.1, 1000, 2, 2)
    assert protocol_threshold(2, 1000, p.eps1, 2) == pytest.approx(
        79.32710791186855, abs=1e-9
    )
    with pytest.raises(GameError):
        protocol_threshold(5, 5, 0.1, 2)


def test_convention_table_entries_are_pareto_optimal_nash(ts2, ts4):
    for ts in (ts2, ts4):
        table = build_convention_table(ts)
        table.validate(ts)  # raises on any non-PONE entry
        assert set(table.table) == set(ts.joint_types())


def test_convention_table_cross_game_values(ts2):
    table = build_convention_table(ts2)
    prof = table.profile(("gamma", "delta"))
    assert prof.sigma_row[0] == pytest.approx(0.95, abs=1e-9)
    assert prof.sigma_col[0] == pytest.approx(0.2, abs=1e-9)
    prof_dd = table.profile(("delta", "delta"))
    assert (prof_dd.value_row, prof_dd.value_col) == (
        pytest.approx(0.6),
        pytest.approx(0.6),
    )


def test_convention_table_roundtrip(ts2):
    table = build_convention_table(ts2)
    restored = type(table).from_dict(table.to_dict(), ts2)
    for joint in ts2.joint_types():
        assert np.allclose(
            restored.profile(joint).sigma_row, table.profile(joint).sigma_row
        )


def test_grim_trigger_and_fixed_sequence(ts2):
    grim = build_agent(AgentSpec("GrimTrigger", {"coop_action": 0, "punish_action": 1}), ts2, 5)
    assert strategy(grim) == [1.0, 0.0]
    step(grim, 0, 0)
    assert strategy(grim) == [1.0, 0.0]
    step(grim, 0, 1)
    assert strategy(grim) == [0.0, 1.0]
    step(grim, 0, 0)  # punishment is permanent
    assert strategy(grim) == [0.0, 1.0]

    seq = build_agent(AgentSpec("FixedSequence", {"actions": [0, 1, 1]}), ts2, 5)
    played = []
    for _ in range(5):
        played.append(strategy(seq).index(1.0))
        step(seq, played[-1], 0)
    assert played == [0, 1, 1, 0, 1]


def test_best_responder_tracks_frequencies():
    A = np.array([[2.0, 0.0], [0.0, 1.0]])
    agent = BatchBestResponder(A[None])
    assert strategy(agent) == [0.5, 0.5]
    step(agent, 0, 1)
    step(agent, 0, 1)
    step(agent, 0, 0)
    # Opponent frequency (1/3, 2/3): action 1 pays 2/3 vs 2/3 for action 0;
    # ties break toward the lower index.
    assert strategy(agent) == [1.0, 0.0]
    step(agent, 0, 1)
    assert strategy(agent) == [0.0, 1.0]


def make_protocol(ts, own_type, seat, T=50, k=None, delta=0.1, table=None):
    k = k if k is not None else default_handshake_length(len(ts.types), ts.num_actions)
    params = theorem26_params(delta, T, k, ts.num_actions)
    spec = AgentSpec("Protocol", {"eps1": params.eps1, "k": k})
    return build_agent(spec, ts, T, seat, own_type,
                       convention_table=table or build_convention_table(ts))


def sample(probs, rng):
    r = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if r < acc:
            return i
    return len(probs) - 1


def test_protocol_selfplay_handshake_then_convention(ts2):
    table = build_convention_table(ts2)
    ar = make_protocol(ts2, "gamma", "row", T=30, table=table)
    ac = make_protocol(ts2, "delta", "col", T=30, table=table)
    rng = random.Random(5)
    history = []
    for _ in range(30):
        a = sample(strategy(ar), rng)
        b = sample(strategy(ac), rng)
        history.append((a, b))
        step(ar, a, b)
        step(ac, b, a)
    # k=1: stage 0 transmits the type indices (gamma=0, delta=1).
    assert history[0] == (0, 1)
    assert ar.opp_prefix.tolist() == [1] and ac.opp_prefix.tolist() == [0]
    assert batch_protocol_phases(ar).tolist() == [CONVENTION]
    assert batch_protocol_phases(ac).tolist() == [CONVENTION]
    assert strategy(ar)[0] == pytest.approx(0.95)
    assert strategy(ac)[0] == pytest.approx(0.2)


def test_protocol_invalid_handshake_triggers_fallback(ts4):
    # 4 types need k=2; an opponent digit stream decoding past the type count
    # is impossible here, but an always-defect opponent in a 3-type space is.
    ts3 = TypeSpace(
        types=("a", "b", "c"),
        payoff_table={t: ts4.payoff_table[old] for t, old in zip("abc", ts4.types)},
    )
    agent = make_protocol(ts3, "a", "row", T=40)
    strategy(agent)
    step(agent, agent.own_code[0, 0], 1)
    # prefix (1,) can still complete to (1, 0)
    assert batch_protocol_phases(agent).tolist() == [HANDSHAKE]
    strategy(agent)
    step(agent, agent.own_code[0, 1], 1)  # prefix (1, 1) -> index 3, invalid
    assert batch_protocol_phases(agent).tolist() == [FALLBACK]
    assert sum(strategy(agent)) == pytest.approx(1.0)


def test_protocol_phase_monotonicity(ts4):
    rng = random.Random(9)
    for trial in range(20):
        agent = make_protocol(ts4, ts4.types[trial % 4], "row", T=60)
        phases = [int(batch_protocol_phases(agent)[0])]
        for _ in range(60):
            a = sample(strategy(agent), rng)
            step(agent, a, rng.randrange(2))
            phases.append(int(batch_protocol_phases(agent)[0]))
        assert phases == sorted(phases)  # HANDSHAKE < CONVENTION < FALLBACK


def test_protocol_accumulator_uses_announced_strategies(ts2):
    agent = make_protocol(ts2, "gamma", "row", T=30)
    A = ts2.payoff_table["gamma"]
    strategy(agent)
    step(agent, agent.own_code[0, 0], 1)
    expected = float(A[agent.own_code[0, 0], 1])
    assert agent.kernel.regret()[0] == pytest.approx(float(A[:, 1].max()) - expected)


def test_protocol_k0_single_type():
    ts1 = TypeSpace(types=("only",), payoff_table={"only": np.array([[2.0, 0.0], [0.0, 1.0]])})
    agent = build_agent(AgentSpec("Protocol", {"eps1": 0.2, "k": 0}), ts1, 20, "row", "only")
    assert batch_protocol_phases(agent).tolist() == [CONVENTION]
    assert strategy(agent)[0] == pytest.approx(1.0)


def test_build_agent_determinism_and_spec_roundtrip(ts2):
    spec = AgentSpec("Protocol", {"eps1": 0.1, "k": 1})
    restored = AgentSpec.from_dict(spec.to_dict())
    assert restored == spec
    table = build_convention_table(ts2)
    rng1, rng2 = random.Random(3), random.Random(3)
    a1 = build_agent(spec, ts2, 40, own_type="gamma", convention_table=table)
    a2 = build_agent(spec, ts2, 40, own_type="gamma", convention_table=table)
    for _ in range(40):
        s1, s2 = strategy(a1), strategy(a2)
        assert s1 == s2
        act = sample(s1, rng1)
        opp = rng1.randrange(2)
        rng2.random()  # keep streams aligned
        rng2.randrange(2)
        step(a1, act, opp)
        step(a2, act, opp)


def test_build_agent_unknown_kind_and_missing_type(ts2):
    with pytest.raises(GameError):
        build_agent(AgentSpec("Telepath", {}), ts2, 10)
    with pytest.raises(GameError):
        build_agent(AgentSpec("MW", {}), ts2, 10)  # no own type anywhere
    # An own type outside the type space, whatever the kind.
    for kind in ("MW", "UniformRandom"):
        with pytest.raises(GameError, match="not in the type space"):
            build_agent(AgentSpec(kind), ts2, 10, own_type="zeta")
    # A FixedMixed strategy of another action count than the type space's.
    for probs in ([1.0], [0.2, 0.3, 0.5]):
        with pytest.raises(GameError, match="expected 2"):
            build_agent(AgentSpec("FixedMixed", {"probs": probs}), ts2, 10)
    # A convention table is a ConventionTable or, as a population file holds
    # it, its dict, which is validated.
    table = build_convention_table(ts2)
    for given in (table, table.to_dict()):
        spec = AgentSpec("Protocol", {"eps1": 0.1, "convention_table": given})
        assert strategy(build_agent(spec, ts2, 10, "row", "gamma")) == [1.0, 0.0]
    for bad in ([1, 2], "table"):
        spec = AgentSpec("Protocol", {"eps1": 0.1, "convention_table": bad})
        with pytest.raises(GameError, match="ConventionTable"):
            build_agent(spec, ts2, 10, "row", "gamma")
    swapped = table.to_dict()
    swapped["gamma|delta"] = dict(swapped["gamma|delta"], sigma_row=[0.0, 1.0])
    with pytest.raises(GameError, match="Pareto-optimal"):
        build_agent(AgentSpec("Protocol", {"eps1": 0.1, "convention_table": swapped}), ts2, 10,
                    "row", "gamma")


def test_convention_table_rejects_a_key_that_is_not_two_types(ts2):
    data = build_convention_table(ts2).to_dict()
    key, entry = next(iter(data.items()))
    a, b = ts2.types[:2]
    for bad in (a, f"{a}|{b}|{a}"):
        with pytest.raises(GameFormatError, match="joined by"):
            ConventionTable.from_dict({**data, bad: entry}, ts2)
    # Malformed tables and entries, as a file may hold them.
    for bad_entry in ([0.5, 0.5], {"sigma_row": entry["sigma_row"]}, None):
        with pytest.raises(GameFormatError, match="sigma_col"):
            ConventionTable.from_dict({**data, key: bad_entry}, ts2)
    with pytest.raises(GameFormatError, match="is a dict"):
        ConventionTable.from_dict([entry], ts2)


@pytest.mark.parametrize("data", [
    {}, {"params": {}}, {"kind": 3}, [("kind", "MW")], "MW", {"kind": "MW", "params": [1]},
])
def test_agent_spec_from_dict_rejects_malformed_specs(data):
    with pytest.raises(GameFormatError):
        AgentSpec.from_dict(data)


def loop_parts(keys):
    """The episodes of each key in episode order, the keys in order of their
    first episode: the per-episode grouping ``build_seat`` replaced."""
    parts = {}
    for e, key in enumerate(keys):
        parts.setdefault(key, []).append(e)
    return list(parts.items())


SEAT_SPECS = [AgentSpec("MW"), AgentSpec("FixedMixed", {"probs": [0.3, 0.7]}),
              AgentSpec("UniformRandom"), AgentSpec("BestResponder")]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), named=st.booleans())
def test_build_seat_parts_equal_the_per_episode_grouping(ts2, data, named):
    # Keys are indices into a list of specs, or names in a dict of them.
    keys = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=40))
    specs = SEAT_SPECS
    if named:
        keys, specs = ["wxyz"[key] for key in keys], dict(zip("wxyz", SEAT_SPECS))
    own_types = data.draw(st.lists(st.sampled_from(ts2.types), min_size=len(keys),
                                   max_size=len(keys)))
    seeds = np.arange(len(keys), dtype=np.uint64) * 7
    calls = []

    def recorded(spec, type_space, T, seat, own, agent_seeds, table):
        calls.append((spec, list(own), agent_seeds.tolist()))
        return build_agents(spec, type_space, T, seat, own, agent_seeds, table)

    with mock.patch.object(agents, "build_agents", recorded):
        seat = build_seat(specs, keys, ts2, 5, "row", own_types, seeds)
    assert calls == [(specs[key], [own_types[e] for e in index], seeds[index].tolist())
                     for key, index in loop_parts(keys)]
    parts = getattr(seat, "parts", [(slice(None), seat)])  # one part is its own agent
    assert [np.arange(len(keys))[index].tolist() for index, _ in parts] == [
        index for _, index in loop_parts(keys)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_build_agents_own_types_equal_the_per_episode_substitution(ts2, data):
    kind = data.draw(st.sampled_from(["MW", "Protocol", "BestResponder", "UniformRandom"]))
    spec = AgentSpec(kind, {"eps1": 0.1, "k": 1} if kind == "Protocol" else {},
                     data.draw(st.sampled_from([None, *ts2.types])))
    own_types = data.draw(st.lists(st.sampled_from([None, *ts2.types]), min_size=1,
                                   max_size=30))
    # The own types as build_agents once substituted them, episode by episode.
    substituted = [spec.own_type if t is None else t for t in own_types]
    seeds = np.arange(len(own_types), dtype=np.uint64)
    builder, contexts, built = agents.AGENT_BUILDERS[kind], [], []

    def recorded(spec, ctx):
        contexts.append((ctx.own_types, ctx.types))
        return builder(spec, ctx)

    with mock.patch.dict(agents.AGENT_BUILDERS, {kind: recorded}):
        for own in (own_types, substituted):
            try:
                built.append(build_agents(spec, ts2, 6, "row", own, seeds))
            except GameError as error:
                built.append(str(error))
    if isinstance(built[1], str):  # an episode with no own type for a kind that needs one
        assert built == [built[1]] * 2
        return
    assert contexts == [(substituted, list(dict.fromkeys(substituted)))] * 2
    acts = np.arange(len(own_types)) % 2
    for _ in range(3):
        assert np.array_equal(built[0].act(), built[1].act())
        for agent in built:
            agent.observe(acts, 1 - acts)


@pytest.mark.parametrize("code", [
    # The package root imports the modules that register these kinds.
    "from cooplab.agents import AGENT_BUILDERS; assert {'IC', 'Flattened'} <= set(AGENT_BUILDERS)",
    # and no more: the harness, and the regret module only it reads, stay out.
    "import sys, cooplab; assert not {'cooplab.harness', 'cooplab.regret'} & set(sys.modules)",
])
def test_importing_the_package_in_a_fresh_interpreter(code):
    src = str(Path(cooplab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
