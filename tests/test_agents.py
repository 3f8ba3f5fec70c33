import math
import random

import numpy as np
import pytest

from cooplab.game_core import GameError, TypeSpace
from cooplab.agents import (
    AgentSpec,
    BestResponderAgent,
    ConventionTable,
    FixedSequenceAgent,
    GrimTriggerAgent,
    MWAgent,
    ProtocolAgent,
    build_agent,
    build_convention_table,
    default_eta,
    default_handshake_length,
    handshake_decode,
    handshake_encode,
    handshake_prefix_valid,
    protocol_threshold,
    theorem26_params,
)
from cooplab.harness import fixture_path


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
    agent = MWAgent(np.eye(2), 1.0)
    assert agent.act() == [0.5, 0.5]
    agent.observe(1, 0)
    new = agent.act()
    e = math.e
    assert new[0] == pytest.approx(e / (e + 1), abs=1e-12)
    assert new[1] == pytest.approx(1 / (e + 1), abs=1e-12)
    with pytest.raises(GameError):
        MWAgent(np.eye(2), -0.5)


def test_mw_agent_long_horizon_no_overflow():
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    agent = MWAgent(A, eta=5.0)
    for _ in range(20000):
        agent.observe(0, 0)
    probs = agent.act()
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


def test_grim_trigger_and_fixed_sequence():
    grim = GrimTriggerAgent(2, coop_action=0, punish_action=1)
    assert grim.act() == [1.0, 0.0]
    grim.observe(0, 0)
    assert grim.act() == [1.0, 0.0]
    grim.observe(0, 1)
    assert grim.act() == [0.0, 1.0]
    grim.observe(0, 0)  # punishment is permanent
    assert grim.act() == [0.0, 1.0]

    seq = FixedSequenceAgent([0, 1, 1], 2)
    played = []
    for _ in range(5):
        played.append(seq.act().index(1.0))
        seq.observe(played[-1], 0)
    assert played == [0, 1, 1, 0, 1]


def test_best_responder_tracks_frequencies():
    A = np.array([[2.0, 0.0], [0.0, 1.0]])
    agent = BestResponderAgent(A)
    assert agent.act() == [0.5, 0.5]
    agent.observe(0, 1)
    agent.observe(0, 1)
    agent.observe(0, 0)
    # Opponent frequency (1/3, 2/3): action 1 pays 2/3 vs 2/3 for action 0;
    # ties break toward the lower index.
    assert agent.act() == [1.0, 0.0]
    agent.observe(0, 1)
    assert agent.act() == [0.0, 1.0]


def make_protocol(ts, own_type, seat, T=50, k=None, delta=0.1, table=None):
    k = k if k is not None else default_handshake_length(len(ts.types), ts.num_actions)
    params = theorem26_params(delta, T, k, ts.num_actions)
    return ProtocolAgent(
        own_type=own_type,
        seat=seat,
        type_space=ts,
        convention_table=table or build_convention_table(ts),
        k=k,
        T=T,
        eps1=params.eps1,
    )


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
        a = sample(ar.act(), rng)
        b = sample(ac.act(), rng)
        history.append((a, b))
        ar.observe(a, b)
        ac.observe(b, a)
    # k=1: stage 0 transmits the type indices (gamma=0, delta=1).
    assert history[0] == (0, 1)
    assert ar.partner_type == "delta" and ac.partner_type == "gamma"
    assert ar.phase == "convention" and ac.phase == "convention"
    assert ar.convention_strategy[0] == pytest.approx(0.95)
    assert ac.convention_strategy[0] == pytest.approx(0.2)


def test_protocol_invalid_handshake_triggers_fallback(ts4):
    # 4 types need k=2; an opponent digit stream decoding past the type count
    # is impossible here, but an always-defect opponent in a 3-type space is.
    ts3 = TypeSpace(
        types=("a", "b", "c"),
        payoff_table={t: ts4.payoff_table[old] for t, old in zip("abc", ts4.types)},
    )
    agent = make_protocol(ts3, "a", "row", T=40)
    agent.observe(agent.own_code[0], 1)
    agent.observe(agent.own_code[1], 1)  # prefix (1, 1) -> index 3, invalid
    assert agent.phase == "fallback"
    assert sum(agent.act()) == pytest.approx(1.0)


def test_protocol_phase_monotonicity(ts4):
    rng = random.Random(9)
    order = {"handshake": 0, "convention": 1, "fallback": 2}
    for trial in range(20):
        agent = make_protocol(ts4, ts4.types[trial % 4], "row", T=60)
        phases = [agent.phase]
        for _ in range(60):
            a = sample(agent.act(), rng)
            agent.observe(a, rng.randrange(2))
            phases.append(agent.phase)
        ranks = [order[ph] for ph in phases]
        assert ranks == sorted(ranks)


def test_protocol_accumulator_uses_announced_strategies(ts2):
    agent = make_protocol(ts2, "gamma", "row", T=30)
    A = ts2.payoff_table["gamma"]
    agent.observe(agent.own_code[0], 1)
    expected = float(A[agent.own_code[0], 1])
    assert agent.accumulator == pytest.approx(float(A[:, 1].max()) - expected)


def test_protocol_k0_single_type():
    ts1 = TypeSpace(types=("only",), payoff_table={"only": np.array([[2.0, 0.0], [0.0, 1.0]])})
    agent = ProtocolAgent(
        own_type="only",
        seat="row",
        type_space=ts1,
        convention_table=build_convention_table(ts1),
        k=0,
        T=20,
        eps1=0.2,
    )
    assert agent.phase == "convention"
    assert agent.act()[0] == pytest.approx(1.0)


def test_build_agent_determinism_and_spec_roundtrip(ts2):
    spec = AgentSpec("Protocol", {"eps1": 0.1, "k": 1})
    restored = AgentSpec.from_dict(spec.to_dict())
    assert restored == spec
    assert spec.agent_id() == restored.agent_id()
    table = build_convention_table(ts2)
    rng1, rng2 = random.Random(3), random.Random(3)
    a1 = build_agent(spec, ts2, 40, own_type="gamma", convention_table=table)
    a2 = build_agent(spec, ts2, 40, own_type="gamma", convention_table=table)
    for _ in range(40):
        s1, s2 = a1.act(), a2.act()
        assert s1 == s2
        act = sample(s1, rng1)
        opp = rng1.randrange(2)
        rng2.random()  # keep streams aligned
        rng2.randrange(2)
        a1.observe(act, opp)
        a2.observe(act, opp)


def test_build_agent_unknown_kind_and_missing_type(ts2):
    with pytest.raises(GameError):
        build_agent(AgentSpec("Telepath", {}), ts2, 10)
    with pytest.raises(GameError):
        build_agent(AgentSpec("MW", {}), ts2, 10)  # no own type anywhere


def test_convention_table_rejects_a_key_that_is_not_two_types(ts2):
    data = build_convention_table(ts2).to_dict()
    entry = next(iter(data.values()))
    a, b = ts2.types[:2]
    for key in (a, f"{a}|{b}|{a}"):
        with pytest.raises(GameError, match="joined by"):
            ConventionTable.from_dict({**data, key: entry}, ts2)
