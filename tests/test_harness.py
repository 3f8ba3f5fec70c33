import dataclasses
import functools
import math
import operator
import types

import numpy as np
import pytest

from cooplab.game_core import GameError, TypeSpace
from cooplab import agents, engine, harness, population
from cooplab.agents import (
    AgentSpec,
    build_agents,
    build_convention_table,
    default_eta,
    theorem26_params,
)
from cooplab.engine import (
    BatchAdaptive,
    BatchMW,
    EpisodeStreams,
    _at_least,
    _choice,
    _choice_cuts,
    _draws,
    _iid_actions,
    _joint_counts,
    _trigger_bound,
    play_batch,
)
from cooplab.equilibria import worst_pone_payoff
from cooplab.harness import (
    CONSISTENCY_ADVERSARIES,
    EXPERIMENT_FIELDS,
    EXPERIMENT_KINDS,
    MW_ADVERSARIES,
    STREAM_TAGS,
    ExperimentConfig,
    VerificationResult,
    _default_ic_mu,
    emit_curves,
    fixture_type_space,
    run_experiment,
)
from cooplab.imitation_commit import BatchIC, fit_imitation
from cooplab.population import (
    Population,
    TypeDistribution,
    derive_episode_seed,
    derive_episode_seeds,
    generate_dataset,
    play_episodes,
    run_episode,
    write_dataset,
)
from scalar_agents import (
    ImitateThenCommitAgent,
    ProtocolAgent,
    SplitMix64,
    build_scalar,
    categorical,
    joint_codes,
    play_episode,
    tagged_stream,
    type_codes,
)


@pytest.fixture(scope="module")
def ts2():
    return fixture_type_space("typespace_2.json")


def agent_first_trigger(ts, joint, k, threshold, i_acts, j_acts, seat):
    """Reference oracle: step a real protocol agent through the handshake and
    a fixed convention action stream; report the first convention stage after
    which it falls back (-1 if never) and its accumulator after each
    convention stage up to then."""
    table = build_convention_table(ts)
    own, opp = (joint[0], "row") if seat == "row" else (joint[1], "col")
    agent = ProtocolAgent(
        own_type=own, seat=seat, type_space=ts, convention_table=table,
        k=k, T=k + len(i_acts), eps1=0.0,
    )
    agent.threshold = threshold
    partner = ProtocolAgent(
        own_type=joint[1] if seat == "row" else joint[0],
        seat="col" if seat == "row" else "row",
        type_space=ts, convention_table=table, k=k, T=k + len(i_acts), eps1=0.0,
    )
    for t in range(k):
        own_digit = agent.own_code[t]
        opp_digit = partner.own_code[t]
        agent.observe(own_digit, opp_digit)
    accumulators = []
    for s in range(len(i_acts)):
        if seat == "row":
            agent.observe(int(i_acts[s]), int(j_acts[s]))
        else:
            agent.observe(int(j_acts[s]), int(i_acts[s]))
        accumulators.append(agent.accumulator)
        if agent.phase == "fallback":
            return s, accumulators
    return -1, accumulators


def handshake_sums(ts, table, joint, k, T):
    """Both seats' handshake counterfactual and expected payoff sums, read
    from scalar protocol agents stepped through the handshake."""
    row = ProtocolAgent(joint[0], "row", ts, table, k, T, eps1=0.0)
    col = ProtocolAgent(joint[1], "col", ts, table, k, T, eps1=0.0)
    for t in range(k):
        i, j = row.own_code[t], col.own_code[t]
        row.observe(i, j)
        col.observe(j, i)
    return [(np.array(agent.cum_counterfactual), agent.cum_expected) for agent in (row, col)]


def check_trigger_against_protocol_agent(ts, stages):
    # si-selfplay's count bound is at least a real protocol agent's
    # accumulator at every stage up to its fallback, so an episode-seat that
    # it clears is one in which the agent never falls back.
    joint = ("gamma", "delta")
    k = 1
    table = build_convention_table(ts)
    prof = table.profile(joint)
    A = ts.payoff_table["gamma"]
    B = ts.payoff_table["delta"]
    (ha, hexp_r), (hb, hexp_c) = handshake_sums(ts, table, joint, k, k + stages)
    rng = np.random.default_rng(17)
    cleared = tripped = 0
    for threshold in (0.5, 1.0, 2.0, 5.0):
        i_acts = rng.choice(2, size=(30, stages), p=prof.sigma_row)
        j_acts = rng.choice(2, size=(30, stages), p=prof.sigma_col)
        # The bound reads the opponent's action counts per 64-stage word.
        words = _joint_counts(_at_least(i_acts, 2), _at_least(j_acts, 2))
        bounds = {"row": _trigger_bound(A, prof.sigma_row, words.sum(axis=2), ha, hexp_r),
                  "col": _trigger_bound(B, prof.sigma_col, words.sum(axis=3), hb, hexp_c)}
        for seat, bound in bounds.items():
            for e in range(30):
                first, accumulators = agent_first_trigger(
                    ts, joint, k, threshold, i_acts[e], j_acts[e], seat)
                assert bound[e] >= max(accumulators)
                cleared += bound[e] <= threshold
                tripped += first >= 0
    assert cleared > 20 and tripped > 20


def test_vectorized_trigger_matches_protocol_agent(ts2):
    check_trigger_against_protocol_agent(ts2, stages=40)


def test_vectorized_trigger_matches_protocol_agent_beyond_one_block(ts2):
    # Triggers that fall in later 64-stage words, and in the last, partial
    # word.
    check_trigger_against_protocol_agent(ts2, stages=2 * 64 + 23)


def lower_protocol_thresholds(monkeypatch, by):
    """Lower the tripwire of the harness's kernel and of the protocol agents
    alike, so that many more episodes trip it."""
    for module in (agents, harness):
        threshold = module.protocol_threshold
        monkeypatch.setattr(module, "protocol_threshold", lambda *a, f=threshold: f(*a) - by)


def si_selfplay_streams(cfg):
    """si-selfplay's joint-type index of every episode, drawn by the scalar
    generator of its stream, and the seeds of its episode streams."""
    mu = cfg.mu or TypeDistribution.uniform(cfg.type_space)
    rng = tagged_stream(cfg.seed, STREAM_TAGS["si-selfplay joint types"])
    joint_idx = np.array([categorical(mu.weights, rng) for _ in range(cfg.episodes)])
    tag = STREAM_TAGS["si-selfplay episodes"]
    return mu, joint_idx, derive_episode_seeds(cfg.seed, (tag << 32) + np.arange(cfg.episodes))


def selfplay_payoffs(ts, joint, k, acts_row, acts_col):
    """Both seats' average payoffs of episodes with (episodes, T) actions,
    summed as si-selfplay sums them: the handshake's stage by stage, then
    each (own, opponent) action pair's count over the convention stages
    times its payoff, added left to right with the own action outermost."""
    T = acts_row.shape[1]
    out = []
    for m, own, opp in ((ts.payoff_table[joint[0]], acts_row, acts_col),
                        (ts.payoff_table[joint[1]], acts_col, acts_row)):
        handshake = 0.0
        for a, b in zip(own[0, :k].tolist(), opp[0, :k].tolist()):
            handshake += m[a, b]
        terms = [((own[:, k:] == a) & (opp[:, k:] == b)).sum(axis=1) * m[a, b]
                 for a in range(len(m)) for b in range(len(m))]
        out.append((handshake + functools.reduce(operator.add, terms)) / T)
    return np.stack(out, axis=1)


def si_selfplay_by_play_episodes(cfg):
    """si_selfplay.csv as two protocol agents make it with every episode
    played whole by ``play_episodes`` on its stream; also the fallback flags
    and the first fallback stage (T if none)."""
    ts, k, T, E = cfg.type_space, cfg.k, cfg.horizon, cfg.episodes
    table = build_convention_table(ts)
    mu, joint_idx, seeds = si_selfplay_streams(cfg)
    spec = AgentSpec("Protocol", {"eps1": theorem26_params(cfg.delta, T, k, 2).eps1, "k": k})
    joints = [mu.support[j] for j in joint_idx]
    actions = np.empty((E, 2, T), np.uint8)
    fell, first = np.zeros(E, dtype=bool), T
    seat = ([spec], np.zeros(E, np.intp))
    for ids, seats, record in play_episodes(seat, seat, joint_codes(ts, joints), ts, T, seeds,
                                            table, record=True):
        actions[ids] = record.transpose(2, 1, 0)
        stages = np.stack([agent.fallback_stage for agent in seats])
        fell[ids] = (stages >= 0).any(axis=0)
        first = min([first, *stages[stages >= 0].tolist()])
    pay = np.empty((E, 2))
    for jt, joint in enumerate(mu.support):
        ids = np.flatnonzero(joint_idx == jt)
        if len(ids):
            pay[ids] = selfplay_payoffs(ts, joint, k, actions[ids, 0], actions[ids, 1])
    rows = ["episode,theta1,theta2,avg_payoff_row,avg_payoff_col,fallback"]
    rows += [f"{e},{a},{b},{pr!r},{pc!r},{int(f)}"
             for e, ((a, b), (pr, pc), f) in enumerate(zip(joints, pay.tolist(), fell.tolist()))]
    return "\n".join(rows) + "\n", fell, first


def si_selfplay_on_play_episodes(cfg, lowered):
    """Run si-selfplay and check its CSV and detail against the protocol
    agents on play_episodes: the kernel settles the episodes that the count
    bound clears and play_episodes replays the rest, and either way each
    episode must be the one play_episodes plays on its seed.  Returns the
    CSV."""
    results, artifacts = run_experiment(cfg)
    csv, fell, first = si_selfplay_by_play_episodes(cfg)
    assert artifacts["si_selfplay.csv"] == csv
    detail = results[0].detail
    replayed = int(detail.split("replayed by the agents ")[1].split(",")[0])
    cleared = int(detail.split("cleared by the count bound ")[1].split(",")[0])
    assert replayed > (100 if lowered else 0)
    assert cleared + replayed == cfg.episodes
    assert fell.sum() <= replayed
    assert detail.endswith(f"fallbacks {fell.sum()}, first at stage {first}")
    return csv


@pytest.mark.parametrize("lowered, chunk", [(0.0, None), (8.0, 37)],
                         ids=["acceptance thresholds", "lowered thresholds, chunks of 37"])
def test_si_selfplay_equals_protocol_agents_on_the_engine(monkeypatch, lowered, chunk):
    lower_protocol_thresholds(monkeypatch, lowered)
    if chunk:
        monkeypatch.setattr(engine, "EPISODE_BATCH", chunk)
    cfg = ExperimentConfig(kind="si-selfplay", episodes=2000, horizon=60, delta=0.9, k=2,
                           seed=5, type_space=fixture_type_space("typespace_4.json"))
    si_selfplay_on_play_episodes(cfg, lowered)


def test_si_selfplay_replays_episodes_that_do_and_do_not_trip():
    # The count bound leaves 232 of these 2 000 episodes to the agents, and
    # 4 of those fall back; tripped or not, each is all-agents play.
    cfg = ExperimentConfig(kind="si-selfplay", episodes=2000, horizon=40, delta=0.9, k=2,
                           seed=0, type_space=fixture_type_space("typespace_4.json"))
    si_selfplay_on_play_episodes(cfg, 0.0)
    results, _ = run_experiment(cfg)
    assert "replayed by the agents 232, fallbacks 4, first at stage " in results[0].detail


def test_si_selfplay_fills_an_off_diagonal_pure_convention_as_the_agents_play_it():
    # The convention of (x, x) is a pure profile off the diagonal, whose
    # payoffs differ from their transposes: its episodes' counts are filled
    # without drawing, and each episode must be the agents' own.
    ts = TypeSpace(types=("x",), payoff_table={"x": np.array([[0.2, 0.9], [0.4, 0.1]])})
    prof = build_convention_table(ts).profile(("x", "x"))
    assert prof.sigma_row.max() == prof.sigma_col.max() == 1.0
    assert prof.sigma_row.argmax() != prof.sigma_col.argmax()
    cfg = ExperimentConfig(kind="si-selfplay", episodes=20, horizon=30, delta=0.5, k=1, seed=2,
                           type_space=ts)
    results, artifacts = run_experiment(cfg)
    assert artifacts["si_selfplay.csv"] == si_selfplay_by_play_episodes(cfg)[0]
    assert "pure-convention episodes 20, cleared by the count bound 20," in results[0].detail


def test_si_selfplay_csv_is_independent_of_the_chunk_size(monkeypatch):
    # About 2 160 episodes of one mixed-convention joint type and 240 of
    # another, at the acceptance tripwire and with it lowered by 8.
    # play_episodes replays in batches of 300, so that the replays of one
    # chunk of 10**6 take several.
    monkeypatch.setattr(population, "EPISODE_BATCH", 300)
    mu = TypeDistribution(support=[("alpha", "delta"), ("delta", "beta")], weights=[0.9, 0.1])
    cfg = ExperimentConfig(kind="si-selfplay", episodes=2400, horizon=60, delta=0.9, k=2,
                           seed=11, type_space=fixture_type_space("typespace_4.json"), mu=mu)
    for lowered in (0.0, 8.0):
        with pytest.MonkeyPatch.context() as patch:
            lower_protocol_thresholds(patch, lowered)
            csvs = []
            for chunk in (37, 500, 10**6):
                patch.setattr(engine, "EPISODE_BATCH", chunk)
                csvs.append(si_selfplay_on_play_episodes(cfg, lowered))
        assert csvs[0] == csvs[1] == csvs[2]


def test_triggered_episode_replay_matches_scalar_protocol_agents(monkeypatch):
    # The episodes si-selfplay replays, with the tripwire lowered so that it
    # fires in many, against scalar protocol agents that sample every stage
    # by _sample_action from the scalar generator of the episode's stream.
    lower_protocol_thresholds(monkeypatch, 8.0)
    ts = fixture_type_space("typespace_4.json")
    table = build_convention_table(ts)
    k, T = 2, 60
    cfg = ExperimentConfig(kind="si-selfplay", episodes=600, horizon=T, delta=0.9, k=k,
                           seed=3, type_space=ts)
    _, artifacts = run_experiment(cfg)
    rows = [line.split(",") for line in artifacts["si_selfplay.csv"].splitlines()[1:]]
    mu, joint_idx, seeds = si_selfplay_streams(cfg)
    eps1 = theorem26_params(cfg.delta, T, k, 2).eps1
    checked = 0
    for e, row in enumerate(rows):
        if row[5] != "1":
            continue
        joint = mu.support[joint_idx[e]]
        ar = ProtocolAgent(joint[0], "row", ts, table, k, T, eps1)
        ac = ProtocolAgent(joint[1], "col", ts, table, k, T, eps1)
        ar.threshold -= 8.0
        ac.threshold -= 8.0
        rng = SplitMix64(int(seeds[e]))
        rng.next64(), rng.next64()  # the agent seeds
        history = np.array(play_episode(ar, ac, T, rng).history).T[:, None, :]
        assert "fallback" in (ar.phase, ac.phase)
        want = selfplay_payoffs(ts, joint, k, *history)[0]
        assert [float(row[3]), float(row[4])] == want.tolist()
        checked += 1
    assert checked > 20


def test_run_experiment_unknown_kind_and_bad_episode_count():
    with pytest.raises(GameError):
        run_experiment(ExperimentConfig(kind="teleportation"))
    with pytest.raises(GameError):
        run_experiment(ExperimentConfig(kind="mw-regret", episodes=0))


def test_run_experiment_rejects_an_extra_its_kind_does_not_read():
    # A misspelt K_values would otherwise run the default K values.
    with pytest.raises(GameError, match=r"'K_value'.*'K_values', 'eval_episodes'"):
        run_experiment(ExperimentConfig(kind="ic-eval", extra={"K_value": [10]}))
    with pytest.raises(GameError, match="tolerance"):
        run_experiment(ExperimentConfig(kind="auth-failure", extra={"tolerance": 0.5}))


@pytest.mark.parametrize("extra, match", [
    ({"K_values": []}, "K_values"),
    ({"K_values": [100, -1]}, "K_values"),
    ({"K_values": [10.5]}, "K_values"),
    ({"eval_episodes": 0}, "eval_episodes"),
    ({"eval_episodes": -5}, "eval_episodes"),
], ids=["no K", "negative K", "fractional K", "no evaluation episode", "negative episodes"])
def test_ic_eval_rejects_a_malformed_extra(extra, match):
    # Each is refused before any dataset is made; an empty evaluation would
    # give NaN gates after numpy's "Mean of empty slice" warning.
    with pytest.raises(GameError, match=match):
        run_experiment(ExperimentConfig(kind="ic-eval", horizon=12, extra=extra))


def test_auth_failure_rejects_fewer_than_two_actions():
    # With one action there is one history and no wrong code digit, so every
    # gate would pass vacuously.
    with pytest.raises(GameError, match="num_actions >= 2"):
        run_experiment(ExperimentConfig(kind="auth-failure", episodes=10, num_actions=1))


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = ExperimentConfig(
        kind="mixture-check", episodes=12, seed=5, out_dir=str(tmp_path)
    )
    results, artifacts = run_experiment(cfg)
    assert all(isinstance(r, VerificationResult) for r in results)
    assert (tmp_path / "mixture_check.csv").read_text() == artifacts["mixture_check.csv"]


def test_experiment_csv_is_deterministic(tmp_path):
    cfg = lambda: ExperimentConfig(kind="nash-selfplay", episodes=50, horizon=100, seed=11)
    _, a1 = run_experiment(cfg())
    _, a2 = run_experiment(cfg())
    assert a1 == a2
    _, a3 = run_experiment(
        ExperimentConfig(kind="nash-selfplay", episodes=50, horizon=100, seed=12)
    )
    assert a1 != a3


def test_small_si_selfplay_passes(ts2):
    results, artifacts = run_experiment(
        ExperimentConfig(
            kind="si-selfplay", episodes=300, horizon=400, delta=0.1, k=1,
            seed=3, type_space=ts2,
        )
    )
    assert all(r.passed for r in results)
    lines = artifacts["si_selfplay.csv"].splitlines()
    assert len(lines) == 301
    assert lines[0].startswith("episode,theta1,theta2,")


def test_small_ic_eval_runs(ts2):
    results, _ = run_experiment(
        ExperimentConfig(
            kind="ic-eval", horizon=30, k=1, tilde_T=8, delta=0.1, seed=2,
            type_space=ts2,
            extra={"K_values": [50, 500], "eval_episodes": 120},
        )
    )
    labels = [r.label for r in results]
    assert any("nonincreasing" in lab for lab in labels)
    assert any("upper bound" in lab for lab in labels)


def ic_eval_csv_by_episode_loop(cfg):
    """ic_eval.csv as run_ic_eval wrote it with its per-episode loop of
    scalar agents, before the batched engine; kept as its oracle."""
    ts, T, k, tilde_T = cfg.type_space, cfg.horizon, cfg.k, cfg.tilde_T
    params = theorem26_params(cfg.delta, T, k, ts.num_actions)
    ct = build_convention_table(ts)
    pop = cfg.population or Population(
        members=[AgentSpec("Protocol", {"eps1": params.eps1, "k": k})], weights=[1.0]
    )
    mu = _default_ic_mu(ts)
    K_values, eval_episodes = cfg.extra["K_values"], cfg.extra["eval_episodes"]
    tau_col = {joint: worst_pone_payoff(ts.game(*joint), "col") for joint in mu.support}
    policies = {}
    for K in K_values:
        # Draw K of the dataset-seed stream, to 62 bits.
        rng = tagged_stream(cfg.seed, STREAM_TAGS["ic-eval dataset seeds"])
        master = [rng.next64() for _ in range(K + 1)][K] >> 2
        ds = generate_dataset(pop, mu, ts, K, T, master_seed=master, convention_table=ct)
        policies[K] = fit_imitation(ds, tilde_T, seat="row")
    rng = tagged_stream(cfg.seed, STREAM_TAGS["ic-eval types and partners"])
    joint_ids = [categorical(mu.weights, rng) for _ in range(eval_episodes)]
    partner_ids = [categorical(pop.weights, rng) for _ in range(eval_episodes)]
    rows = ["K,episode,theta1,theta2,avg_altruistic_regret"]
    for K in K_values:
        for e in range(eval_episodes):
            joint = mu.support[joint_ids[e]]
            rng = SplitMix64(derive_episode_seed(cfg.seed, 0x45560000 + e))
            ic_seed = rng.getrandbits63()
            partner_seed = rng.getrandbits63()
            agent_row = ImitateThenCommitAgent(
                policies[K], tilde_T, T, own_type=joint[0], seat="row", seed=ic_seed
            )
            agent_col = build_scalar(pop.members[partner_ids[e]], ts, T, "col", joint[1],
                                     partner_seed, ct)
            trace = play_episode(agent_row, agent_col, T, rng)
            B = ts.payoff_table[joint[1]]
            realized = sum(B[b, a] for a, b in trace.history)
            value = (T * tau_col[joint] - realized) / T
            rows.append(f"{K},{e},{joint[0]},{joint[1]},{float(value)!r}")
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("partners", ["protocol", "with-flattened", "with-ic"])
def test_ic_eval_csv_matches_episode_loop(ts2, partners, tmp_path):
    # Flattened and IC partners play in the same batch as the others.
    population = None
    if partners == "with-flattened":
        population = Population(
            members=[
                AgentSpec("Protocol", {"eps1": 0.2, "k": 1}),
                AgentSpec("Flattened", {"members": [{"kind": "UniformRandom"}], "weights": [1.0]}),
            ],
            weights=[0.7, 0.3],
        )
    if partners == "with-ic":
        # An IC partner fit from a dataset file, and a flattened one over learners.
        data = Population(members=[AgentSpec("Protocol", {"eps1": 0.2, "k": 1})], weights=[1.0])
        path = tmp_path / "partner.jsonl"
        write_dataset(generate_dataset(data, _default_ic_mu(ts2), ts2, 80, 14, master_seed=4,
                                       convention_table=build_convention_table(ts2)), path)
        learners = {"members": [{"kind": "MW"}, {"kind": "Protocol", "params": {"eps1": 0.2}}],
                    "weights": [0.5, 0.5]}
        population = Population(
            members=[
                AgentSpec("Protocol", {"eps1": 0.2, "k": 1}),
                AgentSpec("IC", {"dataset_path": str(path), "tilde_T": 4}),
                AgentSpec("Flattened", learners),
            ],
            weights=[0.4, 0.3, 0.3],
        )
    cfg = ExperimentConfig(
        kind="ic-eval", horizon=14, k=1, tilde_T=5, delta=0.1, seed=6, type_space=ts2,
        population=population, extra={"K_values": [0, 30, 300], "eval_episodes": 150},
    )
    _, artifacts = run_experiment(cfg)
    assert artifacts["ic_eval.csv"] == ic_eval_csv_by_episode_loop(cfg)


def test_si_consistency_reports_the_rounded_run_count():
    results, artifacts = run_experiment(
        ExperimentConfig(kind="si-consistency", episodes=10, horizon=20, k=2, seed=1)
    )
    assert results[0].sample_count == 8
    assert "2 runs per adversary, 8 of 10 requested" in results[0].detail
    assert len(artifacts["si_consistency.csv"].splitlines()) == 9


def test_emit_curves_aggregates_groups(tmp_path):
    (tmp_path / "toy.csv").write_text(
        "K,episode,value\n100,0,2.0\n100,1,4.0\n200,0,1.0\n"
    )
    emitted = emit_curves(str(tmp_path))
    assert "toy_curve.tsv" in emitted
    lines = emitted["toy_curve.tsv"].splitlines()
    assert lines[0] == "K\tmean_value\tci99\tcount"
    row100 = [l for l in lines if l.startswith("100\t")][0]
    assert row100.split("\t")[1] == repr(3.0)
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(GameError):
        emit_curves(str(empty))


def small_configs(ts2):
    """A tiny config of every experiment kind."""
    ts4 = fixture_type_space("typespace_4.json")
    small = {
        "mw-regret": dict(episodes=6, horizon=20, num_actions=3),
        "nash-selfplay": dict(episodes=5, horizon=20),
        "si-selfplay": dict(episodes=20, horizon=40, k=2, type_space=ts4),
        "si-consistency": dict(episodes=8, horizon=30, k=2, type_space=ts4),
        "auth-failure": dict(episodes=50),
        "mixture-check": dict(episodes=4),
        "flatten-check": dict(episodes=1),
        "ic-eval": dict(horizon=12, k=1, tilde_T=4, type_space=ts2,
                        extra={"K_values": [10, 20], "eval_episodes": 5}),
    }
    assert set(small) == set(EXPERIMENT_KINDS)
    return {kind: ExperimentConfig(kind=kind, seed=4, **kw) for kind, kw in small.items()}


def small_artifacts(ts2):
    """The artifacts of every experiment kind at a tiny config."""
    artifacts = {}
    for cfg in small_configs(ts2).values():
        artifacts.update(run_experiment(cfg)[1])
    return artifacts


def test_each_runner_reads_the_config_fields_its_kind_lists(ts2):
    # The CLI refuses an option whose field a kind does not list: a runner
    # reading a field that its kind leaves out would have its flag refused.
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"kind", "extra", "out_dir"}
    read = set()

    class Recording(ExperimentConfig):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    for kind, cfg in small_configs(ts2).items():
        read.clear()
        harness._RUNNERS[kind][0](Recording(**vars(cfg)))
        assert read & fields == set(EXPERIMENT_FIELDS[kind]), kind


def test_every_artifact_value_parses_as_float(ts2):
    # Cells that are not labels must be plain numbers: a numpy scalar repr
    # such as "np.float64(0.5)" makes emit-curves skip the whole file.
    labels = {"adversary", "player", "theta1", "theta2", "theta_protocol",
              "theta_adversary", "history"}
    for name, text in small_artifacts(ts2).items():
        header, *rows = [line.split(",") for line in text.splitlines()]
        assert rows, name
        for row in rows:
            for column, cell in zip(header, row):
                if column not in labels:
                    float(cell)


def test_every_artifact_has_a_curve_entry(ts2):
    # Without one, emit-curves averages the last column by the first: for
    # auth_failure.csv, the printed formula by N, over both k and all M.
    for name in small_artifacts(ts2):
        assert name[:-4].rstrip("0123456789") in harness._CURVES, name


def mw_regret_csv_by_adversary(cfg):
    """mw_regret_N*.csv as run_mw_regret wrote it with one play_batch per
    adversary kind, before every run was played in one batch; kept as its
    oracle."""
    n, T = cfg.num_actions, cfg.horizon
    bound = math.sqrt((T / 2.0) * math.log(n))
    regrets = np.zeros(cfg.episodes)
    for index, kind in enumerate(MW_ADVERSARIES):
        runs = range(index, cfg.episodes, len(MW_ADVERSARIES))
        if not runs:
            continue
        A = np.empty((len(runs), n, n))
        script = np.empty((len(runs), T if kind == "random" else 1), np.min_scalar_type(n - 1))
        for i, r in enumerate(runs):
            rng = tagged_stream(cfg.seed, STREAM_TAGS["mw-regret runs"], r)
            A[i] = [[rng.random() for _ in range(n)] for _ in range(n)]
            if kind in ("random", "constant"):
                script[i] = [categorical([1 / n] * n, rng) for _ in range(script.shape[1])]
        if kind == "alternating":
            script = np.tile(np.arange(n), (len(runs), 1))
        opponent = (BatchAdaptive(kind, A) if kind in BatchAdaptive.KINDS
                    else BatchAdaptive((), A[:0], script))
        learner = BatchMW(A, default_eta(n, T))
        play_batch(learner, opponent, T)
        regrets[runs.start::runs.step] = learner.kernel.regret()
    rows = ["run,adversary,expected_regret,bound"]
    rows += [f"{r},{MW_ADVERSARIES[r % len(MW_ADVERSARIES)]},{reg!r},{bound!r}"
             for r, reg in enumerate(regrets.tolist())]
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("episodes", [1, 2, 3, 7, 12, 53])
def test_mw_regret_csv_matches_per_adversary_loop(episodes, n):
    # Fewer runs than kinds (1 and 2: no scripted adversary), uneven runs per
    # kind, and more.
    cfg = ExperimentConfig(kind="mw-regret", episodes=episodes, horizon=41, num_actions=n,
                           seed=10 * episodes + n)
    _, artifacts = run_experiment(cfg)
    assert artifacts[f"mw_regret_N{n}.csv"] == mw_regret_csv_by_adversary(cfg)


def si_consistency_csv_by_adversary(cfg, batch=125):
    """si_consistency.csv as run_si_consistency wrote it with one play_batch
    per batch of one adversary kind's runs, before each batch of runs in run
    order became one play_batch; kept as its oracle.  Also returns the
    Protocol's fallback stage of each run, in run order."""
    ts = cfg.type_space or fixture_type_space("typespace_4.json")
    n, k, T = ts.num_actions, cfg.k, cfg.horizon
    params = theorem26_params(cfg.delta, T, k, n)
    ct = build_convention_table(ts)
    bound = k + params.eps1 * (T - k) + math.sqrt(((T - k) / 2.0) * math.log(n))
    proto_spec = AgentSpec("Protocol", {"eps1": params.eps1, "k": k})
    runs_each = max(1, cfg.episodes // len(CONSISTENCY_ADVERSARIES))
    rng = tagged_stream(cfg.seed, STREAM_TAGS["si-consistency joint types"])
    uniform = [1 / len(ts.types)] * len(ts.types)
    rows = ["run,adversary,theta_protocol,theta_adversary,expected_regret,bound"]
    fallback_stages = []
    run_id = 0
    for adversary in CONSISTENCY_ADVERSARIES:
        joints = [(ts.types[categorical(uniform, rng)], ts.types[categorical(uniform, rng)])
                  for _ in range(runs_each)]
        for start in range(0, runs_each, batch):
            chunk = joints[start : start + batch]
            runs = range(run_id + start, run_id + start + len(chunk))
            seeds = derive_episode_seeds(cfg.seed, 0x434F0000 + np.arange(runs.start, runs.stop))
            streams = EpisodeStreams(seeds)
            protocol = build_agents(proto_spec, ts, T, "row", type_codes(ts, [a for a, _ in chunk]),
                                    streams.agent_seeds[0], ct)
            opponent = build_agents(AgentSpec(adversary, {}), ts, T, "col",
                                    type_codes(ts, [b for _, b in chunk]),
                                    streams.agent_seeds[1], ct)
            play_batch(protocol, opponent, T, streams)
            for r, (a, b), reg in zip(runs, chunk, protocol.kernel.regret().tolist()):
                rows.append(f"{r},{adversary},{a},{b},{reg!r},{bound!r}")
            fallback_stages += protocol.fallback_stage.tolist()
        run_id += runs_each
    return "\n".join(rows) + "\n", fallback_stages


@pytest.mark.parametrize("batch", [37, 334, 2000])
@pytest.mark.parametrize("episodes", [1, 10, 170])
def test_si_consistency_csv_matches_per_adversary_loop(batch, episodes):
    # 170 runs are 42 per kind: batches of 37 split kinds across batches, and
    # a batch of 2000 holds every run.
    # delta = 0.6 makes eps1 small enough for the tripwire to fire.
    cfg = ExperimentConfig(kind="si-consistency", episodes=episodes, horizon=60, k=2,
                           delta=0.6, seed=episodes + batch)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(population, "EPISODE_BATCH", batch)
        results, artifacts = run_experiment(cfg)
    csv, fallback_stages = si_consistency_csv_by_adversary(cfg)
    assert artifacts["si_consistency.csv"] == csv
    # The detail counts the oracle's fallbacks per kind.
    runs_each = len(fallback_stages) // len(CONSISTENCY_ADVERSARIES)
    fell = [[s for s in fallback_stages[i * runs_each : (i + 1) * runs_each] if s >= 0]
            for i in range(len(CONSISTENCY_ADVERSARIES))]
    counts = ", ".join(f"{kind} {len(f)}" for kind, f in zip(CONSISTENCY_ADVERSARIES, fell))
    expected = f"protocol fallbacks {sum(map(len, fell))} ({counts})"
    if any(fell):
        expected += f", first at stage {min(min(f) for f in fell if f)}"
    assert results[0].detail.endswith("; " + expected)


def test_si_consistency_at_acceptance_size_is_one_batch():
    calls = {"play_batch": 0, "EpisodeStreams": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    cfg = ExperimentConfig(kind="si-consistency", episodes=1000, horizon=1000, delta=0.1, k=2,
                           seed=105, type_space=fixture_type_space("typespace_4.json"))
    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            patch.setattr(population, name, counted(name, getattr(population, name)))
        results, _ = run_experiment(cfg)
    assert calls == {"play_batch": 1, "EpisodeStreams": 1}
    assert results[0].passed
    assert results[0].detail == (
        "violations=0; 250 runs per adversary, 1000 of 1000 requested; protocol fallbacks 319 "
        "(GrimTrigger 187, BestResponder 58, UniformRandom 47, MW 27), first at stage 202"
    )


def test_ic_eval_csv_matches_episode_loop_in_chunks_that_split_members(ts2):
    # Chunks of 37 episodes: each holds episodes of every member, one chunk
    # holds both K values, and every chunk spot-checks the first episode of
    # each (K, member) pair in it.
    pop = Population(
        members=[
            AgentSpec("Protocol", {"eps1": 0.2, "k": 1}),
            AgentSpec("Flattened", {"members": [{"kind": "UniformRandom"}], "weights": [1.0]}),
            AgentSpec("GrimTrigger"),
        ],
        weights=[0.5, 0.2, 0.3],
    )
    cfg = ExperimentConfig(
        kind="ic-eval", horizon=12, k=1, tilde_T=4, delta=0.1, seed=3, type_space=ts2,
        population=pop, extra={"K_values": [0, 40], "eval_episodes": 100},
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(population, "EPISODE_BATCH", 37)
        _, artifacts = run_experiment(cfg)
    assert artifacts["ic_eval.csv"] == ic_eval_csv_by_episode_loop(cfg)


def test_ic_eval_plays_every_K_in_one_pass(ts2, monkeypatch):
    # The datasets of K = 30 and 300 are one play_batch each (K = 0 plays
    # none); the evaluation of all three K is one more, over 3 x 500
    # episodes, which replays one episode of each K's policy, in K order.
    sizes, fitted, replayed = [], [], []

    def counted(*args, **kwargs):
        record = play_batch(*args, **kwargs)
        sizes.append(record.shape[2])
        return record

    def fit(*args, **kwargs):
        fitted.append(fit_imitation(*args, **kwargs))
        return fitted[-1]

    def replay(spec, *args):
        replayed.append(spec.params["policy"])
        return run_episode(spec, *args)

    monkeypatch.setattr(population, "play_batch", counted)
    monkeypatch.setattr(harness, "fit_imitation", fit)
    monkeypatch.setattr(harness, "run_episode", replay)
    cfg = ExperimentConfig(kind="ic-eval", horizon=14, k=1, tilde_T=5, delta=0.1, seed=6,
                           type_space=ts2, extra={"K_values": [0, 30, 300], "eval_episodes": 500})
    results, artifacts = run_experiment(cfg)
    assert sizes == [30, 300, 1500]
    assert len(fitted) == 3 and list(map(id, replayed)) == list(map(id, fitted))
    assert [r.sample_count for r in results] == [500, 500]
    assert len(artifacts["ic_eval.csv"].splitlines()) == 1501


def test_emit_curves_of_mw_regret_average_expected_regret_per_adversary(tmp_path):
    cfg = ExperimentConfig(kind="mw-regret", episodes=10, horizon=30, num_actions=3, seed=5,
                           out_dir=str(tmp_path))
    _, artifacts = run_experiment(cfg)
    rows = [line.split(",") for line in artifacts["mw_regret_N3.csv"].splitlines()[1:]]
    emitted = emit_curves(str(tmp_path))
    header, *lines = emitted["mw_regret_N3_curve.tsv"].splitlines()
    assert header == "adversary\tmean_expected_regret\tci99\tcount"
    assert [line.split("\t")[0] for line in lines] == list(MW_ADVERSARIES)
    for line in lines:
        adversary, mean, _, count = line.split("\t")
        values = [float(row[2]) for row in rows if row[1] == adversary]
        assert count == "2"
        assert float(mean) == pytest.approx(sum(values) / 2, rel=1e-12)


def test_emit_curves_use_each_artifacts_columns(tmp_path, ts2):
    ts4 = fixture_type_space("typespace_4.json")
    for kind, kw in {
        "si-selfplay": dict(episodes=20, horizon=40, k=2, type_space=ts4),
        "flatten-check": dict(episodes=1),
        "mixture-check": dict(episodes=4),
        "auth-failure": dict(episodes=50),
    }.items():
        run_experiment(ExperimentConfig(kind=kind, seed=4, out_dir=str(tmp_path), **kw))
    emitted = emit_curves(str(tmp_path))
    assert "flatten_check_curve.tsv" not in emitted
    assert "auth_failure_curve.tsv" not in emitted
    assert emitted["si_selfplay_curve.tsv"].startswith("theta1,theta2\tmean_avg_payoff_row\t")
    assert emitted["mixture_check_curve.tsv"].startswith("N\tmean_identity_error\t")


def test_ic_eval_spot_check_refuses_a_batched_episode_that_differs(ts2, monkeypatch):
    # Each chunk replays one batched episode per member with run_episode; a
    # batched record with the IC agent's actions flipped must fail it.  The
    # datasets, played by the same runner, are left as they are.
    def flipped(*args, **kwargs):
        record = play_batch(*args, **kwargs)
        if isinstance(args[0], BatchIC):
            record[:, 0] = 1 - record[:, 0]
        return record

    monkeypatch.setattr(population, "play_batch", flipped)
    cfg = ExperimentConfig(kind="ic-eval", horizon=12, k=1, tilde_T=4, seed=3, type_space=ts2,
                           extra={"K_values": [10], "eval_episodes": 20})
    with pytest.raises(GameError, match="differs from its replay"):
        run_experiment(cfg)


def test_ic_eval_spot_check_replays_through_run_episode(ts2, monkeypatch):
    # The replay is run_episode's trace: with its IC actions flipped, the
    # batched episodes no longer match it.
    calls = []

    def flipped(*args, **kwargs):
        calls.append(args[0].kind)
        history = run_episode(*args, **kwargs).history
        return types.SimpleNamespace(history=tuple((1 - a, b) for a, b in history))

    monkeypatch.setattr(harness, "run_episode", flipped)
    cfg = ExperimentConfig(kind="ic-eval", horizon=12, k=1, tilde_T=4, seed=3, type_space=ts2,
                           extra={"K_values": [10], "eval_episodes": 20})
    with pytest.raises(GameError, match="differs from its replay"):
        run_experiment(cfg)
    assert calls == ["IC"]


@pytest.mark.parametrize("lower", [False, True])
def test_verdict_holds_at_its_edge_and_fails_one_ulp_beyond(lower):
    bound, ci, tol = 0.3, 0.07, 1e-9
    edge = bound - ci - tol if lower else bound + ci + tol
    beyond = float(np.nextafter(edge, -np.inf if lower else np.inf))
    gate = lambda statistic: VerificationResult("kind", "gate", statistic, bound, 10, ci,
                                                tol=tol, lower=lower)
    assert gate(edge).passed is True
    assert gate(np.float64(edge)).passed is True  # a bool, not a numpy bool
    assert gate(beyond).passed is False
    assert gate(2 * bound - edge).passed is True  # the safe side
    assert gate(math.nan).passed is False
    assert gate(edge).render().startswith("[PASS]") and gate(beyond).render().startswith("[FAIL]")


def test_sure_gate_counts_violations_with_its_slack():
    bound = 2.0
    edge = bound + 1e-9
    values = np.array([1.0, edge, np.nextafter(edge, np.inf), 3.0])
    gate = harness._sure_gate("kind", "gate", values, bound, "")
    assert (gate.statistic, gate.tol, gate.passed) == (3.0, 1e-9, False)
    assert gate.detail == "violations=2"
    gate = harness._sure_gate("kind", "gate", values[:2], bound, "more")
    assert (gate.statistic, gate.detail, gate.passed) == (edge, "violations=0; more", True)


def test_freq_gate_floors_the_variance_at_one_over_n():
    events = np.zeros(400, dtype=bool)
    gate = harness._freq_gate("kind", "gate", events, 0.0, "")
    assert (gate.statistic, gate.sample_count, gate.passed) == (0.0, 400, True)
    assert gate.ci_radius == harness.Z99 * math.sqrt(1 / 400 / 400)
    events[:40] = True
    gate = harness._freq_gate("kind", "gate", events, 0.05, "")
    assert gate.ci_radius == harness.Z99 * math.sqrt(0.1 * 0.9 / 400)
    assert gate.passed is False  # 0.1 > 0.05 + 0.0386


def per_stage_tally(row, col, n):
    """Joint action counts (E, n, n) of (E, stages) actions, stage by stage."""
    tally = np.zeros((len(row), n, n), np.int64)
    for e in range(len(row)):
        for i, j in zip(row[e].tolist(), col[e].tolist()):
            tally[e, i, j] += 1
    return tally


def per_word_tally(row, col, n):
    """Joint action counts (E, words, n, n) of (E, stages) actions in each
    64 stages, stage by stage; the last word may be partial."""
    tally = np.zeros((len(row), -(-row.shape[1] // 64), n, n), np.int64)
    for e in range(len(row)):
        for s, (i, j) in enumerate(zip(row[e].tolist(), col[e].tolist())):
            tally[e, s // 64, i, j] += 1
    return tally


# Strategies over 2-5 actions whose cut lists are full, repeat a cut (a
# zero-probability middle action) or stop short of n - 1 cuts (a
# zero-probability last action, a pure strategy).
CUT_LIST_STRATEGIES = [
    ([0.3, 0.7], [1.0, 0.0]),
    ([0.5, 0.0, 0.5], [0.2, 0.3, 0.5]),
    ([0.0, 1.0, 0.0], [0.25, 0.75, 0.0]),
    ([0.1, 0.2, 0.3, 0.4], [0.4, 0.0, 0.0, 0.6]),
    ([0.2, 0.2, 0.0, 0.2, 0.4], [0.0, 0.5, 0.0, 0.5, 0.0]),
]


def test_joint_counts_equal_a_per_stage_tally(monkeypatch):
    for p, q in CUT_LIST_STRATEGIES:
        check_joint_counts(monkeypatch, np.array(p), np.array(q))


def check_joint_counts(monkeypatch, p, q):
    # The indicators of the replays' records: play_batch records (stages,
    # seats, episodes), and its transposed seats are F-ordered (episodes,
    # stages) views.  Each 64-stage word's counts are those of its stages,
    # the last word's too when it is partial, and the words of an episode
    # add up to its counts.
    n = len(p)
    rng = np.random.default_rng(n)
    for stages in (1, 63, 64, 65, 70, 128, 130):
        record = rng.integers(0, n, size=(stages, 2, 40), dtype=np.uint8)
        row, col = record[:, 0].T, record[:, 1].T
        tally = per_word_tally(row, col, n)
        words = _joint_counts(_at_least(row, n), _at_least(col, n))
        assert words.shape == (40, -(-stages // 64), n, n)
        assert np.array_equal(words, tally)
        assert np.array_equal(words.sum(axis=1), per_stage_tally(row, col, n))
        c_row, c_col = np.ascontiguousarray(row), np.ascontiguousarray(col)
        assert np.array_equal(_joint_counts(_at_least(c_row, n), _at_least(c_col, n)), tally)
    empty = _at_least(np.zeros((3, 0), np.uint8), n)
    assert np.array_equal(_joint_counts(empty, empty), np.zeros((3, 0, n, n)))
    # The sampler's indicators, in row blocks of one cell, of a few rows and
    # of all rows, are those of _choice's actions on the same draws, and
    # their counts the tally of those actions.
    keys = rng.integers(0, 2**64, size=45, dtype=np.uint64)
    z = _draws(keys, 2 + 2 * 3, 2 * 70)  # the draws of stages 3-72
    acts = [_choice(z[seat::2].T, _choice_cuts(sigma)) for seat, sigma in ((0, p), (1, q))]
    tally = per_word_tally(*acts, n)
    for cells in (1, 250, 1 << 16):
        monkeypatch.setattr(engine, "ROW_BLOCK_CELLS", cells)
        monkeypatch.setattr(engine, "EPISODE_BATCH", 20)
        stop = 0
        for rows, row_ge, col_ge in _iid_actions(keys, p, q, 3, 70):
            assert rows.start == stop
            stop = rows.stop
            assert np.array_equal(row_ge, _at_least(acts[0][rows], n))
            assert np.array_equal(col_ge, _at_least(acts[1][rows], n))
            assert np.array_equal(_joint_counts(row_ge, col_ge), tally[rows])
        assert stop == len(keys)
