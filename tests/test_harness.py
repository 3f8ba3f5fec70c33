import math
import types

import numpy as np
import pytest

from cooplab.game_core import GameError, TypeSpace
from cooplab import agents, harness
from cooplab.agents import (
    AgentSpec,
    build_agents,
    build_convention_table,
    default_eta,
    theorem26_params,
)
from cooplab.engine import (
    BatchAdaptive,
    BatchFixedSequence,
    BatchMW,
    EpisodeStreams,
    RegretKernel,
    play_batch,
)
from cooplab.equilibria import worst_pone_payoff
from cooplab.harness import (
    CONSISTENCY_ADVERSARIES,
    EXPERIMENT_KINDS,
    MW_ADVERSARIES,
    TRIGGER_BLOCK,
    ExperimentConfig,
    VerificationResult,
    _default_ic_mu,
    _first_trigger_stage,
    emit_curves,
    fixture_type_space,
    run_experiment,
)
from cooplab.imitation_commit import fit_imitation
from cooplab.population import (
    Population,
    TypeDistribution,
    _sample_action,
    derive_episode_seed,
    derive_episode_seeds,
    generate_dataset,
    run_episode,
    write_dataset,
)
from scalar_agents import (
    ImitateThenCommitAgent,
    ProtocolAgent,
    SplitMix64,
    build_scalar,
    play_episode,
)


@pytest.fixture(scope="module")
def ts2():
    return fixture_type_space("typespace_2.json")


def agent_first_trigger(ts, joint, k, threshold, i_acts, j_acts, seat):
    """Reference oracle: step a real protocol agent through the handshake and
    a fixed convention action stream; report the first convention stage after
    which it falls back (-1 if never)."""
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
    for s in range(len(i_acts)):
        if seat == "row":
            agent.observe(int(i_acts[s]), int(j_acts[s]))
        else:
            agent.observe(int(j_acts[s]), int(i_acts[s]))
        if agent.phase == "fallback":
            return s
    return -1


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
    # The si-selfplay fast path must flag exactly the stage at which a real
    # protocol agent's accumulator first exceeds its threshold.
    joint = ("gamma", "delta")
    k = 1
    table = build_convention_table(ts)
    prof = table.profile(joint)
    A = ts.payoff_table["gamma"]
    B = ts.payoff_table["delta"]
    (ha, hexp_r), (hb, hexp_c) = handshake_sums(ts, table, joint, k, k + stages)
    rng = np.random.default_rng(17)
    for threshold in (0.5, 1.0, 2.0, 5.0):
        i_acts = rng.choice(2, size=(30, stages), p=prof.sigma_row)
        j_acts = rng.choice(2, size=(30, stages), p=prof.sigma_col)
        trig_row = _first_trigger_stage(A, prof.sigma_row, j_acts, ha, hexp_r, threshold)
        trig_col = _first_trigger_stage(B, prof.sigma_col, i_acts, hb, hexp_c, threshold)
        for e in range(30):
            assert trig_row[e] == agent_first_trigger(
                ts, joint, k, threshold, i_acts[e], j_acts[e], "row"
            )
            assert trig_col[e] == agent_first_trigger(
                ts, joint, k, threshold, i_acts[e], j_acts[e], "col"
            )


def test_vectorized_trigger_matches_protocol_agent(ts2):
    check_trigger_against_protocol_agent(ts2, stages=40)


def test_vectorized_trigger_matches_protocol_agent_beyond_one_block(ts2):
    # Triggers that fall in later blocks of the stage scan, and its last,
    # partial block.
    check_trigger_against_protocol_agent(ts2, stages=2 * TRIGGER_BLOCK + 23)


class GivenUniforms:
    """Stands in for ``EpisodeStreams`` in ``play_batch``: hands out the rows
    of ``u`` (draws, E) in order."""

    def __init__(self, u):
        self.u, self.pos = u, 0

    def uniforms(self, count):
        self.pos += count
        return self.u[self.pos - count : self.pos]


def lower_protocol_thresholds(monkeypatch, by):
    """Lower the tripwire of the harness's kernel and of the protocol agents
    alike, so that many more episodes trip it."""
    for module in (agents, harness):
        threshold = module.protocol_threshold
        monkeypatch.setattr(module, "protocol_threshold", lambda *a, f=threshold: f(*a) - by)


def si_selfplay_run(cfg):
    """si-selfplay's per-episode (row, col) average payoffs, its fallback
    flags and its detail; and per chunk of each joint type's episodes, the
    joint, the episodes and the uniforms of their convention stages, row
    seat and column seat (episodes, T - k), drawn as the kernel draws them:
    the whole chunk's row-seat draws, then its column-seat draws, from the
    joint's generator."""
    results, artifacts = run_experiment(cfg)
    rows = [line.split(",") for line in artifacts["si_selfplay.csv"].splitlines()[1:]]
    pay = np.array([[float(r[3]), float(r[4])] for r in rows])
    fell = np.array([r[5] == "1" for r in rows])
    mu = TypeDistribution.uniform(cfg.type_space)
    joint_idx = harness._rng(cfg.seed, 0x5349).choice(
        len(mu.support), size=cfg.episodes, p=np.asarray(mu.weights))
    chunks = []
    for jt, joint in enumerate(mu.support):
        ids = np.flatnonzero(joint_idx == jt)
        rng = harness._rng(cfg.seed, 0x5349, 1 + jt)
        for start in range(0, len(ids), harness.SI_SELFPLAY_CHUNK):
            chunk = ids[start : start + harness.SI_SELFPLAY_CHUNK]
            size = (len(chunk), cfg.horizon - cfg.k)
            chunks.append((joint, chunk, rng.random(size), rng.random(size)))
    return pay, fell, results[0].detail, chunks


def selfplay_payoffs(ts, table, joint, k, acts_row, acts_col):
    """Both seats' average payoffs of episodes with (episodes, T) actions,
    summed as si-selfplay sums them: the handshake's stage by stage, then
    the convention stages' with ``_payoff_sums``, or as stages times the
    payoff for a pure convention, which the actions must then follow."""
    A, B = ts.payoff_table[joint[0]], ts.payoff_table[joint[1]]
    T = acts_row.shape[1]
    hexp_r = hexp_c = 0.0
    for i, j in zip(acts_row[0, :k].tolist(), acts_col[0, :k].tolist()):
        hexp_r += A[i, j]
        hexp_c += B[j, i]
    prof = table.profile(joint)
    if prof.sigma_row.max() > 1 - 1e-12 and prof.sigma_col.max() > 1 - 1e-12:
        i, j = prof.sigma_row.argmax(), prof.sigma_col.argmax()
        assert (acts_row[:, k:] == i).all() and (acts_col[:, k:] == j).all()
        pay_r = np.full(len(acts_row), (T - k) * A[i, j])
        pay_c = np.full(len(acts_row), (T - k) * B[j, i])
    else:  # C-ordered, as the kernel's actions: numpy sums their rows pairwise
        own, opp = (np.ascontiguousarray(acts[:, k:]) for acts in (acts_row, acts_col))
        pay_r = harness._payoff_sums(A, own, opp)
        pay_c = harness._payoff_sums(B, opp, own)
    return np.stack([(hexp_r + pay_r) / T, (hexp_c + pay_c) / T], axis=1)


@pytest.mark.parametrize("lowered, chunk", [(0.0, None), (8.0, 37)],
                         ids=["acceptance thresholds", "lowered thresholds, chunks of 37"])
def test_si_selfplay_equals_protocol_agents_on_the_engine(monkeypatch, lowered, chunk):
    # Every episode, replayed or settled by the kernel, has the payoffs and
    # fallback flag of the two protocol agents played on the engine over the
    # kernel's uniforms from the first stage.
    lower_protocol_thresholds(monkeypatch, lowered)
    if chunk:
        monkeypatch.setattr(harness, "SI_SELFPLAY_CHUNK", chunk)
    ts = fixture_type_space("typespace_4.json")
    table = build_convention_table(ts)
    k, T = 2, 60
    cfg = ExperimentConfig(kind="si-selfplay", episodes=2000, horizon=T, delta=0.9, k=k,
                           seed=5, type_space=ts)
    pay, fell, detail, chunks = si_selfplay_run(cfg)
    spec = AgentSpec("Protocol", {"eps1": theorem26_params(cfg.delta, T, k, 2).eps1, "k": k})
    first = T
    for joint, ids, u_row, u_col in chunks:
        E = len(ids)
        u = np.zeros((T, 2, E))  # handshake stages are pure: any uniform samples them
        u[k:, 0], u[k:, 1] = u_row.T, u_col.T
        seats = [build_agents(spec, ts, T, seat, [joint[s]] * E, np.zeros(E, np.uint64), table)
                 for s, seat in enumerate(("row", "col"))]
        record = play_batch(*seats, T, GivenUniforms(u.reshape(2 * T, E)), record=True)
        want = selfplay_payoffs(ts, table, joint, k, record[:, 0].T, record[:, 1].T)
        assert np.array_equal(pay[ids], want)
        stages = np.stack([seat.fallback_stage for seat in seats])
        assert np.array_equal(fell[ids], (stages >= 0).any(axis=0))
        first = min([first, *stages[stages >= 0].tolist()])
    replayed = int(detail.split("replayed by the agents ")[1].split(",")[0])
    assert replayed > (100 if lowered else 0)
    assert detail.endswith(f"fallbacks {fell.sum()}, first at stage {first}")


def test_triggered_episode_replay_matches_scalar_protocol_agents(monkeypatch):
    # The episodes si-selfplay replays, with the tripwire lowered so that it
    # fires in many, against scalar protocol agents that sample every stage
    # by _sample_action from the kernel's uniforms.
    lower_protocol_thresholds(monkeypatch, 8.0)
    ts = fixture_type_space("typespace_4.json")
    table = build_convention_table(ts)
    k, T = 2, 60
    cfg = ExperimentConfig(kind="si-selfplay", episodes=600, horizon=T, delta=0.9, k=k,
                           seed=3, type_space=ts)
    pay, fell, _, chunks = si_selfplay_run(cfg)
    eps1 = theorem26_params(cfg.delta, T, k, 2).eps1
    checked = 0
    for joint, ids, u_row, u_col in chunks:
        for e, ur, uc in zip(ids.tolist(), u_row, u_col):
            if not fell[e]:
                continue
            ar = ProtocolAgent(joint[0], "row", ts, table, k, T, eps1)
            ac = ProtocolAgent(joint[1], "col", ts, table, k, T, eps1)
            ar.threshold -= 8.0
            ac.threshold -= 8.0
            acts = []
            for t in range(T):
                draws = (0.0, 0.0) if t < k else (ur[t - k], uc[t - k])
                i, j = (_sample_action(agent.act(), types.SimpleNamespace(random=lambda d=d: d))
                        for agent, d in zip((ar, ac), draws))
                ar.observe(i, j)
                ac.observe(j, i)
                acts.append((i, j))
            assert "fallback" in (ar.phase, ac.phase)
            acts = np.array(acts).T[:, None, :]
            assert np.array_equal(pay[e], selfplay_payoffs(ts, table, joint, k, *acts)[0])
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
        master = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x4943, K]))
        master = int(master.integers(2**62))
        ds = generate_dataset(pop, mu, ts, K, T, master_seed=master, convention_table=ct)
        policies[K] = fit_imitation(ds, tilde_T, seat="row")
    draws = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x4556]))
    joint_ids = draws.choice(len(mu.support), size=eval_episodes, p=np.asarray(mu.weights))
    partner_ids = draws.choice(len(pop.members), size=eval_episodes, p=np.asarray(pop.weights))
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


def test_every_artifact_value_parses_as_float(ts2):
    # Cells that are not labels must be plain numbers: a numpy scalar repr
    # such as "np.float64(0.5)" makes emit-curves skip the whole file.
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
    labels = {"adversary", "player", "theta1", "theta2", "theta_protocol",
              "theta_adversary", "history"}
    for kind, kw in small.items():
        _, artifacts = run_experiment(ExperimentConfig(kind=kind, seed=4, **kw))
        for name, text in artifacts.items():
            header, *rows = [line.split(",") for line in text.splitlines()]
            assert rows, name
            for row in rows:
                for column, cell in zip(header, row):
                    if column not in labels:
                        float(cell)


def _rng(seed, *tags):
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


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
            rng = _rng(cfg.seed, 0x6D77, n, r)
            A[i] = rng.random((n, n))
            if kind == "random":
                script[i] = rng.integers(0, n, size=T)
            elif kind == "constant":
                script[i] = rng.integers(0, n)
        if kind == "alternating":
            script = np.tile(np.arange(n), (len(runs), 1))
        opponent = (BatchAdaptive(kind, A) if kind in BatchAdaptive.KINDS
                    else BatchFixedSequence(script, n))
        kernel = RegretKernel(A)
        play_batch(BatchMW(A, default_eta(n, T)), opponent, T, regret=kernel)
        regrets[runs.start::runs.step] = kernel.regret()
    rows = ["run,adversary,expected_regret,bound"]
    rows += [f"{r},{MW_ADVERSARIES[r % len(MW_ADVERSARIES)]},{reg!r},{bound!r}"
             for r, reg in enumerate(regrets.tolist())]
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("episodes", [1, 3, 7, 12, 53])
def test_mw_regret_csv_matches_per_adversary_loop(episodes, n):
    # Fewer runs than kinds, uneven runs per kind, and more.
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
    draws = _rng(cfg.seed, 0x434F)
    rows = ["run,adversary,theta_protocol,theta_adversary,expected_regret,bound"]
    fallback_stages = []
    run_id = 0
    for adversary in CONSISTENCY_ADVERSARIES:
        joints = [(ts.types[int(draws.integers(len(ts.types)))],
                   ts.types[int(draws.integers(len(ts.types)))]) for _ in range(runs_each)]
        for start in range(0, runs_each, batch):
            chunk = joints[start : start + batch]
            runs = range(run_id + start, run_id + start + len(chunk))
            seeds = derive_episode_seeds(cfg.seed, 0x434F0000 + np.arange(runs.start, runs.stop))
            streams = EpisodeStreams(seeds)
            protocol = build_agents(proto_spec, ts, T, "row", [a for a, _ in chunk],
                                    streams.agent_seeds[0], ct)
            opponent = build_agents(AgentSpec(adversary, {}), ts, T, "col", [b for _, b in chunk],
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
        patch.setattr(harness, "EPISODE_BATCH", batch)
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
            patch.setattr(harness, name, counted(name, getattr(harness, name)))
        results, _ = run_experiment(cfg)
    assert calls == {"play_batch": 1, "EpisodeStreams": 1}
    assert results[0].passed
    assert results[0].detail == (
        "violations=0; 250 runs per adversary, 1000 of 1000 requested; protocol fallbacks 327 "
        "(GrimTrigger 183, BestResponder 62, UniformRandom 52, MW 30), first at stage 202"
    )


def test_ic_eval_csv_matches_episode_loop_in_chunks_that_split_members(ts2):
    # Chunks of 37 episodes: each holds episodes of every member, and every
    # chunk spot-checks each member's first episode in it.
    population = Population(
        members=[
            AgentSpec("Protocol", {"eps1": 0.2, "k": 1}),
            AgentSpec("Flattened", {"members": [{"kind": "UniformRandom"}], "weights": [1.0]}),
            AgentSpec("GrimTrigger"),
        ],
        weights=[0.5, 0.2, 0.3],
    )
    cfg = ExperimentConfig(
        kind="ic-eval", horizon=12, k=1, tilde_T=4, delta=0.1, seed=3, type_space=ts2,
        population=population, extra={"K_values": [0, 40], "eval_episodes": 100},
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "EPISODE_BATCH", 37)
        _, artifacts = run_experiment(cfg)
    assert artifacts["ic_eval.csv"] == ic_eval_csv_by_episode_loop(cfg)


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
    }.items():
        run_experiment(ExperimentConfig(kind=kind, seed=4, out_dir=str(tmp_path), **kw))
    emitted = emit_curves(str(tmp_path))
    assert "flatten_check_curve.tsv" not in emitted
    assert emitted["si_selfplay_curve.tsv"].startswith("theta1,theta2\tmean_avg_payoff_row\t")
    assert emitted["mixture_check_curve.tsv"].startswith("N\tmean_identity_error\t")


def test_ic_eval_spot_check_refuses_a_batched_episode_that_differs(ts2, monkeypatch):
    # Each chunk replays one batched episode per member with run_episode; a
    # batched record with the IC agent's actions flipped must fail it.
    def flipped(*args, **kwargs):
        record = play_batch(*args, **kwargs)
        record[:, 0] = 1 - record[:, 0]
        return record

    monkeypatch.setattr(harness, "play_batch", flipped)
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


def test_payoff_sums_do_not_depend_on_the_action_layout():
    # play_batch records (stages, seats, episodes); its transposed seats are
    # F-ordered (episodes, stages) views.
    rng = np.random.default_rng(0)
    m = rng.random((3, 3))
    record = rng.integers(0, 3, size=(1000, 2, 300), dtype=np.uint8)
    own, opp = record[:, 0].T, record[:, 1].T
    c_own, c_opp = np.ascontiguousarray(own), np.ascontiguousarray(opp)
    got = harness._payoff_sums(m, own, opp).tobytes()
    assert got == harness._payoff_sums(m, c_own, c_opp).tobytes()
    assert got == m[c_own, c_opp].sum(axis=1).tobytes()
