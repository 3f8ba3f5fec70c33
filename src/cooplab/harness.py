"""Experiment orchestration and statistical bound verification.

Each experiment runs a seeded episode batch, computes the relevant empirical
statistic, recomputes the corresponding theoretical bound at report time, and
emits per-episode CSV rows plus pass/fail verification results.  A runner
gives each ``VerificationResult`` its statistic, bound, confidence radius and
rounding tolerance; the result derives its verdict from them by one rule
(``VerificationResult.passed``).

The agent-zoo experiments (mw-regret, si-consistency) and ic-eval, its
datasets included, step their episodes in batches on the batched engine
(``engine.py``), on the per-episode random streams of ``run_episode``, with
every agent kind (``agents.build_seat``); ic-eval replays each partner
member's first episode of a batch with ``run_episode`` as a spot check.
Equilibrium and protocol self-play run on numpy kernels that stream their
draws in cache-sized blocks of episodes or stages, with the same random
numbers and float sums as drawing the whole run at once, and sample by the
engine's inverse CDF (``engine.sample_actions``).  In protocol self-play the
protocol agents play the handshake on the engine, and every episode whose
regret tripwire fires in the kernel's scan is played again by them from the
end of the handshake, on the kernel's own uniforms; the kernel settles only
the episodes that never trip.
"""
from __future__ import annotations

import copy
import math
import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .game_core import (
    BimatrixGame,
    GameError,
    TypeSpace,
    check_mixed,
    history_distribution,
    normalize_game,
)
# pareto_optimal_nash: unused here; kept bindable for the benchmark's tracer.
from .equilibria import enumerate_nash, pareto_optimal_nash, worst_pone_payoff
from .regret import azuma_thresholds
from .agents import (
    AgentSpec,
    build_agent,
    build_convention_table,
    build_agents,
    build_seat,
    default_eta,
    protocol_threshold,
    theorem26_params,
    tree_act_fn,
)
from .engine import (
    EPISODE_BATCH,
    BatchAdaptive,
    BatchFixedSequence,
    BatchGroups,
    BatchMW,
    EpisodeStreams,
    RegretKernel,
    play_batch,
)
from .population import (
    Population,
    TypeDistribution,
    derive_episode_seed,  # unused here; kept bindable for the benchmark's tracer
    derive_episode_seeds,
    flatten_population,
    generate_dataset,
    play_episode,  # unused here; kept bindable for the benchmark's tracer
    run_episode,
)
from .imitation_commit import (
    BatchIC,
    auth_failure_probability,
    commitment_draws,
    delta_K,
    fit_imitation,
    mixture_from_joint,
    theorem42_bound,
)

Z99 = 2.5758293035489004  # one-sided 99% normal quantile (two-sided 98%)

# The self-play kernels stream their random draws in blocks that stay in
# cache.  None of these sizes changes a drawn number or a float sum.
SELFPLAY_CHUNK = 500  # nash-selfplay episodes stepped at a time
SI_SELFPLAY_CHUNK = 2000  # si-selfplay episodes drawn at a time per joint type
TRIGGER_BLOCK = 64  # stages per block of the si-selfplay trigger scan
ROW_BLOCK_CELLS = 1 << 18  # cells per block of rows drawn or summed at a time

def fixture_path(name: str):
    return resources.files("cooplab") / "fixtures" / name


def fixture_type_space(name: str) -> TypeSpace:
    return TypeSpace.from_file(fixture_path(name))


@dataclass
class ExperimentConfig:
    kind: str
    episodes: int = 1000
    horizon: int = 1000
    delta: float = 0.05
    num_actions: int = 2
    k: int | None = None
    tilde_T: int | None = None
    seed: int = 0
    type_space: TypeSpace | None = None
    population: Population | None = None
    mu: TypeDistribution | None = None
    out_dir: str | None = None
    # Kind-specific options; ``run_experiment`` refuses keys its kind does not read.
    extra: dict = field(default_factory=dict)


@dataclass
class VerificationResult:
    """One gate.  It passes while ``statistic <= bound + ci_radius + tol``,
    or, for a ``lower`` gate, while ``statistic >= bound - ci_radius - tol``;
    a NaN statistic fails either way.  ``tol`` is a rounding slack."""

    kind: str
    label: str
    statistic: float
    bound: float
    sample_count: int
    ci_radius: float = 0.0
    detail: str = ""
    tol: float = 0.0
    lower: bool = False

    @property
    def passed(self) -> bool:
        if self.lower:
            return bool(self.statistic >= self.bound - self.ci_radius - self.tol)
        return bool(self.statistic <= self.bound + self.ci_radius + self.tol)

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"[{status}] {self.kind} :: {self.label}: statistic={self.statistic:.6g} "
            f"bound={self.bound:.6g} (n={self.sample_count}"
        )
        if self.ci_radius:
            line += f", ci={self.ci_radius:.3g}"
        line += ")"
        if self.detail:
            line += f" {self.detail}"
        return line


def _ci99_mean(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return Z99 * float(values.std(ddof=1)) / math.sqrt(len(values))


def _freq_gate(kind: str, label: str, events: np.ndarray, delta: float, detail: str):
    """The gate that ``events`` (one flag per sample) happen with frequency
    at most ``delta``, within a 99% normal radius whose variance is floored
    at 1/n."""
    n, freq = len(events), float(events.mean())
    ci = Z99 * math.sqrt(max(freq * (1.0 - freq), 1.0 / n) / n)
    return VerificationResult(kind, label, statistic=freq, bound=delta, sample_count=n,
                              ci_radius=ci, detail=detail)


def _sure_gate(kind: str, label: str, values: np.ndarray, bound: float, detail: str):
    """The gate that every one of ``values`` is at most ``bound``, up to a
    1e-9 rounding slack that the count of violations uses too."""
    tol = 1e-9
    violations = f"violations={int((values > bound + tol).sum())}"
    return VerificationResult(kind, label, statistic=float(values.max()), bound=bound,
                              sample_count=len(values), tol=tol,
                              detail=violations + (f"; {detail}" if detail else ""))


def _rng(cfg_seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(cfg_seed), *tags]))


# ---------------------------------------------------------------------------
# MW regret (hard, per-run bound)

MW_ADVERSARIES = ("adaptive-min", "adaptive-regret", "random", "constant", "alternating")


def run_mw_regret(cfg: ExperimentConfig):
    n = cfg.num_actions
    T = cfg.horizon
    bound = math.sqrt((T / 2.0) * math.log(n))
    # Run r faces kind r mod 5.  Its generator draws its matrix, then the scripted
    # kinds' actions (random: T, constant: one); alternating plays 0, ..., n - 1.
    E, kinds = cfg.episodes, len(MW_ADVERSARIES)
    runs = [np.arange(i, E, kinds) for i in range(kinds)]
    scripts = [np.empty((len(index), size), np.min_scalar_type(n - 1))
               for index, size in zip(runs, (0, 0, T, 1, n))]
    scripts[4][:] = np.arange(n)
    A = np.empty((E, n, n))
    for r in range(E):
        rng = _rng(cfg.seed, 0x6D77, n, r)
        A[r] = rng.random((n, n))
        if MW_ADVERSARIES[r % kinds] in ("random", "constant"):
            script = scripts[r % kinds]
            script[r // kinds] = rng.integers(0, n, size=script.shape[1])
    adversaries = BatchGroups([
        (index, BatchAdaptive(kind, A[index]) if kind in BatchAdaptive.KINDS
         else BatchFixedSequence(script, n))
        for index, kind, script in zip(runs, MW_ADVERSARIES, scripts) if len(index)
    ], n)
    kernel = RegretKernel(A)
    play_batch(BatchMW(A, default_eta(n, T)), adversaries, T, regret=kernel)
    regrets = kernel.regret()
    rows = ["run,adversary,expected_regret,bound"]
    for r, reg in enumerate(regrets.tolist()):
        rows.append(f"{r},{MW_ADVERSARIES[r % len(MW_ADVERSARIES)]},{reg!r},{bound!r}")
    result = _sure_gate(cfg.kind, f"expected regret <= sqrt((T/2) ln N) surely, N={n}",
                        regrets, bound, "")
    return [result], {f"mw_regret_N{n}.csv": "\n".join(rows) + "\n"}


# ---------------------------------------------------------------------------
# Equilibrium self-play concentration (vectorized i.i.d. sampling)


def _choice_cuts(p: np.ndarray) -> np.ndarray:
    """The cut points of ``engine.sample_actions`` for the strategy ``p``:
    the running sums of ``max(p, 0)``, left to right, before its last
    positive action.  A draw at or above the total so takes that action, as
    the engine's guard does, whatever the total."""
    cdf = np.maximum(p, 0.0).cumsum()
    return cdf[: np.flatnonzero(p > 0.0)[-1]]


def _choice(u: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The actions ``engine.sample_actions`` samples from the uniforms ``u``
    for the strategy of ``cuts``: the number of cuts at or below each
    draw."""
    acts = np.zeros(u.shape, np.min_scalar_type(len(cuts)))
    for c in cuts:
        acts += u >= c
    return acts


def _row_blocks(rows: int, cols: int):
    """Slices of at most about ROW_BLOCK_CELLS cells of a (rows, cols) array."""
    step = max(1, ROW_BLOCK_CELLS // max(cols, 1))
    return (slice(r, min(r + step, rows)) for r in range(0, rows, step))


def _draw_actions(rng: np.random.Generator, cuts: np.ndarray, rows: int, cols: int):
    """``_choice(rng.random((rows, cols)), cuts)``, drawn a block of rows at
    a time."""
    acts = np.empty((rows, cols), np.min_scalar_type(len(cuts)))
    for block in _row_blocks(rows, cols):
        acts[block] = _choice(rng.random((block.stop - block.start, cols)), cuts)
    return acts


def _payoff_sums(m: np.ndarray, own: np.ndarray, opp: np.ndarray) -> np.ndarray:
    """Per-episode sums of ``m[own, opp]`` over the stages of (episodes,
    stages) action arrays, gathered from the flat matrix a block of rows at a
    time; each row sums as ``m[own, opp].sum(axis=1)`` does."""
    n = m.shape[1]
    flat = m.ravel()
    scale = np.min_scalar_type(n * n - 1).type(n)
    out = np.empty(len(own))
    for block in _row_blocks(*own.shape):
        index = np.multiply(own[block], scale, order="C")  # rows sum pairwise
        index += opp[block]
        out[block] = flat[index].sum(axis=1)
    return out


def _selfplay_regrets(game: BimatrixGame, p: np.ndarray, q: np.ndarray,
                      episodes: int, T: int, rng: np.random.Generator):
    """Realized and expected external regrets for both players over i.i.d.
    self-play episodes of a fixed mixed profile.

    The actions are ``_choice`` of ``rng.random((episodes, T))`` for the row
    player's ``p``, then the same with ``q`` for the column player, made
    SELFPLAY_CHUNK episodes at a time: the row draws come from ``rng``, the
    column draws from a copy of it advanced past every row draw, and ``rng``
    ends where the two whole-run draws leave it.  The chunks yield action
    counts and realized payoffs; the counterfactual and expected payoffs are
    matrix products over all episodes at once, whose rounding BLAS may choose
    by the number of rows.
    """
    n = game.num_actions
    cuts = {"row": _choice_cuts(p), "col": _choice_cuts(q)}
    col_rng = copy.deepcopy(rng)
    col_rng.bit_generator.advance(episodes * T)
    counts = {player: np.empty((episodes, n)) for player in cuts}
    realized = {player: np.empty(episodes) for player in cuts}
    for start in range(0, episodes, SELFPLAY_CHUNK):
        rows = slice(start, min(start + SELFPLAY_CHUNK, episodes))
        size = (rows.stop - rows.start, T)
        acts = {
            "row": _choice(rng.random(size), cuts["row"]),
            "col": _choice(col_rng.random(size), cuts["col"]),
        }
        for player, other, m in (("row", "col", game.payoff_row), ("col", "row", game.payoff_col)):
            counts[player][rows] = np.stack(
                [np.count_nonzero(acts[player] == j, axis=1) for j in range(n)], axis=1
            )
            realized[player][rows] = _payoff_sums(m, acts[player], acts[other])
    rng.bit_generator.state = col_rng.bit_generator.state
    out = {}
    for player, other, sigma, m in (
        ("row", "col", p, game.payoff_row),
        ("col", "row", q, game.payoff_col),
    ):
        best = (counts[other] @ m.T).max(axis=1)
        out[player] = (best - realized[player], best - counts[other] @ (sigma @ m))
    return out


def run_nash_selfplay(cfg: ExperimentConfig):
    ts = cfg.type_space or fixture_type_space("coordination_2x2.json")
    joint = (ts.types[0], ts.types[0])
    game = normalize_game(ts.game(*joint))
    profile = cfg.extra.get("profile")
    if profile is None:
        # Default to the full-support (mixed) equilibrium when one exists.
        profiles = enumerate_nash(game).profiles
        mixed = [p for p in profiles if (p.sigma_row > 0).all() and (p.sigma_col > 0).all()]
        chosen = (mixed or profiles)[-1]
        profile = (chosen.sigma_row, chosen.sigma_col)
    n = game.num_actions
    p, q = check_mixed(profile[0], n), check_mixed(profile[1], n)
    T, delta = cfg.horizon, cfg.delta
    thresholds = azuma_thresholds(T, delta)
    regs = _selfplay_regrets(game, p, q, cfg.episodes, T, _rng(cfg.seed, 0x4E45))
    rows = ["episode,player,realized_regret,expected_regret"]
    results = []
    for player in ("row", "col"):
        realized, expected = regs[player]
        for e, (r, x) in enumerate(zip(realized.tolist(), expected.tolist())):
            rows.append(f"{e},{player},{r!r},{x!r}")
        checks = (
            ("realized regret", realized, thresholds.realized_bound),
            ("expected regret", expected, thresholds.expected_bound),
            ("realized-expected gap", np.abs(realized - expected), thresholds.relation_slack),
        )
        results += [_freq_gate(cfg.kind, f"{label} ({player}) violation freq <= delta",
                               values > bound, delta, f"threshold={bound:.4g}")
                    for label, values, bound in checks]
    return results, {"nash_selfplay.csv": "\n".join(rows) + "\n"}


# ---------------------------------------------------------------------------
# Protocol self-play (compatibility: convention payoffs reached w.h.p.)


class _Draws:
    """Uniforms given in advance, handed out as ``EpisodeStreams.uniforms``
    hands out its streams' draws: ``u`` is (draws, E)."""

    def __init__(self, u: np.ndarray):
        self._u, self._pos = u, 0

    def uniforms(self, count: int) -> np.ndarray:
        self._pos += count
        return self._u[self._pos - count : self._pos]


def _redraw(rng: np.random.Generator, starts: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` uniforms the fresh generator ``rng`` draws from each of
    the increasing draw numbers ``starts`` on, a column each."""
    out, pos = np.empty((count, len(starts))), 0
    for column, start in enumerate(starts.tolist()):
        rng.bit_generator.advance(start - pos)
        out[:, column] = rng.random(count)
        pos = start + count
    return out


def _first_trigger_stage(
    m: np.ndarray,
    sigma: np.ndarray,
    opp_acts: np.ndarray,
    h_cf: np.ndarray,
    h_exp: float,
    threshold: float,
) -> np.ndarray:
    """Per-episode first convention stage (0-based, after the handshake) at
    which the expected-regret accumulator exceeds the threshold; -1 if never.

    ``opp_acts`` is (episodes, stages); the accumulator is
    max_a cum counterfactual(a) - cum expected payoff, seeded with the
    handshake contributions.  The stages are scanned TRIGGER_BLOCK at a time,
    each block laid out stage-major, with the running sums carried into the
    block's first stage, so every running sum adds its stage payoffs one at a
    time in stage order, and the handshake's afterwards.
    """
    episodes, stages = opp_acts.shape
    n = m.shape[0]
    # A pathological threshold could already be exceeded at the end of the
    # handshake; flag that as stage 0.
    if h_cf.max() - h_exp > threshold:
        return np.zeros(episodes, dtype=int)
    first = np.full(episodes, -1)
    table = np.vstack([m, sigma @ m])  # counterfactual rows, then expected payoff
    carry = None  # the running sums at the end of the previous block
    for s0 in range(0, stages, TRIGGER_BLOCK):
        opp = opp_acts[:, s0 : s0 + TRIGGER_BLOCK].T.astype(np.intp, order="C")
        run = np.take(table, opp, axis=1)  # (n + 1, width, episodes)
        if carry is not None:
            run[:, 0] += carry
        for s in range(1, len(opp)):
            np.add(run[:, s - 1], run[:, s], out=run[:, s])
        carry = run[:, -1]
        acc = (run[:n] + h_cf[:, None, None]).max(axis=0) - (run[n] + h_exp)
        hit = (acc.max(axis=0) > threshold) & (first < 0)
        if hit.any():
            first[hit] = s0 + (acc[:, hit] > threshold).argmax(axis=0)
    return first


def run_si_selfplay(cfg: ExperimentConfig):
    ts = cfg.type_space or fixture_type_space("typespace_4.json")
    n = ts.num_actions
    k = cfg.k if cfg.k is not None else 2
    T, delta = cfg.horizon, cfg.delta
    params = theorem26_params(delta, T, k, n)
    threshold = protocol_threshold(k, T, params.eps1, n)
    ct = build_convention_table(ts)
    mu = cfg.mu or TypeDistribution.uniform(ts)
    mu.validate_types(ts)
    draws = _rng(cfg.seed, 0x5349)
    joint_idx = draws.choice(len(mu.support), size=cfg.episodes, p=np.asarray(mu.weights))

    avg_pay_row = np.zeros(cfg.episodes)
    avg_pay_col = np.zeros(cfg.episodes)
    fallback = np.zeros(cfg.episodes, dtype=bool)

    # The protocol agents of both seats, row j for joint type j, play the
    # pure handshake (any uniform samples it); their regret kernels then hold
    # its counterfactual and realized payoffs.
    spec = AgentSpec("Protocol", {"eps1": params.eps1, "k": k})
    seats = [build_agents(spec, ts, T, seat, [joint[s] for joint in mu.support],
                          [0] * len(mu.support), ct) for s, seat in enumerate(("row", "col"))]
    play_batch(*seats, k, _Draws(np.zeros((2 * k, len(mu.support)))))

    pure_episodes = replayed = 0
    fallback_stages = []
    for jt_index, joint in enumerate(mu.support):
        episode_ids = np.nonzero(joint_idx == jt_index)[0]
        if len(episode_ids) == 0:
            continue
        prof = ct.profile(joint)
        p, q = prof.sigma_row, prof.sigma_col
        A, B = ts.payoff_table[joint[0]], ts.payoff_table[joint[1]]
        (ha, hexp_r), (hb, hexp_c) = (
            (seat.kernel.counterfactual[jt_index], seat.kernel.expected[jt_index]) for seat in seats)
        stages = T - k
        pure = (p.max() > 1.0 - 1e-12) and (q.max() > 1.0 - 1e-12)
        if pure:
            i_star, j_star = int(p.argmax()), int(q.argmax())
            # Convention play is deterministic; at a Nash profile the
            # accumulator can never exceed the threshold.
            if ha.max() - hexp_r > threshold or hb.max() - hexp_c > threshold:
                raise GameError("handshake alone exceeded the protocol threshold")
            drift_r = (ha + stages * A[:, j_star]).max() - (hexp_r + stages * A[i_star, j_star])
            drift_c = (hb + stages * B[:, i_star]).max() - (hexp_c + stages * B[j_star, i_star])
            if max(drift_r, drift_c) > threshold:
                raise GameError("pure convention profile exceeded the threshold")
            avg_pay_row[episode_ids] = (hexp_r + stages * A[i_star, j_star]) / T
            avg_pay_col[episode_ids] = (hexp_c + stages * B[j_star, i_star]) / T
            pure_episodes += len(episode_ids)
            continue
        rng_joint = _rng(cfg.seed, 0x5349, 1 + jt_index)
        cuts_p, cuts_q = _choice_cuts(p), _choice_cuts(q)
        for start in range(0, len(episode_ids), SI_SELFPLAY_CHUNK):
            ids = episode_ids[start : start + SI_SELFPLAY_CHUNK]
            i_acts = _draw_actions(rng_joint, cuts_p, len(ids), stages)
            j_acts = _draw_actions(rng_joint, cuts_q, len(ids), stages)
            trig_r = _first_trigger_stage(A, p, j_acts, ha, hexp_r, threshold)
            trig_c = _first_trigger_stage(B, q, i_acts, hb, hexp_c, threshold)
            finish = np.flatnonzero((trig_r >= 0) | (trig_c >= 0))
            if len(finish):
                # The agents play these episodes on from the handshake, on
                # the uniforms the chunk drew for them: the row seat's from
                # draw (2 * start + row) * stages of the joint's generator,
                # the column seat's len(ids) rows further on.  Row s of u
                # holds stage s's row-seat draws, then its column-seat ones.
                at = np.concatenate([finish, len(ids) + finish])
                u = _redraw(_rng(cfg.seed, 0x5349, 1 + jt_index), (2 * start + at) * stages, stages)
                agents = [seat.take(np.full(len(finish), jt_index)) for seat in seats]
                record = play_batch(*agents, stages, _Draws(u.reshape(2 * stages, -1)), record=True)
                i_acts[finish], j_acts[finish] = record[:, 0].T, record[:, 1].T
                fell = np.stack([agent.fallback_stage for agent in agents])
                fallback[ids[finish]] = (fell >= 0).any(axis=0)
                fallback_stages += fell[fell >= 0].tolist()
                replayed += len(finish)
            avg_pay_row[ids] = (hexp_r + _payoff_sums(A, i_acts, j_acts)) / T
            avg_pay_col[ids] = (hexp_c + _payoff_sums(B, j_acts, i_acts)) / T

    rows = ["episode,theta1,theta2,avg_payoff_row,avg_payoff_col,fallback"]
    for e, (j, pr, pc, fb) in enumerate(zip(
        joint_idx.tolist(), avg_pay_row.tolist(), avg_pay_col.tolist(), fallback.tolist()
    )):
        a, b = mu.support[j]
        rows.append(f"{e},{a},{b},{pr!r},{pc!r},{int(fb)}")

    first = f", first at stage {min(fallback_stages)}" if fallback_stages else ""
    results = [_freq_gate(
        cfg.kind, "handshake+convention completes without fallback w.p. >= 1-delta",
        fallback, delta, f"pure-convention episodes {pure_episodes}, replayed by the agents "
        f"{replayed}, fallbacks {int(fallback.sum())}" + first,
    )]
    for jt_index, joint in enumerate(mu.support):
        ids = np.nonzero(joint_idx == jt_index)[0]
        if len(ids) == 0:
            continue
        prof = ct.profile(joint)
        for seat, values, target in (
            ("row", avg_pay_row[ids], prof.value_row),
            ("col", avg_pay_col[ids], prof.value_col),
        ):
            results.append(VerificationResult(
                cfg.kind, f"avg payoff near convention value, joint={joint}, {seat}",
                statistic=abs(float(values.mean()) - target), bound=params.eps0,
                sample_count=len(ids), ci_radius=_ci99_mean(values),
            ))
    return results, {"si_selfplay.csv": "\n".join(rows) + "\n"}


# ---------------------------------------------------------------------------
# Protocol vs. adversary zoo (consistency: sure regret bound)

CONSISTENCY_ADVERSARIES = ("GrimTrigger", "BestResponder", "UniformRandom", "MW")


def _fallback_detail(kinds, fallback_stages: np.ndarray) -> str:
    """Protocol fallbacks per adversary kind and the earliest one's stage
    (``BatchProtocol.fallback_stage``, -1 for runs that never fall back)."""
    fell = fallback_stages >= 0
    per_kind = np.bincount(np.asarray(kinds)[fell], minlength=len(CONSISTENCY_ADVERSARIES))
    counts = ", ".join(f"{kind} {c}" for kind, c in zip(CONSISTENCY_ADVERSARIES, per_kind.tolist()))
    first = f", first at stage {int(fallback_stages[fell].min())}" if fell.any() else ""
    return f"protocol fallbacks {int(fell.sum())} ({counts}){first}"


def run_si_consistency(cfg: ExperimentConfig):
    ts = cfg.type_space or fixture_type_space("typespace_4.json")
    n = ts.num_actions
    k = cfg.k if cfg.k is not None else 2
    T, delta = cfg.horizon, cfg.delta
    params = theorem26_params(delta, T, k, n)
    ct = build_convention_table(ts)
    bound = k + params.eps1 * (T - k) + math.sqrt(((T - k) / 2.0) * math.log(n))
    proto_spec = AgentSpec("Protocol", {"eps1": params.eps1, "k": k})
    adversaries = [AgentSpec(kind) for kind in CONSISTENCY_ADVERSARIES]
    runs_each = max(1, cfg.episodes // len(CONSISTENCY_ADVERSARIES))
    draws = _rng(cfg.seed, 0x434F)

    kinds = [c for c in range(len(CONSISTENCY_ADVERSARIES)) for _ in range(runs_each)]
    joints = [
        (ts.types[int(draws.integers(len(ts.types)))], ts.types[int(draws.integers(len(ts.types)))])
        for _ in kinds
    ]

    # Runs are stepped EPISODE_BATCH at a time in run order, whatever their
    # adversary kinds: the acceptance config's 1 000 runs are one play_batch.
    # Against three batches of 334 this took the benchmark's zoo-loop wall_s
    # from 0.345 to 0.263 s (medians of 10 pairs on a shared 2-core VM).
    regrets = np.empty(len(joints))
    fallback_stages = np.empty(len(joints), dtype=np.int64)
    for start in range(0, len(joints), EPISODE_BATCH):
        runs = slice(start, start + EPISODE_BATCH)
        batch = joints[runs]
        streams = EpisodeStreams(
            derive_episode_seeds(cfg.seed, 0x434F0000 + np.arange(start, start + len(batch)))
        )
        row = build_seat([proto_spec], [0] * len(batch), ts, T, "row", [a for a, _ in batch],
                         streams.agent_seeds[0], ct)
        col = build_seat(adversaries, kinds[runs], ts, T, "col", [b for _, b in batch],
                         streams.agent_seeds[1], ct)
        play_batch(row, col, T, streams)
        regrets[runs] = row.kernel.regret()
        fallback_stages[runs] = row.fallback_stage
    rows = ["run,adversary,theta_protocol,theta_adversary,expected_regret,bound"]
    for r, (c, (a, b), reg) in enumerate(zip(kinds, joints, regrets.tolist())):
        rows.append(f"{r},{CONSISTENCY_ADVERSARIES[c]},{a},{b},{reg!r},{bound!r}")
    result = _sure_gate(
        cfg.kind, "protocol expected regret <= k + eps1(T-k) + sqrt(((T-k)/2) ln N) surely",
        regrets, bound, f"{runs_each} runs per adversary, {len(regrets)} of {cfg.episodes} "
        "requested; " + _fallback_detail(kinds, fallback_stages),
    )
    return [result], {"si_consistency.csv": "\n".join(rows) + "\n"}


# ---------------------------------------------------------------------------
# Authentication failure frequency (lower-bound formulas)


AUTH_KS = (2, 3)  # handshake lengths
AUTH_COVERAGE = (0.0, 0.25, 0.5, 0.75, 1.0)  # observed share of the N^2k histories
AUTH_TOLERANCE = 0.02  # allowed gap between the empirical and predicted rates


def run_auth_failure(cfg: ExperimentConfig):
    n = cfg.num_actions
    trials = cfg.episodes
    rows = ["N,k,M,trials,empirical,predicted_corrected,predicted_as_printed"]
    results = []
    for k in AUTH_KS:
        num_histories = n ** (2 * k)
        for frac in AUTH_COVERAGE:
            M = int(round(frac * num_histories))
            rng = _rng(cfg.seed, 0x4155, k, M)
            observed = rng.choice(num_histories, size=M, replace=False)
            seen = np.zeros(num_histories, dtype=bool)
            seen[observed] = True
            faced = rng.integers(0, num_histories, size=trials)
            unseen = ~seen[faced]
            # On an unseen prefix the imitator plays uniformly; authentication
            # succeeds only if all k digits match the partner-determined code.
            guesses = rng.integers(0, n ** k, size=trials)
            targets = rng.integers(0, n ** k, size=trials)
            failures = unseen & (guesses != targets)
            emp = float(failures.mean())
            pred = auth_failure_probability(n, k, M)
            rows.append(
                f"{n},{k},{M},{trials},{emp!r},{pred.corrected!r},{pred.as_printed!r}"
            )
            # With every history observed no failure may happen at all.
            exact_zero = M == num_histories
            results.append(VerificationResult(
                cfg.kind, f"auth failure freq matches product form, k={k}, M={M}",
                statistic=emp if exact_zero else abs(emp - pred.corrected),
                bound=0.0 if exact_zero else AUTH_TOLERANCE, sample_count=trials,
                detail=f"empirical={emp:.4f} predicted={pred.corrected:.4f}",
            ))
    return results, {"auth_failure.csv": "\n".join(rows) + "\n"}


# ---------------------------------------------------------------------------
# Commitment-mixture identity and best-response inequality (hard bound)


def _random_joint(rng: np.random.Generator, n: int, case: int) -> np.ndarray:
    style = case % 4
    if style == 0:  # generic dense
        z = rng.random((n, n)) + 1e-3
    elif style == 1:  # product (uncorrelated) joint
        x = rng.random(n) + 1e-3
        y = rng.random(n) + 1e-3
        z = np.outer(x / x.sum(), y / y.sum())
    elif style == 2:  # duplicated conditionals across two columns
        z = rng.random((n, n)) + 1e-3
        z[:, 1] = z[:, 0] * (0.25 + rng.random())
    else:  # sparse support
        z = np.zeros((n, n))
        cols = rng.choice(n, size=max(1, n - 1), replace=False)
        for j in cols:
            z[int(rng.integers(0, n)), j] = rng.random() + 1e-3
    return z / z.sum()


MIXTURE_SIZES = (2, 3, 4)  # action counts, in turn


def run_mixture_check(cfg: ExperimentConfig):
    cases = cfg.episodes
    rows = ["case,N,identity_error,br_slack"]
    id_errors, br_slacks = [], []
    for case in range(cases):
        n = MIXTURE_SIZES[case % len(MIXTURE_SIZES)]
        rng = _rng(cfg.seed, 0x4D58, case)
        z = _random_joint(rng, n, case // len(MIXTURE_SIZES))
        B = rng.random((n, n))  # column player's [own, opp] payoff matrix
        col_value = float(sum(z[i, j] * B[j, i] for i in range(n) for j in range(n)))
        mixture = mixture_from_joint(z)
        mix_value = 0.0
        br_value = 0.0
        for (x, w), y in zip(mixture.components, mixture.replies()):
            mix_value += w * float(y @ B @ x)
            br_value += w * float((B @ x).max())
        id_errors.append(abs(mix_value - col_value))
        br_slacks.append(br_value - col_value)
        rows.append(f"{case},{n},{id_errors[-1]!r},{br_slacks[-1]!r}")
    results = [
        VerificationResult(cfg.kind, "mixture response-function payoff identity",
                           statistic=max(id_errors), bound=1e-9, sample_count=cases),
        VerificationResult(cfg.kind, "best-response payoff >= joint-strategy payoff",
                           statistic=min(br_slacks), bound=-1e-9, sample_count=cases,
                           detail="(statistic is the minimum slack)", lower=True),
    ]
    return results, {"mixture_check.csv": "\n".join(rows) + "\n"}


# ---------------------------------------------------------------------------
# Population flattening equivalence (exact, hard bound)


def _default_flatten_population() -> Population:
    return Population(
        members=[
            AgentSpec("FixedSequence", {"actions": [0, 1, 0]}),
            AgentSpec("FixedMixed", {"probs": [0.3, 0.7]}),
            AgentSpec("GrimTrigger", {"coop_action": 0, "punish_action": 1, "opp_coop_action": 0}),
        ],
        weights=[0.5, 0.25, 0.25],
    )


def _history_labels(codes: np.ndarray, n: int, T: int) -> list[str]:
    """The CSV labels ("a1b1a2b2...") of increasing length-T history codes.
    Each depth's labels extend their parents' labels, one per distinct
    prefix code."""
    pair = [f"{a}{b}" for a in range(n) for b in range(n)]
    prefixes, labels = np.zeros(1, dtype=np.int64), [""]
    for depth in range(1, T + 1):
        level = np.unique(codes // (n * n) ** (T - depth))
        parent, last = np.divmod(level, n * n)
        at = np.searchsorted(prefixes, parent).tolist()
        labels = [labels[i] + pair[r] for i, r in zip(at, last.tolist())]
        prefixes = level
    return labels


def run_flatten_check(cfg: ExperimentConfig):
    ts = cfg.type_space or fixture_type_space("typespace_2.json")
    n = ts.num_actions
    horizon = cfg.extra.get("flatten_horizon", 3)
    pop = cfg.population or _default_flatten_population()
    probe = cfg.extra.get("probe") or AgentSpec("FixedMixed", {"probs": [0.6, 0.4]})
    own_type = ts.types[0]
    probe_agent = build_agent(probe, ts, horizon, seat="row", own_type=own_type)
    walked = 0

    def walk(spec):
        """The (codes, probs) of one tree against the probe, with act
        functions (and node caches) that live only for this walk."""
        nonlocal walked
        col = tree_act_fn(build_agent(spec, ts, horizon, seat="col", own_type=own_type), "col")
        dist = history_distribution(tree_act_fn(probe_agent, "row"), col, n, horizon)
        walked += len(col.nodes)
        return dist.codes, dist.probs

    members = [walk(member) for member in pop.members]
    flat_codes, flat_probs = walk(flatten_population(pop))
    # The rows: every member's leaves, zero-weight members too, and the
    # flattened agent's, in lexicographic order.
    leaves = np.unique(np.concatenate([codes for codes, _ in members] + [flat_codes]))
    mixture, flat = np.zeros(len(leaves)), np.zeros(len(leaves))
    in_mixture = np.zeros(len(leaves), dtype=bool)
    for (codes, probs), weight in zip(members, pop.weights):
        at = np.searchsorted(leaves, codes)
        mixture[at] += weight * probs  # 0.0 + w1 p1 + w2 p2 ..., member order
        in_mixture[at] = True
    flat[np.searchsorted(leaves, flat_codes)] = flat_probs
    tv = 0.5 * float(np.abs(mixture - flat).sum())
    support = int(in_mixture.sum())
    labels = _history_labels(leaves, n, horizon)
    if n > 10 and len(set(labels)) < len(labels):
        raise GameError(
            f"flatten_check.csv history labels join actions with no separator; with N = {n} "
            f"two of the {len(labels)} histories of horizon {horizon} share a label"
        )
    result = VerificationResult(
        cfg.kind, f"flattened-agent history distribution TV, horizon={horizon}",
        statistic=tv, bound=1e-9, sample_count=support,
        detail=f"leaves: population mixture {support}, flattened agent "
        f"{len(flat_codes)}; nodes walked {walked} in {len(pop.members) + 1} walks",
    )
    rows = ["history,prob_population,prob_flattened"]
    rows += [f"{label},{p!r},{q!r}" for label, p, q in
             zip(labels, mixture.tolist(), flat.tolist())]
    return [result], {"flatten_check.csv": "\n".join(rows) + "\n"}


# ---------------------------------------------------------------------------
# Imitate-then-commit end-to-end evaluation


def _default_ic_mu(ts: TypeSpace) -> TypeDistribution:
    g, d = ts.types[0], ts.types[1]
    return TypeDistribution(
        support=[(g, g), (g, d), (d, d)], weights=[0.25, 0.5, 0.25]
    )


def run_ic_eval(cfg: ExperimentConfig):
    ts = cfg.type_space or fixture_type_space("typespace_2.json")
    n = ts.num_actions
    T = cfg.horizon
    k = cfg.k if cfg.k is not None else 1
    tilde_T = cfg.tilde_T if cfg.tilde_T is not None else k + math.ceil((T - k) / 4)
    delta = cfg.delta
    params = theorem26_params(delta, T, k, n)
    ct = build_convention_table(ts)
    pop = cfg.population or Population(
        members=[AgentSpec("Protocol", {"eps1": params.eps1, "k": k})], weights=[1.0]
    )
    mu = cfg.mu or _default_ic_mu(ts)
    mu.validate_types(ts)
    K_values = list(cfg.extra.get("K_values", (100, 1000, 10000)))
    eval_episodes = int(cfg.extra.get("eval_episodes", 2000))

    tau_col = np.array([worst_pone_payoff(ts.game(*joint), "col") for joint in mu.support])
    payoff_col = np.array([ts.payoff_table[joint[1]] for joint in mu.support])

    policies = {}
    for K in K_values:
        ds = generate_dataset(
            pop, mu, ts, K, T,
            master_seed=int(_rng(cfg.seed, 0x4943, K).integers(2**62)),
            convention_table=ct,
        )
        policies[K] = fit_imitation(ds, tilde_T, seat="row")

    # Common random numbers across K: identical type draws, partner draws and
    # episode streams, so the curves differ only through the fitted policies.
    draws = _rng(cfg.seed, 0x4556)
    joint_ids = draws.choice(len(mu.support), size=eval_episodes, p=np.asarray(mu.weights))
    partner_ids = draws.choice(len(pop.members), size=eval_episodes, p=np.asarray(pop.weights))
    episode_seeds = derive_episode_seeds(cfg.seed, 0x45560000 + np.arange(eval_episodes))

    values = {K: np.zeros(eval_episodes) for K in K_values}

    # For each K the IC agents play one batch of each chunk against every
    # member's partners, on a fresh copy of its streams, and run_episode
    # replays each member's first episode as a spot check.
    for start in range(0, eval_episodes, EPISODE_BATCH):
        ids = np.arange(start, min(start + EPISODE_BATCH, eval_episodes))
        joints = [mu.support[j] for j in joint_ids[ids]]
        members = partner_ids[ids].tolist()
        checked = [members.index(m) for m in dict.fromkeys(members)]  # first of each member
        streams = EpisodeStreams(episode_seeds[ids])
        commits = commitment_draws(streams.agent_seeds[0])
        for K in K_values:
            ic = BatchIC(policies[K], tilde_T, T, [a for a, _ in joints], "row", commits)
            partners = build_seat(pop.members, members, ts, T, "col", [b for _, b in joints],
                                  streams.agent_seeds[1], ct)
            record = play_batch(ic, partners, T, streams.take(np.arange(len(ids))), record=True)
            ic_spec = AgentSpec("IC", {"tilde_T": tilde_T, "policy": policies[K]})
            for e in checked:
                replay = run_episode(ic_spec, pop.members[members[e]], ts, joints[e], T,
                                     int(episode_seeds[start + e]), ct).history
                if not np.array_equal(record[:, :, e], replay):
                    raise GameError("batched IC episode differs from its replay by run_episode")
            # Column payoff of every stage, B[own = col action, opp = row action],
            # summed over the stages in order.
            stage_pay = payoff_col[joint_ids[ids], record[:, 1], record[:, 0]]
            realized = np.zeros(len(ids))
            for pay in stage_pay:
                realized += pay
            values[K][ids] = (T * tau_col[joint_ids[ids]] - realized) / T

    rows = ["K,episode,theta1,theta2,avg_altruistic_regret"]
    labels = [f"{mu.support[j][0]},{mu.support[j][1]}" for j in joint_ids]
    mean_by_K = {}
    ci_by_K = {}
    for K in K_values:
        rows.extend(
            f"{K},{e},{label},{v!r}" for e, (label, v) in enumerate(zip(labels, values[K].tolist()))
        )
        mean_by_K[K] = float(values[K].mean())
        ci_by_K[K] = _ci99_mean(values[K])

    means = [mean_by_K[K] for K in K_values]
    steps = np.diff(means)  # a NaN step stays NaN in the maximum, and fails
    K_max = K_values[-1]
    dk = delta_K(n, tilde_T, len(ts.types), K_max)
    bound = theorem42_bound(delta, params.eps, dk, T, tilde_T)
    results = [
        VerificationResult(
            cfg.kind, f"mean avg altruistic regret nonincreasing over K={K_values}",
            statistic=float(steps.max()) if len(steps) else 0.0, bound=0.0, tol=1e-12,
            sample_count=eval_episodes, detail="means=" + ",".join(f"{m:.5f}" for m in means),
        ),
        VerificationResult(
            cfg.kind, f"final-K mean avg altruistic regret within upper bound, K={K_max}",
            statistic=mean_by_K[K_max], bound=bound,
            sample_count=eval_episodes, ci_radius=ci_by_K[K_max],
            detail=f"delta(K)={dk:.4g} (sample-complexity constants vacuous at desk scale)",
        ),
    ]
    return results, {"ic_eval.csv": "\n".join(rows) + "\n"}


# ---------------------------------------------------------------------------
# Dispatch and curve emission

# Each kind's runner and the ``ExperimentConfig.extra`` keys it reads.
_RUNNERS = {
    "mw-regret": (run_mw_regret, ()),
    "nash-selfplay": (run_nash_selfplay, ("profile",)),
    "si-selfplay": (run_si_selfplay, ()),
    "si-consistency": (run_si_consistency, ()),
    "auth-failure": (run_auth_failure, ()),
    "mixture-check": (run_mixture_check, ()),
    "flatten-check": (run_flatten_check, ("flatten_horizon", "probe")),
    "ic-eval": (run_ic_eval, ("K_values", "eval_episodes")),
}
EXPERIMENT_KINDS = tuple(_RUNNERS)


def run_experiment(cfg: ExperimentConfig):
    """Run one experiment; returns (results, artifacts) and writes CSV
    artifacts to ``cfg.out_dir`` when set."""
    if cfg.kind not in _RUNNERS:
        raise GameError(
            f"unknown experiment kind {cfg.kind!r}; choose from {sorted(_RUNNERS)}"
        )
    if cfg.episodes <= 0:
        raise GameError("experiment needs a positive episode count")
    runner, accepted = _RUNNERS[cfg.kind]
    unknown = sorted(set(cfg.extra) - set(accepted))
    if unknown:
        raise GameError(
            f"{cfg.kind} reads no extra {unknown}; it reads {list(accepted) or 'none'}"
        )
    results, artifacts = runner(cfg)
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        for name, text in artifacts.items():
            with open(os.path.join(cfg.out_dir, name), "w") as f:
                f.write(text)
    return results, artifacts


# Each harness artifact's curve: x columns and y column (None: no curve).  Any
# other CSV file is keyed on its first column and averages its last.
_CURVES = {
    "mw_regret_N": (("adversary",), "expected_regret"),
    "si_consistency": (("adversary",), "expected_regret"),
    "nash_selfplay": (("player",), "expected_regret"),
    "si_selfplay": (("theta1", "theta2"), "avg_payoff_row"),
    "mixture_check": (("N",), "identity_error"),
    "ic_eval": (("K",), "avg_altruistic_regret"),
    "flatten_check": None,
}


def emit_curves(results_dir, out_dir=None) -> dict[str, str]:
    """Aggregate per-episode CSVs into (x, mean, ci) series, the columns of
    each harness artifact set in ``_CURVES``."""
    out_dir = out_dir or results_dir
    emitted = {}
    for name in sorted(os.listdir(results_dir)):
        stem = name[:-4]
        curve = _CURVES.get(stem.rstrip("0123456789"), ())
        if not name.endswith(".csv") or curve is None:
            continue
        groups: dict[str, list[float]] = {}
        try:  # skip an empty file, a missing column or a cell that is no number
            with open(os.path.join(results_dir, name)) as f:
                header, *lines = f.read().splitlines()
            header = header.split(",")
            xs, y = curve or ((header[0],), header[-1])
            x_cols, y_col = [header.index(x) for x in xs], header.index(y)
            for line in lines:
                parts = line.split(",")
                key = ",".join(parts[i] for i in x_cols)
                groups.setdefault(key, []).append(float(parts[y_col]))
        except ValueError:
            continue
        if not groups:
            continue
        rows = [f"{','.join(xs)}\tmean_{y}\tci99\tcount"]
        for key in groups:
            vals = np.asarray(groups[key])
            rows.append(f"{key}\t{float(vals.mean())!r}\t{_ci99_mean(vals)!r}\t{len(vals)}")
        out_name = stem + "_curve.tsv"
        text = "\n".join(rows) + "\n"
        with open(os.path.join(out_dir, out_name), "w") as f:
            f.write(text)
        emitted[out_name] = text
    if not emitted:
        raise GameError(f"no aggregatable CSV files found in {results_dir}")
    return emitted
