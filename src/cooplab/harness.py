"""Experiment orchestration and statistical bound verification.

Each experiment runs a seeded episode batch, computes the relevant empirical
statistic, recomputes the corresponding theoretical bound at report time, and
emits per-episode CSV rows plus pass/fail verification results.  A runner
gives each ``VerificationResult`` its statistic, bound, confidence radius and
rounding tolerance; the result derives its verdict from them by one rule
(``VerificationResult.passed``).

Every draw is a draw of the engine's counter-based streams (``engine.py``),
keyed by ``_keys`` from the run's seed and a tag of ``STREAM_TAGS``, and
every categorical draw is the engine's inverse CDF (``engine._choice``).
mw-regret plays its runs as one batch on the batched engine, in
adversary-kind order, against one adversary agent that announces its
actions, and reads each run's regret from the MW learner's own kernel;
si-consistency and ic-eval, its datasets included, play theirs through
``population.play_episodes``: ic-eval plays every K in one pass, one IC
spec per K, and replays the first episode of each (K, partner member) pair
of a chunk with ``run_episode`` as a spot check.
Equilibrium and protocol self-play draw a fixed profile's actions with
``_iid_actions``, from each episode's own stream as the engine does, as
each seat's "action >= i" indicators on the raw draws; ``_joint_counts``
counts joint actions from them by inclusion-exclusion, per 64-stage word,
and every payoff follows from the counts.  In protocol self-play the agents
play the handshake on the engine, and ``_trigger_bound`` bounds each
episode's regret accumulator from the opponent's action counts per word;
every episode it cannot clear is played again, whole, by ``play_episodes``.
The mixture check runs as array passes over its cases, through the IC
agent's own ``commitment_mixtures`` and ``partition_replies``.
"""
from __future__ import annotations

import math
import numbers
import os
import sys
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
    default_eta,
    protocol_threshold,
    theorem26_params,
    tree_act_fn,
)
from .engine import (
    _UNIT,
    GAMMA,
    ROW_BLOCK_CELLS,
    BatchAdaptive,
    BatchMW,
    EpisodeStreams,
    _choice,
    _choice_cuts,
    _draws,
    _rowsum,
    mix64_inplace,
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
    play_episodes,
    run_episode,
    tagged_seeds,
)
from .imitation_commit import (
    auth_failure_probability,
    commitment_mixtures,
    delta_K,
    fit_imitation,
    partition_replies,
    theorem42_bound,
)

Z99 = 2.5758293035489004  # one-sided 99% normal quantile (two-sided 98%)

# The self-play kernels stream their random draws in blocks that stay in
# cache; no block size changes an artifact.
SELFPLAY_CHUNK = 500  # self-play episodes drawn and stepped at a time

# The tags of ``_keys``.  The episodes of si-consistency and ic-eval keep
# their keys, of the indices 0x434F0000 + r and 0x45560000 + e.
STREAM_TAGS = {
    "mw-regret runs": 0x6D77,
    "nash-selfplay episodes": 0x4E45,
    "si-selfplay joint types": 0x5349,
    "si-selfplay episodes": 0x5345,
    "si-consistency joint types": 0x434F,
    "auth-failure handshakes": 0x4155,
    "mixture-check cases": 0x4D58,
    "ic-eval dataset seeds": 0x4943,
    "ic-eval types and partners": 0x4556,
}

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


def _csv(header: str, *columns) -> str:
    """The CSV text of ``header`` and one row per index of ``columns``,
    which must have equal lengths.  A float64 array's cells are the repr of
    a Python float, made once per distinct bit pattern, so -0.0 keeps its
    sign; any other cell is ``str`` of its item (for a Python float, its
    repr)."""
    cells = []
    for col in columns:
        if isinstance(col, np.ndarray) and col.dtype == np.float64:
            bits, inverse = np.unique(col.view(np.uint64), return_inverse=True)
            text = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
            cells.append(text[inverse])
        else:
            cells.append(map(str, col.tolist() if isinstance(col, np.ndarray) else col))
    return "\n".join([header, *map(",".join, zip(*cells, strict=True))]) + "\n"


def _keys(seed: int, tag: str, count: int = 1) -> np.ndarray:
    """The keys of streams 0 to ``count - 1`` of ``STREAM_TAGS[tag]``."""
    return tagged_seeds(seed, STREAM_TAGS[tag], count)


# ---------------------------------------------------------------------------
# MW regret (hard, per-run bound)

MW_ADVERSARIES = ("adaptive-min", "adaptive-regret", "random", "constant", "alternating")


def run_mw_regret(cfg: ExperimentConfig):
    n = cfg.num_actions
    T = cfg.horizon
    eta = default_eta(n, T)  # refuses N < 2 before the bound takes ln N
    bound = math.sqrt((T / 2.0) * math.log(n))
    # Run r faces kind r mod 5.  Its stream draws its matrix, then the scripted
    # kinds' actions (random: T, constant: one); alternating plays 0, ..., n - 1.
    # The runs play in kind order, kind i in rows at[i] to at[i + 1] - 1, against
    # one adversary agent: the adaptive kinds, then the scripted ones cycled to T.
    E, kinds = cfg.episodes, len(MW_ADVERSARIES)
    runs = [np.arange(i, E, kinds) for i in range(kinds)]
    order = np.concatenate(runs)
    at = np.cumsum([0] + [len(index) for index in runs])
    keys = _keys(cfg.seed, "mw-regret runs", E)[order]
    A = ((_draws(keys, 0, n * n) >> np.uint64(11)) * _UNIT).T.reshape(E, n, n)
    script = np.empty((E - at[2], T), np.min_scalar_type(n - 1))  # the scripted kinds' rows
    lo = at - at[2]  # kind i's first row in the script
    cuts = _choice_cuts(np.full(n, 1 / n))
    for i, size in ((2, T), (3, 1)):
        script[lo[i] : lo[i + 1]] = _choice(_draws(keys[at[i] : at[i + 1]], n * n, size).T, cuts)
    script[lo[4] :] = np.arange(T) % n
    learner = BatchMW(A, eta)
    adversary = BatchAdaptive(np.repeat(MW_ADVERSARIES[:2], np.diff(at[:3])), A[: at[2]], script)
    play_batch(learner, adversary, T)
    regrets = np.empty(E)
    regrets[order] = learner.kernel.regret()
    csv = _csv("run,adversary,expected_regret,bound", range(E),
               np.resize(MW_ADVERSARIES, E), regrets, np.full(E, bound))
    result = _sure_gate(cfg.kind, f"expected regret <= sqrt((T/2) ln N) surely, N={n}",
                        regrets, bound, "")
    return [result], {f"mw_regret_N{n}.csv": csv}


# ---------------------------------------------------------------------------
# Equilibrium self-play concentration (vectorized i.i.d. sampling)


def _at_least(acts: np.ndarray, n: int) -> np.ndarray:
    """The indicators (n - 1, E, S) of (E, S) actions among n: [i - 1] is action >= i."""
    return acts >= np.arange(1, n)[:, None, None]


def _joint_counts(row_ge: np.ndarray, col_ge: np.ndarray) -> np.ndarray:
    """Per-word joint action counts (E, W, n, n) of the seats' indicators of
    ``_at_least``, packed 64 stages to a word (W = ceil(S / 64)): [e, w, i, j]
    counts episode e's stages 64 w to 64 w + 63 with actions (i, j).  It is
    G[i, j] - G[i + 1, j] - G[i, j + 1] + G[i + 1, j + 1], for G[i, j] the
    word's stages with row action >= i and column action >= j (none at i or
    j = n), in uint8: the differences wrap modulo 256, and each count, in
    [0, 64], comes out exact.  The words of an episode sum to its counts."""
    episodes, stages = row_ge.shape[1:]
    words = []
    for ge in (row_ge, col_ge):  # (n, E, W), from "action >= 0" on
        bits = np.zeros((len(ge) + 1, episodes, -(-stages // 64) * 8), np.uint8)
        bits[0, :, : -(-stages // 8)] = np.packbits(np.ones(stages, bool))
        bits[1:, :, : -(-stages // 8)] = np.packbits(ge, axis=-1)
        words.append(bits.view(np.uint64))
    G = np.bitwise_count(words[0][:, None] & words[1][None])
    zero = np.uint8(0)
    return np.diff(np.diff(G, axis=0, append=zero), axis=1, append=zero).transpose(2, 3, 0, 1)


def _count_payoffs(counts: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Per-episode payoff totals of joint counts (E, own, opp) under the
    [own, opp] payoffs ``m`` (one matrix, or one per episode): the n * n
    products added left to right in row-major order."""
    return _rowsum((counts * m).reshape(len(counts), -1))


def _iid_actions(keys: np.ndarray, p: np.ndarray, q: np.ndarray, first: int, stages: int):
    """The actions of stages ``first`` to ``first + stages - 1`` of i.i.d.
    self-play of the fixed mixed profile (``p``, ``q``) in the episodes whose
    streams have ``keys``, yielded for SELFPLAY_CHUNK episodes at a time as
    (slice, row and column indicators of ``_at_least``) in buffers that the
    next chunk overwrites.  As in the engine, stage t's row action samples
    ``p`` from draw 2 + 2t of its episode's stream and its column action
    ``q`` from draw 3 + 2t.  A ``_choice`` action counts the cuts at or
    below its draw, so it is >= i iff its draw is >= cut i - 1."""
    steps = (np.arange(stages, dtype=np.uint64) * 2 + 3 + 2 * first) * np.uint64(GAMMA)
    seats = [(steps + np.uint64(s * GAMMA), _choice_cuts(sigma)) for s, sigma in ((0, p), (1, q))]
    ge = np.zeros((2, len(p) - 1, min(SELFPLAY_CHUNK, len(keys)), stages), bool)
    # The draws are mixed in row blocks of about ROW_BLOCK_CELLS cells.
    z, scratch = np.empty((2, max(1, ROW_BLOCK_CELLS // max(stages, 1)), stages), np.uint64)
    for start in range(0, len(keys), SELFPLAY_CHUNK):
        rows = slice(start, min(start + SELFPLAY_CHUNK, len(keys)))
        for r in range(0, rows.stop - start, len(z)):
            block = slice(r, min(r + len(z), rows.stop - start))
            for seat_ge, (offsets, cuts) in zip(ge, seats):
                draws = np.add(keys[rows][block, None], offsets, out=z[: block.stop - r])
                mix64_inplace(draws, scratch[: len(draws)])
                for i, cut in enumerate(cuts):
                    np.greater_equal(draws, cut, out=seat_ge[i, block])
        yield rows, *ge[:, :, : rows.stop - start]


def _selfplay_regrets(game: BimatrixGame, p: np.ndarray, q: np.ndarray, keys: np.ndarray, T: int):
    """Realized and expected external regrets for both players over i.i.d.
    self-play episodes of a fixed mixed profile, whose actions
    ``_iid_actions`` draws from the episode streams with ``keys``."""
    counts = np.empty((len(keys), game.num_actions, game.num_actions), np.int64)
    for rows, row_ge, col_ge in _iid_actions(keys, p, q, 0, T):
        counts[rows] = _joint_counts(row_ge, col_ge).sum(axis=1)
    return _count_regrets(game, p, q, counts)


def _count_regrets(game: BimatrixGame, p: np.ndarray, q: np.ndarray, counts: np.ndarray):
    """Realized and expected external regrets for both players of the
    episodes with joint action counts (E, row, col) under the profile (``p``,
    ``q``).  The counterfactual and expected payoffs are matrix products over
    all episodes at once, whose rounding BLAS may choose by the number of
    rows and by the operand's layout, so the opponent counts are C-ordered
    whatever the layout of ``counts``."""
    out = {}
    for player, joint, sigma, m in (
        ("row", counts, p, game.payoff_row),
        ("col", counts.transpose(0, 2, 1), q, game.payoff_col),
    ):
        opp_counts = joint.sum(axis=1).astype(float, order="C")  # joint is [own, opp]
        best = (opp_counts @ m.T).max(axis=1)
        out[player] = (best - _count_payoffs(joint, m), best - opp_counts @ (sigma @ m))
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
    regs = _selfplay_regrets(game, p, q, _keys(cfg.seed, "nash-selfplay episodes", cfg.episodes), T)
    results = []
    for player in ("row", "col"):
        realized, expected = regs[player]
        checks = (
            ("realized regret", realized, thresholds.realized_bound),
            ("expected regret", expected, thresholds.expected_bound),
            ("realized-expected gap", np.abs(realized - expected), thresholds.relation_slack),
        )
        results += [_freq_gate(cfg.kind, f"{label} ({player}) violation freq <= delta",
                               values > bound, delta, f"threshold={bound:.4g}")
                    for label, values, bound in checks]
    E = cfg.episodes
    csv = _csv("episode,player,realized_regret,expected_regret", [*range(E)] * 2,
               ["row"] * E + ["col"] * E, *map(np.concatenate, zip(regs["row"], regs["col"])))
    return results, {"nash_selfplay.csv": csv}


# ---------------------------------------------------------------------------
# Protocol self-play (compatibility: convention payoffs reached w.h.p.)


def _trigger_bound(
    m: np.ndarray, sigma: np.ndarray, blocks: np.ndarray, h_cf: np.ndarray, h_exp: float
) -> np.ndarray:
    """Per-episode upper bound on every value that a protocol agent's regret
    accumulator takes, rounding included, while its opponent plays the
    convention stages whose action counts per block of stages are
    ``blocks`` (E, blocks, n): the 64-stage words of ``_joint_counts``.

    The agent's ``RegretKernel`` starts from the handshake's sums ``h_cf``
    and ``h_exp``, and at a stage where the opponent plays j adds m[:, j] to
    its counterfactual sums and v[j] = ``_rowsum(sigma * m[:, j])`` to its
    expected payoff; its accumulator is max_a counterfactual[a] - expected.
    With d[a, j] = m[a, j] - v[j], exactly on the computed v, that is
    max_a (h_cf[a] - h_exp + sum_j d[a, j] count_j).  Counts never
    decrease, so in a block each count_j lies in [lo_j, hi_j], its values at
    the ends of the blocks before and through it, and max(d lo_j, d hi_j)
    bounds its term.  The slack covers rounding by the recursive-summation
    error bound (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., 2002, section 4.2): the agent's accumulator is S + 1 roundings
    from exact, this bound n + 4, and the slack's own computation and
    addition at most 3 more, all on values of size at most
    2 S max|m, v| + max|h_cf| + |h_exp|; and for K = S + n + 8,
    gamma_K = K u / (1 - K u) <= K eps, u = eps / 2, while K u <= 1/2.
    """
    n = len(m)
    table = np.vstack([m, _rowsum(sigma * m.T)])
    d = table[:n] - table[n]
    hi = blocks.cumsum(axis=1, dtype=float).reshape(-1, n)  # a row per (episode, block)
    lo = hi - blocks.reshape(-1, n)
    at = hi @ np.maximum(d, 0.0).T + lo @ np.minimum(d, 0.0).T + (h_cf - h_exp)
    bound = at.reshape(blocks.shape).max(axis=(1, 2), initial=-np.inf)
    stages = blocks.sum(axis=(1, 2))
    size = 2 * stages * np.abs(table).max() + np.abs(h_cf).max() + abs(h_exp)
    return bound + (stages + n + 8) * np.finfo(float).eps * size


def run_si_selfplay(cfg: ExperimentConfig):
    ts = cfg.type_space or fixture_type_space("typespace_4.json")
    n = ts.num_actions
    k = cfg.k if cfg.k is not None else 2
    T, delta, E = cfg.horizon, cfg.delta, cfg.episodes
    params = theorem26_params(delta, T, k, n)
    threshold = protocol_threshold(k, T, params.eps1, n)
    ct = build_convention_table(ts)
    mu = cfg.mu or TypeDistribution.uniform(ts)
    support = mu.codes(ts)
    joint_idx = _choice(_draws(_keys(cfg.seed, "si-selfplay joint types")[0], 0, E),
                        _choice_cuts(np.asarray(mu.weights)))
    keys = _keys(cfg.seed, "si-selfplay episodes", E)

    # The protocol agents of both seats, row j for joint type j, play the
    # pure handshake (any stream samples it); their regret kernels then hold
    # its counterfactual and realized payoffs.
    spec = AgentSpec("Protocol", {"eps1": params.eps1, "k": k})
    seats = [build_agents(spec, ts, T, seat, support[:, s], [0] * len(support), ct)
             for s, seat in enumerate(("row", "col"))]
    play_batch(*seats, k, EpisodeStreams(np.zeros(len(mu.support), np.uint64)))
    kernels = [seat.kernel for seat in seats]

    # Joint action counts of the convention stages, per 64-stage word.  The
    # count bound clears an episode when neither seat can trip; the agents
    # replay the others.
    stages = T - k
    counts = np.zeros((E, n, n), np.int64)
    replay, pure_episodes = [np.zeros(0, np.intp)], 0
    for jt, joint in enumerate(mu.support):
        ids = np.flatnonzero(joint_idx == jt)
        prof = ct.profile(joint)
        p, q = prof.sigma_row, prof.sigma_col
        A, B = ts.payoff_table[joint[0]], ts.payoff_table[joint[1]]
        h_row, h_col = ((kernel.counterfactual[jt], kernel.expected[jt]) for kernel in kernels)
        if p.max() > 1.0 - 1e-12 and q.max() > 1.0 - 1e-12:  # one path for all episodes
            # Its one row of counts, and their verdict, serve all its episodes.
            chunks = [(ids, _joint_counts(*(_at_least(np.full((1, stages), s.argmax()), n)
                                            for s in (p, q))))]
            pure_episodes += len(ids)
        else:
            chunks = ((ids[rows], _joint_counts(i_ge, j_ge))
                      for rows, i_ge, j_ge in _iid_actions(keys[ids], p, q, k, stages))
        for at, blocks in chunks:  # (episodes, words, row action, column action)
            counts[at] = blocks.sum(axis=1)
            cleared = ((_trigger_bound(A, p, blocks.sum(axis=2), *h_row) <= threshold)
                       & (_trigger_bound(B, q, blocks.sum(axis=3), *h_col) <= threshold))
            replay.append(at[~np.broadcast_to(cleared, at.shape)])

    # The protocol agents play the episodes left to them again, whole.
    replay = np.concatenate(replay)
    fell = np.full((2, E), -1)  # each seat's fallback stage
    seat_specs = ([spec], np.zeros(len(replay), np.int8))
    for part, agents, record in play_episodes(
            seat_specs, seat_specs, support[joint_idx[replay]], ts, T, keys[replay], ct,
            record=True):
        words = _joint_counts(*(_at_least(record[k:, s].T, n) for s in (0, 1)))
        counts[replay[part]] = words.sum(axis=1)
        fell[:, replay[part]] = [agent.fallback_stage for agent in agents]
    fallback = (fell >= 0).any(axis=0)
    # Every episode's payoffs: the handshake's, then its convention stages'
    # from their joint counts.
    tables = [np.array([ts.payoff_table[joint[s]] for joint in mu.support]) for s in (0, 1)]
    avg_pay_row = (kernels[0].expected[joint_idx]
                   + _count_payoffs(counts, tables[0][joint_idx])) / T
    avg_pay_col = (kernels[1].expected[joint_idx]
                   + _count_payoffs(counts.transpose(0, 2, 1), tables[1][joint_idx])) / T

    theta = np.array(mu.support, dtype=object)[joint_idx]
    csv = _csv("episode,theta1,theta2,avg_payoff_row,avg_payoff_col,fallback",
               range(E), *theta.T, avg_pay_row, avg_pay_col, fallback.astype(np.int8))
    first = f", first at stage {fell[fell >= 0].min()}" if fallback.any() else ""
    results = [_freq_gate(
        cfg.kind, "handshake+convention completes without fallback w.p. >= 1-delta",
        fallback, delta, f"pure-convention episodes {pure_episodes}, cleared by the count bound "
        f"{E - len(replay)}, replayed by the agents {len(replay)}, fallbacks "
        f"{int(fallback.sum())}" + first,
    )]
    for jt, joint in enumerate(mu.support):
        ids, prof = np.flatnonzero(joint_idx == jt), ct.profile(joint)
        results += [VerificationResult(
            cfg.kind, f"avg payoff near convention value, joint={joint}, {seat}",
            statistic=abs(float(values.mean()) - target), bound=params.eps0,
            sample_count=len(ids), ci_radius=_ci99_mean(values),
        ) for seat, values, target in (("row", avg_pay_row[ids], prof.value_row),
                                       ("col", avg_pay_col[ids], prof.value_col)) if len(ids)]
    return results, {"si_selfplay.csv": csv}


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
    kinds = [c for c in range(len(CONSISTENCY_ADVERSARIES)) for _ in range(runs_each)]
    # Draws 2r and 2r + 1 pick run r's protocol and adversary types.
    z = _draws(_keys(cfg.seed, "si-consistency joint types")[0], 0, 2 * len(kinds))
    uniform = np.full(len(ts.types), 1 / len(ts.types))
    codes = _choice(z, _choice_cuts(uniform)).reshape(-1, 2)

    # Runs are stepped in chunks of run order, whatever their adversary kinds:
    # the acceptance config's 1 000 runs are one play_batch.  Against three
    # batches of 334 this took the benchmark's zoo-loop wall_s from 0.345 to
    # 0.263 s (medians of 10 pairs on a shared 2-core VM).
    regrets = np.empty(len(codes))
    fallback_stages = np.empty(len(codes), dtype=np.int64)
    seeds = derive_episode_seeds(cfg.seed, 0x434F0000 + np.arange(len(codes)))
    for runs, (row, _), _ in play_episodes(([proto_spec], [0] * len(codes)), (adversaries, kinds),
                                           codes, ts, T, seeds, ct):
        regrets[runs] = row.kernel.regret()
        fallback_stages[runs] = row.fallback_stage
    csv = _csv("run,adversary,theta_protocol,theta_adversary,expected_regret,bound",
               range(len(codes)), [CONSISTENCY_ADVERSARIES[c] for c in kinds],
               *np.array(ts.types, dtype=object)[codes].T, regrets, np.full(len(codes), bound))
    result = _sure_gate(
        cfg.kind, "protocol expected regret <= k + eps1(T-k) + sqrt(((T-k)/2) ln N) surely",
        regrets, bound, f"{runs_each} runs per adversary, {len(regrets)} of {cfg.episodes} "
        "requested; " + _fallback_detail(kinds, fallback_stages),
    )
    return [result], {"si_consistency.csv": csv}


# ---------------------------------------------------------------------------
# Authentication failure frequency (lower-bound formulas)


AUTH_KS = (2, 3)  # handshake lengths
AUTH_COVERAGE = (0.0, 0.25, 0.5, 0.75, 1.0)  # observed share of the N^2k histories
AUTH_TOLERANCE = 0.02  # allowed gap between the empirical and predicted rates


def run_auth_failure(cfg: ExperimentConfig):
    n = cfg.num_actions
    if n < 2:
        raise GameError(f"auth-failure needs num_actions >= 2, got {n}")
    trials = cfg.episodes
    results, cases = [], []
    # Per handshake length one stream ranks the histories by its first
    # num_histories draws and draws the trials: common random numbers, so the
    # coverage cases differ only in observing the M histories of least rank.
    # At stage s, trial i draws its own and partner action with the imitator's
    # guess of the partner's, its code digit: one of n^3 outcomes, from draw
    # num_histories + s * trials + i.
    for key, k in zip(_keys(cfg.seed, "auth-failure handshakes", len(AUTH_KS)), AUTH_KS):
        num_histories = n ** (2 * k)
        rank = np.argsort(_draws(key, 0, num_histories), kind="stable")
        pair, guess = np.divmod(np.arange(n**3, dtype=np.min_scalar_type(num_histories)), n)
        faced, wrong = np.zeros(trials, pair.dtype), np.zeros(trials, dtype=bool)
        cuts = _choice_cuts(np.full(n**3, 1 / n**3))
        for s in range(k):
            outcome = _choice(_draws(key, num_histories + s * trials, trials), cuts)
            faced = faced * (n * n) + pair[outcome]
            wrong |= (pair % n != guess)[outcome]
        for frac in AUTH_COVERAGE:
            M = int(round(frac * num_histories))
            seen = np.zeros(num_histories, dtype=bool)
            seen[rank[:M]] = True
            # On an unseen history the imitator plays uniformly; authentication
            # succeeds only if all k digits match the partner's code.
            emp = float((~seen[faced] & wrong).mean())
            pred = auth_failure_probability(n, k, M)
            cases.append((n, k, M, trials, emp, pred.corrected, pred.as_printed))
            # With every history observed no failure may happen at all.
            exact_zero = M == num_histories
            results.append(VerificationResult(
                cfg.kind, f"auth failure freq matches product form, k={k}, M={M}",
                statistic=emp if exact_zero else abs(emp - pred.corrected),
                bound=0.0 if exact_zero else AUTH_TOLERANCE, sample_count=trials,
                detail=f"empirical={emp:.4f} predicted={pred.corrected:.4f}",
            ))
    csv = _csv("N,k,M,trials,empirical,predicted_corrected,predicted_as_printed", *zip(*cases))
    return results, {"auth_failure.csv": csv}


# ---------------------------------------------------------------------------
# Commitment-mixture identity and best-response inequality (hard bound)


def _random_joint(z: np.ndarray, n: int, style: int) -> np.ndarray:
    """Joint strategies (m, n, n) over n >= 2 actions of one ``style`` in
    0-3, from the C-ordered raw draws ``z`` (m, >= n * n + 1): each case
    reads at most its first n * n + 1 draws."""
    m = len(z)
    u = (z[:, : n * n + 1] >> np.uint64(11)) * _UNIT
    if style == 0:  # generic dense
        joint = u[:, : n * n].reshape(m, n, n) + 1e-3
    elif style == 1:  # product (uncorrelated) joint
        x, y = u[:, :n] + 1e-3, u[:, n : 2 * n] + 1e-3
        x /= x.sum(axis=1, keepdims=True)
        y /= y.sum(axis=1, keepdims=True)
        joint = x[:, :, None] * y[:, None, :]
    elif style == 2:  # duplicated conditionals across two columns
        joint = u[:, : n * n].reshape(m, n, n) + 1e-3
        joint[:, :, 1] = joint[:, :, 0] * (0.25 + u[:, n * n, None])
    else:  # sparse support: one entry in each column but one
        joint = np.zeros((m, n, n))
        cuts = _choice_cuts(np.full(n, 1 / n))
        cases = np.arange(m)
        joint[cases[:, None], _choice(z[:, 1 : n + 1], cuts), np.arange(n)] = (
            u[:, n + 1 : 2 * n + 1] + 1e-3)
        joint[cases, :, _choice(z[:, 0], cuts)] = 0.0
    return joint / joint.reshape(m, -1).sum(axis=1)[:, None, None]


def _mixture_statistics(joint: np.ndarray, B: np.ndarray):
    """The identity error |sum_j w_j y_j B x_j - z . B| and best-response
    slack sum_j w_j max(B x_j) - z . B of the commitment mixtures of the
    joints ``joint`` (m, n, n), for the column player's [own, opp] payoffs
    ``B`` (m, n, n).  Sums run left to right, and each matmul of C-contiguous
    operands rounds as on one case's own vectors."""
    m = len(joint)
    col_value = _rowsum((joint * B.transpose(0, 2, 1)).reshape(m, -1))
    mixtures = commitment_mixtures(joint)
    x = mixtures.conditionals[..., None]  # (m, n, n, 1): x_j as a column, j by j
    y = partition_replies(mixtures)[:, :, None, :]
    # A dropped column adds w_j = 0 to each sum over j.
    mix_value = _rowsum(mixtures.weights * (y @ B[:, None] @ x)[..., 0, 0])
    br_value = _rowsum(mixtures.weights * (B[:, None] @ x)[..., 0].max(axis=2))
    return np.abs(mix_value - col_value), br_value - col_value


MIXTURE_SIZES = (2, 3, 4)  # action counts, in turn


def run_mixture_check(cfg: ExperimentConfig):
    cases = cfg.episodes
    # Case c's stream draws its joint strategy, then B; its action count is
    # MIXTURE_SIZES[c % 3] and its joint's style (c // 3) % 4.
    size = 2 * max(MIXTURE_SIZES) ** 2 + 1
    # In C order each case's sums and matmuls round as on its own arrays.
    z = np.ascontiguousarray(_draws(_keys(cfg.seed, "mixture-check cases", cases), 0, size).T)
    id_errors, br_slacks = np.empty(cases), np.empty(cases)
    groups = 4 * len(MIXTURE_SIZES)
    for group in range(min(groups, cases)):  # the cases of one action count and style
        n = MIXTURE_SIZES[group % len(MIXTURE_SIZES)]
        zg = z[group::groups]
        joint = _random_joint(zg, n, group // len(MIXTURE_SIZES))
        B = ((zg[:, n * n + 1 : 2 * n * n + 1] >> np.uint64(11)) * _UNIT).reshape(-1, n, n)
        id_errors[group::groups], br_slacks[group::groups] = _mixture_statistics(joint, B)
    results = [
        VerificationResult(cfg.kind, "mixture response-function payoff identity",
                           statistic=float(id_errors.max()), bound=1e-9, sample_count=cases),
        VerificationResult(cfg.kind, "best-response payoff >= joint-strategy payoff",
                           statistic=float(br_slacks.min()), bound=-1e-9, sample_count=cases,
                           detail="(statistic is the minimum slack)", lower=True),
    ]
    csv = _csv("case,N,identity_error,br_slack", range(cases), np.resize(MIXTURE_SIZES, cases),
               id_errors, br_slacks)
    return results, {"mixture_check.csv": csv}


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
    csv = _csv("history,prob_population,prob_flattened", labels, mixture, flat)
    return [result], {"flatten_check.csv": csv}


# ---------------------------------------------------------------------------
# Imitate-then-commit end-to-end evaluation


def _default_ic_mu(ts: TypeSpace) -> TypeDistribution:
    if len(ts.types) < 2:
        raise GameError(f"ic-eval's default joint-type distribution needs two types, the type "
                        f"space has {len(ts.types)}; give one with --mu")
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
    support = mu.codes(ts)
    K_values = list(cfg.extra.get("K_values", (100, 1000, 10000)))
    eval_episodes = cfg.extra.get("eval_episodes", 2000)
    if not K_values or not all(isinstance(K, numbers.Integral) and K >= 0 for K in K_values):
        raise GameError(f"K_values must be a nonempty list of dataset sizes >= 0, got {K_values}")
    if not isinstance(eval_episodes, numbers.Integral) or eval_episodes < 1:
        raise GameError(f"eval_episodes must be a positive integer, got {eval_episodes!r}")
    K_values, eval_episodes = [int(K) for K in K_values], int(eval_episodes)

    tau_col = np.array([worst_pone_payoff(ts.game(*joint), "col") for joint in mu.support])
    payoff_col = np.array([ts.payoff_table[joint[1]] for joint in mu.support])

    policies = {}
    for K in K_values:
        # The K-episode dataset's master seed: draw K of the stream, to 62 bits.
        # Its episodes are played only to tilde_T, the stages the fit reads.
        master = _draws(_keys(cfg.seed, "ic-eval dataset seeds")[0], K, 1)[0] >> np.uint64(2)
        ds = generate_dataset(pop, mu, ts, K, T, int(master), ct, stages=tilde_T)
        policies[K] = fit_imitation(ds, tilde_T, seat="row")

    # Common random numbers across K: identical type draws, partner draws and
    # episode streams, so the curves differ only through the fitted policies.
    # Draw e picks evaluation episode e's joint type, draw E + e its partner.
    z = _draws(_keys(cfg.seed, "ic-eval types and partners")[0], 0, 2 * eval_episodes)
    joint_ids = _choice(z[:eval_episodes], _choice_cuts(np.asarray(mu.weights)))
    partner_ids = _choice(z[eval_episodes:], _choice_cuts(np.asarray(pop.weights)))
    episode_seeds = derive_episode_seeds(cfg.seed, 0x45560000 + np.arange(eval_episodes))

    # One pass over the evaluation episodes repeated K after K: the row seat
    # holds one IC spec per K, keyed by K's index, and every K plays the same
    # joint types, partners and seeds.  run_episode replays the first
    # episode of each (K, partner member) pair of every chunk as a spot check.
    ic_specs = [AgentSpec("IC", {"tilde_T": tilde_T, "policy": policies[K]}) for K in K_values]
    K_at = np.repeat(np.arange(len(K_values)), eval_episodes)
    joint_ids, partner_ids = np.tile(joint_ids, len(K_values)), np.tile(partner_ids, len(K_values))
    episode_seeds = np.tile(episode_seeds, len(K_values))
    regrets = np.zeros(len(joint_ids))
    for ids, _, record in play_episodes((ic_specs, K_at), (pop.members, partner_ids),
                                        support[joint_ids], ts, T, episode_seeds, ct, record=True):
        pairs = list(zip(K_at[ids].tolist(), partner_ids[ids].tolist()))
        for e in [pairs.index(pair) for pair in dict.fromkeys(pairs)]:  # first of each
            i, m = pairs[e]
            replay = run_episode(ic_specs[i], pop.members[m], ts,
                                 mu.support[joint_ids[ids.start + e]], T,
                                 int(episode_seeds[ids.start + e]), ct).history
            if not np.array_equal(record[:, :, e], replay):
                raise GameError("batched IC episode differs from its replay by run_episode")
        # Column payoff of every stage, B[own = col action, opp = row action],
        # summed over the stages in order.
        stage_pay = payoff_col[joint_ids[ids], record[:, 1], record[:, 0]]
        realized = _rowsum(stage_pay.T)
        regrets[ids] = (T * tau_col[joint_ids[ids]] - realized) / T
    values = dict(zip(K_values, regrets.reshape(len(K_values), eval_episodes)))

    theta = np.array(mu.support, dtype=object)[joint_ids]
    csv = _csv("K,episode,theta1,theta2,avg_altruistic_regret",
               np.repeat(K_values, eval_episodes), np.tile(np.arange(eval_episodes), len(K_values)),
               *theta.T, regrets)
    mean_by_K = {K: float(values[K].mean()) for K in K_values}
    ci_by_K = {K: _ci99_mean(values[K]) for K in K_values}

    means = [mean_by_K[K] for K in K_values]
    steps = np.diff(means)  # a NaN step stays NaN in the maximum, and fails
    # Under common random numbers each step is also a paired difference over
    # the same evaluation episodes, whose 99% CI tells a step from noise.
    paired = "".join(f"; paired step K={K1}->{K2}: {float(d.mean()):+.5f} ci {_ci99_mean(d):.2g}"
                     for K1, K2 in zip(K_values, K_values[1:]) for d in [values[K2] - values[K1]])
    K_max = K_values[-1]
    dk = delta_K(n, tilde_T, len(ts.types), K_max)
    bound = theorem42_bound(delta, params.eps, dk, T, tilde_T)
    results = [
        VerificationResult(
            cfg.kind, f"mean avg altruistic regret nonincreasing over K={K_values}",
            statistic=float(steps.max()) if len(steps) else 0.0, bound=0.0, tol=1e-12,
            sample_count=eval_episodes,
            detail="means=" + ",".join(f"{m:.5f}" for m in means) + paired,
        ),
        VerificationResult(
            cfg.kind, f"final-K mean avg altruistic regret within upper bound, K={K_max}",
            statistic=mean_by_K[K_max], bound=bound,
            sample_count=eval_episodes, ci_radius=ci_by_K[K_max],
            detail=f"delta(K)={dk:.4g} (sample-complexity constants vacuous at desk scale)",
        ),
    ]
    return results, {"ic_eval.csv": csv}


# ---------------------------------------------------------------------------
# Dispatch and curve emission

# Each kind's runner, the ``ExperimentConfig`` fields it reads (``kind``,
# ``extra`` and ``out_dir`` are ``run_experiment``'s) and the ``extra`` keys
# it reads.
_RUNNERS = {
    "mw-regret": (run_mw_regret, ("episodes", "horizon", "num_actions", "seed"), ()),
    "nash-selfplay": (run_nash_selfplay, ("episodes", "horizon", "delta", "seed", "type_space"),
                      ("profile",)),
    "si-selfplay": (run_si_selfplay,
                    ("episodes", "horizon", "delta", "k", "seed", "type_space", "mu"), ()),
    "si-consistency": (run_si_consistency,
                       ("episodes", "horizon", "delta", "k", "seed", "type_space"), ()),
    "auth-failure": (run_auth_failure, ("episodes", "num_actions", "seed"), ()),
    "mixture-check": (run_mixture_check, ("episodes", "seed"), ()),
    "flatten-check": (run_flatten_check, ("type_space", "population"),
                      ("flatten_horizon", "probe")),
    "ic-eval": (run_ic_eval, ("horizon", "delta", "k", "tilde_T", "seed", "type_space",
                              "population", "mu"), ("K_values", "eval_episodes")),
}
EXPERIMENT_KINDS = tuple(_RUNNERS)
EXPERIMENT_FIELDS = {kind: fields for kind, (_, fields, _) in _RUNNERS.items()}


def run_experiment(cfg: ExperimentConfig):
    """Run one experiment; returns (results, artifacts) and writes CSV
    artifacts to ``cfg.out_dir`` when set."""
    if cfg.kind not in _RUNNERS:
        raise GameError(
            f"unknown experiment kind {cfg.kind!r}; choose from {sorted(_RUNNERS)}"
        )
    if cfg.episodes <= 0:
        raise GameError("experiment needs a positive episode count")
    runner, _, accepted = _RUNNERS[cfg.kind]
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
    "auth_failure": None,
}


def emit_curves(results_dir) -> dict[str, str]:
    """Aggregate the per-episode CSVs of ``results_dir`` into (x, mean, ci)
    series beside them, the columns of each harness artifact set in
    ``_CURVES``.  A malformed CSV, or one with no rows, is skipped and named
    on stderr."""
    emitted = {}
    for name in sorted(os.listdir(results_dir)):
        stem = name[:-4]
        curve = _CURVES.get(stem.rstrip("0123456789"), ())
        if not name.endswith(".csv") or curve is None:
            continue
        groups: dict[str, list[float]] = {}
        try:  # skip an empty file, a missing column, a short row or a cell that is no number
            with open(os.path.join(results_dir, name)) as f:
                header, *lines = f.read().splitlines()
            header = header.split(",")
            xs, y = curve or ((header[0],), header[-1])
            x_cols, y_col = [header.index(x) for x in xs], header.index(y)
            for line in lines:
                parts = line.split(",")
                key = ",".join(parts[i] for i in x_cols)
                groups.setdefault(key, []).append(float(parts[y_col]))
        except (ValueError, IndexError):
            groups = {}
        if not groups:
            print(f"skipped {name}: malformed or without rows", file=sys.stderr)
            continue
        rows = [f"{','.join(xs)}\tmean_{y}\tci99\tcount"]
        for key in groups:
            vals = np.asarray(groups[key])
            rows.append(f"{key}\t{float(vals.mean())!r}\t{_ci99_mean(vals)!r}\t{len(vals)}")
        out_name = stem + "_curve.tsv"
        text = "\n".join(rows) + "\n"
        with open(os.path.join(results_dir, out_name), "w") as f:
            f.write(text)
        emitted[out_name] = text
    if not emitted:
        raise GameError(f"no aggregatable CSV files found in {results_dir}")
    return emitted
