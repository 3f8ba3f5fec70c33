"""Batched episode engine: E episodes stepped in lockstep, one numpy
operation per stage instead of one Python loop per episode.

Every agent kind is one batch agent class, an array state machine over the
episodes: ``act(partner)`` returns the (E, N) announced strategies (the
adversaries of ``BatchAdaptive`` return their (E,) actions instead),
``observe(own, opp)`` takes the (E,) actions, and ``take(idx)`` copies the
state of some episodes into an agent of their own.  ``agents.build_agents``
builds the agent of one spec for many episodes, ``agents.build_agent`` for
one, and ``agents.build_seat`` one seat of any mix of kinds.

``held(m)`` tells how many of the next m stages an agent's strategies stay
as last announced, whatever is played, and ``play_batch`` steps a stretch
that both seats hold at once (``observe_block``): ``BatchFixedMixed``
always holds, ``BatchIC`` once it commits, and ``BatchProtocol`` in its
convention up to the next check that its tripwire bound cannot clear, with
every sum the per-stage one.  A seat of several parts (``BatchGroups``)
steps a stage at a time.

Self-play of a fixed mixed profile needs no agents: ``_iid_actions`` draws
its actions, ``_joint_counts`` counts them per 64-stage word, and
``_trigger_bound`` bounds a protocol agent's regret from those counts.

Random-stream contract, identical to ``run_episode``'s: episode e's stream
is counter-based SplitMix64 keyed by its seed, and its draw c is
``mix64(key + (c + 1) * GAMMA)``.  Draws 0 and 1, shifted to 63 bits, seed
the row and the column agent; draws 2 + 2t and 3 + 2t, as uniforms, sample
stage t's row and column actions by the inverse CDF of
``population._sample_action``: zero-probability actions are skipped, the
first action whose running sum exceeds the draw is taken, and the last
positive action when rounding leaves the draw above the total.  Sampled
actions therefore equal those of ``play_episode`` on a ``ScalarStream``.
"""
from __future__ import annotations

import copy
import math
from itertools import chain

import numpy as np

from .game_core import GameError

# Stages whose uniforms are drawn at once: memory stays (2 * BLOCK, E)
# whatever the horizon.  A held stretch ends with its block.
BLOCK = 16

# Episodes stepped together by ``population.play_episodes``, and drawn
# together by ``_iid_actions``: the (T, 2, E) action records and the (n - 1,
# E, T) indicators stay bounded whatever the episode count.
EPISODE_BATCH = 2000

# ---------------------------------------------------------------------------
# Random streams: SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) read by
# counter, so a stream is its key and a position, and any draw one expression.

GAMMA = 0x9E3779B97F4A7C15
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_MASK64 = 2**64 - 1
_UNIT = 2.0**-53  # a draw's top 53 bits times _UNIT is a uniform in [0, 1)


def mix64(z: int) -> int:
    """SplitMix64's finaliser on a Python int in [0, 2**64)."""
    z = (z ^ z >> 30) * _M1 & _MASK64
    z = (z ^ z >> 27) * _M2 & _MASK64
    return z ^ z >> 31


def mix64_inplace(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``mix64`` of every entry of the uint64 array ``z``, in place, through
    a ``scratch`` array of its size; the products wrap modulo 2**64."""
    for shift, mult in ((30, _M1), (27, _M2), (31, None)):
        np.right_shift(z, shift, out=scratch)
        z ^= scratch
        if mult is not None:
            z *= np.uint64(mult)
    return z


ROW_BLOCK_CELLS = 1 << 16  # cells of rows drawn or summed at a time, so they stay in cache


def _draws(keys: np.ndarray, start: int, count: int, scratch=None) -> np.ndarray:
    """Draws ``start`` to ``start + count - 1`` of the streams with uint64
    ``keys`` (E,), as a (count, E) uint64 array, or (count,) for one key,
    mixed in blocks of ROW_BLOCK_CELLS draws, or of 2 * BLOCK rows if more,
    through ``scratch`` (uint64, at least a block's rows) if one is given."""
    keys = np.asarray(keys, dtype=np.uint64)
    rows = max(2 * BLOCK, ROW_BLOCK_CELLS // max(keys.size, 1))
    z = np.empty((count, *keys.shape), np.uint64)
    scratch = np.empty((min(rows, count), *keys.shape), np.uint64) if scratch is None else scratch
    for lo in range(0, count, rows):
        steps = np.arange(start + lo + 1, start + min(lo + rows, count) + 1, dtype=np.uint64)
        steps *= np.uint64(GAMMA)
        mix64_inplace(np.add.outer(steps, keys, out=z[lo : lo + len(steps)]),
                      scratch[: len(steps)])
    return z


def stream_uniforms(keys, start: int, count: int) -> np.ndarray:
    """Draws ``start`` to ``start + count - 1`` of the streams with ``keys``
    as uniforms in [0, 1), (count, E)."""
    keys = np.asarray(keys, dtype=np.uint64)
    out = np.empty((count, len(keys)))
    z = _draws(keys, start, count, out.view(np.uint64))  # the mix works in out
    z >>= np.uint64(11)
    return np.multiply(z, _UNIT, out=out)


class ScalarStream:
    """One stream of ``EpisodeStreams`` on Python ints, from draw 0:
    ``draw()`` returns its next 64-bit draw and ``random()`` the next draw
    as a uniform."""

    def __init__(self, key: int):
        self.key, self.counter = int(key) & _MASK64, 0

    def draw(self) -> int:
        self.counter += 1
        return mix64((self.key + self.counter * GAMMA) & _MASK64)

    def random(self) -> float:
        return (self.draw() >> 11) * _UNIT


class EpisodeStreams:
    """The streams of E episodes with keys (seeds) in [0, 2**64), advanced
    together.  Draws 0 and 1 of every stream, shifted to 63 bits, are kept
    as ``agent_seeds`` (2, E): the row and the column agent's seeds.
    ``uniforms`` returns the next draws from draw 2 on."""

    def __init__(self, seeds):
        self._keys = np.asarray(seeds, dtype=np.uint64)
        self.agent_seeds = _draws(self._keys, 0, 2) >> np.uint64(1)
        self._pos = 2

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms of every stream, (count, E)."""
        out = stream_uniforms(self._keys, self._pos, count)
        self._pos += count
        return out


def sample_actions(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample of one action per row of ``probs`` (E, N) from the
    uniforms ``u`` (E,), with the skip and guard of ``_sample_action``; or,
    for ``u`` a (stages, E) block, one action per row at every stage of a
    stretch over which the rows hold, (stages, E)."""
    # The action is the number of running sums at or below u.  The sums run
    # over the positive entries left to right, as _sample_action's do, once
    # for every stage; a skipped entry leaves the sum unchanged, so the first
    # sum above u always ends on a positive action.
    n = probs.shape[1]
    acc = np.maximum(probs[:, 0], 0.0)
    below = acc <= u
    actions = below.astype(np.intp)
    for a in range(1, n):
        acc += np.maximum(probs[:, a], 0.0)
        below = acc <= u
        actions += below
    # Draws at or above the total: the last positive action.  A row with no
    # positive entry is not a strategy; play_episode's EpisodeTrace rejects
    # the action it samples from one.
    if np.count_nonzero(below):
        hit = below.reshape(-1, len(probs)).any(axis=0)  # rows with such a draw
        positive = probs[hit] > 0.0
        if not positive.any(axis=1).all():
            raise GameError("announced strategy has no action of positive probability")
        last = np.zeros(len(probs), np.intp)
        last[hit] = (positive * np.arange(n)).max(axis=1)
        actions[below] = np.broadcast_to(last, below.shape)[below]
    return actions


def _choice_cuts(p: np.ndarray) -> np.ndarray:
    """The cuts of ``sample_actions`` for the strategy ``p`` on raw draws: a
    uniform ``(z >> 11) * 2**-53`` reaches a running sum c < 1 of ``max(p,
    0)`` iff ``z >= ceil(c * 2**53) * 2**11``, and none reaches c >= 1.  The
    sums stop before the last positive action, so a draw above them all
    takes it, as the engine's guard does."""
    cdf = np.maximum(p, 0.0).cumsum()[: np.flatnonzero(p > 0.0)[-1]]
    return np.ceil(cdf[cdf < 1.0] * 2.0**53).astype(np.uint64) << np.uint64(11)


def _choice(z: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """The actions ``sample_actions`` samples from the raw draws ``z`` for
    the strategy of ``cuts``: the number of cuts at or below each draw."""
    acts = np.zeros(z.shape, np.min_scalar_type(len(cuts)))
    for c in cuts:
        acts += z >= c
    return acts


# ---------------------------------------------------------------------------
# Self-play of a fixed mixed profile without agents, and its joint counts.


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


def _iid_actions(keys: np.ndarray, p: np.ndarray, q: np.ndarray, first: int, stages: int):
    """The actions of stages ``first`` to ``first + stages - 1`` of i.i.d.
    self-play of the fixed mixed profile (``p``, ``q``) in the episodes whose
    streams have ``keys``, yielded for EPISODE_BATCH episodes at a time (the
    batch of ``play_episodes``) as (slice, row and column indicators of
    ``_at_least``) in buffers that the next chunk overwrites.  As in
    ``play_batch``, stage t's row action samples ``p`` from draw 2 + 2t of
    its episode's stream and its column action ``q`` from draw 3 + 2t.  A
    ``_choice`` action counts the cuts at or below its draw, so it is >= i
    iff its draw is >= cut i - 1."""
    steps = (np.arange(stages, dtype=np.uint64) * 2 + 3 + 2 * first) * np.uint64(GAMMA)
    seats = [(steps + np.uint64(s * GAMMA), _choice_cuts(sigma)) for s, sigma in ((0, p), (1, q))]
    ge = np.zeros((2, len(p) - 1, min(EPISODE_BATCH, len(keys)), stages), bool)
    # The draws are mixed in row blocks of about ROW_BLOCK_CELLS cells.
    z, scratch = np.empty((2, max(1, ROW_BLOCK_CELLS // max(stages, 1)), stages), np.uint64)
    for start in range(0, len(keys), EPISODE_BATCH):
        rows = slice(start, min(start + EPISODE_BATCH, len(keys)))
        for r in range(0, rows.stop - start, len(z)):
            block = slice(r, min(r + len(z), rows.stop - start))
            for seat_ge, (offsets, cuts) in zip(ge, seats):
                draws = np.add(keys[rows][block, None], offsets, out=z[: block.stop - r])
                mix64_inplace(draws, scratch[: len(draws)])
                for i, cut in enumerate(cuts):
                    np.greater_equal(draws, cut, out=seat_ge[i, block])
        yield rows, *ge[:, :, : rows.stop - start]


# Reductions over the short action axis, one numpy call per action: faster
# than numpy's axis reductions on (E, N), and the sum runs strictly left to
# right, the order of a Python loop over the actions.


def _rowsum(x: np.ndarray) -> np.ndarray:
    out = x[..., 0] + x[..., 1] if x.shape[-1] > 1 else x[..., 0].copy()
    for a in range(2, x.shape[-1]):
        out += x[..., a]
    return out


def _rowmax(x: np.ndarray) -> np.ndarray:
    out = np.maximum(x[..., 0], x[..., 1]) if x.shape[-1] > 1 else x[..., 0].copy()
    for a in range(2, x.shape[-1]):
        np.maximum(out, x[..., a], out=out)
    return out


class RegretKernel:
    """Running expected external regret of one seat in E episodes: the
    cumulative counterfactual payoff of every own action (E, N) and the
    cumulative expected payoff of the announced strategies (E,), both
    against the opponent's realized actions.  The counterfactual sums are
    also Hedge's cumulative payoffs: a learner keeps no running sum of its
    own."""

    def __init__(self, matrices):
        m = np.asarray(matrices, dtype=float)  # (E, own, opp)
        E, n, _ = m.shape
        # Row e * n + opp holds episode e's own payoffs against opp.
        self._by_opp = m.transpose(0, 2, 1).reshape(E * n, n)
        self._base = np.arange(E) * n
        self.counterfactual = np.zeros((E, n))
        self.expected = np.zeros(E)

    def update(self, sigma: np.ndarray, opp: np.ndarray) -> None:
        """Accrue one stage of the announced strategies ``sigma`` (E, N)
        against the opponent's actions ``opp`` (E,)."""
        rows = self._by_opp.take(self._base + opp, axis=0)  # own payoffs against opp
        self.counterfactual += rows
        self.expected += _rowsum(sigma * rows)

    def payoffs(self, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For strategies ``sigma`` (E, N) held over stages: per episode and
        opponent action, (E, N) each, the best own payoff, and the expected
        payoff that ``update`` adds, with its products and addition order."""
        by_opp = self._by_opp.reshape(len(sigma), -1, sigma.shape[1])
        return _rowmax(by_opp), _rowsum(sigma[:, None, :] * by_opp)

    def regret(self) -> np.ndarray:
        return _rowmax(self.counterfactual) - self.expected

    def take(self, idx) -> "RegretKernel":
        """The kernel of the episodes at ``idx``, with copies of their sums."""
        n = self.counterfactual.shape[1]
        out = copy.copy(self)
        out._by_opp = self._by_opp.reshape(-1, n, n).take(idx, axis=0).reshape(-1, n)
        out._base = np.arange(len(out._by_opp) // n) * n
        out.counterfactual = self.counterfactual.take(idx, axis=0)
        out.expected = self.expected.take(idx)
        return out


# ---------------------------------------------------------------------------
# Batch agents


def _take(value, idx):
    if value is None:
        return None
    if isinstance(value, np.ndarray):
        return value.take(idx, axis=0)
    if isinstance(value, list):
        return [_take(v, idx) for v in value]
    return value.take(idx)


class BatchAgent:
    """One agent kind over E episodes.  ``partner`` is the other seat's
    announced strategy when the column seat acts; only the strategy-aware
    adversaries read it.  ``ROWS`` names the attributes that hold one row per
    episode: arrays, lists of them, or objects with a ``take`` of their own.
    Every other attribute is shared by ``take`` and never written in place."""

    ROWS: tuple[str, ...] = ()

    def act(self, partner: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def observe(self, own, opp: np.ndarray) -> None:
        pass

    def held(self, stages: int) -> int:
        """How many of the next ``stages`` stages, this one included, the
        strategies last announced stay unchanged, whatever is played: the
        held stretch, at least 1.  ``play_batch`` steps a stretch of m > 1
        stages with one ``act`` and one ``observe_block``."""
        return 1

    def observe_block(self, own, opp) -> None:
        """Observe the (m, E) actions of a held stretch, stage by stage."""
        for a, b in zip(own, opp):
            self.observe(a, b)

    def take(self, idx) -> "BatchAgent":
        """The episodes at ``idx`` (an index array, repeats allowed) as an
        agent of their own, with copies of their state, the strategies last
        announced included: observed and asked alone, each row goes on as its
        episode would."""
        out = copy.copy(self)
        for name in self.ROWS:
            setattr(out, name, _take(getattr(self, name), idx))
        return out


class BatchFixedMixed(BatchAgent):
    ROWS = ("probs",)

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)  # (E, N)

    def act(self, partner=None):
        return self.probs

    def held(self, stages):
        return stages


class BatchFixedSequence(BatchAgent):
    """Scripted pure actions (E, L), cycled if the episode outlasts them."""

    ROWS = ("actions",)

    def __init__(self, actions, n: int):
        self.actions = np.asarray(actions)
        self._eye = np.eye(n)
        self.stage = 0

    def act(self, partner=None):
        return self._eye.take(self.actions[:, self.stage % self.actions.shape[1]], axis=0)

    def observe(self, own, opp):
        self.stage += 1


class BatchGrimTrigger(BatchAgent):
    """Cooperates until the opponent leaves its designated action, then
    punishes forever."""

    ROWS = ("triggered",)

    def __init__(self, n: int, coop: int, punish: int, opp_coop: int, episodes: int):
        self._eye = np.eye(n)
        self.coop, self.punish, self.opp_coop = coop, punish, opp_coop
        self.triggered = np.zeros(episodes, dtype=bool)

    def act(self, partner=None):
        return self._eye.take(np.where(self.triggered, self.punish, self.coop), axis=0)

    def observe(self, own, opp):
        self.triggered |= opp != self.opp_coop


class BatchBestResponder(BatchAgent):
    """Fictitious play: pure best response to the opponent's action counts,
    uniform before the first observation, lowest index on ties."""

    ROWS = ("matrices", "counts")

    def __init__(self, matrices):
        self.matrices = np.asarray(matrices, dtype=float)
        E, n, _ = self.matrices.shape
        self._eye = np.eye(n)
        self.counts = np.zeros((E, n))
        self.stage = 0

    def act(self, partner=None):
        if self.stage == 0:
            return np.full(self.counts.shape, 1.0 / self.counts.shape[1])
        values = _rowsum(self.matrices * self.counts[:, None, :])
        return self._eye.take(values.argmax(axis=1), axis=0)

    def observe(self, own, opp):
        self.counts += self._eye.take(opp, axis=0)
        self.stage += 1


def _hedge(exponents: np.ndarray) -> np.ndarray:
    """Hedge's strategies of (rows, N) exponents, eta times cumulative
    payoffs, less each row's maximum so that long horizons cannot overflow.
    Consumes its argument: the strategies are computed in ``exponents``, so
    callers pass a temporary."""
    exponents -= _rowmax(exponents)[:, None]
    np.exp(exponents, out=exponents)
    return np.divide(exponents, _rowsum(exponents)[:, None], out=exponents)


def _check_eta(eta: np.ndarray) -> np.ndarray:
    if (eta < 0).any():
        raise GameError(f"eta must be >= 0, got {eta.min()}")
    return eta


class BatchMW(BatchAgent):
    """Multiplicative weights / Hedge over each episode's own payoff matrix:
    weight(a) ~ exp(eta * cumulative payoff of a against the opponent's
    actions) (``_hedge``).  The cumulative payoffs are its ``kernel``'s
    counterfactual sums; the kernel also accrues its expected external
    regret on the strategies it announced."""

    ROWS = ("kernel", "eta", "sigma")

    def __init__(self, matrices, eta):
        eta = _check_eta(np.broadcast_to(np.asarray(eta, dtype=float), (len(matrices),)))
        self.kernel = RegretKernel(matrices)
        self.eta = np.repeat(eta[:, None], self.kernel.counterfactual.shape[1], axis=1)  # (E, N)
        self.sigma = None  # the strategies last announced

    def act(self, partner=None):
        self.sigma = _hedge(self.eta * self.kernel.counterfactual)
        return self.sigma

    def observe(self, own, opp):
        self.kernel.update(self.sigma, opp)


class BatchProtocol(BatchAgent):
    """Handshake-then-convention agents of one seat and handshake length k
    with an expected-regret tripwire, over E episodes: ``own_code`` (E, k)
    holds each episode's codeword, ``conventions`` (E, types, N) its
    convention strategy when the partner announces type j.

    Phases move handshake -> convention -> fallback (or handshake ->
    fallback) and never return: an opponent prefix that cannot complete to a
    codeword of the type space, or a regret accumulator above ``threshold``,
    starts an MW fallback at ``fallback_stage`` (-1 until then).  A row is
    in the fallback iff it has a fallback stage, else in the handshake while
    ``stage < k`` and in the convention after.  The accumulator uses the
    episode's own announced strategies and the opponent's realized actions
    from stage 0 (the +k of the threshold absorbs the handshake's share),
    and keeps accruing after a fallback, so at the end it holds each
    episode's expected external regret.

    Only the fallen rows run MW: ``fallen`` holds their row indices, in the
    order they fell, and ``sums_at_fall`` (F, N) their kernel's
    counterfactual sums at the stage they fell.  Their Hedge cumulative
    payoffs are the sums accrued since.

    The tripwire is checked only where a bound cannot clear it.  When the
    convention is chosen, ``RegretKernel.payoffs`` gives, per row and
    opponent action j, the best own payoff m*[j] and the convention's
    expected payoff V[j] (E, N); a stage against j raises a convention
    row's accumulator by at most m*[j] - V[j], and ``delta`` is the largest
    such increment.  After an exact check at stage s, with largest active
    accumulator r, no row can cross the threshold in the next
    w = floor((threshold - r - slack) / delta) stages (all of them if
    delta <= 0), capped at L - 1: the stage s + w is checked exactly.  While
    no row has fallen, the rows announce their conventions to that stage
    whatever is played (``held``), and the agent only keeps copies of the
    opponent's actions in the record's dtype; ``kernel`` adds them in stage
    by stage, in order, before anything reads it (a check, ``take``, Hedge,
    the caller after play), so every sum, fallback stage and strategy is the
    per-stage one, bit for bit.  L = max(1, 8 ROW_BLOCK_CELLS // (E itemsize))
    keeps them within the bytes of ROW_BLOCK_CELLS intp cells: at E = 2 000
    and N <= 256, 262 stages, so a chunk of 40 or 80 stages whose bound
    clears the horizon sums nothing after the handshake unless it is read.

    The slack covers rounding.  With u = eps / 2, after i <= w stages the
    kernel's sums are i roundings from cf + sum m[:, j] and x + sum V[j],
    off by at most gamma_i S_i each, S_i bounding |cf| + |x| + i max|m, V|
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    2002, section 4.2), and the accumulator rounds once more; r and delta
    are each one rounding from exact.  So the computed accumulator is at most
    r + i delta + (i + 2) eps S_i while i u <= 1/2 (gamma_i <= i eps).
    After s stages |cf| and |x| are at most 2 s max|m, V|, so |r| and every
    S_i are at most S = 2 (s + L)(max|m| + max|V|).  Computing w rounds
    three times on values of size at most |threshold| + |r| + slack, which
    adds at most 2 eps (|threshold| + S + slack).  For i < L all of it is
    below slack = (L + 8) eps (S + |threshold|)."""

    ROWS = ("own_code", "conventions", "opp_prefix", "fallback_stage", "convention", "_sigma")

    def __init__(self, own_code, conventions, matrices, threshold: float, eta_fallback: float):
        E, self.k = own_code.shape
        self.num_types, self.n = conventions.shape[1:]
        self.own_code = own_code
        self.conventions = conventions
        self.threshold = threshold
        self._kernel = RegretKernel(matrices)
        self._kept = []  # the opponent's actions (stages, E) not yet in the kernel
        self._kept_dtype = np.min_scalar_type(self.n - 1)
        self.eta = float(_check_eta(np.asarray(eta_fallback, dtype=float)))
        self._eye = np.eye(self.n)
        self.stage = 0
        self.opp_prefix = np.zeros(E, dtype=np.int64)
        self.fallback_stage = np.full(E, -1)
        self.fallen = np.zeros(0, dtype=np.intp)
        self.sums_at_fall = np.zeros((0, self.n))
        self._sigma = None
        # Single-type spaces need no handshake (k = 0); otherwise the
        # convention is chosen at stage k.
        self.convention = conventions[:, 0]
        if self.k == 0:
            self._enter_convention()

    @property
    def kernel(self) -> RegretKernel:
        """The regret kernel, with the kept stages added in one ``update``
        at a time, in order: summing them first would round differently."""
        for opp in chain.from_iterable(self._kept):
            self._kernel.update(self.convention, opp)
        self._kept = []
        return self._kernel

    def act(self, partner=None):
        if self.stage < self.k:
            out = self._eye.take(self.own_code[:, self.stage], axis=0)
        else:
            out = self.convention
        if len(self.fallen):
            out = out.copy()
            out[self.fallen] = _hedge(
                self.eta * (self.kernel.counterfactual[self.fallen] - self.sums_at_fall))
        self._sigma = out
        return out

    def held(self, stages):
        if self.stage < self.k or len(self.fallen):
            return 1
        return min(stages, self._check_at - self.stage + 1)

    def _fall_back(self, rows: np.ndarray) -> None:
        new = np.flatnonzero(rows)
        if len(new):
            self.fallback_stage[new] = self.stage
            self.fallen = np.concatenate((self.fallen, new))
            self.sums_at_fall = np.concatenate((self.sums_at_fall, self.kernel.counterfactual[new]))

    def _enter_convention(self) -> None:
        self.convention = self.conventions[np.arange(len(self.opp_prefix)), self.opp_prefix]
        best, expected = self._kernel.payoffs(self.convention)
        self._delta = float((best - expected).max(initial=0.0))
        self._size = float(np.abs(self._kernel._by_opp).max(initial=0.0)
                           + np.abs(expected).max(initial=0.0))
        self._window(self.kernel.regret())

    def _window(self, regret: np.ndarray) -> None:
        """Set the next stage to check from the accumulators of an exact check."""
        span = max(1, ROW_BLOCK_CELLS * 8 // (max(len(regret), 1) * self._kept_dtype.itemsize))
        r = float(np.where(self.fallback_stage < 0, regret, -np.inf).max(initial=-np.inf))
        slack = (span + 8) * 2.0**-52 * (2 * (self.stage + span) * self._size + abs(self.threshold))
        room = self.threshold - r - slack
        if not room >= 0.0:  # NaN included
            w = 0
        elif room >= (span - 1) * self._delta:
            w = span - 1
        else:
            w = math.floor(room / self._delta)
        self._check_at = self.stage + w

    def observe(self, own, opp):
        if self.stage >= self.k and not len(self.fallen):  # the convention holds
            self.observe_block(own, opp[None])
            return
        self.kernel.update(self._sigma, opp)
        handshake = self.stage < self.k
        self.stage += 1
        if handshake:
            # The prefix can still complete to a valid codeword iff
            # prefix * N^(k - m) < |types|, i.e. prefix < ceil(|types| / N^(k - m)).
            limit = -(-self.num_types // self.n ** (self.k - self.stage))
            prefix = self.opp_prefix * self.n + opp
            active = self.fallback_stage < 0
            valid = active & (prefix < limit)
            self.opp_prefix = np.where(valid, prefix, 0)
            self._fall_back(active & ~valid)
            if self.stage == self.k:
                self._enter_convention()
        elif self.stage > self._check_at:
            self._check()

    def observe_block(self, own, opp):
        self._kept.append(opp.astype(self._kept_dtype))  # not a view of both seats' actions
        self.stage += len(opp)
        if self.stage > self._check_at:
            self._check()

    def _check(self) -> None:
        regret = self.kernel.regret()
        self._fall_back((self.fallback_stage < 0) & (regret > self.threshold))
        self._window(regret)

    def take(self, idx):
        out = super().take(idx)
        out._kernel, out._kept = self.kernel.take(idx), []
        at = np.full(len(self.fallback_stage), -1)  # each row's place in the fallen rows
        at[self.fallen] = np.arange(len(self.fallen))
        at = at[idx]
        out.fallen = np.flatnonzero(at >= 0)
        out.sums_at_fall = self.sums_at_fall[at[out.fallen]]
        return out


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


class BatchAdaptive(BatchAgent):
    """Column adversaries against a learner that announce their (E,) actions,
    for ``play_batch`` without streams.  The first rows, one per learner
    matrix (rows, own, opp), are of one kind or one per row (``kinds``):
    ``adaptive-min`` plays the column that minimizes the learner's expected
    payoff, ``adaptive-regret`` the one that maximizes its regret (best payoff
    in the column minus expected payoff); lowest index on ties.  Both maximize
    ``target - value``, for targets 0 and the column's best payoff: negation
    keeps ties, so the argmax is the argmin of the value.  The rows after them
    play the pure actions of ``script`` (rows, L), cycled."""

    KINDS = ("adaptive-min", "adaptive-regret")
    ROWS = ("_target", "_by_col")

    def __init__(self, kinds, learner_matrices, script=None):
        kinds = np.asarray(kinds)
        unknown = set(kinds.ravel().tolist()) - set(self.KINDS)
        if unknown:
            raise GameError(f"unknown adaptive adversary {sorted(unknown)[0]!r}")
        m = np.asarray(learner_matrices, dtype=float)
        regret = np.broadcast_to(kinds == "adaptive-regret", (len(m),))
        self._target = np.where(regret[:, None], m.max(axis=1), 0.0)
        self._by_col = np.ascontiguousarray(m.transpose(0, 2, 1))
        self.script = np.zeros((0, 1), np.intp) if script is None else np.asarray(script)
        self.stage = 0

    def act(self, partner=None):
        k = len(self._target)
        out = np.empty(k + len(self.script), np.intp)
        # Learner's expected payoff per column, summed over its actions in order.
        value = _rowsum(partner[:k, None, :] * self._by_col)
        np.subtract(self._target, value, out=value).argmax(axis=1, out=out[:k])
        out[k:] = self.script[:, self.stage % self.script.shape[1]]
        return out

    def observe(self, own, opp):
        self.stage += 1

    def take(self, idx):
        """As ``BatchAgent.take``, for ``idx`` whose scripted rows come last."""
        idx = np.asarray(idx, dtype=np.intp)
        scripted = idx >= len(self._target)
        if (scripted[:-1] > scripted[1:]).any():
            raise GameError("an adversary's scripted rows must follow its strategy-aware rows")
        out = super().take(idx[~scripted])
        out.script = self.script.take(idx[scripted] - len(self._target), axis=0)
        return out


class BatchGroups(BatchAgent):
    """One seat of E episodes shared by batch agents of any kinds: ``parts``
    holds (index, agent) pairs whose indices partition range(E) into nonempty
    parts.  Each part acts and observes on its own rows only, as in a
    ``play_batch`` of its own.  A single part is returned as it is."""

    def __new__(cls, parts, n: int):
        indices = [np.asarray(index, dtype=np.intp).reshape(-1) for index, _ in parts]
        covered = np.concatenate(indices or [[-1]])  # a partition covers 0 .. E - 1 once each
        if not all(map(len, indices)) or covered.min() < 0 or (np.bincount(covered) != 1).any():
            raise GameError("batch groups must partition the episodes into nonempty parts")
        if len(parts) == 1:
            return parts[0][1]
        self = super().__new__(cls)
        self.shape, self.parts = (len(covered), n), []
        for index, (_, agent) in zip(indices, parts):
            # Evenly spaced increasing episodes are read through a view.
            view = slice(index[0], index[-1] + 1, index[1] - index[0] if len(index) > 1 else 1)
            regular = view.step > 0 and np.array_equal(
                np.arange(*view.indices(len(covered))), index)
            self.parts.append((view if regular else index, agent))
        return self

    def act(self, partner=None):
        out = np.empty(self.shape)
        for index, agent in self.parts:
            p = agent.act(None if partner is None else partner[index])
            if p.shape[1:] != self.shape[1:]:
                raise GameError(f"a part announced {p.shape}, not width {self.shape[1]}")
            out[index] = p
        return out

    def observe(self, own, opp):
        for index, agent in self.parts:
            agent.observe(None if own is None else own[index], None if opp is None else opp[index])

    def take(self, idx):
        idx = np.asarray(idx, dtype=np.intp)
        parts = []
        for index, agent in self.parts:
            row = np.full(self.shape[0], -1)  # each episode's row in this part
            row[index] = np.arange(len(row[index]))
            at = np.flatnonzero(row[idx] >= 0)
            if len(at):
                parts.append((at, agent.take(row[idx[at]])))
        return BatchGroups(parts, self.shape[1])


def play_batch(row: BatchAgent, col: BatchAgent, T: int,
               streams: EpisodeStreams | None = None,
               record: bool = False) -> np.ndarray | None:
    """Play T stages of E episodes in lockstep.

    With ``streams`` both seats' actions are sampled from their announced
    strategies, row then column, as ``run_episode`` does; with ``record``
    they are returned as a (T, 2, E) array of (row, col) actions.  A
    stretch of stages that both seats hold (``BatchAgent.held``), within
    one block of BLOCK stages, is stepped as one: one ``act`` per seat, one
    inverse-CDF sample of the stretch's (stages, E) uniforms, one record
    write and one ``observe_block`` per seat.

    Without ``streams``, every stage is stepped alone: the column seat
    announces its (E,) integer actions, not strategies (``BatchAdaptive``),
    and plays them; the row seat's action is not sampled (None): for a
    learner whose own actions no agent reads, such as MW against the regret
    adversaries.
    """
    out = None
    t = 0
    while t < T:
        p = row.act()
        q = col.act(p)
        if streams is None:
            if q.shape != p.shape[:1] or q.dtype.kind not in "iu":
                raise GameError(f"without streams the column seat announces its {len(p)} "
                                f"integer actions, not a {q.dtype} array of shape {q.shape}")
            row.observe(None, q)
            col.observe(q, None)
            t += 1
            continue
        s = t % BLOCK  # a stretch ends with its block: blocks start at multiples of BLOCK
        if s == 0:
            # Row s holds stage s's row-seat draws, then its column-seat draws.
            u = streams.uniforms(2 * min(BLOCK, T - t)).reshape(-1, 2 * len(p))
        m = row.held(len(u) - s)
        if m > 1:
            m = col.held(m)
        # Both seats in one call: rows of p, then rows of q, at every stage.
        actions = sample_actions(np.concatenate((p, q)), u[s] if m == 1 else u[s : s + m])
        if record:
            if out is None:
                out = np.empty((T, 2, len(p)), dtype=np.min_scalar_type(p.shape[1] - 1))
            out[t : t + m] = actions.reshape(m, 2, -1)
        a, b = actions[..., : len(p)], actions[..., len(p) :]
        if m == 1:
            row.observe(a, b)
            col.observe(b, a)
        else:
            row.observe_block(a, b)
            col.observe_block(b, a)
        t += m
    return out
