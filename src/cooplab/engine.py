"""Batched episode engine: E episodes of one agent pairing stepped in lockstep,
one numpy operation per stage instead of one Python loop per episode.

Batch agents are array state machines over the episodes: ``act(partner)``
returns the (E, N) announced strategies and ``observe(own, opp)`` takes the
(E,) actions.  Each is stacked from the scalar agents of ``agents.py``, which
stay the reference, so parameters are resolved once, by ``build_agent``.

Random-stream contract, identical to ``run_episode``: episode e uses
``random.Random(seed_e)``; the first two ``getrandbits(63)`` calls go to the
agent seeds, then each stage draws one ``random()`` for the row seat and one
for the column seat, in that order.  Actions are sampled by the inverse CDF
of ``population._sample_action``: zero-probability actions are skipped, the
first action whose running sum exceeds the draw is taken, and the last
positive action when rounding leaves the draw above the total.  Sampled
actions therefore equal the scalar loop's; announced strategies that involve
``exp`` may differ from ``math.exp`` in the last bit.
"""
from __future__ import annotations

import random

import numpy as np

from .game_core import GameError
from .agents import (
    BestResponderAgent,
    FixedMixedAgent,
    GrimTriggerAgent,
    MWAgent,
    ProtocolAgent,
)

# Stages whose uniforms are drawn at once: memory stays (2 * BLOCK, E)
# whatever the horizon.
BLOCK = 16

# ---------------------------------------------------------------------------
# Random streams: MT19937, the generator behind random.Random, stepped for all
# episodes at once.

_MT_N, _MT_M = 624, 397
_UPPER, _LOWER, _MATRIX_A = np.uint32(0x80000000), np.uint32(0x7FFFFFFF), np.uint32(0x9908B0DF)


# Row slices of the state, updated in this order.  New word i is word
# i + 397 (mod 624) mixed with old words i and i + 1; for i >= 227 that word
# is new already, so no slice straddles 227 or spans more than 227 words.
# Short slices keep the temporaries small.
_TWIST_SLICES = tuple(
    (lo, min(lo + 64, hi)) for start, hi in ((0, 227), (227, 623)) for lo in range(start, hi, 64)
)


def _twist(mt: np.ndarray) -> None:
    """Regenerate a (624, E) MT19937 state in place."""
    for lo, hi in _TWIST_SLICES:
        src = (lo + _MT_M) % _MT_N
        y = (mt[lo:hi] & _UPPER) | (mt[lo + 1 : hi + 1] & _LOWER)
        mt[lo:hi] = mt[src : src + hi - lo] ^ (y >> 1) ^ ((y & 1) * _MATRIX_A)
    y = (mt[-1] & _UPPER) | (mt[0] & _LOWER)
    mt[-1] = mt[_MT_M - 1] ^ (y >> 1) ^ ((y & 1) * _MATRIX_A)


def _temper(y: np.ndarray) -> np.ndarray:
    y = y ^ (y >> 11)
    y ^= (y << 7) & np.uint32(0x9D2C5680)
    y ^= (y << 15) & np.uint32(0xEFC60000)
    return y ^ (y >> 18)


class EpisodeStreams:
    """The per-episode ``random.Random(seed)`` streams of E episodes, after
    the two agent-seed draws, advanced together."""

    def __init__(self, seeds):
        # Column e: episode e's 624 state words, then its position.  Filled
        # one episode at a time, so at most one state is held as Python ints.
        state = np.empty((_MT_N + 1, len(seeds)), dtype=np.uint32)
        for e, seed in enumerate(seeds):
            rng = random.Random(seed)
            rng.getrandbits(63)
            rng.getrandbits(63)
            state[:, e] = rng.getstate()[1]
        # Every stream was seeded and drawn from alike, so all share one
        # position.
        self._mt = state[:_MT_N]
        self._pos = int(state[_MT_N, 0])

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` ``random()`` values of every stream, (count, E)."""
        words = np.empty((2 * count, self._mt.shape[1]), dtype=np.uint32)
        filled = 0
        while filled < len(words):
            if self._pos == _MT_N:
                _twist(self._mt)
                self._pos = 0
            take = min(_MT_N - self._pos, len(words) - filled)
            words[filled : filled + take] = self._mt[self._pos : self._pos + take]
            self._pos += take
            filled += take
        words = _temper(words)
        high = (words[0::2] >> 5).astype(float)
        low = (words[1::2] >> 6).astype(float)
        return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


def sample_actions(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample of one action per row of ``probs`` (E, N) from the
    uniforms ``u`` (E,), with the skip and guard of ``_sample_action``."""
    # The action is the number of running sums at or below u.  The sums run
    # over the positive entries left to right, as the scalar loop's do; a
    # skipped entry leaves the sum unchanged, so the first sum above u always
    # ends on a positive action.
    n = probs.shape[1]
    acc = np.maximum(probs[:, 0], 0.0)
    below = acc <= u
    actions = below.astype(np.intp)
    for a in range(1, n):
        acc += np.maximum(probs[:, a], 0.0)
        below = acc <= u
        actions += below
    # Draws at or above the total: the last positive action, or 0 if none.
    if np.count_nonzero(below):
        actions[below] = ((probs[below] > 0.0) * np.arange(n)).max(axis=1)
    return actions


# Reductions over the short action axis, one numpy call per action: faster
# than numpy's axis reductions on (E, N), and the sum runs strictly left to
# right, the order of the scalar agents' Python loops.


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


def _read(agents, *attrs) -> list[list]:
    """The named attributes of every agent, one list per attribute.  Reads
    each agent once, so ``agents`` may build them one at a time."""
    rows = ([getattr(agent, name) for name in attrs] for agent in agents)
    return [list(column) for column in zip(*rows)]


class RegretKernel:
    """Running expected external regret of one seat in E episodes: the
    cumulative counterfactual payoff of every own action (E, N) and the
    cumulative expected payoff of the announced strategies (E,), both
    against the opponent's realized actions."""

    def __init__(self, matrices):
        m = np.asarray(matrices, dtype=float)  # (E, own, opp)
        E, n, _ = m.shape
        # Row e * n + opp holds episode e's own payoffs against opp.
        self._by_opp = m.transpose(0, 2, 1).reshape(E * n, n)
        self._base = np.arange(E) * n
        self.counterfactual = np.zeros((E, n))
        self.expected = np.zeros(E)

    def payoffs(self, opp: np.ndarray) -> np.ndarray:
        """Own payoff of every action against ``opp``, (E, N)."""
        return self._by_opp.take(self._base + opp, axis=0)

    def update(self, sigma: np.ndarray, payoffs: np.ndarray) -> None:
        """Accrue one stage: ``payoffs`` is ``self.payoffs(opp)``."""
        self.counterfactual += payoffs
        self.expected += _rowsum(sigma * payoffs)

    def regret(self) -> np.ndarray:
        return _rowmax(self.counterfactual) - self.expected


# ---------------------------------------------------------------------------
# Batch agents


class BatchAgent:
    """Array form of ``agents.Agent`` over E episodes.  ``partner`` is the
    other seat's announced strategy when the column seat acts; only the
    strategy-aware adversaries read it."""

    def act(self, partner: np.ndarray | None = None) -> np.ndarray:
        raise NotImplementedError

    def observe(self, own, opp: np.ndarray) -> None:
        pass


class BatchFixedMixed(BatchAgent):
    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=float)

    def act(self, partner=None):
        return self.probs


class BatchFixedSequence(BatchAgent):
    """Scripted pure actions (E, L), cycled as ``FixedSequenceAgent`` does."""

    def __init__(self, actions, n: int):
        self.actions = np.asarray(actions)
        self._eye = np.eye(n)
        self.stage = 0

    def act(self, partner=None):
        return self._eye.take(self.actions[:, self.stage % self.actions.shape[1]], axis=0)

    def observe(self, own, opp):
        self.stage += 1


class BatchGrimTrigger(BatchAgent):
    def __init__(self, n: int, coop, punish, opp_coop):
        self._eye = np.eye(n)
        self.coop, self.punish, self.opp_coop = map(np.asarray, (coop, punish, opp_coop))
        self.triggered = np.zeros(len(self.coop), dtype=bool)

    def act(self, partner=None):
        return self._eye.take(np.where(self.triggered, self.punish, self.coop), axis=0)

    def observe(self, own, opp):
        self.triggered |= opp != self.opp_coop


class BatchBestResponder(BatchAgent):
    """Fictitious play: pure best response to the opponent's action counts,
    uniform before the first observation, lowest index on ties."""

    def __init__(self, matrices):
        self.matrices = np.asarray(matrices, dtype=float)
        E, n, _ = self.matrices.shape
        self._eye = np.eye(n)
        self._rows = np.arange(E)
        self.counts = np.zeros((E, n))
        self.stage = 0

    def act(self, partner=None):
        if self.stage == 0:
            n = self._eye.shape[0]
            return np.full((len(self._rows), n), 1.0 / n)
        values = _rowsum(self.matrices * self.counts[:, None, :])
        return self._eye.take(values.argmax(axis=1), axis=0)

    def observe(self, own, opp):
        self.counts[self._rows, opp] += 1.0
        self.stage += 1


class BatchMW(BatchAgent):
    """Multiplicative weights over (E, N) log-weights."""

    def __init__(self, matrices, eta):
        self._payoffs = RegretKernel(matrices).payoffs
        self.eta = np.broadcast_to(np.asarray(eta, dtype=float), (len(matrices),))[:, None]
        self.log_weights = np.zeros(np.shape(matrices)[:2])

    def act(self, partner=None):
        w = np.exp(self.log_weights - _rowmax(self.log_weights)[:, None])
        return w / _rowsum(w)[:, None]

    def observe(self, own, opp):
        self.learn(self._payoffs(opp))

    def learn(self, payoffs: np.ndarray) -> None:
        """The update for own payoffs (E, N) against the opponent's actions."""
        self.log_weights += self.eta * payoffs


HANDSHAKE, CONVENTION, FALLBACK = 0, 1, 2


class BatchProtocol(BatchAgent):
    """``ProtocolAgent`` over E episodes: phase codes, the opponent's
    handshake prefix as an integer, the convention strategy of each episode,
    a ``RegretKernel`` tripwire and an MW fallback whose rows restart when
    their episode falls back.

    The kernel keeps accruing after an episode falls back, where the
    tripwire no longer reads it (the scalar agent's accumulator stops), so at
    the end it holds each episode's expected external regret."""

    def __init__(self, agents):
        (ks, seats, type_names, n, matrices, codes, thresholds, etas, tables, own_types) = _read(
            agents, "k", "seat", "type_names", "n", "matrix", "own_code", "threshold",
            "eta_fallback", "convention_table", "own_type",
        )
        if len(set(zip(ks, seats, type_names))) != 1:
            raise GameError("batched protocol agents need one k, seat and type space")
        self.k, seat, types = ks[0], seats[0], type_names[0]
        E = len(matrices)
        self.n, self.num_types = n[0], len(types)
        self.own_code = np.array(codes, dtype=np.intp).reshape(E, self.k)
        self.threshold = np.array(thresholds)
        # conventions[e, j]: the episode's convention strategy when the
        # partner announces type j.
        self.conventions = np.array(
            [
                [table.strategy_for((own, t) if seat == "row" else (t, own), seat) for t in types]
                for table, own in zip(tables, own_types)
            ]
        )
        matrices = np.array(matrices, dtype=float)
        self.kernel = RegretKernel(matrices)
        self.mw = BatchMW(matrices, etas)
        self._eye = np.eye(self.n)
        self._rows = np.arange(E)
        self.stage = 0
        self.opp_prefix = np.zeros(E, dtype=np.int64)
        self.fallback_stage = np.full(E, -1)
        # Single-type spaces need no handshake; otherwise the convention is
        # chosen at stage k.
        self.phase = np.full(E, CONVENTION if self.k == 0 else HANDSHAKE, dtype=np.int8)
        self.fallen = 0  # episodes in the fallback phase
        self.convention = self.conventions[:, 0]
        self._sigma = None

    def act(self, partner=None):
        if self.stage < self.k:
            out = self._eye.take(self.own_code[:, self.stage], axis=0)
        else:
            out = self.convention
        if self.fallen:
            out = np.where((self.phase == FALLBACK)[:, None], self.mw.act(), out)
        self._sigma = out
        return out

    def _fall_back(self, rows: np.ndarray) -> None:
        count = np.count_nonzero(rows)
        if count:
            self.fallen += count
            self.phase[rows] = FALLBACK
            self.fallback_stage[rows] = self.stage
            self.mw.log_weights[rows] = 0.0

    def observe(self, own, opp):
        payoffs = self.kernel.payoffs(opp)
        self.kernel.update(self._sigma, payoffs)
        if self.fallen:
            active = self.phase != FALLBACK
            # Rows outside the fallback phase learn too; entering it resets them.
            self.mw.learn(payoffs)
        else:
            active = True
        handshake = self.stage < self.k
        self.stage += 1
        if handshake:
            # The prefix can still complete to a valid codeword iff
            # prefix * N^(k - m) < |types|, i.e. prefix < ceil(|types| / N^(k - m)).
            limit = -(-self.num_types // self.n ** (self.k - self.stage))
            prefix = self.opp_prefix * self.n + opp
            valid = active & (prefix < limit)
            self.opp_prefix = np.where(valid, prefix, 0)
            self._fall_back(active & ~valid)
            if self.stage == self.k:
                self.phase[valid] = CONVENTION
                self.convention = self.conventions[self._rows, self.opp_prefix]
        else:
            self._fall_back(active & (self.kernel.regret() > self.threshold))


class BatchAdaptive(BatchAgent):
    """Strategy-aware column adversary against a learner with matrices
    (E, own, opp): ``adaptive-min`` plays the column that minimizes the
    learner's expected payoff, ``adaptive-regret`` the one that maximizes
    its regret (best payoff in the column minus expected payoff); lowest
    index on ties."""

    KINDS = ("adaptive-min", "adaptive-regret")

    def __init__(self, kind: str, learner_matrices):
        if kind not in self.KINDS:
            raise GameError(f"unknown adaptive adversary {kind!r}")
        self.kind = kind
        m = np.asarray(learner_matrices, dtype=float)
        self.best = m.max(axis=1)
        self._by_col = np.ascontiguousarray(m.transpose(0, 2, 1))
        self._eye = np.eye(m.shape[1])

    def act(self, partner=None):
        # Learner's expected payoff per column, summed over its actions in order.
        value = _rowsum(partner[:, None, :] * self._by_col)
        if self.kind == "adaptive-min":
            return self._eye.take(value.argmin(axis=1), axis=0)
        return self._eye.take((self.best - value).argmax(axis=1), axis=0)


def _stack_grim_trigger(agents):
    n, coop, punish, opp_coop = _read(agents, "n", "coop", "punish", "opp_coop")
    return BatchGrimTrigger(n[0], coop, punish, opp_coop)


_STACKERS = {
    MWAgent: lambda agents: BatchMW(*_read(agents, "matrix", "eta")),
    ProtocolAgent: BatchProtocol,
    GrimTriggerAgent: _stack_grim_trigger,
    BestResponderAgent: lambda agents: BatchBestResponder(*_read(agents, "matrix")),
    FixedMixedAgent: lambda agents: BatchFixedMixed(*_read(agents, "probs")),
}


def stack_agents(agents) -> BatchAgent:
    """One batch agent from the fresh scalar agents of E episodes, all of one
    kind.  Each agent is read once, so ``agents`` may be a generator that
    builds them one at a time and only one is alive at once."""
    agents = iter(agents)
    first = next(agents, None)
    if first is None:
        raise GameError("need at least one agent to stack")
    cls = type(first)
    stacker = next((_STACKERS[base] for base in cls.__mro__ if base in _STACKERS), None)
    if stacker is None:
        raise GameError(f"no batched form for {cls.__name__}")

    def of_one_kind():
        yield first
        for agent in agents:
            if type(agent) is not cls:
                raise GameError("stacked agents must all be of one kind")
            yield agent

    return stacker(of_one_kind())


def play_batch(row: BatchAgent, col: BatchAgent, T: int,
               streams: EpisodeStreams | None = None,
               regret: RegretKernel | None = None) -> None:
    """Play T stages of E episodes in lockstep.

    With ``streams`` both seats' actions are sampled from their announced
    strategies, row then column, as ``run_episode`` does.  Without, the
    column seat must announce pure strategies and plays their support, and
    the row seat's action is not sampled (None): for a learner whose own
    actions no agent reads, such as MW against the regret adversaries.
    ``regret``, if given, accrues the row seat's expected external regret.
    """
    for start in range(0, T, BLOCK):
        stages = min(BLOCK, T - start)
        # Row s holds stage s's row-seat draws, then its column-seat draws.
        u = streams.uniforms(2 * stages).reshape(stages, -1) if streams is not None else None
        for s in range(stages):
            p = row.act()
            q = col.act(p)
            if u is None:
                a, b = None, q.argmax(axis=1)
            else:
                # Both seats in one call: rows of p, then rows of q.
                actions = sample_actions(np.concatenate((p, q)), u[s])
                a, b = actions[: len(p)], actions[len(p) :]
            if regret is not None:
                regret.update(p, regret.payoffs(b))
            row.observe(a, b)
            col.observe(b, a)
