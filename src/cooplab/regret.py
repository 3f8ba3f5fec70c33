"""Regret functionals: external, expected-external, altruistic; plus the
Azuma-Hoeffding threshold helpers used by the protocol agents and the
verification harness.

The evaluator (not the agents) holds ground-truth types: these functions take
the assembled joint game, while agents only ever see their own matrix.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .game_core import BimatrixGame, EpisodeTrace, GameError, History, check_history
from .equilibria import PoneSet, worst_pone_payoff


def _own_opp(history: History, player: str) -> tuple[list[int], list[int]]:
    if player == "row":
        return [a for a, _ in history], [b for _, b in history]
    if player == "col":
        return [b for _, b in history], [a for a, _ in history]
    raise GameError(f"player must be 'row' or 'col', got {player!r}")


def _own_matrix(game: BimatrixGame, player: str) -> np.ndarray:
    return game.payoff_row if player == "row" else game.payoff_col


def external_regret(history, game: BimatrixGame, player: str) -> float:
    """Best fixed action in hindsight minus realized payoffs.

    Nonnegative when the player keeps one action or has a weakly dominant
    one, but not in general: a best response at every stage can beat every
    fixed action.  Returns 0 for an empty history.
    """
    h = check_history(history, game.num_actions)
    if not h:
        return 0.0
    own, opp = _own_opp(h, player)
    m = _own_matrix(game, player)
    opp_counts = np.bincount(opp, minlength=game.num_actions)
    counterfactual = m @ opp_counts
    realized = float(m[own, opp].sum())
    return float(counterfactual.max() - realized)


def expected_external_regret(
    trace: EpisodeTrace,
    game: BimatrixGame,
    player: str,
    up_to: int | None = None,
) -> float:
    """External regret with the player's own sampled actions replaced by the
    mixed strategy they announced at each stage.

    Opponent terms remain the sampled actions, so this is computable online
    by the player itself.
    """
    t = trace.num_stages if up_to is None else up_to
    if t > trace.num_stages:
        raise GameError(f"up_to={t} exceeds trace length {trace.num_stages}")
    if t == 0:
        return 0.0
    _, opp = _own_opp(trace.history[:t], player)
    strategies = (
        trace.row_strategies if player == "row" else trace.col_strategies
    )
    m = _own_matrix(game, player)
    n = game.num_actions
    opp_counts = np.bincount(opp, minlength=n)
    counterfactual = m @ opp_counts
    expected = 0.0
    for r in range(t):
        sigma = np.asarray(strategies[r], dtype=float)
        if sigma.shape != (n,):
            raise GameError(f"stage {r}: missing or malformed announced strategy")
        expected += float(sigma @ m[:, opp[r]])
    return float(counterfactual.max() - expected)


def altruistic_regret(
    history,
    joint_game: BimatrixGame,
    partner: str,
    pone: PoneSet | None = None,
) -> float:
    """Partner's total shortfall relative to their worst PONE payoff.

    Reported as a total; may be negative when realized play beats the worst
    Pareto-optimal equilibrium.  Divide by T for the average form used by the
    upper-bound checks.
    """
    h = check_history(history, joint_game.num_actions)
    tau = worst_pone_payoff(joint_game, partner, pone=pone)
    own, opp = _own_opp(h, partner)
    m = _own_matrix(joint_game, partner)
    realized = float(m[own, opp].sum()) if h else 0.0
    return len(h) * tau - realized


class AzumaThresholds(NamedTuple):
    expected_bound: float
    realized_bound: float
    relation_slack: float


def azuma_thresholds(T: int, delta: float) -> AzumaThresholds:
    """Concentration thresholds for equilibrium self-play.

    ``expected_bound`` and ``realized_bound`` are the high-probability caps on
    expected and realized external regret when both players follow an
    equilibrium profile; ``relation_slack`` bounds |realized - expected|.
    """
    if T < 1:
        raise GameError(f"T must be >= 1, got {T}")
    if not (0.0 < delta < 1.0):
        raise GameError(f"delta must be in (0, 1), got {delta}")
    return AzumaThresholds(
        expected_bound=math.sqrt(2.0 * T * math.log(2.0 / delta)),
        realized_bound=2.0 * math.sqrt(2.0 * T * math.log(4.0 / delta)),
        relation_slack=math.sqrt((T / 2.0) * math.log(1.0 / delta)),
    )
