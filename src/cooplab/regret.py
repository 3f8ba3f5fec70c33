"""Expected external regret of a recorded episode, and the Azuma-Hoeffding
thresholds of equilibrium self-play that the harness gates on.

The evaluator (not the agents) holds ground-truth types: the regret takes
the assembled joint game, while agents only ever see their own matrix.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .game_core import BimatrixGame, EpisodeTrace, GameError, History


def _own_opp(history: History, player: str) -> tuple[list[int], list[int]]:
    if player == "row":
        return [a for a, _ in history], [b for _, b in history]
    if player == "col":
        return [b for _, b in history], [a for a, _ in history]
    raise GameError(f"player must be 'row' or 'col', got {player!r}")


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
    m = game.payoff_row if player == "row" else game.payoff_col
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
