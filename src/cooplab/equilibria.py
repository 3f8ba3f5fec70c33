"""Exact Nash and Pareto-optimal-Nash enumeration for small bimatrix games.

Support enumeration is used (rather than a path-following method) because the
games here are tiny and the Pareto filter needs *all* equilibria.  Degenerate
games (singular indifference systems, repeated profiles) are flagged instead of
guessed at, and the worst Pareto-optimal payoff refuses them.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .game_core import BimatrixGame, GameError, CapacityError, check_mixed

BR_TOL = 1e-12
EQ_TOL = 1e-9
MAX_ACTIONS = 5


class EquilibriumError(GameError):
    """Equilibrium machinery failed an invariant (e.g. empty PONE set)."""


@dataclass(frozen=True)
class EquilibriumProfile:
    sigma_row: np.ndarray
    sigma_col: np.ndarray
    value_row: float
    value_col: float

    def payoffs(self) -> tuple[float, float]:
        return (self.value_row, self.value_col)


@dataclass
class NashEnumeration:
    profiles: list[EquilibriumProfile]
    degenerate: bool = False


@dataclass
class PoneSet:
    profiles: list[EquilibriumProfile] = field(default_factory=list)
    degenerate: bool = False  # copied from the enumeration: the set may be incomplete

    def __len__(self) -> int:
        return len(self.profiles)


def best_response(game: BimatrixGame, opponent, player: str):
    """All actions within tolerance of the best payoff against ``opponent``.

    Returns (sorted action list, best value).
    """
    q = check_mixed(opponent, game.num_actions)
    if player == "row":
        values = game.payoff_row @ q
    elif player == "col":
        values = game.payoff_col @ q
    else:
        raise GameError(f"player must be 'row' or 'col', got {player!r}")
    best = float(values.max())
    actions = [a for a in range(game.num_actions) if values[a] >= best - BR_TOL]
    return actions, best


def _deviation_gain(game: BimatrixGame, p: np.ndarray, q: np.ndarray) -> float:
    """Largest pure-deviation gain of either player at profile (p, q)."""
    row_vals = game.payoff_row @ q
    col_vals = game.payoff_col @ p
    gain_row = row_vals.max() - p @ row_vals
    gain_col = col_vals.max() - q @ col_vals
    return float(max(gain_row, gain_col))


def is_nash(game: BimatrixGame, p, q, tol: float = EQ_TOL) -> bool:
    p = check_mixed(p, game.num_actions)
    q = check_mixed(q, game.num_actions)
    return _deviation_gain(game, p, q) <= tol


def _bordered(m: np.ndarray) -> np.ndarray:
    """[[m, -1], [1, 0]]: every indifference system is a submatrix of it."""
    out = np.zeros((len(m) + 1, len(m) + 1))
    out[:-1, :-1], out[:-1, -1], out[-1, :-1] = m, -1.0, 1.0
    return out


def _solve_stack(systems: np.ndarray) -> np.ndarray:
    """Solve every ``a x = e_last`` in the stack; rows of singular ones are NaN."""
    rhs = np.eye(systems.shape[-1])[-1]
    try:
        return np.linalg.solve(systems, rhs[:, None])[..., 0]
    except np.linalg.LinAlgError:  # one singular system fails the whole stack
        out = np.full(systems.shape[:-1], np.nan)
        for i, a in enumerate(systems):
            try:
                out[i] = np.linalg.solve(a, rhs)
            except np.linalg.LinAlgError:
                pass
        return out


def enumerate_nash(game: BimatrixGame, max_actions: int = MAX_ACTIONS) -> NashEnumeration:
    """All Nash equilibria of a nondegenerate game via support enumeration.

    Each support size k is one array pass over its C(n,k)^2 equal-size
    (row, column) support pairs in canonical order.  Both players' (k+1)x(k+1)
    indifference systems for all pairs are gathered into one stack and solved
    together; the column strategy comes from the row player's indifference and
    vice versa.  Solutions that are valid distributions with no profitable
    outside deviation are kept.  Interior probabilities below ``EQ_TOL`` are
    rejected (the same equilibrium is found at the smaller support).  Singular
    systems and repeated profiles set the degeneracy flag: the set may then be
    incomplete, so the consumers of the Pareto set refuse it.
    """
    n = game.num_actions
    if n > max_actions:
        raise CapacityError(f"support enumeration capped at N={max_actions}, got N={n}")
    row_sys, col_sys = _bordered(game.payoff_row), _bordered(game.payoff_col)
    result = NashEnumeration(profiles=[])
    seen = set()
    for size in range(1, n + 1):
        # Supports end in the border index n; row supports repeat, column supports tile.
        supports = np.array([s + (n,) for s in itertools.combinations(range(n), size)])
        rows = np.repeat(supports, len(supports), axis=0)
        cols = np.tile(supports, (len(supports), 1))
        sol = _solve_stack(np.concatenate([  # p solves the column player's systems, q the row's
            col_sys[cols[:, :, None], rows[:, None, :]],
            row_sys[rows[:, :, None], cols[:, None, :]],
        ])).reshape(2, len(rows), size + 1)
        solved = np.isfinite(sol).all(axis=(0, 2))
        if size > 1 and not solved.all():
            result.degenerate = True
        keep = solved & (sol[..., :size].min(axis=(0, 2)) >= EQ_TOL)
        pq = np.zeros((2, int(keep.sum()), n))
        np.put_along_axis(pq, np.stack([rows, cols])[:, keep, :size], sol[:, keep, :size], axis=2)
        pq /= pq.sum(axis=2, keepdims=True)
        for p_i, q_i in zip(*pq):
            if _deviation_gain(game, p_i, q_i) > EQ_TOL:
                continue
            key = tuple(np.round(np.concatenate([p_i, q_i]), 9))
            if key in seen:
                result.degenerate = True
                continue
            seen.add(key)
            # expected_payoff's arithmetic; p_i and q_i are valid by construction.
            result.profiles.append(EquilibriumProfile(
                sigma_row=p_i,
                sigma_col=q_i,
                value_row=float(p_i @ game.payoff_row @ q_i),
                value_col=float(q_i @ game.payoff_col @ p_i),
            ))
    return result


def _strongly_dominates(a: EquilibriumProfile, b: EquilibriumProfile, tol: float) -> bool:
    return (a.value_row > b.value_row + tol) and (a.value_col > b.value_col + tol)


def pareto_optimal_nash(
    game: BimatrixGame, nash: NashEnumeration | None = None
) -> PoneSet:
    """Filter the Nash set down to profiles not strongly Pareto-dominated.

    Strong domination means a strict improvement for *both* players; weak
    domination is deliberately not used.
    """
    if nash is None:
        nash = enumerate_nash(game)
    kept = [
        p
        for p in nash.profiles
        if not any(
            _strongly_dominates(other, p, EQ_TOL)
            for other in nash.profiles
            if other is not p
        )
    ]
    return PoneSet(profiles=kept, degenerate=nash.degenerate)


def worst_pone_payoff(
    game: BimatrixGame, player: str, pone: PoneSet | None = None
) -> float:
    """Minimum payoff for ``player`` over the Pareto-optimal Nash set of a
    nondegenerate game; a degenerate one raises ``EquilibriumError``."""
    if pone is None:
        pone = pareto_optimal_nash(game)
    if pone.degenerate:
        raise EquilibriumError(
            f"degenerate game {game.joint_type}: its Nash set may be incomplete"
        )
    if not pone.profiles:
        raise EquilibriumError(
            f"empty PONE set for game {game.joint_type}; cannot take a minimum"
        )
    if player == "row":
        return min(p.value_row for p in pone.profiles)
    if player == "col":
        return min(p.value_col for p in pone.profiles)
    raise GameError(f"player must be 'row' or 'col', got {player!r}")
