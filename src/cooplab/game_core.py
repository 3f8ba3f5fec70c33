"""Games, types, strategies, histories, and exact payoff arithmetic.

Conventions used throughout the package:

* Actions are 0-indexed integers; the row player is always agent 1.
* Each type's payoff matrix is indexed ``[own_action, opponent_action]``,
  so the same matrix works regardless of the seat its owner occupies.
* Mixed strategies are length-N probability vectors; joint strategies are
  N x N matrices indexed ``[row_action, col_action]``.
"""
from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

PROB_TOL = 1e-12

# Cap on the number of leaves of the N^(2T) history tree that the exact
# enumerators are willing to walk.
TREE_CAP = 600_000

History = tuple[tuple[int, int], ...]


class GameError(Exception):
    """Base class for errors raised by this package."""


class CapacityError(GameError):
    """An exact computation would exceed its enumeration cap."""


class GameFormatError(GameError):
    """A game/type-space file does not match the documented schema."""


def _float_array(probs, what: str) -> np.ndarray:
    try:
        return np.asarray(probs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GameError(f"{what} is not a rectangular array of numbers: {exc}") from None


def _check_rows(s: np.ndarray) -> np.ndarray:
    """Reject a row of the (m, n) array ``s`` that is not a mixed strategy:
    an entry below -PROB_TOL, or a sum more than 1e-9 from 1."""
    negative = np.any(s < -PROB_TOL, axis=1)
    if negative.any():
        raise GameError(f"mixed strategy has negative entries: {s[negative][0]}")
    sums = s.sum(axis=1)
    # Written so that a NaN sum fails too.
    bad = ~(np.abs(sums - 1.0) <= 1e-9)
    if bad.any():
        raise GameError(f"mixed strategy sums to {sums[bad][0]}, not 1")
    return s


def check_mixed(probs, n: int | None = None) -> np.ndarray:
    """Validate a mixed strategy and return it as a float array."""
    p = _float_array(probs, "mixed strategy")
    if p.ndim != 1:
        raise GameError(f"mixed strategy must be a vector, got shape {p.shape}")
    if n is not None and p.shape[0] != n:
        raise GameError(f"mixed strategy has length {p.shape[0]}, expected {n}")
    _check_rows(p[None, :])
    return p


def _frozen(a, what: str) -> np.ndarray:
    out = np.array(a, dtype=float)
    if not np.isfinite(out).all():
        raise GameError(f"{what} has NaN or infinite entries")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BimatrixGame:
    """A two-player matrix game assembled from the two players' type matrices.

    ``payoff_row`` is the row player's matrix G(theta1) and ``payoff_col`` the
    column player's G(theta2), each indexed [own_action, opponent_action].
    """

    payoff_row: np.ndarray
    payoff_col: np.ndarray
    joint_type: tuple[str, str] = ("row", "col")

    def __post_init__(self):
        object.__setattr__(self, "payoff_row", _frozen(self.payoff_row, "row payoff matrix"))
        object.__setattr__(self, "payoff_col", _frozen(self.payoff_col, "column payoff matrix"))
        a, b = self.payoff_row, self.payoff_col
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GameError(f"row payoff matrix must be square, got {a.shape}")
        if b.shape != a.shape:
            raise GameError(f"payoff matrices disagree: {a.shape} vs {b.shape}")

    @property
    def num_actions(self) -> int:
        return self.payoff_row.shape[0]


def expected_payoff(sigma_row, sigma_col, game: BimatrixGame, player: str) -> float:
    """Bilinear expected payoff of a mixed-strategy profile for one player."""
    p = check_mixed(sigma_row, game.num_actions)
    q = check_mixed(sigma_col, game.num_actions)
    if player == "row":
        return float(p @ game.payoff_row @ q)
    if player == "col":
        return float(q @ game.payoff_col @ p)
    raise GameError(f"player must be 'row' or 'col', got {player!r}")


def _rescale(m: np.ndarray) -> np.ndarray:
    lo, hi = m.min(), m.max()
    if hi - lo <= PROB_TOL:
        # Constant matrices are strategically equivalent to the zero matrix.
        return np.zeros_like(m)
    return (m - lo) / (hi - lo)


def normalize_game(game: BimatrixGame) -> BimatrixGame:
    """Affinely rescale each player's payoffs into [0, 1].

    Best-response correspondences are unchanged (positive affine maps
    preserve argmax sets).
    """
    return BimatrixGame(
        payoff_row=_rescale(game.payoff_row),
        payoff_col=_rescale(game.payoff_col),
        joint_type=game.joint_type,
    )


@dataclass(frozen=True)
class TypeSpace:
    """Ordered finite type space with one payoff matrix per type."""

    types: tuple[str, ...]
    payoff_table: dict[str, np.ndarray]

    def __post_init__(self):
        if len(set(self.types)) != len(self.types):
            raise GameError("type identifiers must be unique")
        # Convention tables key joint types as "row|col".
        for t in self.types:
            if not isinstance(t, str) or "|" in t:
                raise GameError(f"type identifier {t!r} must be a string without '|'")
        if set(self.types) != set(self.payoff_table):
            raise GameError("payoff table keys must match the type list")
        table = {}
        n = None
        for t in self.types:
            m = np.asarray(self.payoff_table[t], dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise GameError(f"payoff matrix for type {t!r} must be square")
            if n is None:
                n = m.shape[0]
            elif m.shape[0] != n:
                raise GameError("all type matrices must share one action count")
            table[t] = _frozen(m, f"payoff matrix for type {t!r}")
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(self, "payoff_table", table)

    @property
    def num_actions(self) -> int:
        return next(iter(self.payoff_table.values())).shape[0]

    def game(self, theta_row: str, theta_col: str) -> BimatrixGame:
        """Assemble the bimatrix game for a joint type."""
        if theta_row not in self.payoff_table or theta_col not in self.payoff_table:
            raise GameError(f"unknown joint type ({theta_row!r}, {theta_col!r})")
        return BimatrixGame(
            payoff_row=self.payoff_table[theta_row],
            payoff_col=self.payoff_table[theta_col],
            joint_type=(theta_row, theta_col),
        )

    def joint_types(self) -> list[tuple[str, str]]:
        return [(a, b) for a in self.types for b in self.types]

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.types).encode())
        for t in self.types:
            h.update(self.payoff_table[t].tobytes())
        return h.hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "num_actions": self.num_actions,
            "types": list(self.types),
            "payoffs": {t: self.payoff_table[t].flatten().tolist() for t in self.types},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TypeSpace":
        try:
            n = int(data["num_actions"])
            types = list(data["types"])
            payoffs = data["payoffs"]
        except (KeyError, TypeError) as exc:
            raise GameFormatError(f"missing or malformed field: {exc}") from exc
        table = {}
        for t in types:
            if t not in payoffs:
                raise GameFormatError(f"no payoff matrix for type {t!r}")
            flat = np.asarray(payoffs[t], dtype=float)
            if flat.size != n * n:
                raise GameFormatError(
                    f"type {t!r}: expected {n * n} entries, got {flat.size}"
                )
            table[t] = flat.reshape(n, n)
        return cls(types=tuple(types), payoff_table=table)

    def to_file(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)
            f.write("\n")

    @classmethod
    def from_file(cls, path) -> "TypeSpace":
        try:
            with open(path) as f:
                data = json.load(f)
        except json.JSONDecodeError as exc:
            raise GameFormatError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(data)


@dataclass
class EpisodeTrace:
    """Record of one T-stage interaction: the history of action pairs and,
    in ``row_strategies`` / ``col_strategies``, the per-stage mixed strategies
    each agent announced before its action was sampled; they are what expected
    regret is computed from.
    """

    history: History
    row_strategies: list[np.ndarray]
    col_strategies: list[np.ndarray]

    def __post_init__(self):
        if len(self.row_strategies) != len(self.history) or len(
            self.col_strategies
        ) != len(self.history):
            raise GameError("strategy lists must have the same length as the history")
        for t, (a, b) in enumerate(self.history):
            if self.row_strategies[t][a] <= 0 or self.col_strategies[t][b] <= 0:
                raise GameError(
                    f"stage {t}: sampled action has zero announced probability"
                )

    @property
    def num_stages(self) -> int:
        return len(self.history)


ActFn = Callable[[History], Sequence[float]]


def _check_tree_cap(n: int, T: int) -> None:
    if T < 0:
        raise GameError(f"the horizon must be >= 0, got {T}")
    if n ** (2 * T) > TREE_CAP:
        raise CapacityError(
            f"history tree has {n}^{2 * T} leaves, above the cap {TREE_CAP}; "
            "use Monte-Carlo estimation instead"
        )


def _check_level(strategies, n: int) -> np.ndarray:
    """``check_mixed`` for the strategies of every node of one tree level at
    once; returns them as an (m, n) array."""
    s = _float_array(strategies, "the mixed strategies of one tree level")
    if s.ndim != 2 or s.shape[1] != n:
        raise GameError(
            f"mixed strategies of one tree level have shape {s.shape[1:]}, expected ({n},)"
        )
    return _check_rows(s)


def _tree_levels(act_row: ActFn, act_col: ActFn, n: int, T: int):
    """Walk the history tree of two behavioral strategies level by level.

    Yields ``(codes, probs, P, Q)`` for each depth 0..T: the base-n^2 codes of
    the histories reached with positive probability, increasing, their
    probabilities, and the (m, n) strategies both agents announce there
    (``None`` at depth T, the leaves).  A history's code is its parent's
    code times n^2 plus its last pair ``a * n + b``, so increasing codes are
    the lexicographic order of the histories.  Each act function is called
    once per internal node, parents before children; tuple histories are
    built only for those nodes.
    """
    _check_tree_cap(n, T)
    steps = [((i, j),) for i in range(n) for j in range(n)]
    hs: list[History] = [()]
    codes = np.zeros(1, dtype=np.int64)
    probs = np.ones(1)
    for depth in range(T):
        P = _check_level([act_row(h) for h in hs], n)
        Q = _check_level([act_col(h) for h in hs], n)
        yield codes, probs, P, Q
        # (prob * p[i]) * q[j], the float order of a scalar walk.
        w = ((probs[:, None] * P)[:, :, None] * Q[:, None, :]).reshape(-1)
        live = np.flatnonzero(w > 0.0)
        parent, pair = np.divmod(live, n * n)
        codes = codes[parent] * (n * n) + pair
        probs = w[live]
        if depth + 1 < T:
            hs = [hs[k] + steps[r] for k, r in zip(parent.tolist(), pair.tolist())]
    yield codes, probs, None, None


class HistoryDistribution(Mapping):
    """A read-only mapping from length-T histories to their probabilities,
    held as two arrays: ``codes``, the increasing base-n^2 codes of the
    histories (their lexicographic order), and ``probs``.

    Iteration decodes the histories in that order.  A lookup encodes its key
    and binary-searches ``codes``; a key that is not a length-T tuple of
    in-range action pairs is simply absent.
    """

    def __init__(self, codes: np.ndarray, probs: np.ndarray, n: int, T: int):
        self.codes, self.probs, self.n, self.T = codes, probs, n, T

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self):
        pairs = [(a, b) for a in range(self.n) for b in range(self.n)]
        digits = np.empty((len(self.codes), self.T), dtype=np.int64)
        rest = self.codes
        for t in reversed(range(self.T)):
            rest, digits[:, t] = np.divmod(rest, self.n * self.n)
        for row in digits.tolist():
            yield tuple(map(pairs.__getitem__, row))

    def __getitem__(self, history) -> float:
        if isinstance(history, tuple) and len(history) == self.T:
            code, actions = 0, range(self.n)
            for pair in history:
                if not (isinstance(pair, tuple) and len(pair) == 2
                        and pair[0] in actions and pair[1] in actions):
                    raise KeyError(history)
                code = (code * self.n + int(pair[0])) * self.n + int(pair[1])
            i = int(np.searchsorted(self.codes, code))
            if i < len(self.codes) and self.codes[i] == code:
                return float(self.probs[i])
        raise KeyError(history)


def history_distribution(
    act_row: ActFn,
    act_col: ActFn,
    n: int,
    T: int,
) -> HistoryDistribution:
    """Exact distribution over length-T histories induced by two strategies,
    over the histories with positive probability, in lexicographic order."""
    for codes, probs, _, _ in _tree_levels(act_row, act_col, n, T):
        pass
    return HistoryDistribution(codes, probs, n, T)

