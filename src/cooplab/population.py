"""Population distributions, episode execution, dataset generation and
persistence, and the population-flattening construction.

``play_episodes`` plays seeded episodes on the batched engine, each seat built
by ``agents.build_seat``; ``play_episode`` steps one episode of one-episode
batch agents (``agents.build_agent``) with an ``engine.ScalarStream``.

Each episode's seed, the key of its counter-based stream, is a hash of
(master seed, episode index), so datasets are reproducible under any
execution order.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

import numpy as np

from .game_core import (
    EpisodeTrace,
    GameError,
    GameFormatError,
    TypeSpace,
    _float_array,
)
from .agents import (
    AgentSpec,
    BuildContext,
    ConventionTable,
    _need,
    build_agent,
    build_agents,
    build_seat,
    register_agent_kind,
)
from .engine import (
    _MASK64,
    EPISODE_BATCH,
    GAMMA,
    ROW_BLOCK_CELLS,
    BatchAgent,
    EpisodeStreams,
    ScalarStream,
    _choice,
    _choice_cuts,
    _draws,
    _rowsum,
    mix64,
    mix64_inplace,
    play_batch,
)

DATASET_VERSION = 1

# Stream tags keeping the draw stream and per-episode streams disjoint.
_DRAW_STREAM = 0x64726177  # "draw"
_EPISODE_STREAM = 0x65706973  # "epis"


def _master_key(master_seed: int) -> int:
    """The key under which a master seed's episodes are numbered: its 64-bit
    words, least significant first, folded into the episode tag by
    ``mix64``."""
    master = int(master_seed)
    if master < 0:
        raise GameError(f"the master seed must be nonnegative, got {master}")
    key = _EPISODE_STREAM
    for shift in range(0, master.bit_length() or 1, 64):
        key = mix64(key ^ (master >> shift & _MASK64))
    return key


def derive_episode_seeds(master_seed: int, indices) -> np.ndarray:
    """The seeds (stream keys) of episodes ``indices`` in [0, 2**64) under
    ``master_seed``, (E,) uint64: ``mix64`` of the master key plus index
    times ``GAMMA``."""
    key = np.uint64(_master_key(master_seed))
    z = np.asarray(indices, dtype=np.uint64).reshape(-1) * np.uint64(GAMMA) + key
    return mix64_inplace(z, np.empty_like(z))


def tagged_seeds(master_seed: int, tag: int, count: int = 1) -> np.ndarray:
    """The keys of streams 0 to ``count - 1`` of ``tag`` (below 2**32): the
    seeds of the episode indices ``tag * 2**32 + i``, so no two tags share one."""
    return derive_episode_seeds(master_seed, np.uint64(tag << 32) + np.arange(count, dtype=np.uint64))


def derive_episode_seed(master_seed: int, index: int) -> int:
    """``derive_episode_seeds`` for one episode, on Python ints."""
    index = int(index)
    if not 0 <= index < 2**64:
        raise GameError(f"the episode index must be in [0, 2**64), got {index}")
    return mix64((_master_key(master_seed) + index * GAMMA) & _MASK64)


def _param_json(obj) -> str:
    """The JSON stand-in of a param object in a hash: its ``content_hash()``,
    such as an in-memory ImitationPolicy's, or else its str."""
    return getattr(obj, "content_hash", obj.__str__)()


def _probability_weights(weights, what: str) -> list[float]:
    """A ``what``'s ``weights`` as floats, checked to be a probability vector."""
    w = _float_array(weights, f"{what} weights")
    if not np.all(np.isfinite(w)) or np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise GameError(f"{what} weights must be a probability vector")
    return [float(x) for x in w]


@dataclass
class Population:
    """Distribution over agent templates (the partner population)."""

    members: list[AgentSpec]
    weights: list[float]

    def __post_init__(self):
        if not self.members:
            raise GameError("population must be nonempty")
        if len(self.weights) != len(self.members):
            raise GameError("population weights must match member count")
        self.weights = _probability_weights(self.weights, "population")

    def content_hash(self) -> str:
        blob = json.dumps(
            [[m.to_dict() for m in self.members], self.weights],
            sort_keys=True,
            default=_param_json,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "members": [m.to_dict() for m in self.members],
            "weights": self.weights,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Population":
        members, weights = _fields(data, "population", "members", "weights")
        return cls(members=[AgentSpec.from_dict(m) for m in members], weights=weights)


@dataclass
class TypeDistribution:
    """Distribution over joint types."""

    support: list[tuple[str, str]]
    weights: list[float]

    def __post_init__(self):
        if len(self.support) != len(self.weights):
            raise GameError("type distribution support/weights length mismatch")
        for s in self.support:
            if not (isinstance(s, (tuple, list)) and len(s) == 2
                    and all(isinstance(t, str) for t in s)):
                raise GameError(f"joint type {s!r} is not a pair of type ids")
        self.weights = _probability_weights(self.weights, "type distribution")
        self.support = [tuple(s) for s in self.support]

    def codes(self, type_space: TypeSpace) -> np.ndarray:
        """The support as (len(support), 2) indices into ``type_space.types``."""
        index = {t: i for i, t in enumerate(type_space.types)}
        for a, b in self.support:
            if a not in index or b not in index:
                raise GameError(f"joint type ({a!r}, {b!r}) not in the type space")
        return np.array([[index[a], index[b]] for a, b in self.support], np.intp).reshape(-1, 2)

    @classmethod
    def uniform(cls, type_space: TypeSpace) -> "TypeDistribution":
        joints = type_space.joint_types()
        return cls(support=joints, weights=[1.0 / len(joints)] * len(joints))

    def to_dict(self) -> dict:
        return {"support": [list(s) for s in self.support], "weights": self.weights}

    @classmethod
    def from_dict(cls, data: dict) -> "TypeDistribution":
        support, weights = _fields(data, "type distribution", "support", "weights")
        return cls(support=support, weights=weights)


def _fields(data, what: str, *keys) -> list[list]:
    """The list fields ``keys`` of a loaded ``data`` dict."""
    if not isinstance(data, dict) or not all(isinstance(data.get(k), list) for k in keys):
        raise GameFormatError(f"a {what} is a dict with the lists {', '.join(map(repr, keys))}")
    return [list(data[k]) for k in keys]


@dataclass(eq=False)
class Dataset:
    """Self-play episodes: ``actions[e, t]``, an (n, S, 2) integer array of
    the first S <= T stages, is episode e's (row, col) action pair at stage
    t, and ``joints[codes[e]]`` its joint type (the learner sees no strategy)."""

    actions: np.ndarray
    joints: list[tuple[str, str]]
    codes: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def types(self) -> list[tuple[str, str]]:
        """Per episode, its joint type."""
        return [self.joints[c] for c in np.asarray(self.codes).tolist()]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Dataset) and self.types == other.types
                and self.metadata == other.metadata
                and np.array_equal(self.actions, other.actions))


def _sample_action(probs: list[float], rng) -> int:
    r = rng.random()
    acc = 0.0
    last = 0
    for a, p in enumerate(probs):
        if p <= 0.0:
            continue
        acc += p
        last = a
        if r < acc:
            return a
    return last  # guard against rounding in the cumulative sum


def play_episode(
    agent_row: BatchAgent,
    agent_col: BatchAgent,
    T: int,
    rng,
) -> EpisodeTrace:
    """Run T stages of two one-episode batch agents, sampling each stage's
    row and then column action from ``rng``, anything with a ``random()``
    such as a ``ScalarStream``, with ``_sample_action``, and record the
    announced strategies."""
    history: list[tuple[int, int]] = []
    row_strategies: list[np.ndarray] = []
    col_strategies: list[np.ndarray] = []
    for t in range(T):
        try:
            p = agent_row.act()
            q = agent_col.act(p)
            a = _sample_action(p[0].tolist(), rng)
            b = _sample_action(q[0].tolist(), rng)
            agent_row.observe(np.array([a]), np.array([b]))
            agent_col.observe(np.array([b]), np.array([a]))
        except Exception as exc:
            raise GameError(f"agent failure at stage {t}: {exc}") from exc
        history.append((a, b))
        row_strategies.append(p[0])
        col_strategies.append(q[0])
    return EpisodeTrace(tuple(history), row_strategies, col_strategies)


def run_episode(
    row_spec: AgentSpec,
    col_spec: AgentSpec,
    type_space: TypeSpace,
    joint_type: tuple[str, str],
    T: int,
    seed: int,
    convention_table: ConventionTable | None = None,
) -> EpisodeTrace:
    """Build both agents from specs and play one seeded episode on the stream
    keyed by ``seed``: its first two draws, shifted to 63 bits, are the row
    and the column agent's seeds, the rest sample every action."""
    rng = ScalarStream(seed)
    row_seed, col_seed = rng.draw() >> 1, rng.draw() >> 1
    agent_row = build_agent(row_spec, type_space, T, "row", joint_type[0], row_seed,
                            convention_table)
    agent_col = build_agent(col_spec, type_space, T, "col", joint_type[1], col_seed,
                            convention_table)
    return play_episode(agent_row, agent_col, T, rng)


def _stages(T: int, stages: int | None) -> int:
    """The stages to play of agents built for horizon T: all T by default."""
    if stages is not None and not 0 <= stages <= T:
        raise GameError(f"need 0 <= stages <= T, got stages={stages}, T={T}")
    return T if stages is None else stages


def play_episodes(row, col, codes, type_space: TypeSpace, T: int, seeds,
                  convention_table: ConventionTable | None = None, record: bool = False,
                  stages: int | None = None):
    """Play one episode per joint type of ``codes``, (E, 2) indices into
    ``type_space.types``, on the streams of ``run_episode`` keyed by
    ``seeds``, ``EPISODE_BATCH`` at a time in order.  ``row`` and ``col``
    are each seat's ``(specs, keys)`` of ``build_seat``.  The agents are
    built for horizon T and play its first ``stages`` stages (all T by
    default), which are those of the whole episode: stage t's draws are
    keyed by t.  Yields per chunk its slice, its ``[row, col]`` agents and
    the ``play_batch`` record, and drops them before it builds the next."""
    codes = np.asarray(codes)
    if codes.shape[1:] != (2,):
        raise GameError(f"joint type codes are an (E, 2) array, got shape {codes.shape}")
    stages = _stages(T, stages)
    for start in range(0, len(codes), EPISODE_BATCH):
        ids = slice(start, start + EPISODE_BATCH)
        streams = EpisodeStreams(seeds[ids])
        agents = [
            build_seat(specs, keys[ids], type_space, T, seat, codes[ids, s],
                       streams.agent_seeds[s], convention_table)
            for s, (seat, (specs, keys)) in enumerate((("row", row), ("col", col)))
        ]
        yield ids, agents, play_batch(*agents, stages, streams, record=record)
        del streams, agents


def generate_dataset(
    pop: Population,
    mu: TypeDistribution,
    type_space: TypeSpace,
    n: int,
    T: int,
    master_seed: int,
    convention_table: ConventionTable | None = None,
    stages: int | None = None,
) -> Dataset:
    """Self-play dataset: per episode, two members drawn i.i.d. from the
    population and a joint type drawn from mu.

    Episodes run on the batched engine (``play_episodes``), each seat one
    batch agent grouped by population member, so the histories are
    ``run_episode``'s.  Only the first ``stages`` (all T by default) are
    played and kept, as in the full dataset; the header keeps T."""
    if n < 0:
        raise GameError(f"episode count must be >= 0, got {n}")
    stages = _stages(T, stages)
    support = mu.codes(type_space)
    # Draws 2e, 2e + 1 and 2n + e of the draw stream pick episode e's members and type.
    z = _draws(tagged_seeds(master_seed, _DRAW_STREAM)[0], 0, 3 * n)
    member_idx = _choice(z[: 2 * n].reshape(n, 2), _choice_cuts(np.asarray(pop.weights)))
    joint_idx = _choice(z[2 * n :], _choice_cuts(np.asarray(mu.weights)))
    seeds = derive_episode_seeds(master_seed, np.arange(n))
    N = type_space.num_actions
    actions = np.empty((n, stages, 2), dtype=np.min_scalar_type(N - 1))  # as play_batch records
    seats = [(pop.members, member_idx[:, s]) for s in (0, 1)]
    for ids, _, record in play_episodes(*seats, support[joint_idx], type_space, T, seeds,
                                        convention_table, record=True, stages=stages):
        if record is not None:  # None for no stages
            actions[ids] = record.transpose(2, 0, 1)
    return Dataset(
        actions,
        list(mu.support),
        joint_idx.astype(np.intp),
        metadata={
            "version": DATASET_VERSION,
            "T": T,
            "N": type_space.num_actions,
            "type_space_hash": type_space.content_hash(),
            "master_seed": int(master_seed),
            "n": n,
            "population_hash": pop.content_hash(),
        },
    )


# ---------------------------------------------------------------------------
# Dataset persistence (line-delimited: one metadata header, one episode/line)


def write_dataset(dataset: Dataset, path) -> None:
    """Write the metadata header, then per episode the bytes of
    ``json.dumps({"actions": ..., "theta1": ..., "theta2": ...}, sort_keys=True)``.
    A dataset must hold all T stages of its header: a short one is refused."""
    stored, T = np.shape(dataset.actions)[1], dataset.metadata.get("T")
    if stored != T:
        raise GameError(f"the dataset holds {stored} stages, its header's horizon is T={T}")
    with open(path, "wb") as f:
        f.write(json.dumps(dataset.metadata, sort_keys=True).encode() + b"\n")
        if len(dataset):
            f.writelines(_episode_lines(dataset))


def _byte_table(texts) -> np.ndarray:
    """The ASCII ``texts`` as (len(texts),) void items, NUL-padded to one width."""
    table = np.array([text.encode() for text in texts])
    return table.view(f"V{table.itemsize}")


def _episode_lines(dataset: Dataset):
    """The lines of a nonempty dataset, ``_ROW_BLOCK`` lines at a time.  A
    block joins, row by row, each line's opening and one ``take`` from each
    byte table, whose rows are single items: the first action, the further
    actions each after ", ", and the joint type's closing.  The NUL padding
    is dropped (JSON has no NUL)."""
    n = len(dataset)
    actions = np.asarray(dataset.actions).reshape(n, -1)
    top = int(actions.max(initial=0)) + 1
    values, codes = ((range(top), actions) if top <= 1 << 16  # every value up to the largest
                     else np.unique(actions, return_inverse=True))
    codes = codes.reshape(actions.shape)
    firsts = _byte_table([str(v) for v in values])
    others = _byte_table([f", {v}" for v in values])
    closings = _byte_table([f'], "theta1": {json.dumps(a)}, "theta2": {json.dumps(b)}}}\n'
                            for a, b in dataset.joints])
    for lo in range(0, n, _ROW_BLOCK):
        rows = slice(lo, lo + _ROW_BLOCK)
        block = codes[rows]
        parts = (firsts.take(block[:, :1]), others.take(block[:, 1:]),
                 closings.take(dataset.codes[rows]))
        yield np.hstack([np.broadcast_to(_OPENING, (len(block), _OPENING.size))]
                        + [part.view(np.uint8).reshape(len(block), -1) for part in parts]
                        ).tobytes().replace(b"\0", b"")


def _reject_float(text: str):
    raise ValueError(f"action {text} is not an integer")


# Episode lines hold no JSON floats: every number is an action.
_EPISODE_DECODER = json.JSONDecoder(parse_float=_reject_float)


# An episode line as write_dataset writes it with single-digit actions: the
# opening, then 2T digits at offsets 13 + 3i joined by ", ", then the closing
# from byte 13 + 6T - 2 (13 when T = 0).  Type names hold no escape and none
# of the characters str.splitlines breaks a line at.
_OPENING = np.frombuffer(b'{"actions": [', dtype=np.uint8)
_NAME = r'"([^"\\\x00-\x1f\x85\u2028\u2029]*)"'
_CLOSING = rf'\], "theta1": {_NAME}, "theta2": {_NAME}\}}'  # compiled on first use
_ROW_BLOCK = 4096  # lines per gather, written or read


def _canonical_episodes(data: bytes, body: int, T: int, N: int, n):
    """The (n, T, 2) actions, the distinct joint types and each episode's
    code into them, when ``data`` from byte ``body`` on is ``n`` lines, each
    ending with a newline and of the single-digit form above with every
    action below N; else None."""
    b, step = np.frombuffer(data, dtype=np.uint8)[body:], ROW_BLOCK_CELLS * 8
    ends = np.concatenate([np.zeros(0, np.intp)] + [  # the bytes of ROW_BLOCK_CELLS intps at a time
        np.flatnonzero(b[lo:lo + step] == 10) + lo for lo in range(0, b.size, step)])
    if len(ends) != n or b.size != (int(ends[-1]) + 1 if len(ends) else 0):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    head = 13 + max(6 * T - 2, 0)  # where the closing starts
    if len(ends) and (ends - starts).min() < head + 2:  # each line holds its gather
        return None
    actions = np.empty((len(ends), 2 * T), dtype=np.min_scalar_type(N - 1))
    for lo in range(0, len(ends), _ROW_BLOCK):
        block = np.lib.stride_tricks.sliding_window_view(b, head + 2)[starts[lo:lo + _ROW_BLOCK]]
        groups = block[:, 13:13 + 6 * T].reshape(len(block), 2 * T, 3)  # a digit, then ", "
        digits = groups[:, :, 0] - ord("0")  # a non-digit wraps to at least 10
        if ((block[:, :13] != _OPENING).any() or (groups[:, :-1, 1] != ord(",")).any()
                or (groups[:, :-1, 2] != ord(" ")).any() or digits.max(initial=0) >= min(N, 10)):
            return None
        actions[lo:lo + len(block)] = digits
    # The closings of each width w: the 8-byte words that end each line, the
    # bytes before its closing zeroed, told apart by a hash checked row by
    # row; then one match per distinct closing.
    widths, codes, joints = ends - starts - head, np.empty(len(ends), np.intp), []
    for w in np.unique(widths).tolist():
        rows, span = np.flatnonzero(widths == w), -(-(w + 1) // 8) * 8
        window = np.lib.stride_tricks.sliding_window_view(b, span)[ends[rows] + 1 - span]
        window[:, : span - w - 1] = 0
        words = window.view(np.uint64)
        key = words @ np.uint64(GAMMA) ** np.arange(span // 8, dtype=np.uint64)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        matches = [re.fullmatch(_CLOSING, closing.tobytes().decode())
                   for closing in window[first, span - w - 1 : span - 1]]
        if not np.array_equal(words, words[first[inverse]]) or None in matches:
            return None
        codes[rows] = inverse.reshape(-1) + len(joints)
        joints += [match.groups() for match in matches]
    return actions.reshape(len(ends), T, 2), joints, codes


def read_dataset(path) -> Dataset:
    """Load a dataset written by ``write_dataset``.  Every action must be an
    integer in [0, N)."""
    with open(path, "rb") as f:
        return parse_dataset(f.read(), path)


def parse_dataset(data: bytes, path) -> Dataset:
    """``read_dataset`` of the UTF-8 bytes ``data`` of the file at ``path``.
    A body of the lines ``write_dataset`` writes, with every action a single
    digit, is read in one pass over the bytes, copying none: the line ends,
    then per block of lines one gather of their openings, which checks the
    layout and yields the actions at fixed offsets, then per closing width
    one gather and one match per distinct closing.  Any other body, or one
    that fails a check, is decoded and read line by line, which gives every
    error message and line number."""
    end = data.find(b"\n")
    head = (data if end < 0 else data[:end]).decode()
    one_pass = head.splitlines() == [head]  # the header is the first line
    lines = [head] if one_pass else data.decode().splitlines()
    if not lines:
        raise GameFormatError(f"{path}: empty dataset file")
    try:
        metadata = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"{path}: line 1: invalid header ({exc})") from exc
    version = metadata.get("version") if isinstance(metadata, dict) else None
    if version != DATASET_VERSION:
        raise GameFormatError(f"{path}: line 1: unsupported version {version!r}")
    T, N = metadata.get("T"), metadata.get("N")
    for key, value, low in (("T", T, 0), ("N", N, 1)):
        if type(value) is not int or value < low:
            raise GameFormatError(
                f"{path}: line 1: header {key} must be an integer >= {low}, got {value!r}"
            )
    if one_pass:
        episodes = _canonical_episodes(data, len(data) if end < 0 else end + 1, T, N,
                                       metadata.get("n"))
        if episodes is not None:
            return Dataset(*episodes, metadata)
        lines = data.decode().splitlines()
    rows, joints, codes = [], {}, []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            rec = _EPISODE_DECODER.decode(line)
            actions = rec["actions"]
            if len(actions) != 2 * T:
                raise ValueError(f"expected {2 * T} actions, got {len(actions)}")
            # true and false would pass the range check as 1 and 0.
            if ("true" in line or "false" in line) and any(type(x) is bool for x in actions):
                raise ValueError("actions must be integers, not booleans")
            if not all(type(x) is int and 0 <= x < N for x in actions):
                raise ValueError(f"actions must be integers in [0, {N})")
            codes.append(joints.setdefault((rec["theta1"], rec["theta2"]), len(joints)))
            rows.append(actions)
        except (KeyError, TypeError, ValueError) as exc:
            raise GameFormatError(f"{path}: line {i}: {exc}") from exc
    if len(rows) != metadata.get("n"):
        raise GameFormatError(
            f"{path}: header promises {metadata.get('n')} episodes, found {len(rows)}"
        )
    actions = np.array(rows, dtype=np.min_scalar_type(N - 1)).reshape(len(rows), T, 2)
    return Dataset(actions, list(joints), np.array(codes, dtype=np.intp), metadata)


# ---------------------------------------------------------------------------
# Population flattening


class BatchFlattened(BatchAgent):
    """The single behavioral agent equivalent to drawing a fresh member from
    the population each episode, over E episodes.

    Steps every member's batch agent and keeps its likelihood (E, M) of
    having produced this seat's actions so far; the announced strategy is
    the posterior-weighted mixture of the member strategies, added in member
    order.  Histories no member could have produced fall back to the uniform
    strategy (unreachable-branch convention).
    """

    ROWS = ("members", "likelihoods", "_probs")

    def __init__(self, members: list[BatchAgent], likelihoods: np.ndarray):
        self.members = members
        self.likelihoods = likelihoods
        self._probs = None  # the members' strategies at this stage

    def act(self, partner=None):
        self._probs = [member.act(partner) for member in self.members]
        like = self.likelihoods
        total = _rowsum(like)
        reachable = total > 0.0
        total = np.where(reachable, total, 1.0)
        mix = np.zeros(self._probs[0].shape)
        for i, probs in enumerate(self._probs):
            w = like[:, i] / total
            mix += np.where((like[:, i] > 0.0)[:, None], w[:, None] * probs, 0.0)
        return np.where(reachable[:, None], mix, 1.0 / mix.shape[1])

    def observe(self, own, opp):
        rows = np.arange(len(own))
        for i, (member, probs) in enumerate(zip(self.members, self._probs)):
            self.likelihoods[:, i] *= probs[rows, own]
            member.observe(own, opp)


def _build_flattened(spec: AgentSpec, ctx: BuildContext) -> BatchFlattened:
    members = [
        build_agents(AgentSpec.from_dict(m), ctx.type_space, ctx.T, ctx.seat, ctx.own,
                     ctx.seeds, ctx.convention_table)
        for m in _need(spec.params, "members", "Flattened")
    ]
    weights = _float_array(_need(spec.params, "weights", "Flattened"), "Flattened weights")
    if not members or weights.shape != (len(members),):
        raise GameError("Flattened needs one weight per member, and at least one member")
    return BatchFlattened(members, np.tile(weights, (len(ctx.own), 1)))


register_agent_kind("Flattened", _build_flattened)


def flatten_population(pop: Population) -> AgentSpec:
    """Spec for the posterior-mixture agent equivalent to per-episode
    sampling from the population.

    The posterior is tracked online (renormalized in ``act``), so no history
    enumeration or cap is needed.
    """
    return AgentSpec(
        kind="Flattened",
        params={
            "members": [m.to_dict() for m in pop.members],
            "weights": list(pop.weights),
        },
    )
