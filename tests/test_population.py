import hashlib
import json
import math
import random
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cooplab.game_core import GameError, GameFormatError, TypeSpace, history_distribution
from cooplab.agents import (
    AgentSpec,
    build_agent,
    build_agents,
    build_convention_table,
    theorem26_params,
    tree_act_fn,
)
from cooplab.population import (
    Dataset,
    Population,
    TypeDistribution,
    derive_episode_seed,
    derive_episode_seeds,
    flatten_population,
    generate_dataset,
    play_episode,
    play_episodes,
    read_dataset,
    run_episode,
    write_dataset,
)
from cooplab import imitation_commit, population
from cooplab.engine import EpisodeStreams, play_batch
from cooplab.harness import STREAM_TAGS, fixture_path
import scalar_agents


TS2 = TypeSpace.from_file(fixture_path("typespace_2.json"))
TS4 = TypeSpace.from_file(fixture_path("typespace_4.json"))
TABLES = {id(TS2): build_convention_table(TS2), id(TS4): build_convention_table(TS4)}


@pytest.fixture(scope="module")
def ts2():
    return TypeSpace.from_file(fixture_path("typespace_2.json"))


def simple_population():
    return Population(
        members=[
            AgentSpec("FixedMixed", {"probs": [0.7, 0.3]}),
            AgentSpec("UniformRandom", {}),
        ],
        weights=[0.6, 0.4],
    )


def test_population_refuses_a_member_that_names_its_own_type():
    # Every runner gives each episode's members the episode's own types, so
    # a member's own_type would change the population's hash, and with it a
    # dataset header, but no action.
    typed = {"members": [{"kind": "MW", "own_type": "delta"}], "weights": [1.0]}
    for make in (lambda: Population([AgentSpec("MW", own_type="delta")], [1.0]),
                 lambda: Population.from_dict(typed)):
        with pytest.raises(GameError, match="^population member MW names own_type 'delta'; "):
            make()


def test_population_refuses_a_flattened_member_whose_members_name_an_own_type():
    # The runners drop a nested own_type as they would a top-level one: on
    # typespace_2 the population's hash changed and no action did.
    typed = {"kind": "MW", "own_type": "delta"}
    once = {"kind": "Flattened", "params": {"members": [typed], "weights": [1.0]}}
    twice = {"kind": "Flattened", "params": {
        "members": [{"kind": "UniformRandom"}, once], "weights": [0.5, 0.5]}}
    for member in (once, twice):
        data = {"members": [{"kind": "UniformRandom"}, member], "weights": [0.5, 0.5]}
        for make in (lambda: Population([AgentSpec.from_dict(m) for m in data["members"]],
                                        data["weights"]),
                     lambda: Population.from_dict(data)):
            with pytest.raises(GameError, match="^population member MW names own_type 'delta'; "):
                make()
    untyped = {"members": [flatten_population(Population([AgentSpec("MW")], [1.0])).to_dict()],
               "weights": [1.0]}
    assert Population.from_dict(untyped).to_dict() == untyped


def test_population_validation():
    with pytest.raises(GameError):
        Population(members=[], weights=[])
    with pytest.raises(GameError):
        Population(members=[AgentSpec("UniformRandom", {})], weights=[0.5])
    for bad in ([math.nan], [math.inf]):
        with pytest.raises(GameError, match="^population weights must be a probability vector$"):
            Population(members=[AgentSpec("UniformRandom", {})], weights=bad)
    pop = simple_population()
    assert pop.content_hash() == Population.from_dict(pop.to_dict()).content_hash()
    # Malformed loaded populations: a missing key, a non-dict member, a
    # member without a kind, weights that are not numbers.
    data = pop.to_dict()
    for bad in ({"members": data["members"]}, {**data, "members": [3, "MW"]},
                {**data, "members": [{"params": {}}, data["members"][1]]},
                {**data, "weights": ["a", "b"]}, [data], None):
        with pytest.raises(GameError):
            Population.from_dict(bad)


def test_type_distribution_validation(ts2):
    with pytest.raises(GameError):
        TypeDistribution(support=[("gamma", "gamma")], weights=[0.9])
    for bad in ([math.nan, math.nan], [math.inf, 0.0]):
        with pytest.raises(GameError,
                           match="^type distribution weights must be a probability vector$"):
            TypeDistribution(support=[("gamma", "gamma"), ("gamma", "delta")], weights=bad)
    mu = TypeDistribution.uniform(ts2)
    assert len(mu.support) == 4
    assert sum(mu.weights) == pytest.approx(1.0)
    assert mu.codes(ts2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    bad = TypeDistribution(support=[("gamma", "zeta")], weights=[1.0])
    with pytest.raises(GameError, match="not in the type space"):
        bad.codes(ts2)
    # A support entry that is not a pair of type ids, given or loaded; a
    # loaded distribution without its support.
    for support in ([("gamma", "gamma", "delta")], ["gd"], [("gamma", 1)]):
        with pytest.raises(GameError, match="pair of type ids"):
            TypeDistribution(support=support, weights=[1.0])
        with pytest.raises(GameError, match="pair of type ids"):
            TypeDistribution.from_dict({"support": support, "weights": [1.0]})
    for data in ({"weights": [1.0]}, {"support": "gamma", "weights": [1.0]}, None):
        with pytest.raises(GameFormatError):
            TypeDistribution.from_dict(data)
    assert TypeDistribution.from_dict(mu.to_dict()) == mu


def test_derive_episode_seed_is_stable_and_spread():
    seeds = [derive_episode_seed(42, j) for j in range(100)]
    assert seeds == [derive_episode_seed(42, j) for j in range(100)]
    assert len(set(seeds)) == 100
    assert derive_episode_seed(42, 0) != derive_episode_seed(43, 0)


def test_play_episode_records_strategies(ts2):
    a = build_agent(AgentSpec("FixedMixed", {"probs": [0.3, 0.7]}), ts2, 10)
    b = build_agent(AgentSpec("UniformRandom", {}), ts2, 10, seat="col")
    trace = play_episode(a, b, 10, random.Random(1))
    assert trace.num_stages == 10
    assert all(np.allclose(s, [0.3, 0.7]) for s in trace.row_strategies)
    for (act_r, _), sigma in zip(trace.history, trace.row_strategies):
        assert sigma[act_r] > 0.0


def test_run_episode_reproducible(ts2):
    spec_a = AgentSpec("MW", {})
    spec_b = AgentSpec("UniformRandom", {})
    t1 = run_episode(spec_a, spec_b, ts2, ("gamma", "delta"), 50, seed=77)
    t2 = run_episode(spec_a, spec_b, ts2, ("gamma", "delta"), 50, seed=77)
    t3 = run_episode(spec_a, spec_b, ts2, ("gamma", "delta"), 50, seed=78)
    assert t1.history == t2.history
    assert t1.history != t3.history


def test_generate_dataset_reproducible_and_distributed(ts2):
    pop = simple_population()
    mu = TypeDistribution(
        support=[("gamma", "gamma"), ("gamma", "delta")], weights=[0.3, 0.7]
    )
    ds1 = generate_dataset(pop, mu, ts2, 300, 5, master_seed=9)
    ds2 = generate_dataset(pop, mu, ts2, 300, 5, master_seed=9)
    assert ds1 == ds2
    counts = Counter(ds1.types)
    assert counts[("gamma", "delta")] > counts[("gamma", "gamma")]
    assert ds1.metadata["type_space_hash"] == ts2.content_hash()


def test_dataset_roundtrip_byte_identical(ts2, tmp_path):
    pop = simple_population()
    mu = TypeDistribution.uniform(ts2)
    ds = generate_dataset(pop, mu, ts2, 20, 7, master_seed=4)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_dataset(ds, p1)
    write_dataset(read_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    restored = read_dataset(p1)
    assert restored == ds
    assert restored.metadata["T"] == 7


def test_write_dataset_refuses_a_dataset_short_of_its_horizon(ts2, tmp_path):
    mu = TypeDistribution.uniform(ts2)
    ds = generate_dataset(simple_population(), mu, ts2, 5, 8, master_seed=4, stages=3)
    assert ds.actions.shape == (5, 3, 2) and ds.metadata["T"] == 8
    with pytest.raises(GameError, match="^the dataset holds 3 stages, its header's horizon is T=8"):
        write_dataset(ds, tmp_path / "short.jsonl")
    assert not (tmp_path / "short.jsonl").exists()
    for stages in (-1, 9):
        with pytest.raises(GameError, match=f"^need 0 <= stages <= T, got stages={stages}, T=8$"):
            generate_dataset(simple_population(), mu, ts2, 5, 8, master_seed=4, stages=stages)


@pytest.mark.parametrize("tilde_T", [10, 21])
def test_episodes_played_to_tilde_T_are_the_full_episodes_cut_there(tmp_path, tilde_T):
    # Stage t's draws are keyed by t, and a held stretch steps as its stages
    # would one by one, so the first tilde_T stages do not depend on how many
    # follow.  Neither 10 nor 21 is a multiple of BLOCK (16); 21 crosses a
    # block.  At eps1 = 0.1 protocol rows fall back all through them.
    table, mu, T = TABLES[id(TS2)], TypeDistribution.uniform(TS2), 40
    source = Population([AgentSpec("Protocol", {"eps1": 0.2}), AgentSpec("MW")], [0.5, 0.5])
    path = tmp_path / "ic.jsonl"  # each seat's IC agents fit it for their seat
    write_dataset(generate_dataset(source, mu, TS2, 200, T, 3, table), path)
    members = [AgentSpec("Protocol", {"eps1": 0.1}), AgentSpec("MW"),
               AgentSpec("IC", {"dataset_path": str(path), "tilde_T": 10})]
    pop = Population(members, [0.4, 0.3, 0.3])
    full = generate_dataset(pop, mu, TS2, 300, T, 17, table)
    short = generate_dataset(pop, mu, TS2, 300, T, 17, table, stages=tilde_T)
    assert short.actions.shape == (300, tilde_T, 2) and short.metadata == full.metadata
    assert np.array_equal(short.actions, full.actions[:, :tilde_T])
    assert short.types == full.types
    # A protocol row seat against every member: the same records, and the
    # same fallback stages up to tilde_T.
    rng = np.random.default_rng(0)
    codes, partners = rng.integers(0, 2, size=(300, 2)), rng.integers(0, 3, size=300)
    seeds = derive_episode_seeds(11, np.arange(300))
    runs = [next(play_episodes(([members[0]], np.zeros(300, int)), (members, partners), codes,
                               TS2, T, seeds, table, record=True, stages=stages))
            for stages in (tilde_T, T)]
    (_, (cut, _), record), (_, (whole, _), whole_record) = runs
    assert np.array_equal(record, whole_record[:tilde_T])
    fell = whole.fallback_stage
    assert cut.fallback_stage.tolist() == np.where(fell <= tilde_T, fell, -1).tolist()
    assert len(set(cut.fallback_stage.tolist())) > 5  # fallbacks at several stages
    assert (fell > tilde_T).any()


def test_read_dataset_error_reporting(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text("")
    with pytest.raises(GameFormatError):
        read_dataset(p)
    p.write_text('{"version": 99}\n')
    with pytest.raises(GameFormatError, match="version"):
        read_dataset(p)
    p.write_text(
        '{"N": 2, "T": 2, "n": 1, "version": 1}\n'
        '{"theta1": "a", "theta2": "b", "actions": [0, 1]}\n'
    )
    with pytest.raises(GameFormatError, match="line 2"):
        read_dataset(p)
    p.write_text('{"N": 2, "T": 2, "n": 3, "version": 1}\n')
    with pytest.raises(GameFormatError, match="promises"):
        read_dataset(p)
    p.write_text('{"N": 2, "T": 1000000000000, "n": 1, "version": 1}\n'
                 '{"actions": [0, 1], "theta1": "a", "theta2": "b"}\n')
    with pytest.raises(GameFormatError, match="line 2: expected 2000000000000 actions, got 2"):
        read_dataset(p)


@pytest.mark.parametrize("actions", ["[0, 1, 2, 0]", "[0, -1, 1, 0]", "[0, 1.0, 1, 0]",
                                     '[0, "1", 1, 0]', "[0, true, 1, 0]", "[0, [1], 1, 0]"])
def test_read_dataset_rejects_actions_outside_the_action_set(tmp_path, actions):
    p = tmp_path / "bad.jsonl"
    p.write_text(
        '{"N": 2, "T": 2, "n": 2, "version": 1}\n'
        '{"actions": [1, 1, 0, 0], "theta1": "a", "theta2": "b"}\n'
        f'{{"actions": {actions}, "theta1": "a", "theta2": "b"}}\n'
    )
    with pytest.raises(GameFormatError, match="line 3"):
        read_dataset(p)


HEADER = '{"N": 2, "T": 2, "n": 2, "version": 1}\n'
GOOD_LINE = '{"actions": [1, 1, 0, 0], "theta1": "a", "theta2": "b"}\n'


@pytest.mark.parametrize("line, message", [
    ('{"actions": [0, true, 1, 0], "theta1": "a", "theta2": "b"}',
     "line 3: actions must be integers, not booleans"),
    ('{"actions": [0, 1.0, 1, 0], "theta1": "a", "theta2": "b"}',
     "line 3: action 1.0 is not an integer"),
    ('{"actions": [0, 1, 2, 0], "theta1": "a", "theta2": "b"}',
     "line 3: actions must be integers in [0, 2)"),
    ('{"actions": [0, 01, 1, 0], "theta1": "a", "theta2": "b"}',
     "line 3: Expecting ',' delimiter: line 1 column 18 (char 17)"),
    ('{"actions": [0, 1], "theta1": "a", "theta2": "b"}', "line 3: expected 4 actions, got 2"),
    ('{"actions": [0, 1, 1, 0], "theta1": "a"}', "line 3: 'theta2'"),
    ('[0, 1, 1, 0]', "line 3: list indices must be integers or slices, not str"),
])
def test_read_dataset_names_the_bad_line_as_the_line_reader_did(tmp_path, line, message):
    # The first episode line is canonical: the one-pass reader tries the
    # file, and the line reader raises the error, word for word.
    p = tmp_path / "bad.jsonl"
    p.write_text(HEADER + GOOD_LINE + line + "\n")
    with pytest.raises(GameFormatError) as exc:
        read_dataset(p)
    assert str(exc.value) == f"{p}: {message}"
    p.write_text(HEADER + GOOD_LINE)
    with pytest.raises(GameFormatError) as exc:
        read_dataset(p)
    assert str(exc.value) == f"{p}: header promises 2 episodes, found 1"


def test_read_dataset_parses_canonical_lines_in_one_pass_and_others_alike(tmp_path,
                                                                          monkeypatch):
    records = [({"actions": [1, 1, 0, 0], "theta1": "a", "theta2": "b"}),
               ({"actions": [0, 1, 1, 0], "theta1": "b", "theta2": "b"})]
    canonical = HEADER + "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    variants = {
        "reordered keys": HEADER + "".join(json.dumps(r) + "\n" for r in
                                           ({k: r[k] for k in ("theta2", "actions", "theta1")}
                                            for r in records)),
        "whitespace": HEADER + "".join(json.dumps(r, sort_keys=True, indent=None,
                                                  separators=(" ,", " :  ")) + " \n"
                                       for r in records),
        "extra key": HEADER + "".join(json.dumps({**r, "note": 1}, sort_keys=True) + "\n"
                                      for r in records),
        "blank line": canonical + "\n",
        "no final newline": canonical[:-1],
    }
    decoded = []  # the lines read one at a time
    decoder = population._EPISODE_DECODER
    monkeypatch.setattr(population, "_EPISODE_DECODER", SimpleNamespace(
        decode=lambda line: decoded.append(line) or decoder.decode(line)))
    p = tmp_path / "canonical.jsonl"
    p.write_text(canonical)
    expected = read_dataset(p)
    assert decoded == []  # one pass
    assert expected.actions.tolist() == [[[1, 1], [0, 0]], [[0, 1], [1, 0]]]
    assert expected.types == [("a", "b"), ("b", "b")]
    for name, text in variants.items():
        p = tmp_path / "variant.jsonl"
        p.write_text(text)
        decoded.clear()
        assert read_dataset(p) == expected, name
        assert len(decoded) == 2, name
    # An action of two digits sends a canonical file line by line.
    wide = Dataset(np.array([[[1, 10], [0, 0]], [[11, 1], [2, 0]]], dtype=np.uint8),
                   [("a", "b"), ("b", "b")], np.arange(2), {"N": 12, "T": 2, "n": 2, "version": 1})
    write_dataset(wide, p)
    decoded.clear()
    assert read_dataset(p) == wide
    assert len(decoded) == 2


# sha256 of ic-eval's K = 100 dataset of the acceptance config and of a
# dataset of typespace_4, as generate_dataset and write_dataset made them
# when the member and joint-type draws became counter draws too.  The file
# format was last pinned when a history was a tuple of pairs and each line
# one json.dumps; any change to the streams, the engine or the format shows
# here.
IC_EVAL_K100_SHA256 = "caf95496f598c857aac72e7f3f2294dcc03a66f397f27795247a3f841845dd8f"
TS4_SHA256 = "f6d530009ba5fc0683c1bbb305de853391e98034e7862dec0f58dfebdd5b7964"


def test_dataset_files_keep_their_pinned_bytes(ts2, tmp_path):
    params = theorem26_params(0.1, 40, 1, 2)
    pop = Population([AgentSpec("Protocol", {"eps1": params.eps1, "k": 1})], [1.0])
    mu = TypeDistribution([("gamma", "gamma"), ("gamma", "delta"), ("delta", "delta")],
                          [0.25, 0.5, 0.25])
    # ic-eval's master seed for K = 100: draw 100 of its dataset-seed stream.
    rng = scalar_agents.tagged_stream(109, STREAM_TAGS["ic-eval dataset seeds"])
    master = [rng.next64() for _ in range(101)][100] >> 2
    ds = generate_dataset(pop, mu, ts2, 100, 40, master_seed=master,
                          convention_table=build_convention_table(ts2))
    write_dataset(ds, tmp_path / "ic.jsonl")
    assert hashlib.sha256((tmp_path / "ic.jsonl").read_bytes()).hexdigest() == IC_EVAL_K100_SHA256
    pop4 = Population([AgentSpec("Protocol", {"eps1": 0.2, "k": 2}), AgentSpec("MW")], [0.6, 0.4])
    ds4 = generate_dataset(pop4, TypeDistribution.uniform(TS4), TS4, 200, 20, master_seed=5,
                           convention_table=TABLES[id(TS4)])
    write_dataset(ds4, tmp_path / "ts4.jsonl")
    assert hashlib.sha256((tmp_path / "ts4.jsonl").read_bytes()).hexdigest() == TS4_SHA256


def test_typespace_4_datasets_read_in_one_pass_with_closings_of_every_width(tmp_path,
                                                                            monkeypatch):
    # beta is one byte narrower than alpha, gamma and delta, so the 16 joint
    # types' closings have three widths.  The file reads back in one pass to
    # the same joint type per episode, and writes back byte for byte.
    pop = Population([AgentSpec("Protocol", {"eps1": 0.2, "k": 2}), AgentSpec("MW")], [0.6, 0.4])
    ds = generate_dataset(pop, TypeDistribution.uniform(TS4), TS4, 300, 6, master_seed=8,
                          convention_table=TABLES[id(TS4)])
    assert len(set(ds.types)) == 16
    decoded = []
    decoder = population._EPISODE_DECODER
    monkeypatch.setattr(population, "_EPISODE_DECODER", SimpleNamespace(
        decode=lambda line: decoded.append(line) or decoder.decode(line)))
    write_dataset(ds, tmp_path / "ts4.jsonl")
    read = read_dataset(tmp_path / "ts4.jsonl")
    assert decoded == []
    assert read.types == ds.types and read == ds
    assert sorted(read.joints) == sorted(set(ds.types))
    write_dataset(read, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == (tmp_path / "ts4.jsonl").read_bytes()
    # Closings that share a hash are told apart row by row: with a hash of
    # the last eight bytes only, (alpha, beta) and (gamma, beta) collide, and
    # the file is read line by line to the same dataset.
    monkeypatch.setattr(population, "GAMMA", 0)
    assert read_dataset(tmp_path / "ts4.jsonl") == ds
    assert len(decoded) == len(ds)


def test_type_names_and_codes_are_checked_at_the_boundary(ts2):
    # A name outside the type space, in a distribution's support or as a
    # one-episode agent's own type; a code outside [-1, 2), or not an
    # integer, for a seat or a run of episodes.
    with pytest.raises(GameError, match="not in the type space"):
        TypeDistribution([("gamma", "zeta")], [1.0]).codes(ts2)
    with pytest.raises(GameError, match="not in the type space"):
        build_agent(AgentSpec("UniformRandom"), ts2, 4, own_type="zeta")
    spec = AgentSpec("UniformRandom")
    for bad, message in (([0, 2], "got 0 to 2"), ([-2, 0], "got -2 to 0")):
        with pytest.raises(GameError, match=rf"must be in \[-1, 2\), {message}"):
            build_agents(spec, ts2, 4, "row", bad, [0, 0])
    with pytest.raises(GameError, match="integer codes"):
        build_agents(spec, ts2, 4, "row", ["gamma"], [0])
    seat = ([spec], [0, 0])
    with pytest.raises(GameError, match=r"must be in \[-1, 2\), got 1 to 2"):
        list(play_episodes(seat, seat, [[0, 1], [1, 2]], ts2, 3, np.arange(2, dtype=np.uint64)))
    with pytest.raises(GameError, match="an .E, 2. array"):
        list(play_episodes(seat, seat, [0, 1], ts2, 3, np.arange(2, dtype=np.uint64)))


def test_an_ic_agent_with_no_own_type_is_refused(ts2):
    # It would play the uniform root and commit on that: the IC builder reads
    # each episode's root by its own type, and refuses an episode without one.
    ds = generate_dataset(simple_population(), TypeDistribution.uniform(ts2), ts2, 40, 10,
                          master_seed=2)
    spec = AgentSpec("IC", {"tilde_T": 4, "policy": imitation_commit.fit_imitation(ds, 4)})
    with pytest.raises(GameError, match="IC agent needs an own type"):
        build_agent(spec, ts2, 10, "row", None)
    with pytest.raises(GameError, match="IC agent needs an own type"):
        build_agents(spec, ts2, 10, "row", [0, -1, 1], [0, 1, 2])
    assert build_agent(AgentSpec("IC", {**spec.params}, "delta"), ts2, 10).node.tolist() == [
        spec.params["policy"].roots["delta"]]


# Type names with quotes, backslashes, controls, line breaks and non-ASCII
# characters, which json.dumps escapes.
type_names = st.text(alphabet=st.sampled_from(['a', 'Z', '"', '\\', ' ', '\xe9', '\u2603', '\n',
                                               '\x00', '\x85', '\u2028', '\U0001f600']),
                     max_size=5)


@st.composite
def records(draw):
    """An action count N, a horizon T, and per episode its 2T actions and its
    joint type."""
    N = draw(st.integers(min_value=2, max_value=12))
    T = draw(st.integers(min_value=0, max_value=4))
    K = draw(st.integers(min_value=0, max_value=6))
    actions = draw(st.lists(st.lists(st.integers(0, N - 1), min_size=2 * T, max_size=2 * T),
                            min_size=K, max_size=K))
    return N, T, actions, draw(st.lists(st.tuples(type_names, type_names), min_size=K, max_size=K))


def seeded_records(K, N, T=3):
    """``records`` of K episodes from a seeded generator."""
    rng = np.random.default_rng(K)
    names = ["gamma", "delta"]
    joints = rng.integers(0, len(names), size=(K, 2)).tolist()
    return N, T, rng.integers(0, N, size=(K, 2 * T)).tolist(), [
        (names[a], names[b]) for a, b in joints]


@settings(max_examples=80, deadline=None)
@given(records=records())
# Blocks of written lines: one short of a block, one block, one line into the
# second, one into the third; and two-digit actions.
@example(records=seeded_records(population._ROW_BLOCK - 1, 2))
@example(records=seeded_records(population._ROW_BLOCK, 2))
@example(records=seeded_records(population._ROW_BLOCK + 1, 2))
@example(records=seeded_records(2 * population._ROW_BLOCK + 1, 2))
@example(records=seeded_records(population._ROW_BLOCK + 1, 12))
def test_write_dataset_lines_are_json_dumps_of_each_record(tmp_path_factory, records):
    N, T, actions, types = records
    K = len(actions)
    metadata = {"version": 1, "T": T, "N": N, "n": K, "name": "\xe9\""}
    ds = scalar_agents.named_dataset(np.array(actions, dtype=np.uint8).reshape(K, T, 2), types,
                                     metadata)
    path = tmp_path_factory.mktemp("w") / "ds.jsonl"
    write_dataset(ds, path)
    lines = path.read_bytes().decode().split("\n")
    assert lines[0] == json.dumps(metadata, sort_keys=True) and lines[-1] == ""
    assert lines[1:-1] == [
        json.dumps({"theta1": a, "theta2": b, "actions": row}, sort_keys=True)
        for (a, b), row in zip(types, actions)
    ]
    # A CRLF after the header makes the reader go line by line.
    crlf = population.parse_dataset(path.read_bytes().replace(b"\n", b"\r\n", 1), path)
    assert read_dataset(path) == ds == crlf


def read_or_error(read, *args):
    """The Dataset ``read(*args)`` returns, or the text of its GameFormatError."""
    try:
        return read(*args)
    except GameFormatError as exc:
        return str(exc)


# Bytes to put in place of another in a dataset file: digits, JSON
# punctuation, line breaks, letters and a byte that is not UTF-8 alone.
SUBSTITUTES = b'01259, "\\[]{}:\n\rtax-.\x85'


@settings(max_examples=60, deadline=None)
@given(N=st.integers(min_value=2, max_value=12), T=st.integers(min_value=0, max_value=4),
       data=st.data())
def test_read_dataset_gives_what_the_line_reader_gives(tmp_path_factory, N, T, data):
    # A canonical file, then its copies with the byte at one position changed,
    # for every position, and with one byte appended: each reads to the line
    # reader's Dataset or fails with its message, naming the same line.
    K = data.draw(st.integers(min_value=0, max_value=6))
    actions = data.draw(st.lists(st.lists(st.integers(0, N - 1), min_size=2 * T, max_size=2 * T),
                                 min_size=K, max_size=K))
    # A few names, as a type space has, so that most files have the
    # one-pass form and repeat their closings.
    names = data.draw(st.lists(st.sampled_from(["gamma", "delta"]) | type_names,
                               min_size=1, max_size=3))
    types = data.draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                               min_size=K, max_size=K))
    metadata = {"version": 1, "T": T, "N": N, "n": K}
    path = tmp_path_factory.mktemp("r") / "ds.jsonl"
    write_dataset(scalar_agents.named_dataset(np.array(actions, dtype=np.uint8).reshape(K, T, 2),
                                              types, metadata), path)
    blob = path.read_bytes()
    rng = data.draw(st.randoms(use_true_random=True))
    for at in range(-1, len(blob) + 1):  # -1: the file as written
        byte = rng.choice(SUBSTITUTES)
        path.write_bytes(blob if at < 0 else blob[:at] + bytes([byte]) + blob[at + 1:])
        try:
            text = path.read_text()  # as read_dataset decodes it
        except UnicodeDecodeError:
            continue
        # A CRLF after the header makes the reader go line by line.
        expected = read_or_error(population.parse_dataset,
                                 text.replace("\n", "\r\n", 1).encode(), path)
        got = read_or_error(read_dataset, path)
        assert got == expected, (at, byte)
        if isinstance(got, Dataset):
            assert got.actions.dtype == expected.actions.dtype


def test_read_dataset_rejects_a_header_without_action_count(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text(
        '{"T": 1, "n": 1, "version": 1}\n{"actions": [0, 0], "theta1": "a", "theta2": "b"}\n'
    )
    with pytest.raises(GameFormatError, match="line 1: header N"):
        read_dataset(p)


def test_read_dataset_with_a_huge_action_count_checks_pairs_as_they_occur(tmp_path):
    # No table of N * N pairs: a header with N = 10**12 reads at once, and
    # writes back the same bytes.
    p = tmp_path / "huge.jsonl"
    header = '{"N": 1000000000000, "T": 2, "n": 2, "version": 1}\n'
    p.write_text(
        header + '{"actions": [0, 999999999999, 5, 0], "theta1": "a", "theta2": "b"}\n'
        '{"actions": [5, 0, 0, 999999999999], "theta1": "a", "theta2": "b"}\n'
    )
    ds = read_dataset(p)
    assert ds.actions.tolist() == [[[0, 999999999999], [5, 0]], [[5, 0], [0, 999999999999]]]
    write_dataset(ds, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == p.read_bytes()
    p.write_text(header + '{"actions": [0, 1000000000000, 5, 0], "theta1": "a", "theta2": "b"}\n')
    with pytest.raises(GameFormatError, match="line 2"):
        read_dataset(p)


def test_ic_agent_rejects_a_dataset_from_another_type_space(ts2, tmp_path):
    mu = TypeDistribution.uniform(ts2)
    ds = generate_dataset(simple_population(), mu, ts2, 5, 4, master_seed=1)
    path = tmp_path / "ds.jsonl"
    write_dataset(ds, path)
    spec = AgentSpec("IC", {"dataset_path": str(path), "tilde_T": 2})
    assert build_agent(spec, ts2, 4, own_type="gamma").act() is not None
    with pytest.raises(GameError, match="another type space"):
        build_agent(spec, TS4, 4, own_type="alpha")
    # The type space's hash, but another action count in the header.
    path.write_text(path.read_text().replace('"N": 2,', '"N": 3,', 1))
    with pytest.raises(GameError, match="another type space"):
        build_agent(spec, ts2, 4, own_type="gamma")
    # An in-memory policy is checked alike: fit on TS4, whose types include
    # ts2's and whose action count is ts2's too.
    ds4 = generate_dataset(simple_population(), TypeDistribution.uniform(TS4), TS4, 5, 4,
                           master_seed=1)
    spec = AgentSpec("IC", {"policy": imitation_commit.fit_imitation(ds4, 2), "tilde_T": 2})
    assert build_agent(spec, TS4, 4, own_type="gamma").act() is not None
    with pytest.raises(GameError, match="another type space"):
        build_agent(spec, ts2, 4, own_type="gamma")


def test_ic_agent_checks_the_types_of_a_policy_with_no_type_space_hash(ts2):
    # With no hash to compare, an in-memory policy is checked by its roots.
    # Fit on ts2, it plays its fit on ts2.  On TS4, whose types include ts2's,
    # it is refused, as is one fit on TS4 on ts2; before the check, the first
    # built for alpha and played the uniform root.
    def hashless(ts):
        ds = generate_dataset(simple_population(), TypeDistribution.uniform(ts), ts, 40, 4,
                              master_seed=1)
        policy = imitation_commit.fit_imitation(ds, 2)
        policy.type_space_hash = None
        return AgentSpec("IC", {"policy": policy, "tilde_T": 2})

    spec2 = hashless(ts2)
    policy = spec2.params["policy"]
    agent = build_agents(spec2, ts2, 4, "row", [0, 1], [0, 1])  # gamma, delta
    want = policy.strategies[[policy.roots["gamma"], policy.roots["delta"]]]
    assert np.array_equal(agent.act(), want) and not (want == 0.5).all()
    for own in (0, 2):  # alpha, gamma
        with pytest.raises(GameError, match="another type space"):
            build_agents(spec2, TS4, 4, "row", [own], [0])
    spec4 = hashless(TS4)
    assert build_agents(spec4, TS4, 4, "row", [0], [0]).act() is not None
    with pytest.raises(GameError, match="another type space"):
        build_agents(spec4, ts2, 4, "row", [0], [0])


def test_ic_agents_fit_a_dataset_file_once_per_seat(ts2, tmp_path, monkeypatch):
    mu = TypeDistribution.uniform(ts2)
    path = tmp_path / "ds.jsonl"
    write_dataset(generate_dataset(simple_population(), mu, ts2, 20, 4, master_seed=1), path)
    opens, fits = [], []
    real_open, real_parse = open, population.parse_dataset
    monkeypatch.setattr("builtins.open", lambda p, *a, **k: (
        opens.append(p) if str(p) == str(path) else None) or real_open(p, *a, **k))
    monkeypatch.setattr(imitation_commit, "parse_dataset",
                        lambda text, p: fits.append(p) or real_parse(text, p))
    monkeypatch.setattr(imitation_commit, "_FITS", {})  # no fit from another test
    ic = AgentSpec("IC", {"dataset_path": str(path), "tilde_T": 2})
    # The IC member plays on both seats of 30 episodes: each seat builds one
    # agent for all of its IC episodes, which opens the file once.
    pop = Population(members=[simple_population().members[0], ic], weights=[0.5, 0.5])
    generate_dataset(pop, mu, ts2, 30, 4, master_seed=2)
    assert len(opens) == len(fits) == 2  # once per seat
    build_agent(ic, ts2, 4, own_type="gamma")
    assert (len(opens), len(fits)) == (3, 2)  # the row seat's fit is kept
    # The type-space check still runs on every build.
    with pytest.raises(GameError, match="another type space"):
        build_agent(ic, TS4, 4, own_type="alpha")
    # A rewritten file is fit again.
    write_dataset(generate_dataset(simple_population(), mu, ts2, 20, 4, master_seed=3), path)
    before = len(fits)
    build_agent(ic, ts2, 4, own_type="gamma")
    assert len(fits) == before + 1


def test_dataset_sampling_matches_weights_chi_square(ts2):
    # Member-pair draw frequencies should match the product weights; a loose
    # chi-square-style check guards the sampling plumbing.
    pop = simple_population()
    mu = TypeDistribution.uniform(ts2)
    n = 4000
    ds = generate_dataset(pop, mu, ts2, n, 1, master_seed=12)
    type_counts = Counter(ds.types)
    for joint in mu.support:
        freq = type_counts[joint] / n
        assert abs(freq - 0.25) < 0.03


def test_flattened_agent_matches_population_mixture(ts2):
    pop = Population(
        members=[
            AgentSpec("FixedSequence", {"actions": [0, 1]}),
            AgentSpec("FixedMixed", {"probs": [0.2, 0.8]}),
        ],
        weights=[0.5, 0.5],
    )
    horizon = 3
    probe = lambda h: [0.5, 0.5]

    def col_fn(spec):
        return tree_act_fn(build_agent(spec, ts2, horizon, seat="col", own_type="gamma"), "col")

    mixture = {}
    for member, w in zip(pop.members, pop.weights):
        for h, pr in history_distribution(probe, col_fn(member), 2, horizon).items():
            mixture[h] = mixture.get(h, 0.0) + w * pr
    flat = history_distribution(probe, col_fn(flatten_population(pop)), 2, horizon)
    assert 0.5 * sum(abs(mixture.get(h, 0.0) - flat.get(h, 0.0)) for h in {*mixture, *flat}) <= 1e-12


def test_flattened_agent_posterior_collapse(ts2):
    # After observing an action only one member could play, the flattened
    # agent behaves exactly like that member.
    pop = Population(
        members=[
            AgentSpec("FixedSequence", {"actions": [0, 0, 0]}),
            AgentSpec("FixedSequence", {"actions": [1, 1, 0]}),
        ],
        weights=[0.5, 0.5],
    )
    agent = build_agent(flatten_population(pop), ts2, 5, seat="row")
    assert agent.act()[0] == pytest.approx([0.5, 0.5])
    agent.observe(np.array([1]), np.array([0]))  # only the second member plays 1 first
    assert agent.act()[0] == pytest.approx([0.0, 1.0])


def test_flattened_agent_unreachable_history_goes_uniform(ts2):
    pop = Population(
        members=[AgentSpec("FixedSequence", {"actions": [0]})], weights=[1.0]
    )
    agent = build_agent(flatten_population(pop), ts2, 5, seat="row")
    agent.act()
    agent.observe(np.array([1]), np.array([0]))  # impossible under every member
    assert agent.act()[0] == pytest.approx([0.5, 0.5])


def test_protocol_population_dataset_has_handshake_prefix(ts2):
    params = theorem26_params(0.1, 20, 1, 2)
    pop = Population(
        members=[AgentSpec("Protocol", {"eps1": params.eps1, "k": 1})], weights=[1.0]
    )
    mu = TypeDistribution(support=[("gamma", "delta")], weights=[1.0])
    ds = generate_dataset(
        pop, mu, ts2, 10, 20, master_seed=2,
        convention_table=build_convention_table(ts2),
    )
    assert ds.actions[:, 0].tolist() == [[0, 1]] * 10  # gamma announces index 0, delta 1

MEMBER_SPECS = [
    AgentSpec("Protocol", {"eps1": 0.3}),
    AgentSpec("Protocol", {"eps1": 0.0}),
    AgentSpec("MW", {}),
    AgentSpec("GrimTrigger", {"coop_action": 1, "punish_action": 0}),
    AgentSpec("UniformRandom", {}),
    AgentSpec("FixedSequence", {"actions": [0, 1, 1]}),
    AgentSpec("BestResponder", {}),
    AgentSpec("Flattened", {"members": [{"kind": "UniformRandom"}], "weights": [1.0]}),
    AgentSpec("Flattened", {
        "members": [{"kind": "MW"}, {"kind": "Protocol", "params": {"eps1": 0.1}},
                    {"kind": "GrimTrigger"}],
        "weights": [0.3, 0.5, 0.2],
    }),
]
IC_MEMBER = len(MEMBER_SPECS)  # an IC member fit from a dataset file of the type space


@pytest.fixture(scope="module")
def ic_datasets(tmp_path_factory):
    """Per type space, a dataset file of 20-stage episodes for IC members."""
    paths = {}
    for ts in (TS2, TS4):
        pop = Population(members=[AgentSpec("Protocol", {"eps1": 0.2}), AgentSpec("MW")],
                         weights=[0.6, 0.4])
        ds = generate_dataset(pop, TypeDistribution.uniform(ts), ts, 60, 20, master_seed=5,
                              convention_table=TABLES[id(ts)])
        paths[id(ts)] = tmp_path_factory.mktemp("ic") / "dataset.jsonl"
        write_dataset(ds, paths[id(ts)])
    return paths


def dataset_draws(pop, mu, n, master_seed):
    """generate_dataset's member and joint-type indices, drawn by the scalar
    generator of its draw stream ("draw"): draws 2e and 2e + 1 pick episode
    e's members, draw 2n + e its joint type."""
    rng = scalar_agents.tagged_stream(master_seed, 0x64726177)
    members = [scalar_agents.categorical(pop.weights, rng) for _ in range(2 * n)]
    joints = [scalar_agents.categorical(mu.weights, rng) for _ in range(n)]
    return np.array(members, dtype=np.intp).reshape(n, 2), np.array(joints, dtype=np.intp)


def dataset_by_run_episode(pop, mu, ts, n, T, master_seed, convention_table):
    """The per-episode loop of scalar agents generate_dataset ran before the
    batched engine, kept as its oracle."""
    member_idx, joint_idx = dataset_draws(pop, mu, n, master_seed)
    episodes = []
    for j in range(n):
        joint = mu.support[joint_idx[j]]
        trace = scalar_agents.run_episode(
            pop.members[member_idx[j, 0]], pop.members[member_idx[j, 1]], ts, joint, T,
            derive_episode_seed(master_seed, j), convention_table=convention_table,
        )
        episodes.append((joint[0], joint[1], trace.history))
    return episodes


@settings(max_examples=25, deadline=None)
@given(
    members=st.lists(st.sampled_from(range(len(MEMBER_SPECS) + 1)), min_size=1, max_size=4),
    ts=st.sampled_from([TS2, TS4]),
    n=st.integers(min_value=0, max_value=40),
    T=st.integers(min_value=1, max_value=40),
    master_seed=st.integers(min_value=0, max_value=2**62),
    batch=st.integers(min_value=1, max_value=8),
)
@example(members=[IC_MEMBER, IC_MEMBER - 1, 0], ts=TS4, n=40, T=12, master_seed=7, batch=8)
@example(members=[IC_MEMBER - 1, IC_MEMBER], ts=TS2, n=40, T=25, master_seed=3, batch=3)
def test_batched_generate_dataset_matches_run_episode_loop(ic_datasets, members, ts, n, T,
                                                           master_seed, batch):
    # An IC member imitates for half the horizon, so it needs two stages.
    assume(T > 1 or IC_MEMBER not in members)
    ic = AgentSpec("IC", {"dataset_path": str(ic_datasets[id(ts)]), "tilde_T": max(1, T // 2)})
    pop = Population(
        members=[MEMBER_SPECS[m] if m < IC_MEMBER else ic for m in members],
        weights=[1.0 / len(members)] * len(members),
    )
    mu = TypeDistribution.uniform(ts)
    table = TABLES[id(ts)]
    # Small batches split each pairing's episodes across several batches.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(population, "EPISODE_BATCH", batch)
        ds = generate_dataset(pop, mu, ts, n, T, master_seed, convention_table=table)
    assert scalar_agents.episode_tuples(ds) == (
        dataset_by_run_episode(pop, mu, ts, n, T, master_seed, table)
    )


def dataset_by_pairing(pop, mu, ts, n, T, master_seed, convention_table, size=2000):
    """The histories generate_dataset made with one play_batch per pairing of
    members, in batches of ``size`` episodes sorted by their pairing, before
    each batch in episode order became one play_batch; kept as its oracle."""
    member_idx, joint_idx = dataset_draws(pop, mu, n, master_seed)
    joints = [mu.support[j] for j in joint_idx.tolist()]
    seeds = derive_episode_seeds(master_seed, np.arange(n))
    histories = [()] * n
    M = len(pop.members)
    pairing = member_idx[:, 0] * M + member_idx[:, 1]
    order = np.argsort(pairing, kind="stable")
    for start in range(0, n, size):
        batch = order[start : start + size]
        keys, first, count = np.unique(pairing[batch], return_index=True, return_counts=True)
        for key, f, c in zip(keys.tolist(), first.tolist(), count.tolist()):
            r, cc = divmod(key, M)
            ids = batch[f : f + c].tolist()
            part = EpisodeStreams(seeds[ids])
            rows, cols = (
                build_agents(pop.members[m], ts, T, seat,
                             scalar_agents.type_codes(ts, [joints[j][s] for j in ids]),
                             part.agent_seeds[s], convention_table)
                for s, (m, seat) in enumerate(((r, "row"), (cc, "col")))
            )
            record = play_batch(rows, cols, T, part, record=True)
            for e, j in enumerate(ids):
                histories[j] = tuple(map(tuple, record[:, :, e].tolist()))
    return [(a, b, h) for (a, b), h in zip(joints, histories)]


@pytest.mark.parametrize("batch", [37, 2000])
@pytest.mark.parametrize("ts", [TS2, TS4], ids=["ts2", "ts4"])
def test_generate_dataset_matches_per_pairing_loop(tmp_path, ts, batch):
    # Five members, one of them Flattened; batches of 37 split every pairing
    # across batches.
    pop = Population(
        members=[
            AgentSpec("Protocol", {"eps1": 0.1, "k": 2}),
            AgentSpec("MW"),
            AgentSpec("GrimTrigger"),
            AgentSpec("Flattened", {"members": [{"kind": "UniformRandom"}], "weights": [1.0]}),
            AgentSpec("BestResponder"),
        ],
        weights=[0.3, 0.2, 0.2, 0.15, 0.15],
    )
    mu = TypeDistribution.uniform(ts)
    table = TABLES[id(ts)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(population, "EPISODE_BATCH", batch)
        ds = generate_dataset(pop, mu, ts, 150, 25, 91, convention_table=table)
    oracle = scalar_agents.tuple_dataset(dataset_by_pairing(pop, mu, ts, 150, 25, 91, table),
                                         25, ts.num_actions, ds.metadata)
    write_dataset(ds, tmp_path / "batched.jsonl")
    write_dataset(oracle, tmp_path / "by_pairing.jsonl")
    assert (tmp_path / "batched.jsonl").read_bytes() == (tmp_path / "by_pairing.jsonl").read_bytes()
