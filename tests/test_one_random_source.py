"""One random source: every draw in ``src/cooplab`` is a draw of the
engine's counter-based streams, keyed by ``derive_episode_seeds`` from a
seed and a tagged index.  A second generator, or two tags that share
streams, would come back unnoticed without these checks."""
import re
from importlib import resources

import numpy as np
import pytest

from cooplab import population
from cooplab.engine import (
    GAMMA,
    ROW_BLOCK_CELLS,
    ScalarStream,
    _draws,
    mix64_inplace,
    stream_uniforms,
)
from cooplab.harness import STREAM_TAGS, _keys
from cooplab.population import derive_episode_seed
from scalar_agents import tagged_stream

# The keys si-consistency's and ic-eval's episodes kept from before the tags:
# indices 0x434F0000 + r and 0x45560000 + e, for counts below 2**32.
KEPT_EPISODE_INDICES = (0x434F0000, 0x45560000)


def test_no_module_of_the_package_uses_another_generator():
    sources = [f for f in resources.files("cooplab").iterdir() if f.name.endswith(".py")]
    assert len(sources) >= 9
    for source in sources:
        text = source.read_text()
        assert not re.search(r"np\.random|numpy\.random|default_rng", text), source.name


def test_stream_tags_are_distinct_and_apart_from_the_episode_keys():
    tags = [*STREAM_TAGS.values(), population._DRAW_STREAM]
    assert len(set(tags)) == len(tags)
    for tag in tags:
        assert 2 <= tag < 2**32
        # Stream i of a tag has the index tag * 2**32 + i; every kept episode
        # index lies below 2**33.
        assert all(tag << 32 >= start + 2**32 for start in KEPT_EPISODE_INDICES)


@pytest.mark.parametrize("tag", sorted(STREAM_TAGS))
def test_stream_keys_are_the_episode_seeds_of_the_tagged_indices(tag):
    want = [derive_episode_seed(5, (STREAM_TAGS[tag] << 32) + i) for i in range(3)]
    assert _keys(5, tag, 3).tolist() == want


def test_the_dataset_draw_stream_is_keyed_by_the_same_rule():
    # generate_dataset's draw stream and the harness's tags share one helper.
    want = [derive_episode_seed(5, (population._DRAW_STREAM << 32) + i) for i in range(3)]
    assert population.tagged_seeds(5, population._DRAW_STREAM, 3).tolist() == want
    source = resources.files("cooplab")
    scans = [(f.name, f.read_text().count("<< 32")) for f in source.iterdir() if f.name.endswith(".py")]
    assert [name for name, count in scans if count] == ["population.py"]


@pytest.mark.parametrize("count", [0, 1, 17, 5000])
def test_draws_of_one_stream_match_the_oracle(count):
    # One scalar key: a (count,) array, as the single streams of the
    # harness and of generate_dataset read it.
    rng = tagged_stream(9, STREAM_TAGS["ic-eval dataset seeds"])
    want = [rng.next64() for _ in range(count + 3)][3:]
    got = _draws(_keys(9, "ic-eval dataset seeds")[0], 3, count)
    assert got.shape == (count,) and got.tolist() == want
    assert np.array_equal(got, _draws(_keys(9, "ic-eval dataset seeds"), 3, count)[:, 0])


@pytest.mark.parametrize("streams, count", [(None, 3 * ROW_BLOCK_CELLS + 7), (3, ROW_BLOCK_CELLS),
                                             (1000, 100)])
def test_long_calls_mixed_in_blocks_equal_the_one_pass_mix(streams, count):
    # One key, or several: the blocks of rows, the last one short, hold the
    # draws one pass over the whole array makes.
    keys = _keys(11, "mixture-check cases", streams or 1)
    keys = keys[0] if streams is None else keys
    z = np.add.outer(np.arange(6, count + 6, dtype=np.uint64) * np.uint64(GAMMA), keys)
    want = mix64_inplace(z, np.empty_like(z))
    got = _draws(keys, 5, count)
    assert got.shape == want.shape and np.array_equal(got, want)
    stream = ScalarStream(int(np.atleast_1d(keys)[-1]))
    stream.counter = 4 + count
    assert stream.draw() == int(np.atleast_1d(got[-1])[-1])
    # stream_uniforms mixes each block in the rows of its float output.
    u = stream_uniforms(np.atleast_1d(keys), 5, count)
    assert np.array_equal(u, (want.reshape(count, -1) >> np.uint64(11)) * 2.0**-53)
