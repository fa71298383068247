"""The counter-based streams against numpy, bit for bit."""

import numpy as np
import pytest

from stopsum import ModelSpec, derive_seed, init_model
from stopsum.models import (
    _RAW_PIECE,
    Lanes,
    _BlockRows,
    _cursor,
    _draw_signs,
    _draw_uniforms,
)
from stopsum.streams import (
    coins,
    derive_seeds,
    doubles,
    philox_keys,
    philox_words,
)

RANDOM_SEEDS = np.random.default_rng(2024).integers(
    0, 2**64 - 1, size=4, dtype=np.uint64, endpoint=True).tolist()
# seeds below 2^32 have one entropy word, the others two
SMALL_SEEDS = [0, 1, 2, 12345, 2**32 - 1]
WIDE_SEEDS = [2**32, 2**32 + 1, 2**63, 2**64 - 1]


def _key(seed):
    bits = np.random.Philox(np.random.SeedSequence(seed))
    return bits.state["state"]["key"].tolist()


@pytest.mark.parametrize("seed", SMALL_SEEDS + WIDE_SEEDS + RANDOM_SEEDS)
def test_derive_seeds_match_derive_seed(seed):
    got = derive_seeds(seed, 300)
    assert got.dtype == np.uint64
    assert got.tolist() == [derive_seed(seed, p) for p in range(300)]


def test_derive_seeds_edges():
    assert derive_seeds(7, 0).size == 0
    assert derive_seeds(7, 1).tolist() == [derive_seed(7, 0)]
    with pytest.raises(ValueError):
        derive_seeds(7, -1)
    with pytest.raises(ValueError):
        derive_seeds(-1, 3)
    with pytest.raises(ValueError):
        derive_seeds(2**64, 3)
    with pytest.raises(TypeError):
        derive_seeds(1.0, 3)


def test_keys_match_philox():
    # derived seeds are almost never below 2^32, so those are injected
    derived = derive_seeds(derive_seed(11, 1, 2), 40).tolist()
    seeds = SMALL_SEEDS + WIDE_SEEDS + RANDOM_SEEDS + derived
    keys = philox_keys(np.array(seeds, dtype=np.uint64))
    assert keys.shape == (2, len(seeds)) and keys.dtype == np.uint64
    for i, seed in enumerate(seeds):
        assert keys[:, i].tolist() == _key(seed), seed


@pytest.mark.parametrize("first", [0, 1, 127, 1152])
def test_words_match_random_raw(first):
    seeds = [3, 2**40 + 7] + RANDOM_SEEDS
    words = philox_words(philox_keys(np.array(seeds, dtype=np.uint64)),
                         first, 5)
    assert words.shape == (20, len(seeds))
    for i, seed in enumerate(seeds):
        bits = np.random.Philox(np.random.SeedSequence(seed))
        bits.random_raw(4 * first)
        assert words[:, i].tolist() == bits.random_raw(20).tolist(), seed


def test_coins_and_doubles_match_generator():
    seeds = [5] + RANDOM_SEEDS
    keys = philox_keys(np.array(seeds, dtype=np.uint64))
    signs = coins(philox_words(keys, 0, 128))        # 4096 signs
    unif = doubles(philox_words(keys, 128, 1024))    # then 4096 uniforms
    for i, seed in enumerate(seeds):
        rng = init_model(ModelSpec("product", {}), seed).rng
        assert np.array_equal(signs[:, i], _draw_signs(rng)), seed
        assert np.array_equal(unif[:, i], _draw_uniforms(rng)), seed


@pytest.mark.parametrize("kind", ["product", "regime_switch"])
def test_lanes_read_the_model_state_refills(kind):
    """Every sign and uniform of two refills, past step 4096."""
    spec = ModelSpec(kind, {})
    seeds = [0, 2**32, 77] + RANDOM_SEEDS
    steps = 4096 + 700
    lanes = Lanes(spec, np.array(seeds, dtype=np.uint64))
    signs, unif = [], []
    for k in range(steps):
        lanes.step = k
        signs.append(lanes._sign())
        if spec.law.uniforms:
            unif.append(lanes._uniform())
    signs = np.array(signs)
    for i, seed in enumerate(seeds):
        rng = init_model(spec, seed).rng
        want_signs, want_unif = [], []
        for _ in range(2):                      # a ModelState's refill order
            want_signs.append(2.0 * _draw_signs(rng) - 1.0)
            if spec.law.uniforms:
                want_unif.append(_draw_uniforms(rng))
        want = np.concatenate(want_signs)[:steps]
        assert np.array_equal(signs[:, i], want), seed
        if spec.law.uniforms:
            got = np.array(unif)[:, i]
            assert np.array_equal(got, np.concatenate(want_unif)[:steps]), seed


def _fresh_rng(seed=9):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@pytest.mark.parametrize("shrink", [False, True], ids=["all-live", "shrinking"])
@pytest.mark.parametrize("rows", [1, 3, 7, 8, 513, 4095, 4096, 4097])
def test_block_row_signs_match_int32_integers(rows, shrink):
    """A regime block's signs, over three refills or more, are those of
    rng.integers(0, 2, dtype=np.int32) on the block's fresh stream, and no
    refill leaves a 32-bit half held over."""
    rng = _fresh_rng()
    block = _BlockRows(rng, rows)
    got = []
    for _ in range(max(3, 3 * 2 * _RAW_PIECE // rows + 2)):
        got.append(block._sign().copy())
        m = block.running_sum.size
        if shrink and m > 1:                    # one row stops each step
            block.keep(np.arange(m - 1))
        assert rng.bit_generator.state["has_uint32"] == 0
    got = np.concatenate(got)
    want = 2.0 * _fresh_rng().integers(0, 2, size=got.size,
                                       dtype=np.int32) - 1.0
    assert np.array_equal(got, want)


@pytest.mark.parametrize("skip", [0, 1, 2, 3, 4, 5, 7, 8, 255, 256, 257,
                                  512 * 67 + 3])
def test_cursor_is_a_copy_skip_outputs_ahead(skip):
    """_cursor is a Philox bit generator that draws the raw outputs the
    stream would after skip of them, and leaves the stream it copies where
    it was."""
    rng = _fresh_rng()
    rng.random(512 * 4)                         # whole blocks of 4 outputs
    ahead = _cursor(rng.bit_generator, skip)
    assert isinstance(ahead, np.random.Philox)
    want = _fresh_rng().bit_generator
    want.random_raw(512 * 4 + skip)
    assert np.array_equal(ahead.random_raw(15), want.random_raw(15))
    assert np.array_equal(rng.random(5), _fresh_rng().random(512 * 4 + 5)[-5:])
