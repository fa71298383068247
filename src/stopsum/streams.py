"""Counter-based evaluation of numpy's SeedSequence and Philox streams,
for many seeds at once.

``init_model(spec, seed)`` draws from
``Generator(Philox(SeedSequence(seed)))``.  SeedSequence hashes with
constants that do not depend on the data, and Philox4x64-10 output block j
of a key is a pure function of (key, j) (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), so both vectorize over seeds: every
function here works on uint32 or uint64 arrays, which wrap as numpy's C
code does, and gives bit for bit what numpy gives seed by seed.
"""

from __future__ import annotations

import operator

import numpy as np

_SEED_POOL = 4                       # SeedSequence pool size, 32-bit words
_HASH_A = (0x43B0D7E5, 0x931E8875)   # (initial constant, multiplier): mixing
_HASH_B = (0x8B51F9DD, 0x58F38DED)   # the same, for generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)
_U32, _U11 = np.uint64(32), np.uint64(11)


def _hash_constants(init, mult):
    """SeedSequence's hash constant sequence: (value xored in, multiplier)."""
    h = init
    while True:
        nxt = (h * mult) & 0xFFFFFFFF
        yield np.uint32(h), np.uint32(nxt)
        h = nxt


def _seed_state(words, n64):
    """SeedSequence(entropy).generate_state(n64, uint64) for entropy
    ``words``, a list of uint32 arrays (one word per path each, at least
    _SEED_POOL of them): the first n64 outputs, each a uint64 array."""
    consts = _hash_constants(*_HASH_A)

    def hashmix(value):
        xor, mult = next(consts)
        value = (value ^ xor) * mult
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> np.uint32(16))

    pool = [hashmix(w) for w in words[:_SEED_POOL]]
    for src in range(_SEED_POOL):
        for dst in range(_SEED_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_SEED_POOL:]:
        for dst in range(_SEED_POOL):
            pool[dst] = mix(pool[dst], hashmix(w))
    out = []
    for i, (xor, mult) in zip(range(2 * n64), _hash_constants(*_HASH_B)):
        value = (pool[i % _SEED_POOL] ^ xor) * mult
        out.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return [lo | (hi << _U32) for lo, hi in zip(out[::2], out[1::2])]


def _seed_words(seeds):
    """Entropy words of SeedSequence(seed) for uint64 seeds: [lo, hi, 0, 0].
    A seed below 2^32 has the one word [lo], and the pool pads with the
    hash of 0, which is what a zero word hashes to."""
    lo = (seeds & _LO32).astype(np.uint32)
    zero = np.zeros_like(lo)
    return [lo, (seeds >> _U32).astype(np.uint32), zero, zero]


def derive_seeds(seed, count):
    """[derive_seed(seed, p) for p in range(count)] as a uint64 array, for
    an integer seed in [0, 2^64)."""
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must lie in [0, 2^64)")
    if not 0 <= count <= 1 << 32:
        raise ValueError("count must lie in [0, 2^32]")
    paths = np.arange(count, dtype=np.uint32)
    # the spawn key pads the entropy of SeedSequence(seed, (p,)) to the
    # pool size, so it is [lo, hi, 0, 0, p] for every seed below 2^64
    words = _seed_words(np.full(count, seed, dtype=np.uint64)) + [paths]
    return _seed_state(words, 1)[0]


def philox_keys(seeds):
    """(2, paths) uint64 array: column i is the key of
    Philox(SeedSequence(seeds[i])), the bit generator of init_model, for
    ``seeds`` a uint64 array."""
    return np.array(_seed_state(_seed_words(seeds), 2))


def _mulhi(m, x, high, scratch):
    """high = the high 64 bits of m * x for a constant m, from 32-bit
    halves (Hacker's Delight's mulhu) so that no product overflows, with
    ``scratch`` three more arrays of x's shape."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, t, hi_lo = scratch
    np.bitwise_and(x, _LO32, out=x_lo)
    np.right_shift(x, _U32, out=high)               # x_hi
    np.multiply(x_lo, m_hi, out=hi_lo)
    x_lo *= m_lo                                    # lo_lo
    np.multiply(high, m_lo, out=t)                  # lo_hi
    high *= m_hi                                    # hi_hi
    x_lo >>= _U32
    t += x_lo                                       # lo_hi + (lo_lo >> 32)
    np.bitwise_and(t, _LO32, out=x_lo)
    x_lo += hi_lo
    t >>= _U32
    x_lo >>= _U32
    high += t
    high += x_lo


def philox_words(keys, first_block, blocks):
    """64-bit outputs 4*first_block ... 4*(first_block + blocks) - 1 of the
    Philox4x64-10 stream of each key column, as a (4*blocks, paths) uint64
    array.  Block j is the cipher of counter j + 1: numpy's Philox bumps
    its counter before the first block.  Each counter word is a (blocks,
    paths) array that the rounds update in place, with five scratch arrays
    and scalar constants, so that the rounds create no arrays."""
    k0, k1 = keys[0].copy(), keys[1].copy()
    c0 = np.empty((blocks, k0.size), dtype=np.uint64)
    c0[:] = np.arange(first_block + 1, first_block + 1 + blocks,
                      dtype=np.uint64)[:, None]     # counters below 2^64 - 1
    c1, c2, c3, hi0, hi1, *scratch = (np.zeros_like(c0) for _ in range(8))
    w0, w1 = _PHILOX_W
    for _ in range(_PHILOX_ROUNDS):
        _mulhi(_PHILOX_M[0], c0, hi0, scratch)
        _mulhi(_PHILOX_M[1], c2, hi1, scratch)
        c0 *= np.uint64(_PHILOX_M[0])               # lo0
        c2 *= np.uint64(_PHILOX_M[1])               # lo1
        c1 ^= hi1
        c1 ^= k0
        c3 ^= hi0
        c3 ^= k1
        # (c0, c1, c2, c3) = (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0)
        c0, c1, c2, c3 = c1, c2, c3, c0
        k0 += w0
        k1 += w1
    del hi0, hi1, scratch                           # before the output
    return np.stack((c0, c1, c2, c3), axis=1).reshape(4 * blocks, -1)


def coins(words):
    """The values of ``Generator.integers(0, 2, dtype=np.int8)`` that the
    64-bit outputs ``words`` (rows in stream order) give: bit 7 of each
    byte, low byte first, as an (8 * rows, paths) uint8 array."""
    rows, paths = words.shape
    data = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    out = np.empty((rows, 8, paths), dtype=np.uint8)
    np.right_shift(data.reshape(rows, paths, 8).transpose(0, 2, 1), 7, out=out)
    return out.reshape(8 * rows, paths)


def doubles(words):
    """The values of ``Generator.random`` that ``words`` give, one per
    word: (word >> 11) * 2^-53."""
    out = (words >> _U11).astype(np.float64)
    out *= 2.0 ** -53
    return out

