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


def seed_array(seeds):
    """The seeds as a 1-D uint64 array; each must be an integer in
    [0, 2^64), the seeds whose streams ``philox_keys`` evaluates."""
    if isinstance(seeds, np.ndarray):
        if seeds.dtype.kind == "u":
            return seeds.astype(np.uint64).ravel()
        seeds = seeds.ravel().tolist()
    # not np.asarray: it turns a list holding an int >= 2^63 into floats
    values = [operator.index(s) for s in seeds]
    if not all(0 <= s < 1 << 64 for s in values):
        raise ValueError("path seeds must lie in [0, 2^64)")
    return np.array(values, dtype=np.uint64)


def derive_seeds(seed, count):
    """[derive_seed(seed, p) for p in range(count)] as a uint64 array."""
    if not 0 <= count <= 1 << 32:
        raise ValueError("count must lie in [0, 2^32]")
    paths = np.arange(count, dtype=np.uint32)
    # the spawn key pads the entropy of SeedSequence(seed, (p,)) to the
    # pool size, so it is [lo, hi, 0, 0, p] for every seed below 2^64
    words = _seed_words(seed_array([seed]).repeat(count)) + [paths]
    return _seed_state(words, 1)[0]


def philox_keys(seeds):
    """(2, paths) uint64 array: column i is the key of
    Philox(SeedSequence(seeds[i])), the bit generator of init_model."""
    return np.array(_seed_state(_seed_words(seed_array(seeds)), 2))


def _mulhilo(m, x):
    """(low, high) 64-bit halves of m * x for a constant m, from 32-bit
    halves so that no product overflows."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _U32
    lo_lo, lo_hi, hi_lo = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
    mid = (lo_lo >> _U32) + (lo_hi & _LO32) + (hi_lo & _LO32)
    high = m_hi * x_hi + (lo_hi >> _U32) + (hi_lo >> _U32) + (mid >> _U32)
    return x * np.uint64(m), high


def philox_words(keys, first_block, blocks):
    """64-bit outputs 4*first_block ... 4*(first_block + blocks) - 1 of the
    Philox4x64-10 stream of each key column, as a (4*blocks, paths) uint64
    array.  Block j is the cipher of counter j + 1: numpy's Philox bumps
    its counter before the first block."""
    k0, k1 = keys[0], keys[1]
    ctr = np.arange(first_block + 1, first_block + 1 + blocks, dtype=np.uint64)
    c0 = np.broadcast_to(ctr[:, None], (blocks, k0.size))
    c1 = c2 = c3 = np.zeros_like(c0)    # counters below 2^64 - 1
    for _ in range(_PHILOX_ROUNDS):
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
    return np.stack((c0, c1, c2, c3), axis=1).reshape(4 * blocks, -1)


def coins(words):
    """The values of ``Generator.integers(0, 2, dtype=np.int8)`` that the
    64-bit outputs ``words`` (rows in stream order) give: bit 7 of each
    byte, low byte first, as an (8 * rows, paths) uint8 array."""
    data = np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8)
    return np.ascontiguousarray((data >> 7).T)


def doubles(words):
    """The values of ``Generator.random`` that ``words`` give, one per
    word: (word >> 11) * 2^-53."""
    out = (words >> _U11).astype(np.float64)
    out *= 2.0 ** -53
    return out

