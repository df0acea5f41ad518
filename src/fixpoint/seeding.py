"""The states of ``numpy.random.default_rng([seed, index])`` for many rows at
once: SeedSequence's hash in uint32 arithmetic, then PCG64's seeding, one
128-bit LCG step (O'Neill 2014), in wrapping uint64 arithmetic."""

import numpy as np


def _hashes(h: int, mult: int, n: int) -> np.ndarray:
    """SeedSequence's hash constant before and after each of its first n hashmix calls from h."""
    return np.array([h * pow(mult, k, 2**32) % 2**32 for k in range(n + 1)], np.uint32)


_POOL_HASHES = _hashes(0x43B0D7E5, 0x931E8875, 64)  # the pool's 16 calls, then 4 a word beyond it
_STATE_HASHES = _hashes(0x8B51F9DD, 0x58F38DED, 8)  # generate_state(4, uint64)
_LOW, _A_HI, _A_LO = np.uint64(2**32 - 1), np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_A_LO_LIMBS = np.array([[0x9FCCF645], [0x4385DF64]], np.uint64)  # a's low word, low limb first


def _uint32_words(n) -> tuple[np.ndarray, np.ndarray]:
    """Integers >= 0 as SeedSequence splits them: (m, w) uint32 words, low first, and counts."""
    a = np.asarray(n)
    n = a if a.dtype.kind in "iu" else np.asarray(n, dtype=object)  # Python ints past 64 bits
    if (n < 0).any():
        raise ValueError("expected non-negative integer")
    w = max(1, -(-int(n.max(initial=0)).bit_length() // 32))
    W = np.stack([n >> 32 * k & 0xFFFFFFFF for k in range(w)], axis=1).astype(np.uint32)
    return W, ((W != 0) * np.arange(1, w + 1)).max(axis=1, initial=1)


def _seeding_step(V: np.ndarray) -> np.ndarray:
    """Rows (s_hi, s_lo, i_hi, i_lo) of uint64 words to (state_hi, state_lo, inc_hi, inc_lo):
    inc = 2i + 1 and state = (s + inc)a + inc mod 2**128, the low words' product by 32-bit limbs."""
    s_hi, s_lo, i_hi, i_lo = V.T
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    t_lo = s_lo + inc_lo
    t_hi = s_hi + inc_hi + (t_lo < inc_lo)
    p = np.stack([t_lo & _LOW, t_lo >> 32])[:, None, :] * _A_LO_LIMBS  # p[i, j]: limb i times j
    mid = (p[0, 0] >> 32) + (p[0, 1] & _LOW) + (p[1, 0] & _LOW)
    hi = p[1, 1] + (p[0, 1] >> 32) + (p[1, 0] >> 32) + (mid >> 32) + t_lo * _A_HI + t_hi * _A_LO
    lo = t_lo * _A_LO + inc_lo
    return np.stack([hi + inc_hi + (lo < inc_lo), lo, inc_hi, inc_lo], axis=1)


def pcg64_states(seeds, indices):
    """The (state, inc) of ``PCG64(SeedSequence([seeds[i], indices[i]]))`` of every row."""
    (S, ns), (I, ni) = _uint32_words(seeds), _uint32_words(indices)
    E = np.concatenate([S, np.zeros((len(S), max(4 - S.shape[1], I.shape[1])), np.uint32)], axis=1)
    E[np.arange(len(S))[:, None], ns[:, None] + np.arange(I.shape[1])] = I  # zeros pad the pool
    H = _POOL_HASHES if E.shape[1] <= 16 else _hashes(0x43B0D7E5, 0x931E8875, 4 * E.shape[1])

    def hashmix(v, h):  # v ^= h; h *= mult; v *= h; v ^= v >> 16 through the constants h, mod 2**32
        v = (v ^ h[:-1]) * h[1:]
        return v ^ v >> 16

    def mix(x, y):
        r = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return r ^ r >> 16

    pool = hashmix(E[:, :4], H[:5])
    for src, dst in enumerate([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]):  # into the three others
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src, None], H[4 + 3 * src:8 + 3 * src]))
    for src in range(4, E.shape[1]):  # each word beyond the pool into all four, in its rows
        mixed = mix(pool, hashmix(E[:, src, None], H[4 * src:4 * src + 5]))
        pool = np.where((src < ns + ni)[:, None], mixed, pool)
    V = hashmix(pool[:, [0, 1, 2, 3, 0, 1, 2, 3]], _STATE_HASHES).astype("<u4", order="C").view("<u8")
    for lo in range(0, len(V), 256):  # bounds the work arrays and the Python ints alive at once
        for s1, s0, i1, i0 in _seeding_step(V[lo:lo + 256]).tolist():
            yield s1 << 64 | s0, i1 << 64 | i0
