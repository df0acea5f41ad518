"""The states of ``numpy.random.default_rng([seed, index])`` for many rows at
once: SeedSequence's hash in uint32 arithmetic for all rows, then PCG64's
seeding, one 128-bit LCG step (O'Neill 2014), on Python ints."""

import numpy as np


def _uint32_words(n) -> tuple[np.ndarray, np.ndarray]:
    """Integers >= 0 as SeedSequence splits them: (m, w) uint32 words, low first, and counts."""
    n = np.asarray(n, dtype=object)  # Python ints, of any size
    if (n < 0).any():
        raise ValueError("expected non-negative integer")
    w = max(1, -(-int(n.max(initial=0)).bit_length() // 32))
    W = np.stack([n >> 32 * k & 0xFFFFFFFF for k in range(w)], axis=1).astype(np.uint32)
    return W, ((W != 0) * np.arange(1, w + 1)).max(axis=1, initial=1)


def pcg64_states(seeds, indices):
    """The (state, inc) of ``PCG64(SeedSequence([seeds[i], indices[i]]))`` of every row."""
    (S, ns), (I, ni) = _uint32_words(seeds), _uint32_words(indices)
    E = np.pad(S, ((0, 0), (0, max(4 - S.shape[1], I.shape[1]))))  # zeros pad the pool
    E[np.arange(len(S))[:, None], ns[:, None] + np.arange(I.shape[1])] = I
    h, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(v):  # v ^= h; h *= mult; v *= h; v ^= v >> 16, wrapping mod 2**32 as every step
        nonlocal h
        v = (v ^ np.uint32(h)) * np.uint32(h := h * mult & 0xFFFFFFFF)
        return v ^ v >> 16

    def mix(x, y):
        r = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return r ^ r >> 16

    pool = [hashmix(E[:, i]) for i in range(4)]
    for src, dst in ((s, d) for s in range(4) for d in range(4) if s != d):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src, dst in ((s, d) for s in range(4, E.shape[1]) for d in range(4)):  # beyond the pool
        pool[dst] = np.where(src < ns + ni, mix(pool[dst], hashmix(E[:, src])), pool[dst])
    h, mult = 0x8B51F9DD, 0x58F38DED  # generate_state(4, uint64)
    W = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1).astype("<u4").view("<u8")
    for lo in range(0, len(W), 256):  # bounds the Python ints alive at once
        for s1, s0, i1, i0 in W[lo:lo + 256].tolist():  # state = (inc + s) * a + inc, s = s1:s0
            inc = ((i1 << 64 | i0) << 1 | 1) % 2**128
            yield (((s1 << 64 | s0) + inc) * 0x2360ED051FC65DA44385DF649FCCF645 + inc) % 2**128, inc
