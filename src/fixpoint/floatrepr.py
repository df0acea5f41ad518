"""Python's float repr for whole float64 arrays, computed with numpy.

:func:`repr_rows` formats each row of 2-d float64 arrays exactly as
``", ".join(map(repr, row))`` does.  The digits are the shortest ones that
read back to the same double, the closest to it among those; they come from
Ryu's ``d2d`` (U. Adams, "Ryū: fast float-to-string conversion", PLDI 2018),
whose fixed-width integer arithmetic runs over a whole array at a time.  The
layout is CPython's ``'r'`` format: an exponent iff the decimal point
position is <= -4 or > 16, at least two exponent digits, ``.0`` on integral
values, and ``nan``, ``inf``, ``-inf`` and ``-0.0``.

The text is one fixed-column byte template per float (sign, ``0.`` and up to
three zeros, 17 digit slots each followed by a point slot, the ``0`` of
``.0``, the exponent, the separator) with every unused column NUL; dropping
the NULs and decoding gives the text of a whole chunk at once.
"""

from __future__ import annotations

import functools

import numpy as np

#: floats formatted per chunk, so that one chunk's template stays in cache
CHUNK = 16384

_MASK32 = np.uint64(0xFFFFFFFF)
_ONES = 2**64 - 1
#: 10^0, ..., 10^17
_POW10 = np.array([10**k for k in range(18)], dtype=np.uint64)

#: digit slot numbers of a template
_SLOTS = np.arange(1, 18, dtype=np.int8)


def _byte(c: str, high: int = 0) -> np.uint16:
    """The character c in the low (or high) byte of a template's byte pair."""
    return np.uint16(ord(c) << 8 * high)


@functools.cache
def _exponent_tables():
    """Ryu's constants for each biased exponent E (row 2047, inf and nan,
    repeats E = 1023): the 125-bit multiplier as four 32-bit limbs (4, 2048),
    the product shift j - 96 (j in [118, 125], so the digits come from
    product limbs 3-5), e10, the mask of the q low bits of mv that make vr
    exact (all ones where that test does not apply), 5^q where the q <= 21
    divisibility tests apply (else 0), and whether q <= 1 below 2^54.
    Filled in place, so that no Python object per row outlives its row."""
    limbs = np.empty((4, 2048), dtype=np.uint64)
    shift = np.empty(2048, dtype=np.uint64)
    e10 = np.empty(2048, dtype=np.int64)
    tzmask = np.full(2048, _ONES, dtype=np.uint64)
    pow5 = np.zeros(2048, dtype=np.uint64)
    low_q = np.zeros(2048, dtype=bool)
    for row in range(2048):
        E = row if row < 2047 else 1023
        e2 = max(E, 1) - 1077  # 1023 bias + 52 mantissa bits + 2 bits of bounds
        if e2 >= 0:
            q = ((e2 * 78913) >> 18) - (e2 > 3)  # log10(2^e2), less one
            k = 125 + ((q * 1217359) >> 19)  # 125 + pow5bits(q) - 1
            mul, j = (1 << k) // 5**q + 1, k + q - e2
            e10[row] = q
            if q <= 21:
                pow5[row] = 5**q
        else:
            q = ((-e2 * 732923) >> 20) - (-e2 > 1)  # log10(5^-e2), less one
            i = -e2 - q
            bits = ((i * 1217359) >> 19) + 1  # pow5bits(i)
            mul, j = 5**i >> (bits - 125) if bits > 125 else 5**i << (125 - bits), q - bits + 125
            e10[row] = q + e2
            if q < 63:
                tzmask[row] = (1 << q) - 1
            low_q[row] = q <= 1
        for t in range(4):
            limbs[t, row] = (mul >> (32 * t)) & 0xFFFFFFFF
        shift[row] = j - 96
    return limbs, shift, e10, tzmask, pow5, low_q


def _mul_shift(m: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray:
    """floor(m * mul / 2^(96 + s)) for m < 2^55 (any leading shape) and mul
    given as its four 32-bit limbs b (4, n), every step in uint64: a 32-bit
    limb times another plus two carries stays below 2^64."""
    m0, m1 = m & _MASK32, m >> 32
    t = m0 * b[0]  # the row of m0: limbs r1..r4 above the dropped lowest one
    t >>= 32
    u = m0 * b[1]
    t += u
    r1 = t & _MASK32
    t >>= 32
    t += np.multiply(m0, b[2], out=u)
    r2 = t & _MASK32
    t >>= 32
    t += np.multiply(m0, b[3], out=u)
    r3 = t & _MASK32
    t >>= 32
    np.multiply(m1, b[0], out=u)  # the row of m1, one limb up, plus r1..r4
    u += r1
    u >>= 32
    u += r2
    u += np.multiply(m1, b[1], out=r1)
    u >>= 32
    u += r3
    u += np.multiply(m1, b[2], out=r1)
    r3 = u & _MASK32  # product limb 3
    u >>= 32
    u += t
    u += np.multiply(m1, b[3], out=r1)  # product limbs 4 and 5, below 2^53
    u <<= 32 - s
    r3 >>= s
    u |= r3
    return u


def _shortest(E: np.ndarray, mant: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's d2d for finite nonzero doubles with biased exponents E and
    mantissa fields mant (uint64): the shortest digits as an integer, and
    the power of ten they are scaled by."""
    limbs, shift, e10, tzmask, pow5, low_q = _exponent_tables()
    b, s, low_q = limbs.take(E, axis=1), shift.take(E), low_q.take(E)
    m2 = mant | ((E != 0).astype(np.uint64) << 52)
    even = (m2 & 1) == 0
    mv = m2 << 2
    mm_shift = ((mant != 0) | (E <= 1)).astype(np.uint64)
    vr, vp, vm = _mul_shift(np.stack([mv, mv + 2, mv - 1 - mm_shift]), b, s)
    exponent = e10.take(E)

    # the cases where vr or vm is exact, so digits may only be dropped as zeros
    vr_exact = (mv & tzmask.take(E)) == 0
    vm_exact = low_q & even & (mm_shift == 1)
    vp -= (low_q & ~even).astype(np.uint64)
    big = np.flatnonzero(pow5.take(E))
    if big.size:
        p = pow5[E[big]]
        mvb, evb = mv[big], even[big]
        five = mvb % 5 == 0
        vr_exact[big] = five & (mvb % p == 0)
        vm_exact[big] = ~five & evb & ((mvb - 1 - mm_shift[big]) % p == 0)
        vp[big] -= (~five & ~evb & ((mvb + 2) % p == 0)).astype(np.uint64)
    digits, removed = _drop_digits(vr, vp, vm, vr_exact, vm_exact, even)
    return digits, exponent + removed


def _drop_digits(vr, vp, vm, vr_exact, vm_exact, even):
    """Ryu's digit removal, in its general form, of which its common case
    is a shortcut: drop the most digits that leave vp above vm, then, where
    vm is exact, the zeros vm ends in, tracking whether the digits dropped
    from vr and vm were zeros; round vr by its dropped digits, a tie to
    even.  Returns the digits and how many were dropped.  Both counts are
    the largest r with a property that holds for every smaller r, so each
    is found greedily, trying 16, 8, 4, 2 and 1 more digits in turn."""
    removed = np.zeros(len(vr), dtype=np.int64)
    last = np.zeros(len(vr), dtype=np.uint64)  # the last digit dropped from vr
    for phase in ("vp above vm", "zeros of an exact vm"):
        for k in (16, 8, 4, 2, 1):
            p, p1 = 10**k, 10 ** (k - 1)
            qp, qm = vp // p, vm // p
            vm_zeros = vm - qm * p == 0
            go = qp > qm if phase == "vp above vm" else vm_exact & vm_zeros
            if not go.any():
                continue
            qr = vr // p1
            vm_exact &= ~go | vm_zeros
            vr_exact &= ~go | ((last == 0) & (vr - qr * p1 == 0))
            last = np.where(go, qr % 10, last)
            vr, vp, vm = np.where(go, qr // 10, vr), np.where(go, qp, vp), np.where(go, qm, vm)
            removed += go * k
    last = np.where(vr_exact & (last == 5) & (vr % 2 == 0), 4, last)
    return vr + (((vr == vm) & ~(even & vm_exact)) | (last >= 5)), removed


def _text(v: np.ndarray, end: np.ndarray) -> str:
    """The text of a 1-d float64 array: each float's repr followed by ", "
    or, where end marks the last float of a row, "\n".

    Each float's template is a column of a (24, len(v)) array of byte pairs,
    so each pair of slots is written once for all floats; one transposing
    copy lays the templates end to end, and dropping the NULs leaves the text."""
    bits = v.view(np.uint64)
    E = ((bits >> 52) & 0x7FF).astype(np.intp)
    mant = bits & np.uint64((1 << 52) - 1)
    neg = (bits >> 63).astype(bool)
    nonfinite = E == 2047
    zero = (E == 0) & (mant == 0)
    special = nonfinite | zero  # formatted as 1.0000000000000002, which takes Ryu's common case
    digits, exponent = _shortest(np.where(special, 1023, E), np.where(special, 1, mant))
    digits[zero], exponent[zero] = 0, 0
    n = np.maximum(np.searchsorted(_POW10, digits, side="right"), 1)
    decpt = n + exponent  # the value is 0.d1d2...dn * 10^decpt
    fixed = (decpt > -4) & (decpt <= 16)
    sci, lead = ~fixed, fixed & (decpt <= 0)

    P = np.empty((24, len(v)), dtype="<u2")  # low byte first
    P[0] = neg * _byte("-") | lead * _byte("0", 1)
    P[1] = lead * _byte(".") | (lead & (decpt < 0)) * _byte("0", 1)
    P[2] = (lead & (decpt < -1)) * _byte("0") | (lead & (decpt < -2)) * _byte("0", 1)
    L = digits * _POW10.take(17 - n)  # the digits left-aligned in 17 places
    hi = L // 10**8
    H = np.stack([hi, (L - hi * 10**8) * 10]).astype(np.uint32)  # slots 1-9, 10-17 and a 0
    for k in range(8, -1, -1):
        q = H // 10
        P[3 + k], P[12 + k] = H - q * 10  # P[20] gets the 0, overwritten below
        H = q
    # the digit slots used (with an integral value's trailing zeros), and the one the point follows
    used = np.where(fixed, np.maximum(n, decpt), n).astype(np.int8)
    point = np.where(fixed, decpt, n > 1).astype(np.int8)
    P[3:20] += _byte("0")
    P[3:20] *= _SLOTS[:, None] <= used
    P[3:20] |= (_SLOTS[:, None] == point) * _byte(".", 1)
    P[20] = (fixed & (decpt >= n)) * _byte("0") | sci * _byte("e", 1)
    x = np.abs(decpt - 1).astype(np.uint16)
    P[21] = (sci * np.where(decpt < 1, _byte("-"), _byte("+"))
             | (sci & (x >= 100)) * ((x // 100 + _byte("0")) << 8))
    P[22] = sci * ((x // 10 % 10 + _byte("0")) | (x % 10 + _byte("0")) << 8)
    P[23] = np.where(end, _byte("\n"), _byte(",") | _byte(" ", 1))

    cols = np.flatnonzero(nonfinite)
    if cols.size:
        nan = mant[cols] != 0
        P[:23, cols] = 0
        P[0, cols] = (neg[cols] & ~nan) * _byte("-")
        for pair, (a, b) in enumerate(("ni", "an", "nf")):
            P[3 + pair, cols] = np.where(nan, _byte(a), _byte(b))
    return P.T.tobytes().translate(None, b"\0").decode("ascii")


def _chunk_rows(pieces: list[np.ndarray]) -> list[str]:
    """The row strings of 2-d float64 arrays, formatted as one chunk."""
    v = np.concatenate([p.ravel() for p in pieces])
    end = np.concatenate([np.arange(p.size) % p.shape[1] == p.shape[1] - 1 for p in pieces])
    return _text(v, end)[:-1].split("\n")


def repr_rows(*arrays: np.ndarray) -> list[list[str]]:
    """For each 2-d array, its rows as ``", ".join(map(repr, row))``: that is
    ``str(a.tolist())`` without the outer brackets, split at "], [".  The
    arrays are formatted together, whole rows of about CHUNK floats at a
    time, so the kernel's fixed cost is paid once per chunk, not per array."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    rows: list[str] = []
    batch: list[np.ndarray] = []
    for a in arrays:
        m, d = a.shape
        if d == 0:  # rows of no floats have no text to make
            continue
        step = max(1, CHUNK // d)
        for i in range(0, m, step):
            if batch and sum(p.size for p in batch) + a[i:i + step].size > CHUNK:
                rows += _chunk_rows(batch)
                batch = []
            batch.append(a[i:i + step])
    if batch:
        rows += _chunk_rows(batch)
    out, start = [], 0
    for a in arrays:
        m, d = a.shape
        out.append(rows[start:start + m] if d else [""] * m)
        start += m if d else 0
    return out
