"""Python's float repr for whole float64 arrays, computed with numpy.

:func:`templates` and :func:`layout` with ``sep=", "`` format each row of a
2-d float64 array as ``", ".join(map(repr, row))`` does.  The digits are
the shortest ones that read back to the same double, the closest to it
among those; they come from Ryu's ``d2d`` (U. Adams, "Ryū: fast
float-to-string conversion", PLDI 2018), whose fixed-width integer
arithmetic runs over a whole array at a time.  The layout is CPython's
``'r'`` format: an exponent iff the decimal point position is <= -4 or
> 16, at least two exponent digits, ``.0`` on integral values, and ``nan``,
``inf``, ``-inf`` and ``-0.0``.

Each float gets one fixed-column byte field (:func:`templates`), every
unused column NUL; :func:`layout` lays a grid of fields out with a file's
separators and spelling of nan and inf, and dropping the NULs and decoding
gives its text: the fields are computed once and laid out for each file.
"""

from __future__ import annotations

import functools

import numpy as np

#: floats formatted per chunk, so that one chunk's template stays in cache
CHUNK = 8192

_MASK32 = np.uint64(0xFFFFFFFF)
_ONES = 2**64 - 1
#: 10^0, ..., 10^17
_POW10 = np.array([10**k for k in range(18)], dtype=np.uint64)

#: bytes of a float's field: sign, ``0.`` and up to three zeros, 18 slots
#: for 17 digits and the point among them, the ``0`` of ``.0``, the exponent
FIELD = 30
#: the numbers of a field's 18 slots
_SLOTS = np.arange(18)[:, None]

#: the place values of a row number's digits, and the least number that shows each
_TENS = 10 ** np.arange(18, -1, -1)
_SHOWN = np.where(_TENS > 1, _TENS, 0)

#: how nan and inf are spelled: by repr (and trace.csv), and by the json module
REPR, JSON = ("nan", "inf"), ("NaN", "Infinity")


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
        # a flag that no float has stays False: its updates are skipped
        track_vm, track_vr = vm_exact.any(), vr_exact.any()
        if phase != "vp above vm" and not track_vm:
            break  # every go of this phase would be False
        for k in (16, 8, 4, 2, 1):
            p, p1 = 10**k, 10 ** (k - 1)
            qp, qm = vp // p, vm // p
            vm_zeros = vm - qm * p == 0 if track_vm else None
            go = qp > qm if phase == "vp above vm" else vm_exact & vm_zeros
            if not go.any():
                continue
            qr = vr // p1
            if track_vm:
                vm_exact &= ~go | vm_zeros
            if track_vr:
                vr_exact &= ~go | ((last == 0) & (vr - qr * p1 == 0))
            last = np.where(go, qr % 10, last)
            vr, vp, vm = np.where(go, qr // 10, vr), np.where(go, qp, vp), np.where(go, qm, vm)
            removed += go * k
    last = np.where(vr_exact & (last == 5) & (vr % 2 == 0), 4, last)
    return vr + (((vr == vm) & ~(even & vm_exact)) | (last >= 5)), removed


def _fields(v: np.ndarray, F: np.ndarray) -> None:
    """Write the field of each float of a 1-d float64 array into the rows of
    F (len(v), FIELD): built as the columns of a (FIELD, len(v)) array, each
    slot written once for all floats, then transposed."""
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

    P = np.empty((FIELD, len(v)), dtype=np.uint8)
    P[0] = neg * ord("-")
    P[1], P[2] = lead * ord("0"), lead * ord(".")
    P[3:6] = (lead & (decpt < np.array([[0], [-1], [-2]]))) * ord("0")  # a zero for each place
    L = digits * _POW10.take(17 - n)  # the digits left-aligned in 17 places
    hi = L // 10**8
    H = np.stack([hi, (L - hi * 10**8) * 10]).astype(np.uint32)  # digits 1-9, 10-17 and a 0
    D = P[6:24]  # the 18 slots, first with the digits in order
    for k in range(8, -1, -1):
        q = H // 10
        D[k], D[9 + k] = H - q * 10
        H = q
    # the digits used (with an integral value's trailing zeros), and the slot of the point
    D += ord("0")
    D *= _SLOTS < np.where(fixed, np.maximum(n, decpt), n)
    point = np.where(fixed, np.where(decpt > 0, decpt, 18), np.where(n > 1, 1, 18))
    np.copyto(P[7:24], D[:-1], where=_SLOTS[1:] > point)  # the digits after the point, shifted
    np.copyto(P[6:24], ord("."), where=_SLOTS == point)
    P[24] = (fixed & (decpt >= n)) * ord("0")
    x = np.abs(decpt - 1)
    P[25], P[26] = sci * ord("e"), sci * np.where(decpt < 1, ord("-"), ord("+"))
    P[27] = (sci & (x >= 100)) * (x // 100 + ord("0"))
    P[28], P[29] = sci * (x // 10 % 10 + ord("0")), sci * (x % 10 + ord("0"))

    cols = np.flatnonzero(nonfinite)
    if cols.size:
        nan = mant[cols] != 0
        P[:, cols] = 0
        P[0, cols] = (neg[cols] & ~nan) * ord("-")
        P[6:9, cols] = np.where(nan, np.frombuffer(b"nan", np.uint8)[:, None],
                                np.frombuffer(b"inf", np.uint8)[:, None])
    F[:] = P.T


def templates(a: np.ndarray) -> np.ndarray:
    """The (m, d, FIELD) fields of a 2-d float64 array, CHUNK floats at a
    time so that the kernel's work arrays stay bounded."""
    v = np.ascontiguousarray(a, dtype=np.float64).reshape(-1)
    F = np.empty((v.size, FIELD), dtype=np.uint8)
    for i in range(0, v.size, CHUNK):
        _fields(v[i:i + CHUNK], F[i:i + CHUNK])
    return F.reshape(*np.shape(a), FIELD)


def layout(F: np.ndarray, sep: str = "", end: str = "", prefix: str = "",
           spelling: tuple[str, str] = REPR, index: int | None = None,
           each_row: bool = False) -> str | list[str]:
    """The text of fields F (m, d, FIELD), or each row's if each_row: a row
    is its number (counted from ``index``, if given), prefix, fields joined
    by sep, and end, laid out as one byte template with NULs dropped;
    nan and inf are spelled as ``spelling`` says."""
    m, d, _ = F.shape
    if not m:
        return [] if each_row else ""
    s, e = sep.encode(), end.encode().ljust(len(sep) if d else 0, b"\0")
    width = 0 if index is None else len(str(index + m - 1))
    head = b"\0" * width + prefix.encode()
    row = head + s.join([b"\0" * FIELD] * d) + e
    text = bytearray(row) * m
    fields = np.ndarray((m, d, FIELD), np.uint8, text, len(head), (len(row), FIELD + len(s), 1))
    fields[:] = F
    if spelling != REPR and b"n" in text:  # no finite field has an n, nan and inf do
        bad = np.nonzero(F[..., 6] > ord("9"))  # a letter where a finite float has its first digit
        if bad[0].size:
            nan = F[..., 7][bad] == ord("a")
            names = [np.frombuffer(t.encode().ljust(8, b"\0"), dtype=np.uint8) for t in spelling]
            fields[bad + (slice(6, 14),)] = np.where(nan[:, None], *names)
    out = np.frombuffer(text, dtype=np.uint8).reshape(m, len(row))
    if width:
        k = np.arange(index, index + m)[:, None]
        out[:, :width] = (k // _TENS[-width:] % 10 + ord("0")) * (k >= _SHOWN[-width:])
    ends = np.count_nonzero(out, axis=1).cumsum().tolist() if each_row else []
    text = text.translate(None, b"\0").decode("ascii")
    return [text[a:b] for a, b in zip([0, *ends], ends)] if each_row else text

