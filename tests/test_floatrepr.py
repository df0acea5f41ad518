"""The array float formatter against Python's own repr, float by float."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fixpoint.floatrepr import CHUNK, layout, templates


def repr_rows(*arrays: np.ndarray) -> list[list[str]]:
    """For each 2-d array, its rows as the kernel lays them out with ", " between floats."""
    return [layout(templates(a), sep=", ", each_row=True) for a in arrays]


def reference_rows(a: np.ndarray) -> list[str]:
    """What the kernel must produce: each row as ``", ".join(map(repr, row))``."""
    return [", ".join(repr(float(t)) for t in row) for row in a]


def assert_matches_repr(v) -> None:
    v = np.asarray(v, dtype=np.float64).reshape(-1, 1)
    (got,) = repr_rows(v)
    want = reference_rows(v)
    bad = [(w, g) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:10]


def edge_values() -> list[float]:
    smallest_normal = 2.0**-1022
    out = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
           5e-324, np.nextafter(smallest_normal, 0.0), smallest_normal, 1.7976931348623157e308,
           1e-4, 1e-5, 9.999999999999999e-05, 1e15, 1e16, 1e17]
    for e in range(-1074, 1024):
        p = math.ldexp(1.0, e)
        out += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
    for e in range(-323, 309):
        p = float(f"1e{e}")
        out += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf)]
    out += [float(k) for k in range(-2000, 2001)]
    out += [k / 1000 for k in range(-2000, 2001)]
    return out


def test_edge_values_match_repr():
    v = np.array(edge_values())
    assert_matches_repr(np.concatenate([v, -v]))
    assert repr_rows(np.array([[-math.nan, math.nan, -0.0]])) == [["nan, nan, -0.0"]]


def test_seeded_bit_patterns_match_repr():
    bits = np.random.default_rng(15).integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    assert_matches_repr(bits.view(np.float64))


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.integers(0, 300), elements=st.floats()))
def test_hypothesis_floats_match_repr(v):
    assert_matches_repr(v)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=300))
def test_hypothesis_bit_patterns_match_repr(bits):
    assert_matches_repr(np.array(bits, dtype=np.uint64).view(np.float64))


SHAPES = [(0, 3), (3, 0), (1, 1), (5, 8), (CHUNK // 3 + 7, 3), (2, CHUNK + 5), (4, 2)]


@pytest.mark.parametrize("shape", SHAPES)
def test_rows_are_str_of_tolist_without_brackets(shape):
    # the kernel's chunks split the floats anywhere, rows longer than a chunk included
    a = np.random.default_rng(3).standard_normal(shape) * 10.0 ** (np.arange(shape[1]) % 40 - 20)
    assert repr_rows(a) == [reference_rows(a)]
    if a.size:
        assert "[" + "], [".join(repr_rows(a)[0]) + "]" == str(a.tolist())[1:-1]


def test_arrays_formatted_together_equal_each_alone():
    # arrays of several widths, one after another; the empty ones keep their place
    rng = np.random.default_rng(4)
    arrays = [rng.standard_normal(shape) for shape in SHAPES + SHAPES[::-1]]
    assert repr_rows(*arrays) == [reference_rows(a) for a in arrays]
    assert repr_rows() == []


@pytest.mark.parametrize("extra", [None, 4503599627370498.0, 3.1e22])
def test_exact_vm_phase_is_skipped_only_where_no_float_takes_it(extra, monkeypatch):
    # digit removal drops an exact vm's trailing zeros in a phase of its own,
    # which it skips when no float of the chunk has an exact vm: 2^52 + 2 has
    # one until the first phase, 3.1e22 one through both
    from fixpoint import floatrepr

    drop, exact = floatrepr._drop_digits, []

    def spy(vr, vp, vm, vr_exact, vm_exact, even):
        exact.append(bool(vm_exact.any()))
        out = drop(vr, vp, vm, vr_exact, vm_exact, even)
        exact.append(bool(vm_exact.any()))  # what the second phase starts with
        return out

    monkeypatch.setattr(floatrepr, "_drop_digits", spy)
    scales = 10.0 ** np.arange(-20, 10).repeat(34)[:1000]
    v = np.random.default_rng(5).standard_normal(1000) * scales
    if extra is not None:
        v = np.append(v, extra)
    assert_matches_repr(v)
    assert exact == {None: [False, False], 4503599627370498.0: [True, False],
                     3.1e22: [True, True]}[extra]
