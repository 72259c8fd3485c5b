"""Property test: `mu` of two full-rank genomes does not depend on the
frames they are read in, at 9 to 12 regions, where no exhaustive check
reaches.  Rotating either frame leaves each pairing's cost unchanged, and
reflecting either one leaves the least cost over the two relative
orientations unchanged (the two-reference-pair argument in align.py)."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from invdel import sigma_from_frames, solve_pair  # noqa: E402


def cost(f1, f2):
    return solve_pair(sigma_from_frames(f1, f2)).cost


def mu(f1, f2):
    return min(cost(f1, f2), cost(f1, f2[::-1]))


@st.composite
def frame_pairs(draw):
    n = draw(st.integers(9, 12))
    tokens = [f"r{i}" for i in range(n)]
    return draw(st.permutations(tokens)), draw(st.permutations(tokens))


def rotate(frame, k):
    return frame[k:] + frame[:k]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(frames=frame_pairs(), data=st.data())
def test_full_rank_cost_ignores_the_frames(frames, data):
    f1, f2 = frames
    n = len(f1)
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    base = cost(f1, f2)
    assert cost(rotate(f1, i), f2) == base
    assert cost(f1, rotate(f2, j)) == base
    assert cost(f1[::-1], f2[::-1]) == base
    least = mu(f1, f2)
    assert mu(f1[::-1], rotate(f2, j)) == least
    assert mu(rotate(f1, i), f2[::-1]) == least
