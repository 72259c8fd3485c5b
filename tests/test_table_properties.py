"""Property test: the tests' class-table lookup equals the search core's
cost on random pairings with m, n <= 6."""
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from invdel import PartialPerm, solve_pair  # noqa: E402

from class_tables import class_cost  # noqa: E402


@st.composite
def pairings(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, min(m, n)))
    domain = draw(st.permutations(range(1, m + 1)))[:r]
    images = draw(st.permutations(range(1, n + 1)))[:r]
    return PartialPerm(m, n, zip(domain, images))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(sigma=pairings())
def test_table_lookup_equals_search(sigma):
    assert class_cost(sigma) == solve_pair(sigma).cost
