"""The alignment cost by circle decomposition, an oracle that shares no
code with the solver's routes.

Left moves act only on the first genome's circle and right moves only on
the second's, so `mu(sigma)` is the least over cyclic orders pi of the
shared regions of D1(pi) + D2(pi).  D_i(pi) is the breadth-first distance,
among circle i's own arrangements, from its start to the nearest
arrangement whose shared labels read pi clockwise; private regions are
blanks.  Circle 1 puts label sigma(i) at position i, circle 2 label j at
position j.  The moves are written out here; nothing comes from
`invdel.align` or `invdel.cayley`.
"""
from invdel import PartialPerm, all_partial_perms, solve_pair

BLANK = 0


def circular_pairs(size):
    """The circularly adjacent position pairs: none at size 1, one at 2."""
    if size == 1:
        return []
    if size == 2:
        return [(0, 1)]
    return [(i, (i + 1) % size) for i in range(size)]


def cyclic_order(arrangement):
    """The shared labels in clockwise order, turned to start at the least."""
    labels = [v for v in arrangement if v != BLANK]
    if not labels:
        return ()
    k = labels.index(min(labels))
    return tuple(labels[k:] + labels[:k])


def order_distances(start):
    """The least number of moves from `start` to an arrangement of each
    cyclic order, by breadth-first search over the circle's arrangements."""
    pairs = circular_pairs(len(start))
    best = {cyclic_order(start): 0}
    seen = {start}
    layer, depth = [start], 0
    while layer:
        depth += 1
        nxt = []
        for arrangement in layer:
            for a, b in pairs:
                moved = list(arrangement)
                moved[a], moved[b] = moved[b], moved[a]
                moved = tuple(moved)
                if moved not in seen:
                    seen.add(moved)
                    nxt.append(moved)
                    best.setdefault(cyclic_order(moved), depth)
        layer = nxt
    return best


def decomposition_mu(sigma):
    circle1 = tuple(sigma.image_row)
    image = set(circle1)
    circle2 = tuple(j if j in image else BLANK for j in range(1, sigma.n + 1))
    d1, d2 = order_distances(circle1), order_distances(circle2)
    return min(d1[pi] + d2[pi] for pi in d1.keys() & d2.keys())


def test_decomposition_matches_the_solver_on_every_small_pairing():
    checked = 0
    for m in range(1, 6):
        for n in range(1, 6):
            for sigma in all_partial_perms(m, n):
                assert decomposition_mu(sigma) == solve_pair(sigma).cost, sigma
                checked += 1
    assert checked == 3384


def test_decomposition_matches_the_solver_at_six_and_seven_regions():
    from hypothesis import given, settings, strategies as st

    @st.composite
    def pairings(draw):
        m, n = draw(st.integers(6, 7)), draw(st.integers(6, 7))
        r = draw(st.integers(0, min(m, n)))
        domain = draw(st.permutations(range(1, m + 1)))[:r]
        images = draw(st.permutations(range(1, n + 1)))[:r]
        return PartialPerm(m, n, zip(domain, images))

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(pairings())
    def check(sigma):
        assert decomposition_mu(sigma) == solve_pair(sigma).cost, sigma

    check()
