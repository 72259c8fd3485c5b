from itertools import combinations, permutations

import pytest

from invdel import (CacheIntegrityError, CapacityError, InvalidArgumentError,
                    PartialPerm, class_cost, enumerate_monoid,
                    get_dclass_graph, monoid_size, solve_pair)
from invdel import cayley
from invdel.cayley import (FORMAT_VERSION, HEADER, LEFT, RIGHT, _compose,
                           _inversion_rows, build_table, class_rank,
                           class_size, class_table, load_table, store_table,
                           table_path)


def test_counts_small():
    assert len(enumerate_monoid(1)) == 2
    assert len(enumerate_monoid(2)) == 7
    assert len(enumerate_monoid(3)) == 34
    assert len(enumerate_monoid(4)) == 209


def test_counts_match_formula():
    for n in range(1, 5):
        assert len(enumerate_monoid(n)) == monoid_size(n)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        enumerate_monoid(9)


def test_deterministic_indexing():
    from invdel.cayley import MonoidEnumeration

    a = MonoidEnumeration(4)
    b = MonoidEnumeration(4)
    assert a.elements == b.elements
    assert a.index == b.index == {row: i for i, row in enumerate(a.elements)}


def test_inversion_products_stay_in_the_closure_and_rank():
    enum = enumerate_monoid(4)
    for g in _inversion_rows(4, 4):
        for row in enum.elements:
            for product in (_compose(g, row), _compose(row, g)):
                assert product in enum.index
                assert product.count(0) == row.count(0)


def test_dclass_graph_requires_m_le_n():
    with pytest.raises(InvalidArgumentError):
        get_dclass_graph(3, 4, 2)
    with pytest.raises(InvalidArgumentError):
        get_dclass_graph(3, 3, 4)


def test_dclass_left_labels_follow_m():
    same = get_dclass_graph(3, 3, 2)
    mixed = get_dclass_graph(3, 2, 2)
    assert same.vertices == mixed.vertices
    # X_2 has the one inversion s_{1;2}; the right edges do not depend on m
    for full, small in zip(same.adjacency, mixed.adjacency):
        assert [e for e in full if e[0] == RIGHT] == [e for e in small if e[0] == RIGHT]
    assert {gi for adj in same.adjacency for side, gi, _ in adj if side == LEFT} == {1, 2, 3}
    assert {gi for adj in mixed.adjacency for side, gi, _ in adj if side == LEFT} == {1}


def test_dclass_full_rank_vertices_take_every_inversion():
    # a move never fixes a full-rank row, so every label leaves the vertex
    for n in (3, 4, 5):
        graph = get_dclass_graph(n, n, n)
        for adj in graph.adjacency:
            assert sorted(gi for side, gi, _ in adj if side == LEFT) == list(range(1, n + 1))
            assert sorted(gi for side, gi, _ in adj if side == RIGHT) == list(range(1, n + 1))
    graph = get_dclass_graph(4, 3, 3)
    checked = 0
    for row, adj in zip(graph.vertices, graph.adjacency):
        if row[3] == 0:  # domain {1, 2, 3}: the left inversions on 3 points all move it
            assert {gi for side, gi, _ in adj if side == LEFT} == {1, 2, 3}
            checked += 1
    assert checked == 24


def test_dclass_vertex_counts():
    from math import comb, factorial

    assert len(get_dclass_graph(4, 4, 0).vertices) == 1
    assert len(get_dclass_graph(4, 4, 4).vertices) == 24
    assert len(get_dclass_graph(4, 4, 2).vertices) == 72
    for r in range(5):
        expected = comb(4, r) ** 2 * factorial(r)
        assert len(get_dclass_graph(4, 4, r).vertices) == expected


def test_dclass_rank_zero_has_no_edges():
    assert get_dclass_graph(4, 4, 0).edge_count == 0


def test_dclass_edges_preserve_rank_and_skip_self_loops():
    for r in range(5):
        graph = get_dclass_graph(4, 3, r)
        for u, adj in enumerate(graph.adjacency):
            for side, gi, v in adj:
                assert side in (LEFT, RIGHT)
                assert v != u
                assert sum(1 for x in graph.vertices[v] if x) == r
                assert 1 <= gi <= (3 if side == LEFT else 4)


def test_dclass_strongly_connected_when_m_equals_n():
    from collections import deque

    for n in (2, 3, 4, 5):
        for r in range(n + 1):
            graph = get_dclass_graph(n, n, r)
            size = len(graph.vertices)
            fwd = [[] for _ in range(size)]
            bwd = [[] for _ in range(size)]
            for u, adj in enumerate(graph.adjacency):
                for _, _, v in adj:
                    fwd[u].append(v)
                    bwd[v].append(u)
            for edges in (fwd, bwd):
                seen = {0}
                queue = deque([0])
                while queue:
                    u = queue.popleft()
                    for v in edges[u]:
                        if v not in seen:
                            seen.add(v)
                            queue.append(v)
                assert len(seen) == size, f"n={n} r={r}"


# -- per-class mu tables -----------------------------------------------------------

def test_rank_follows_enumeration_order():
    for m in range(7):
        for n in range(m, 7):
            for r in range(m + 1):
                ranks = []
                for subset in combinations(range(m), r):
                    for images in permutations(range(1, n + 1), r):
                        row = [0] * m
                        for p, v in zip(subset, images):
                            row[p] = v
                        ranks.append(class_rank(tuple(row), n))
                assert ranks == list(range(class_size(m, n, r))), (m, n, r)


def test_table_equals_search_core_on_every_small_class():
    # every state of every class with m <= n <= 6, in rank order
    for m in range(1, 7):
        for n in range(m, 7):
            for r in range(m + 1):
                table = build_table(m, n, r)
                costs = []
                for subset in combinations(range(m), r):
                    for images in permutations(range(1, n + 1), r):
                        sigma = PartialPerm(m, n, zip((p + 1 for p in subset), images))
                        costs.append(solve_pair(sigma).cost)
                assert list(table) == costs, (m, n, r)


def test_table_rejects_bad_class():
    with pytest.raises(InvalidArgumentError):
        build_table(4, 3, 2)  # m > n
    with pytest.raises(InvalidArgumentError):
        build_table(3, 4, 4)  # r > m


def test_class_cost_capacity():
    nine = PartialPerm(9, 2, {1: 1, 2: 2})
    with pytest.raises(CapacityError):
        class_cost(nine)
    with pytest.raises(CapacityError):
        class_cost(nine.inverse())
    assert class_cost(PartialPerm(9, 2, {1: 2})) == 0  # rank <= 1 needs no table


def _never_build(*args):
    raise AssertionError("a valid cache file was rebuilt")


def test_cache_round_trip(tmp_path):
    table = build_table(3, 4, 2)
    path = store_table(table, 3, 4, 2, tmp_path)
    assert path == table_path(tmp_path, 3, 4, 2)
    assert path.name == "mu_3_4_2.bin"
    assert load_table(tmp_path, 3, 4, 2) == table
    # byte-stable across rebuilds
    data = path.read_bytes()
    assert store_table(build_table(3, 4, 2), 3, 4, 2, tmp_path) == path
    assert path.read_bytes() == data
    assert load_table(tmp_path, 3, 4, 2) == table


def test_cache_rejects_bad_magic(tmp_path, monkeypatch):
    table = build_table(3, 3, 2)
    path = store_table(table, 3, 3, 2, tmp_path)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheIntegrityError, match="bad magic"):
        load_table(tmp_path, 3, 3, 2)
    # the engine rebuilds instead of crashing, and the rebuilt file loads
    assert class_table(3, 3, 2, tmp_path) == table
    monkeypatch.setattr(cayley, "build_table", _never_build)
    assert class_table(3, 3, 2, tmp_path) == table


def test_cache_rejects_truncation_and_param_mismatch(tmp_path):
    table = build_table(4, 4, 3)
    path = store_table(table, 4, 4, 3, tmp_path)
    data = path.read_bytes()
    for cut in (len(data) // 2, 10):  # inside the body, inside the header
        path.write_bytes(data[:cut])
        with pytest.raises(CacheIntegrityError, match="bytes"):
            load_table(tmp_path, 4, 4, 3)
    # a valid file copied under another class's name
    table_path(tmp_path, 3, 4, 3).write_bytes(data)
    with pytest.raises(CacheIntegrityError, match="header"):
        load_table(tmp_path, 3, 4, 3)


def _repack(data, **fields):
    magic, version, m, n, r, crc = HEADER.unpack_from(data)
    values = {"version": version, "crc": crc, **fields}
    return HEADER.pack(magic, values["version"], m, n, r, values["crc"]) + data[HEADER.size:]


CORRUPTIONS = {
    "bad magic": lambda data: b"XXXX" + data[4:],
    "format version": lambda data: _repack(data, version=FORMAT_VERSION + 1),
    "header": lambda data: data[:8] + b"\x07" + data[9:],  # the m field
    "bytes": lambda data: data + b"\x00",
    "CRC": lambda data: data[:-1] + bytes([data[-1] ^ 1]),
}


@pytest.mark.parametrize("reason", CORRUPTIONS)
def test_invalid_cache_file_warns_then_rebuilds(tmp_path, capsys, reason):
    table = build_table(4, 5, 3)
    path = store_table(table, 4, 5, 3, tmp_path)
    path.write_bytes(CORRUPTIONS[reason](path.read_bytes()))
    assert class_table(4, 5, 3, tmp_path) == table
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 1
    assert str(path) in warnings[0] and reason in warnings[0]
    assert load_table(tmp_path, 4, 5, 3) == table


def test_missing_cache_file_is_a_silent_build(tmp_path, capsys):
    assert load_table(tmp_path, 4, 5, 3) is None
    class_table(4, 5, 3, tmp_path)
    assert capsys.readouterr().err == ""


def test_cold_then_warm_cache(tmp_path, monkeypatch):
    first = class_table(4, 4, 3, tmp_path)
    assert table_path(tmp_path, 4, 4, 3).exists()
    monkeypatch.setattr(cayley, "build_table", _never_build)
    assert class_table(4, 4, 3, tmp_path) == first


def test_classes_differing_only_in_m_coexist(tmp_path, monkeypatch):
    small = PartialPerm(5, 6, {1: 2, 2: 1, 3: 4, 5: 3})
    large = PartialPerm(6, 6, {1: 2, 2: 1, 3: 4, 6: 3})
    costs = [class_cost(small, tmp_path), class_cost(large, tmp_path)]
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["mu_5_6_4.bin", "mu_6_6_4.bin"]
    monkeypatch.setattr(cayley, "build_table", _never_build)
    assert [class_cost(small, tmp_path), class_cost(large, tmp_path)] == costs


def test_failed_store_leaves_no_files(tmp_path, monkeypatch):
    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cayley.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        store_table(build_table(3, 3, 2), 3, 3, 2, tmp_path)
    assert list(tmp_path.iterdir()) == []



@pytest.mark.parametrize("sigmas", [
    [PartialPerm(3, 3, {1: 1, 2: 2}), PartialPerm(3, 3, {1: 1})],
    [PartialPerm(3, 3, {1: 1}), PartialPerm(3, 4, {1: 1})],
], ids=["two-ranks", "two-shapes"])
def test_class_costs_refuse_two_classes(sigmas):
    with pytest.raises(InvalidArgumentError, match="one m-by-n rank class"):
        cayley.class_costs(sigmas)


def test_unreadable_cache_path_warns_twice_and_still_returns_the_table(tmp_path, capsys):
    path = table_path(tmp_path, 3, 3, 3)
    path.mkdir()
    assert class_table(3, 3, 3, tmp_path) == build_table(3, 3, 3)
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 2
    assert warnings[0].startswith(f"warning: rebuilding cache file {path}: unreadable")
    assert warnings[1].startswith(f"warning: not caching {path}")
    assert list(tmp_path.iterdir()) == [path] and list(path.iterdir()) == []
