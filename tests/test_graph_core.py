import json
import random
from itertools import combinations, permutations

import pytest

from truemper.basic import is_chordless_graph
from truemper.gen import random_tf_chordless
from truemper.graph import (MAX_NODES, EdgeListParseError, Graph, _hole,
                            biconnected_blocks, bits, cliques, components,
                            components_masks, find_claw, find_diamond,
                            format_edge_list, from_graph6, graph_from_json,
                            graph_json,
                            hole_order, induced_subgraph, is_clique_graph,
                            is_chordless_path_sequence, is_connected,
                            is_hole_graph, is_triangle_free, mask_of,
                            parse_edge_list, path_order, walk)

from util import (all_graphs, assert_revalidates, gnp_graphs,
                  graph_from_bits, is_isomorphic, random_graph,
                  reference_biconnected_blocks, reference_find_claw,
                  reference_find_diamond, small_graphs,
                  tf_chordless_line_graphs)

C5 = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
K4 = Graph.from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


class TestFromEdgeList:
    def test_cycle_degrees(self):
        assert all(C5.degree(v) == 2 for v in range(5))

    def test_empty_graph(self):
        g = Graph.from_edge_list(0, [])
        assert g.n == 0 and g.m == 0

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edge_list(3, [(0, 1), (0, 1)])
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edge_list(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edge_list(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edge_list(3, [(0, 3)])

    def test_row_count_must_match_node_count(self):
        with pytest.raises(ValueError, match="adjacency rows"):
            Graph(2, [2, 1, 0])
        with pytest.raises(ValueError, match="adjacency rows"):
            Graph(3, [2, 1])

    def test_negative_node_refused(self):
        # edge 1-2 only: a negative id must not read node 2 or 1 from the end
        g = Graph.from_edge_list(3, [(1, 2)])
        for query in (lambda: g.has_edge(-1, 1), lambda: g.has_edge(1, -1),
                      lambda: g.neighbors(-1), lambda: g.degree(-1),
                      lambda: g.adj_mask(-1)):
            with pytest.raises(IndexError, match="node -1 not in graph"):
                query()
        with pytest.raises(IndexError, match="node -2 not in graph"):
            g.neighbors(-2)

    def test_upper_range_node_refused(self):
        # either end of has_edge, and every row query, names the node
        g = Graph.from_edge_list(3, [(1, 2)])
        for query, bad in ((lambda: g.has_edge(0, 3), 3),
                           (lambda: g.has_edge(3, 0), 3),
                           (lambda: g.has_edge(4, 7), 4),
                           (lambda: g.adj_mask(3), 3),
                           (lambda: g.degree(5), 5),
                           (lambda: g.neighbors(3), 3)):
            with pytest.raises(IndexError, match=f"node {bad} not in graph"):
                query()
        assert g.has_edge(2, 1) and not g.has_edge(0, 2)


class TestInducedSubgraph:
    def test_k4_to_triangle(self):
        sub, idmap = induced_subgraph(K4, {0, 1, 2})
        assert sub.n == 3 and sub.m == 3
        assert idmap == (0, 1, 2)

    def test_c5_to_path(self):
        sub, _ = induced_subgraph(C5, {0, 1, 2})
        assert sub.m == 2 and sorted(sub.degree(v) for v in range(3)) == [1, 1, 2]

    def test_empty_selection(self):
        sub, idmap = induced_subgraph(C5, set())
        assert sub.n == 0 and idmap == ()

    def test_full_selection_identity(self):
        for g in (C5, K4):
            sub, idmap = induced_subgraph(g, range(g.n))
            assert sub == g and idmap == tuple(range(g.n))

    def test_out_of_range_node_named(self):
        for nodes in ({0, 7, 9}, {-2, 1, 8}):
            with pytest.raises(ValueError, match=f"node {min(nodes - set(range(5)))} "):
                induced_subgraph(C5, nodes)

    def test_subgraphs_revalidate(self):
        rng = random.Random(41)
        for g in gnp_graphs(42, 200, 0, 12):
            sub, _ = induced_subgraph(
                g, rng.sample(range(g.n), rng.randint(0, g.n)))
            assert_revalidates(sub)


class TestConnectivity:
    def test_two_disjoint_edges(self):
        g = Graph.from_edge_list(4, [(0, 1), (2, 3)])
        assert len(components(g)) == 2
        assert not is_connected(g)

    def test_c6_connected(self):
        g = Graph.from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
        assert components(g) == [set(range(6))]

    def test_empty_graph_components(self):
        assert components(Graph.from_edge_list(0, [])) == []

    def test_components_partition_nodes(self):
        rng = random.Random(2)
        mask_rng = random.Random(3)
        for _ in range(50):
            g = random_graph(rng, rng.randint(1, 9), 0.25)
            comps = components(g)
            seen = set()
            for c in comps:
                assert not (c & seen)
                seen |= c
            assert seen == set(range(g.n))
            within = mask_rng.getrandbits(g.n)
            masks = components_masks(g, within)
            union = 0
            for c in masks:
                assert not c & union
                union |= c
                assert components_masks(g, c) == [c]  # connected
                for v in range(g.n):
                    if c >> v & 1:
                        assert not g.adj_mask(v) & within & ~c  # maximal
            assert union == within
            assert masks == sorted(masks, key=lambda c: c & -c)


class TestBiconnectedBlocks:
    def test_path(self):
        g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
        assert set(biconnected_blocks(g)) == {0b011, 0b110}

    def test_c4_single_block(self):
        g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert biconnected_blocks(g) == [0b1111]

    def test_two_triangles_sharing_a_node(self):
        g = Graph.from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        assert set(biconnected_blocks(g)) == {0b00111, 0b11100}

    def test_blocks_partition_edges(self):
        rng = random.Random(3)
        for _ in range(60):
            g = random_graph(rng, rng.randint(2, 9), 0.3)
            blocks = biconnected_blocks(g)
            for u, v in g.edges():
                both = 1 << u | 1 << v
                assert sum(b & both == both for b in blocks) == 1
            # every block is spanned by its edges: no isolated node in it
            for b in blocks:
                assert all(g.adj_mask(v) & b for v in bits(b))

    def test_block_membership_matches_cycles(self):
        # two nodes share a block iff they are adjacent or lie on a common
        # (not necessarily induced) cycle; brute-forced via simple paths
        def on_common_cycle(g, u, v):
            if g.has_edge(u, v):
                return True
            paths = []

            def walk(cur, target, seen, path):
                if cur == target:
                    paths.append(tuple(path))
                    return
                for w in g.neighbors(cur):
                    if w not in seen:
                        walk(w, target, seen | {w}, path + [w])

            walk(u, v, {u}, [u])
            for p1, p2 in combinations(paths, 2):
                if set(p1) & set(p2) == {u, v}:
                    return True
            return False

        rng = random.Random(4)
        for _ in range(25):
            g = random_graph(rng, rng.randint(3, 7), 0.35)
            blocks = biconnected_blocks(g)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    both = 1 << u | 1 << v
                    together = any(b & both == both for b in blocks)
                    assert together == on_common_cycle(g, u, v)

    def test_matches_edge_stack_reference(self):
        corpus = list(small_graphs()) + list(gnp_graphs(23, 400, 7, 16))
        corpus += [random_tf_chordless(seed, 5 + seed % 30) for seed in range(60)]
        for g in corpus:
            want = [mask_of(w for e in block for w in e)
                    for block in reference_biconnected_blocks(g)]
            assert sorted(biconnected_blocks(g)) == sorted(want), g.edges()

    def test_depth_at_max_nodes(self):
        n = MAX_NODES
        path = Graph.from_edge_list(n, [(v, v + 1) for v in range(n - 1)])
        blocks = biconnected_blocks(path)
        assert sorted(blocks) == sorted(3 << v for v in range(n - 1))
        cycle_edges = [(v, v + 1) for v in range(n - 1)] + [(0, n - 1)]
        cycle = Graph.from_edge_list(n, cycle_edges)
        assert biconnected_blocks(cycle) == [cycle.full_mask()]
        assert is_chordless_graph(cycle)
        chorded = Graph.from_edge_list(n, cycle_edges + [(0, n // 2)])
        assert biconnected_blocks(chorded) == [chorded.full_mask()]
        assert not is_chordless_graph(chorded)


class TestSmallPredicates:
    def test_c4_is_hole(self):
        assert is_hole_graph(Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        assert not is_hole_graph(K4)
        assert not is_hole_graph(Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)]))

    def test_clique_predicate(self):
        assert is_clique_graph(K4)
        assert is_clique_graph(Graph.from_edge_list(1, []))
        assert is_clique_graph(Graph.from_edge_list(0, []))
        assert not is_clique_graph(C5)

    def test_triangle_free(self):
        assert is_triangle_free(C5)
        assert not is_triangle_free(K4)

    def test_diamond_found(self):
        dia = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert find_diamond(dia) == frozenset({0, 1, 2, 3})
        assert find_diamond(K4) is None  # K4 has no induced diamond

    def test_claw_found(self):
        claw = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
        assert find_claw(claw) == frozenset({0, 1, 2, 3})
        assert find_claw(C5) is None

    def test_cliques_match_brute_force(self):
        mask_rng = random.Random(12)
        for g in gnp_graphs(11, 60, 0, 9, [0.3, 0.6, 0.9]):
            for cand in (g.full_mask(), mask_rng.getrandbits(g.n)):
                nodes = bits(cand)
                brute = sorted(
                    c for k in range(1, len(nodes) + 1)
                    for c in combinations(nodes, k)
                    if all(g.has_edge(u, v) for u, v in combinations(c, 2)))
                assert [tuple(bits(c)) for c in cliques(g, cand)] == brute

    def test_finders_match_brute_force(self):
        def brute(g, shape):
            for quad in combinations(range(g.n), 4):
                sub, _ = induced_subgraph(g, quad)
                degs = sorted(sub.degree(v) for v in range(4))
                if shape == "diamond" and degs == [2, 2, 3, 3]:
                    return True
                if shape == "claw" and degs == [1, 1, 1, 3]:
                    return True
            return False

        for g in gnp_graphs(5, 80, 4, 10, [0.2, 0.5, 0.8]):
            assert (find_diamond(g) is not None) == brute(g, "diamond")
            assert (find_claw(g) is not None) == brute(g, "claw")

    def test_finders_return_the_reference_hit(self):
        corpus = list(small_graphs())
        corpus += list(gnp_graphs(31, 400)) + list(tf_chordless_line_graphs(40))
        for g in corpus:
            assert find_claw(g) == reference_find_claw(g), g.edges()
            assert find_diamond(g) == reference_find_diamond(g), g.edges()
            has_triangle = any(g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w)
                               for u, v, w in combinations(range(g.n), 3))
            assert is_triangle_free(g) == (not has_triangle), g.edges()


class TestWalks:
    def test_walk_follows_degree_two_nodes_to_a_stop(self):
        assert walk(C5, C5.full_mask(), 0, 1, 1 << 3) == [0, 1, 2, 3]
        assert walk(C5, C5.full_mask(), 0, 1, 1 << 0) == [0, 1, 2, 3, 4, 0]
        assert walk(C5, C5.full_mask(), 0, 4, 1 << 0) == [0, 4, 3, 2, 1, 0]

    def test_walk_refuses_a_repeated_node(self):
        # no stop on the cycle: the walk comes back to its start
        assert walk(C5, C5.full_mask(), 0, 1, 0) is None

    def test_walk_refuses_a_node_of_degree_three(self):
        paw_tail = Graph.from_edge_list(4, [(0, 1), (1, 2), (1, 3)])
        assert walk(paw_tail, paw_tail.full_mask(), 0, 1, 1 << 2) is None
        assert walk(paw_tail, 0b0111, 0, 1, 1 << 2) == [0, 1, 2]

    def test_path_order_matches_permutation_brute_force(self):
        # the chordless path that a mask induces, read from its lower end
        for n in range(6):
            for g in all_graphs(n):
                for part in range(1, 1 << n):
                    orders = [list(p) for p in permutations(bits(part))
                              if is_chordless_path_sequence(g, p)]
                    assert path_order(g, part) == (min(orders) if orders else None)
                assert path_order(g, 0) is None

    def test_hole_of_a_mask_is_the_hole_order_of_its_induced_subgraph(self):
        # every graph with n <= 6 and every node mask; the answer depends
        # only on the edges inside the mask, so each one is computed once
        for n in range(7):
            pairs = list(combinations(range(n), 2))
            inside = [mask_of(k for k, (u, v) in enumerate(pairs)
                              if part >> u & part >> v & 1) for part in range(1 << n)]
            want = {}
            for code in range(1 << len(pairs)):
                g = graph_from_bits(n, code)
                for part in range(1 << n):
                    key = (part, code & inside[part])
                    if key not in want:
                        sub, origin = induced_subgraph(g, bits(part))
                        want[key] = ([origin[v] for v in hole_order(sub)]
                                     if is_hole_graph(sub) else None)
                    assert _hole(g, part) == want[key], (g.edges(), bits(part))

    def test_hole_order_starts_at_zero_toward_its_lower_neighbor(self):
        c6 = Graph.from_edge_list(6, [(0, 4), (4, 2), (2, 5), (5, 1), (1, 3), (3, 0)])
        assert hole_order(c6) == [0, 3, 1, 5, 2, 4]
        with pytest.raises(ValueError):
            hole_order(K4)


class TestEdgeListFormat:
    def test_round_trip(self):
        text = format_edge_list(C5)
        g = parse_edge_list(text)
        assert g == C5

    def test_comments_and_whitespace(self):
        text = "# a five-cycle\n5 5\n0 1\n1 2  # chord-free\n2 3\n3 4\n0 4\n"
        assert parse_edge_list(text) == C5

    def test_parse_error_carries_line_number(self):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list("2 1\n0 two\n")
        assert err.value.line == 2
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list("2 2\n0 1\n")
        assert err.value.line == 1
        for text, line, message in (
                ("3 2\n0 1\n\n0 3\n", 4, "out of range"),
                ("3 2\n0 1\n# comment\n2 2\n", 4, "self-loop"),
                ("3 3\n0 1\n1 2\n1 0\n", 4, "duplicate"),
                ("11 1\n0 1_0\n", 2, "expected two integers"),
                ("3 1\n+0 \u0662\n", 2, "expected two integers"),
                ("-1 0\n", 1, "expected two integers")):
            with pytest.raises(EdgeListParseError, match=message) as err:
                parse_edge_list(text)
            assert err.value.line == line

    def test_wrong_edge_count(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("3 1\n0 1\n1 2\n")


class TestGraph6:
    def test_k4(self):
        assert from_graph6("C~") == K4

    def test_c5(self):
        assert is_isomorphic(from_graph6("Dhc"), C5)

    def test_header_prefix(self):
        assert from_graph6(">>graph6<<C~") == K4

    def test_body_length_and_padding_checked(self):
        with pytest.raises(ValueError, match="expected 1"):
            from_graph6("C~~~~")  # K4 plus trailing characters
        with pytest.raises(ValueError, match="padding"):
            from_graph6("Dhd")  # C5 with a nonzero padding bit

    def test_node_count_checked_before_body(self):
        # "~@?@" announces n = 4097, one above the supported range
        with pytest.raises(ValueError, match="outside supported range"):
            from_graph6("~@?@?")


class TestNodeSequences:
    def test_paths(self):
        from truemper.graph import is_chordless_path_sequence, is_path_sequence
        assert is_path_sequence(C5, [0, 1, 2])
        assert is_chordless_path_sequence(C5, [0, 1, 2])
        assert not is_path_sequence(C5, [0, 2])
        assert not is_path_sequence(C5, [0, 1, 0])
        assert is_path_sequence(K4, [0, 1, 2, 3])
        assert not is_chordless_path_sequence(K4, [0, 1, 2, 3])

    def test_cycles(self):
        from truemper.graph import is_chordless_cycle_sequence
        assert is_chordless_cycle_sequence(C5, [0, 1, 2, 3, 4])
        assert is_chordless_cycle_sequence(K4, [0, 1, 2])
        assert not is_chordless_cycle_sequence(K4, [0, 1, 2, 3])
        dia = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert not is_chordless_cycle_sequence(dia, [2, 0, 3, 1])

    def test_ids_outside_the_graph_are_no_sequence(self):
        from truemper.graph import (is_chordless_cycle_sequence,
                                    is_chordless_path_sequence,
                                    is_path_sequence)
        g = Graph.from_edge_list(3, [(1, 2)])
        for nodes in ([-1, 1], [1, -1], [-2], [1, 3], [3, 1], [1, 2, 3]):
            assert not is_path_sequence(g, nodes), nodes
            assert not is_chordless_path_sequence(g, nodes), nodes
        for nodes in ([0, 1, 2, -1], [1, -1, 2], [-3, -2, -1], [0, 1, 5]):
            assert not is_chordless_cycle_sequence(C5, nodes), nodes


def test_every_small_graph_round_trips_through_text():
    for g in all_graphs(4):
        assert parse_edge_list(format_edge_list(g)) == g
        assert graph_from_json(json.loads(json.dumps(graph_json(g)))) == g
