import random
from itertools import combinations

import pytest

from truemper.basic import (LabeledSafeTree, _krausz_partition,
                            _pyramid_basic_via, _root_with_edge_map,
                            build_pyramid_basic,
                            classify_basic, is_chordless_graph,
                            is_lg_tf_chordless, is_pyramid_basic,
                            is_safe_tree, line_graph, pendant_siblings,
                            root_graph)
from truemper.gen import make_pyramid, random_tf_chordless
from truemper.graph import (Graph, components_masks, find_claw, find_diamond,
                            is_clique_mask, is_triangle_free)
from truemper.oracle import contains_config, scan_configs

from util import (all_graphs, assert_revalidates, gnp_graphs, is_isomorphic,
                  random_graph, reference_is_chordless_graph,
                  reference_is_lg_tf_chordless, reference_krausz_partition,
                  reference_root_graph, relabeled, small_graphs,
                  tf_chordless_line_graphs)


def reference_corpus():
    """Every graph with n <= 6, seeded G(n, p) with n = 7..12 and line
    graphs of random triangle-free chordless graphs."""
    yield from small_graphs()
    yield from gnp_graphs(61, 200)
    yield from tf_chordless_line_graphs(40)


CLAW = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3)])
K3 = Graph.from_edge_list(3, [(0, 1), (0, 2), (1, 2)])
K4 = Graph.from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
C5 = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
C6 = Graph.from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
P4 = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])

# central edge, two length-2 legs per end; the seed of an 11-node
# pyramid-basic graph
H_TREE = Graph.from_edge_list(10, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5),
                                   (1, 6), (6, 7), (1, 8), (8, 9)])
H_LABELS = {(2, 3): "x", (4, 5): "y", (6, 7): "x", (8, 9): "y"}


class TestLineGraph:
    def test_claw_gives_triangle(self):
        assert is_isomorphic(line_graph(CLAW), K3)

    def test_c5_fixed_point(self):
        assert is_isomorphic(line_graph(C5), C5)

    def test_path_shrinks(self):
        lg = line_graph(P4)
        assert lg.n == 3 and lg.m == 2

    def test_triangle_and_claw_share_line_graph(self):
        assert is_isomorphic(line_graph(K3), line_graph(CLAW))

    def test_matches_pairwise_construction(self):
        for r in list(gnp_graphs(62, 100, 0, 10)) + [random_tf_chordless(s, 15) for s in range(10)]:
            lg = line_graph(r)
            assert_revalidates(lg)
            edges = r.edges()
            assert lg.n == len(edges)
            for (i, e), (j, f) in combinations(enumerate(edges), 2):
                assert lg.has_edge(i, j) == bool(set(e) & set(f))


class TestRootGraph:
    def test_triangle_canonicalizes_to_claw(self):
        r = root_graph(K3)
        assert is_isomorphic(r, CLAW)

    def test_c5_root(self):
        assert is_isomorphic(root_graph(C5), C5)

    def test_claw_is_not_a_line_graph(self):
        assert root_graph(CLAW) is None

    def test_octahedron_is_a_line_graph(self):
        octa = Graph.from_edge_list(6, [(u, v) for u in range(6)
                                        for v in range(u + 1, 6)
                                        if (u, v) not in ((0, 5), (1, 4), (2, 3))])
        r = root_graph(octa)
        assert r is not None
        assert is_isomorphic(line_graph(r), octa)

    def test_round_trip_on_random_line_graphs(self):
        rng = random.Random(20)
        for _ in range(40):
            base = random_graph(rng, rng.randint(2, 7), 0.4)
            lg = line_graph(base)
            r = root_graph(lg)
            assert r is not None
            assert is_isomorphic(line_graph(r), lg)

    def test_matches_the_krausz_search(self):
        rng = random.Random(63)
        line_graphs = [line_graph(random_graph(rng, rng.randint(2, 8), 0.5))
                       for _ in range(60)]
        for g in list(reference_corpus()) + line_graphs:
            assert root_graph(g) == reference_root_graph(g), g.edges()

    def test_partition_matches_the_clique_enumerating_search(self):
        # the bounded candidates prune only branches that cannot complete,
        # so the first partition found, cliques and order, is the same;
        # shuffled ids put diamonds in line graphs and make both backtrack
        rng = random.Random(64)
        line_graphs = []
        for _ in range(400):
            lg = line_graph(random_graph(rng, rng.randint(3, 9), 0.6))
            line_graphs.append(relabeled(lg, rng))
        assert sum(find_diamond(g) is not None for g in line_graphs) >= 200
        for g in list(reference_corpus()) + line_graphs:
            assert _krausz_partition(g) == reference_krausz_partition(g), g.edges()

    @pytest.mark.parametrize("k", [40, 200])
    def test_star_with_a_leaf_edge_at_scale(self, k):
        # every common neighbourhood of L(K_1,k + leaf edge) but one is a
        # large clique, which the clique-enumerating search expands into
        # every subset; never run that search on it
        star = Graph.from_edge_list(k + 1, [(0, i) for i in range(1, k + 1)]
                                    + [(1, 2)])
        g = line_graph(star)
        root, edge_of = _root_with_edge_map(g, _krausz_partition(g))
        assert len(set(edge_of)) == g.n == root.m
        for a, b in combinations(range(g.n), 2):
            assert g.has_edge(a, b) == bool(set(edge_of[a]) & set(edge_of[b]))
        assert root.n == k + 1

    def test_diamond_rules_out_a_tree_root(self):
        # pyramid-basic recognition refuses G - {x, y} with a diamond
        # without a root search: no Krausz root of it is a tree
        for g in small_graphs():
            if find_diamond(g) is None:
                continue
            part = _krausz_partition(g)
            if part is not None:
                root = _root_with_edge_map(g, part)[0]
                assert root.m != root.n - 1 or len(components_masks(root)) > 1

    def test_no_root_has_a_triangle_component(self):
        # the Krausz search covers a K3 component of g by one 3-clique, so
        # its root is a claw and no triangle is ever left to replace; a
        # diamond elsewhere in g makes the search backtrack
        rng = random.Random(65)
        line_graphs = []
        for _ in range(300):
            base = random_graph(rng, rng.randint(2, 8), 0.5)
            extra = rng.choice((K3, CLAW))
            base = Graph.from_edge_list(base.n + extra.n, base.edges() + [
                (u + base.n, v + base.n) for u, v in extra.edges()])
            line_graphs.append(line_graph(base))
        krausz_with_k3 = 0
        for g in list(small_graphs()) + line_graphs:
            r = root_graph(g)
            if r is None:
                continue
            assert not any(c.bit_count() == 3 and is_clique_mask(r, c)
                           for c in components_masks(r)), g.edges()
            if find_diamond(g) is not None and any(
                    c.bit_count() == 3 and is_clique_mask(g, c)
                    for c in components_masks(g)):
                krausz_with_k3 += 1
        assert krausz_with_k3 >= 50

    def test_non_line_graphs_refused(self):
        # wheels with 5-rims are not line graphs (their hub edges cannot
        # be covered by two cliques)
        w5 = Graph.from_edge_list(6, [(i, (i + 1) % 5) for i in range(5)]
                                  + [(5, i) for i in range(5)])
        assert root_graph(w5) is None


class TestChordless:
    def test_examples(self):
        dia = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert is_chordless_graph(C5)
        assert not is_chordless_graph(K4)
        assert not is_chordless_graph(dia)

    def test_trees_and_cycles_are_chordless(self):
        assert is_chordless_graph(P4)
        assert is_chordless_graph(C6)

    def test_matches_direct_cycle_scan(self):
        # an edge uv is a chord of some cycle iff two internally disjoint
        # u-v paths survive once the edge itself is removed
        def paths_between(g, u, v, skip_direct):
            out = []

            def walk(cur, seen, path):
                for w in g.neighbors(cur):
                    if cur == u and w == v and skip_direct:
                        continue
                    if w == v:
                        out.append(tuple(path + [v]))
                        continue
                    if w not in seen:
                        walk(w, seen | {w}, path + [w])

            walk(u, {u}, [u])
            return out

        def brute(g):
            from itertools import combinations
            for u, v in g.edges():
                ps = paths_between(g, u, v, skip_direct=True)
                for p1, p2 in combinations(ps, 2):
                    if set(p1) & set(p2) == {u, v}:
                        return False
            return True

        rng = random.Random(21)
        for _ in range(60):
            g = random_graph(rng, rng.randint(3, 8), 0.3)
            assert is_chordless_graph(g) == brute(g), g.edges()
        for g in small_graphs():
            assert is_chordless_graph(g) == brute(g), g.edges()

    def test_matches_per_edge_reference(self):
        corpus = list(reference_corpus())
        corpus += [random_tf_chordless(seed, 5 + seed % 30) for seed in range(60)]
        for g in corpus:
            assert is_chordless_graph(g) == reference_is_chordless_graph(g), g.edges()


class TestLgTfChordless:
    def test_k4_has_star_root(self):
        r = is_lg_tf_chordless(K4)
        assert r is not None
        assert is_isomorphic(r, Graph.from_edge_list(5, [(0, i) for i in range(1, 5)]))

    def test_c6(self):
        assert is_lg_tf_chordless(C6) is not None

    def test_w5_refused(self):
        w5 = Graph.from_edge_list(6, [(i, (i + 1) % 5) for i in range(5)]
                                  + [(5, i) for i in range(5)])
        assert is_lg_tf_chordless(w5) is None

    def test_matches_the_krausz_reference(self):
        for g in reference_corpus():
            assert is_lg_tf_chordless(g) == reference_is_lg_tf_chordless(g), g.edges()

    def test_three_way_equivalence_small(self):
        # (wheel, diamond)-free line graph == line graph of a
        # triangle-free chordless graph == (wheel, diamond, claw)-free;
        # exhaustive over 6-node graphs (the acceptance suite goes to 7)
        for n in range(1, 7):
            for g in all_graphs(n):
                diamond_free = find_diamond(g) is None
                claw_free = find_claw(g) is None
                if n >= 5:
                    wheel_free = scan_configs(g, ("wheel",))["wheel"] is None
                else:
                    wheel_free = True
                cond3 = wheel_free and diamond_free and claw_free
                cond2 = is_lg_tf_chordless(g) is not None
                cond1 = (wheel_free and diamond_free
                         and root_graph(g) is not None)
                assert cond1 == cond2 == cond3, (n, g.edges())


class TestSafeTrees:
    def test_path_is_safe_with_sibling_pendants(self):
        assert is_safe_tree(P4)
        sibs = pendant_siblings(P4)
        assert sibs == [((0, 1), (2, 3))]

    def test_claw_is_not_safe(self):
        assert not is_safe_tree(CLAW)

    def test_spider_with_three_legs_is_not_safe(self):
        spider = Graph.from_edge_list(7, [(0, 1), (1, 2), (0, 3), (3, 4),
                                          (0, 5), (5, 6)])
        assert len(pendant_siblings(spider)) == 3  # every pair of legs
        assert not is_safe_tree(spider)

    def test_h_tree_is_safe(self):
        assert is_safe_tree(H_TREE)
        assert is_safe_tree(H_TREE, H_LABELS)

    def test_same_label_siblings_invalid(self):
        bad = dict(H_LABELS)
        bad[(4, 5)] = "x"  # same branch as (2, 3)
        assert not is_safe_tree(H_TREE, bad)

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError):
            is_safe_tree(C5)


class TestBuildPyramidBasic:
    def test_labeled_path_gives_c5(self):
        t = LabeledSafeTree(P4, {(0, 1): "x", (2, 3): "y"})
        g = build_pyramid_basic(t)
        assert is_isomorphic(g, C5)
        # x = m = 3 meets the x-labeled edge 0, y = m + 1 = 4 the y-labeled
        # edge 2
        assert g.neighbors(3) == (0, 4) and g.neighbors(4) == (2, 3)

    def test_h_tree_gives_only_pyramid_11(self):
        g = build_pyramid_basic(LabeledSafeTree(H_TREE, H_LABELS))
        assert g.n == 11
        assert contains_config(g, ("theta", "wheel", "prism")) is None

    def test_same_label_sibling_pair_rejected(self):
        with pytest.raises(ValueError, match="labeling"):
            build_pyramid_basic(LabeledSafeTree(P4, {(0, 1): "x", (2, 3): "x"}))

    def test_degenerate_trees_rejected(self):
        k2 = Graph.from_edge_list(2, [(0, 1)])
        with pytest.raises(ValueError, match="pendant"):
            build_pyramid_basic(LabeledSafeTree(k2, {(0, 1): "x"}))

    def test_subdivided_path_pendants_are_siblings(self):
        # one leg per spine end makes the tree a bare path, whose two
        # pendant edges are siblings and so must carry distinct labels
        t = Graph.from_edge_list(6, [(0, 1), (0, 2), (2, 3), (1, 4), (4, 5)])
        assert pendant_siblings(t) == [((2, 3), (4, 5))]
        assert not is_safe_tree(t, {(2, 3): "x", (4, 5): "x"})
        assert is_safe_tree(t, {(2, 3): "x", (4, 5): "y"})

    def test_nonsibling_pendants_may_share_a_label(self):
        # the H-tree labels reuse x and y across branches
        assert H_LABELS[(2, 3)] == H_LABELS[(6, 7)] == "x"
        assert is_safe_tree(H_TREE, H_LABELS)


class TestIsPyramidBasic:
    def test_c5(self):
        cert = is_pyramid_basic(C5)
        assert cert is not None
        assert is_isomorphic(build_pyramid_basic(cert), C5)

    def test_h_tree_graph(self):
        g = build_pyramid_basic(LabeledSafeTree(H_TREE, H_LABELS))
        cert = is_pyramid_basic(g)
        assert cert is not None
        assert is_isomorphic(build_pyramid_basic(cert), g)

    def test_k4_is_not(self):
        assert is_pyramid_basic(K4) is None

    def test_round_trip_random(self):
        from truemper.gen import _random_safe_labeled_tree
        rng = random.Random(22)
        built = 0
        while built < 15:
            t = _random_safe_labeled_tree(rng)
            if t is None:
                continue
            g = build_pyramid_basic(t)
            built += 1
            cert = is_pyramid_basic(g)
            assert cert is not None
            assert is_isomorphic(build_pyramid_basic(cert), g)

    def test_outputs_are_only_pyramid(self):
        from truemper.gen import _random_safe_labeled_tree
        rng = random.Random(23)
        built = 0
        while built < 12:
            t = _random_safe_labeled_tree(rng)
            if t is None:
                continue
            g = build_pyramid_basic(t)
            if g.n > 12:
                continue
            built += 1
            assert contains_config(g, ("theta", "wheel", "prism")) is None


class TestPyramidBasicNearMisses:
    # the H-tree graph has line-graph nodes 0..8 (the tree's edges in lex
    # order), x = 9 and y = 10; each case breaks one label rule.  The
    # first two also give a node next to x or y degree 3, which the
    # degree filter refuses before any label is read
    H_GRAPH = build_pyramid_basic(LabeledSafeTree(H_TREE, H_LABELS))

    def test_the_unbroken_graph_is_read_on_xy(self):
        cert = _pyramid_basic_via(self.H_GRAPH, 9, 10)
        assert cert is not None
        assert is_isomorphic(build_pyramid_basic(cert), self.H_GRAPH)

    @pytest.mark.parametrize("add, drop", [
        ([(5, 10)], []),  # node 5, edge 2-3, adjacent to both x and y
        ([(0, 9)], []),   # x attached to the non-pendant edge 0-1
        ([], [(7, 9)]),   # the pendant edge 6-7 left unlabeled
    ])
    def test_one_broken_label_rule_refuses(self, add, drop):
        edges = [e for e in self.H_GRAPH.edges() if e not in drop] + add
        g = Graph.from_edge_list(self.H_GRAPH.n, edges)
        assert _pyramid_basic_via(g, 9, 10) is None


class TestClassifyBasic:
    def test_k6_is_clique(self):
        k6 = Graph.from_edge_list(6, [(u, v) for u in range(6)
                                      for v in range(u + 1, 6)])
        assert classify_basic(k6).category == "clique"

    def test_long_pyramid(self):
        assert classify_basic(make_pyramid((2, 2, 2))).category == "long-pyramid"

    def test_hole_beats_pyramid_basic(self):
        assert classify_basic(C5).category == "hole"

    def test_line_graph_of_tf_chordless(self):
        g = line_graph(random_tf_chordless(3, 8))
        verdict = classify_basic(g)
        assert verdict.category in ("clique", "hole", "pyramid-basic",
                                    "lg-tf-chordless")
        # whatever the label, the graph must be accepted by the only-prism
        # recognizer, whose leaves are exactly this class
        from truemper.recognize import recognize_only_prism
        assert recognize_only_prism(g).verdict

    def test_p3_is_line_graph_class(self):
        p3 = Graph.from_edge_list(3, [(0, 1), (1, 2)])
        assert classify_basic(p3).category == "lg-tf-chordless"

    def test_verdicts_serialize(self):
        for g in (C5, K4, make_pyramid((2, 2, 2))):
            data = classify_basic(g).to_json()
            assert "class" in data


def test_random_tf_chordless_certificates():
    for seed in range(6):
        r = random_tf_chordless(seed, 20)
        assert r.n == 20
        assert is_triangle_free(r)
        assert is_chordless_graph(r)
