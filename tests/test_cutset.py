import random
from itertools import combinations

import pytest

from truemper.cutset import (CliqueSplit, _no_cutset_by_pairs,
                             blocks_of_clique_split,
                             clique_decomposition_tree, find_clique_cutset,
                             validate_clique_split)
from truemper.graph import (Graph, bits, components_masks, induced_subgraph,
                            mask_of)
from truemper.oracle import has_star_cutset, scan_configs

from util import (all_graphs, assert_revalidates, gnp_graphs,
                  perfect_elimination_chordal, random_graph,
                  reference_find_clique_cutset, small_graphs)

DIAMOND = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
C5 = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
BOWTIE = Graph.from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
K33 = Graph.from_edge_list(6, [(u, v) for u in range(3) for v in range(3, 6)])
OCTAHEDRON = Graph.from_edge_list(
    6, [(u, v) for u, v in combinations(range(6), 2) if v != u + 3])
PETERSEN = Graph.from_edge_list(
    10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
W5 = Graph.from_edge_list(6, [(i, (i + 1) % 5) for i in range(5)]
                          + [(i, 5) for i in range(5)])


def brute_has_clique_cutset(g):
    if g.n <= 1:
        return False
    if len(components_masks(g)) >= 2:
        return True
    for size in range(1, g.n - 1):
        for combo in combinations(range(g.n), size):
            if any(not g.has_edge(u, v) for u, v in combinations(combo, 2)):
                continue
            rest = g.full_mask() & ~mask_of(combo)
            if len(components_masks(g, rest)) >= 2:
                return True
    return False


def brute_components(g, within):
    """Components of G[within] as sorted node lists, by plain search."""
    todo = set(within)
    out = []
    while todo:
        comp = {min(todo)}
        stack = [min(todo)]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                if w in todo and w not in comp:
                    comp.add(w)
                    stack.append(w)
        todo -= comp
        out.append(sorted(comp))
    return out


def brute_smallest_a(g):
    """The A that find_clique_cutset promises: the first k // 2 of the k
    components of a disconnected graph (by lowest node) together, else
    the smallest component of G - K over all clique cutsets K, by size
    and then by sorted node list."""
    comps = brute_components(g, range(g.n))
    if len(comps) >= 2:
        return sorted(v for comp in comps[:len(comps) // 2] for v in comp)
    best = None
    for size in range(1, g.n - 1):
        for k in combinations(range(g.n), size):
            if any(not g.has_edge(u, v) for u, v in combinations(k, 2)):
                continue
            parts = brute_components(g, set(range(g.n)) - set(k))
            if len(parts) < 2:
                continue
            for part in parts:
                if best is None or (len(part), part) < (len(best), best):
                    best = part
    return best


class TestFindCliqueCutset:
    def test_diamond(self):
        s = find_clique_cutset(DIAMOND)
        assert s.K == mask_of({0, 1})
        assert s.A in (mask_of({2}), mask_of({3}))

    def test_c5_has_none(self):
        assert find_clique_cutset(C5) is None

    def test_disconnected_gets_empty_clique(self):
        g = Graph.from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        s = find_clique_cutset(g)
        assert s.K == 0
        assert s.A == mask_of({0, 1, 2})

    def test_matches_brute_force(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                assert (find_clique_cutset(g) is not None) == brute_has_clique_cutset(g)
        for g in gnp_graphs(7, 120, 6, 9, [0.2, 0.4, 0.7]):
            assert (find_clique_cutset(g) is not None) == brute_has_clique_cutset(g)

    def test_a_is_the_smallest_component(self):
        corpus = list(small_graphs())
        corpus += list(gnp_graphs(71, 300, 7, 10))
        for g in corpus:
            s = find_clique_cutset(g)
            want = None if g.n <= 1 else brute_smallest_a(g)
            assert (None if s is None else bits(s.A)) == want, g.edges()

    def test_returned_split_is_valid(self):
        rng = random.Random(8)
        for _ in range(80):
            g = random_graph(rng, rng.randint(2, 9), 0.4)
            s = find_clique_cutset(g)
            if s is not None:
                validate_clique_split(g, s)

    def test_deterministic(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_graph(rng, 8, 0.4)
            assert find_clique_cutset(g) == find_clique_cutset(g)


def dense_graphs():
    """(p, graph) for seeded G(n, p), n = 7..14, p in {0.7, 0.8, 0.9, 0.95}."""
    rng = random.Random(74)
    for n in range(7, 15):
        for p in (0.7, 0.8, 0.9, 0.95):
            for _ in range(5):
                yield p, random_graph(rng, n, p)


def pair_lemma_corpus():
    """Every graph with n <= 6, then the dense draws."""
    yield from small_graphs()
    for _, g in dense_graphs():
        yield g


class TestPairLemma:
    def test_firing_means_no_clique_cutset(self):
        fired = 0
        for g in pair_lemma_corpus():
            if _no_cutset_by_pairs(g):
                fired += 1
                assert not brute_has_clique_cutset(g), g.edges()
        assert fired > 100

    def test_search_matches_the_sweep_over_every_clique(self):
        for g in pair_lemma_corpus():
            assert find_clique_cutset(g) == reference_find_clique_cutset(g), g.edges()

    @pytest.mark.parametrize("g", [K33, OCTAHEDRON], ids=["K33", "octahedron"])
    def test_fires(self, g):
        assert _no_cutset_by_pairs(g)
        assert find_clique_cutset(g) is None

    @pytest.mark.parametrize("g", [C5, PETERSEN, W5], ids=["C5", "Petersen", "W5"])
    def test_does_not_fire_yet_no_cutset(self, g):
        # each has a non-adjacent pair with a clique (C5, Petersen: one
        # node; W5: an edge) as its common neighbourhood
        assert not _no_cutset_by_pairs(g)
        assert find_clique_cutset(g) is None

    def test_fires_on_most_dense_draws(self):
        draws = [g for p, g in dense_graphs() if p == 0.9]
        assert sum(map(_no_cutset_by_pairs, draws)) > len(draws) // 2

    def test_dense_45_node_graph_is_one_leaf(self):
        # the sweep over every clique took over a minute here
        g = random_graph(random.Random(1), 45, 0.85)
        assert _no_cutset_by_pairs(g)
        tree = clique_decomposition_tree(g)
        assert tree.root.is_leaf and tree.root.graph == g


class TestBlocks:
    def test_diamond_blocks_are_triangles(self):
        s = find_clique_cutset(DIAMOND)
        (ga, _), (gb, _) = blocks_of_clique_split(DIAMOND, s)
        assert ga.n == 3 and ga.m == 3
        assert gb.n == 3 and gb.m == 3

    def test_path_blocks_are_edges(self):
        g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
        s = find_clique_cutset(g)
        (ga, _), (gb, _) = blocks_of_clique_split(g, s)
        assert {ga.m, gb.m} == {1} and {ga.n, gb.n} == {2}

    def test_bowtie_blocks(self):
        s = CliqueSplit(mask_of({0, 1}), mask_of({2}), mask_of({3, 4}))
        (ga, _), (gb, _) = blocks_of_clique_split(BOWTIE, s)
        assert ga.n == 3 and ga.m == 3
        assert gb.n == 3 and gb.m == 3

    def test_blocks_revalidate(self):
        for g in gnp_graphs(72, 200, 2, 12):
            s = find_clique_cutset(g)
            if s is not None:
                for block, _ in blocks_of_clique_split(g, s):
                    assert_revalidates(block)

    def test_invalid_split_rejected(self):
        bad = CliqueSplit(mask_of({0}), mask_of({2, 3}), mask_of({1}))
        with pytest.raises(ValueError):
            blocks_of_clique_split(C5, bad)


# one case per clause of validate_clique_split, in the order it checks
# them: (graph, A, K, B, the message it raises)
C6 = Graph.from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
CLIQUE_SPLIT_VIOLATIONS = [
    (BOWTIE, {0, 1}, {2}, {3}, "A, K, B must partition the node set"),
    (BOWTIE, set(), {2}, {0, 1, 3, 4}, "A and B must be nonempty"),
    # three non-adjacent pairs in K: the first one is named
    (C6, {0}, {1, 3, 5}, {2, 4}, "K is not a clique: 1 and 3 are non-adjacent"),
    (DIAMOND, {2, 3}, {0}, {1}, "edge between A and B at node 2"),
]


@pytest.mark.parametrize("case", CLIQUE_SPLIT_VIOLATIONS, ids=lambda case: case[-1])
def test_each_clique_split_clause_names_its_violation(case):
    g, *node_sets, message = case
    with pytest.raises(ValueError) as err:
        validate_clique_split(g, CliqueSplit(*map(mask_of, node_sets)))
    assert str(err.value) == message


class TestDecompositionTree:
    def test_chordal_leaves_are_cliques(self):
        from truemper.graph import is_clique_graph
        rng = random.Random(10)
        for _ in range(25):
            g = perfect_elimination_chordal(rng, rng.randint(2, 12))
            tree = clique_decomposition_tree(g)
            assert all(is_clique_graph(leaf.graph) for leaf in tree.leaves)
            assert tree.leaf_count <= max(1, g.n)

    def test_c6_single_leaf(self):
        g = Graph.from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
        tree = clique_decomposition_tree(g)
        assert tree.leaf_count == 1 and tree.root.is_leaf

    def test_ten_node_chordal_leaf_bound(self):
        rng = random.Random(11)
        g = perfect_elimination_chordal(rng, 10)
        assert clique_decomposition_tree(g).leaf_count <= 10

    def test_leaves_have_no_cutset_and_bound_holds(self):
        for g in gnp_graphs(12, 60, 1, 10, [0.2, 0.5, 0.8]):
            tree = clique_decomposition_tree(g)
            assert tree.leaf_count <= max(1, g.n)
            for leaf in tree.leaves:
                assert find_clique_cutset(leaf.graph) is None

    def test_origin_maps_point_back(self):
        rng = random.Random(13)
        g = random_graph(rng, 9, 0.3)
        tree = clique_decomposition_tree(g)
        for leaf in tree.leaves:
            sub, idmap = induced_subgraph(g, leaf.origin)
            assert sub == leaf.graph

    def test_nonempty_cutset_splits_off_a_leaf(self):
        # minimal |A| makes G[A + K] cutset-free when K is nonempty (the
        # leaf lemma), so the tree builds that child as a leaf unsearched
        splits = 0
        for g in gnp_graphs(14, 300, 2, 10, [0.2, 0.5, 0.8]):
            stack = [clique_decomposition_tree(g).root]
            while stack:
                node = stack.pop()
                stack.extend(node.children)
                if node.children and node.split.K:
                    splits += 1
                    leaf = node.children[0]
                    assert leaf.is_leaf
                    assert reference_find_clique_cutset(leaf.graph) is None
                    assert not brute_has_clique_cutset(leaf.graph)
        assert splits > 100

    def test_empty_cutset_child_may_split_again(self):
        # so the tree is not always a caterpillar
        two_p3 = Graph.from_edge_list(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        root = clique_decomposition_tree(two_p3).root
        assert root.split == CliqueSplit(mask_of({0, 1, 2}), 0, mask_of({3, 4, 5}))
        assert not root.children[0].is_leaf

    def test_empty_cutset_halves_the_components(self):
        # eight isolated nodes: {0..3} | {4..7}, then pairs, then leaves
        root = clique_decomposition_tree(Graph.from_edge_list(8, [])).root
        assert root.split.A == mask_of(range(4))
        level = [root]
        for _ in range(3):
            assert all(len(node.children) == 2 for node in level)
            level = [child for node in level for child in node.children]
        assert [node.origin for node in level] == [(v,) for v in range(8)]
        assert all(node.is_leaf for node in level)

    def test_json_and_dot_render(self):
        tree = clique_decomposition_tree(BOWTIE)
        data = tree.to_json()
        assert data["tree"] == "clique-cutset"
        assert "--" in tree.to_dot()


class TestConfigPreservation:
    def test_split_preserves_configs(self):
        # a configuration lives entirely inside one block of any
        # clique-cutset split
        rng = random.Random(14)
        checked = 0
        while checked < 40:
            g = random_graph(rng, rng.randint(6, 11), rng.choice([0.25, 0.4]))
            s = find_clique_cutset(g)
            if s is None:
                continue
            checked += 1
            (ga, _), (gb, _) = blocks_of_clique_split(g, s)
            whole = scan_configs(g)
            fa = scan_configs(ga)
            fb = scan_configs(gb)
            for kind in whole:
                in_whole = whole[kind] is not None
                in_blocks = fa[kind] is not None or fb[kind] is not None
                assert in_whole == in_blocks, (kind, g.edges(), s)


class TestCutsetForcingLemmas:
    def test_wheel_free_with_diamond_has_clique_cutset(self):
        from truemper.graph import find_diamond
        rng = random.Random(15)
        hits = 0
        while hits < 30:
            g = random_graph(rng, rng.randint(4, 9), rng.choice([0.3, 0.5]))
            if find_diamond(g) is None:
                continue
            if scan_configs(g, ("wheel",))["wheel"] is not None:
                continue
            hits += 1
            assert find_clique_cutset(g) is not None

    def test_theta_wheel_free_star_cutset_gives_clique_cutset(self):
        rng = random.Random(16)
        hits = 0
        while hits < 30:
            g = random_graph(rng, rng.randint(4, 9), rng.choice([0.25, 0.4]))
            found = scan_configs(g, ("theta", "wheel"))
            if found["theta"] is not None or found["wheel"] is not None:
                continue
            if has_star_cutset(g) is None:
                continue
            hits += 1
            assert find_clique_cutset(g) is not None

    def test_diamond_free_edges_have_unique_maximal_clique(self):
        from truemper.graph import bits, find_diamond

        def maximal_cliques_containing(g, u, v):
            # grow in every possible way; collect maximal cliques
            out = set()

            def grow(clique_mask):
                common = g.full_mask()
                for w in bits(clique_mask):
                    common &= g.adj_mask(w)
                if not common:
                    out.add(clique_mask)
                    return
                for w in bits(common):
                    grow(clique_mask | (1 << w))

            grow((1 << u) | (1 << v))
            return out

        rng = random.Random(17)
        hits = 0
        while hits < 25:
            g = random_graph(rng, rng.randint(4, 8), 0.45)
            if find_diamond(g) is not None:
                continue
            hits += 1
            for u, v in g.edges():
                assert len(maximal_cliques_containing(g, u, v)) == 1
