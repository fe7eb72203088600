import random

import pytest

from truemper import twojoin
from truemper.cutset import clique_decomposition_tree, find_clique_cutset
from truemper.gen import (_marker_candidates, make_pyramid, plant_configuration,
                          synth_only_pyramid)
from truemper.graph import Graph, bits, mask_of
from truemper.oracle import KINDS, scan_configs
from truemper.recognize import recognize_only_pyramid
from truemper.twojoin import (CONSISTENCY_CONDITIONS, TwoJoinSplit,
                              _all_reach_avoiding, _fixpoints, _seeds,
                              all_2joins_brute, all_almost_2joins_brute,
                              blocks_of_2join, check_marker_precondition,
                              compose_2join, compose_2join_with_split,
                              find_2join, is_consistent,
                              two_join_decomposition_tree, validate_split)

from util import (all_graphs, assert_revalidates, consistent_composition,
                  gnp_graphs, is_isomorphic, planted_2join, random_graph,
                  reference_fixpoints, reference_seeds, schema_validator,
                  small_graphs)


def hole(k):
    return Graph.from_edge_list(k, [(i, (i + 1) % k) for i in range(k)])


def last_three(block):
    """The marker path (a, c, b) of a 2-join block."""
    return block.n - 3, block.n - 2, block.n - 1


def composed_long_pyramids():
    # (3,3,3)-pyramids composed on a path-interior marker: the A-bundle is
    # a singleton pair and the B-bundle a clique pair, so the composed
    # split is consistent
    lp = make_pyramid((3, 3, 3))
    return compose_2join_with_split(lp, (4, 5, 1), lp, (4, 5, 1))


def reaches_avoiding(g, side, v, target, forbidden):
    """Reference for consistency conditions 7 and 8, one search per node:
    whether v reaches target by a path inside side whose internal nodes
    avoid forbidden."""
    if target & (1 << v):
        return True
    allowed = (side & ~forbidden) | (1 << v)
    reach = 1 << v
    frontier = reach
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= g.adj_mask(u)
        if nxt & target & side:
            return True
        nxt &= allowed & ~reach
        reach |= nxt
        frontier = nxt
    return False


def reference_is_consistent(g, s):
    """is_consistent with conditions 7 and 8 decided node by node."""
    ok, idx = is_consistent(g, s)
    if idx is not None and idx < 7:
        return ok, idx
    sides = ((s.X1, s.A1, s.B1), (s.X2, s.A2, s.B2))
    for side, am, bm in sides:
        if not all(reaches_avoiding(g, side, v, bm, am) for v in bits(side)):
            return False, 7
    for side, am, bm in sides:
        if not all(reaches_avoiding(g, side, v, am, bm) for v in bits(side)):
            return False, 8
    return True, None


def split_of(*node_sets):
    """The TwoJoinSplit with X1, X2, A1, A2, B1, B2 given as node sets."""
    return TwoJoinSplit(*map(mask_of, node_sets))


C8 = hole(8)
C8_SPLIT = split_of({0, 1, 2, 3}, {4, 5, 6, 7}, {3}, {4}, {0}, {7})
C8_CHORD = Graph.from_edge_list(8, C8.edges() + [(2, 5)])
P8 = Graph.from_edge_list(8, [e for e in C8.edges() if e != (1, 2)])

# one case per clause of validate_split, in the order it checks them:
# (graph, mode, X1, X2, A1, A2, B1, B2, the violation it reports)
VIOLATIONS = [
    (C8, "almost", {0, 1, 2}, {4, 5, 6, 7}, {2}, {4}, {0}, {7},
     "X1 and X2 must partition the node set"),
    (C8, "almost", {0, 1, 2, 3}, {4, 5, 6, 7}, {3}, {4}, {0}, set(), "B2 is empty"),
    (C8, "almost", {0, 1, 2, 3}, {4, 5, 6, 7}, {4}, {4}, {0}, {7},
     "A1 is not contained in its side"),
    (C8, "almost", {0, 1, 2, 3}, {4, 5, 6, 7}, {0, 3}, {4}, {0}, {7}, "A1 and B1 intersect"),
    (C8, "almost", {0, 1, 2, 3}, {4, 5, 6, 7}, {3}, {4, 5}, {0}, {7},
     "A1 is not complete to A2"),
    (C8_CHORD, "almost", {0, 1, 2, 3}, {4, 5, 6, 7}, {3}, {4}, {0}, {7},
     "crossing edge outside the two bundles"),
    (C8, "almost", {0, 1}, {2, 3, 4, 5, 6, 7}, {1}, {2}, {0}, {7}, "|X_i| >= 3 fails"),
    (P8, "full", {0, 1, 2, 3}, {4, 5, 6, 7}, {3}, {4}, {0}, {7},
     "X1 has no path between its special sets"),
    (C8, "full", {0, 1, 2, 3}, {4, 5, 6, 7}, {3}, {4}, {0}, {7},
     "X1 is a chordless path with singleton special sets"),
]


class TestValidateSplit:
    def test_c8_arc_split_is_almost_but_not_full(self):
        assert validate_split(C8, C8_SPLIT, "almost").ok
        rep = validate_split(C8, C8_SPLIT, "full")
        assert not rep.ok
        assert "chordless path" in rep.violation

    def test_undersized_side_rejected(self):
        s = split_of({0, 1}, {2, 3, 4, 5, 6, 7}, {0}, {7}, {1}, {2})
        rep = validate_split(C8, s, "almost")
        assert not rep.ok

    def test_composed_split_is_full(self):
        comp, split = composed_long_pyramids()
        assert validate_split(comp, split, "full").ok

    def test_report_names_first_violation(self):
        s = split_of({0, 1, 2, 3}, {4, 5, 6, 7}, set(), {4}, {0}, {7})
        rep = validate_split(C8, s, "almost")
        assert rep.violation == "A1 is empty"

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            validate_split(C8, C8_SPLIT, "strict")

    @pytest.mark.parametrize("case", VIOLATIONS, ids=lambda case: case[-1])
    def test_each_clause_names_its_violation(self, case):
        g, mode, *node_sets, violation = case
        rep = validate_split(g, split_of(*node_sets), mode)
        assert not rep.ok and rep.violation == violation


class TestIsConsistent:
    def test_marker_side_is_trivially_consistent(self):
        comp, split = composed_long_pyramids()
        (b1, _), _ = blocks_of_2join(comp, split)
        ms = check_marker_precondition(b1, last_three(b1))  # returns the split
        ok, idx = is_consistent(b1, ms)
        assert ok and idx is None

    def test_node_complete_to_opposite_set_fails_condition_two(self):
        # X1 = {0,1,2} with A1 = {0}, B1 = {1}: node 0 adjacent to all of
        # B1 violates the non-neighbor requirement
        g = Graph.from_edge_list(6, [(0, 1), (1, 2), (2, 0),
                                     (3, 4), (4, 5), (5, 3),
                                     (0, 3), (1, 4)])
        s = split_of({0, 1, 2}, {3, 4, 5}, {0}, {3}, {1}, {4})
        assert validate_split(g, s, "almost").ok
        ok, idx = is_consistent(g, s)
        assert not ok and idx == 2

    def test_composed_split_is_consistent(self):
        comp, split = composed_long_pyramids()
        ok, idx = is_consistent(comp, split)
        assert ok, CONSISTENCY_CONDITIONS[idx - 1]

    def test_invalid_split_rejected(self):
        s = split_of({0}, {1, 2, 3, 4, 5, 6, 7}, {0}, {1}, {0}, {7})
        with pytest.raises(ValueError, match="almost"):
            is_consistent(C8, s)

    def test_conditions_seven_and_eight_match_per_node_search(self):
        # conditions 1-2 decide most random splits, so the one-search
        # check is also compared on every side of every almost 2-join
        outcomes = set()
        sides_checked = 0
        for g in gnp_graphs(78, 600, 6, 10, [0.3, 0.5, 0.7]):
            for s in all_almost_2joins_brute(g):
                got = is_consistent(g, s)
                assert got == reference_is_consistent(g, s), (g.edges(), s)
                outcomes.add(got[1])
                for side, am, bm in ((s.X1, s.A1, s.B1), (s.X2, s.A2, s.B2)):
                    for target, forbidden in ((bm, am), (am, bm)):
                        want = all(reaches_avoiding(g, side, v, target, forbidden)
                                   for v in bits(side))
                        assert _all_reach_avoiding(g, side, target, forbidden) == want
                        sides_checked += 1
        assert {None, 7, 8} <= outcomes
        assert sides_checked > 10000


class TestFind2Join:
    def test_c8_has_none(self):
        assert find_2join(C8) is None
        assert all_2joins_brute(C8) == []

    def test_k5_has_none(self):
        k5 = Graph.from_edge_list(5, [(u, v) for u in range(5)
                                      for v in range(u + 1, 5)])
        assert find_2join(k5) is None

    def test_composed_instance_is_found(self):
        comp, _ = composed_long_pyramids()
        split = find_2join(comp)
        assert split is not None
        assert validate_split(comp, split, "full").ok

    def test_agrees_with_brute_force(self):
        for g in gnp_graphs(42, 250, 6, 10, [0.2, 0.35, 0.5, 0.7]):
            brute = all_2joins_brute(g)
            mine = find_2join(g)
            assert (mine is None) == (not brute), g.edges()
            if mine is not None:
                assert validate_split(g, mine, "full").ok

    def test_deterministic(self):
        comp, _ = composed_long_pyramids()
        assert find_2join(comp) == find_2join(comp)

    def test_agrees_with_brute_force_on_sparse_planted(self):
        # n = 11..14, above the n <= 10 of test_agrees_with_brute_force
        # and acceptance criterion 6
        rng = random.Random(47)
        found = 0
        for _ in range(150):
            g = planted_2join(rng, rng.randint(11, 14))
            brute = all_2joins_brute(g)
            mine = find_2join(g)
            assert (mine is None) == (not brute), g.edges()
            if mine is not None:
                assert validate_split(g, mine, "full").ok
                found += 1
        assert found > 100

    def test_c6_plus_twenty_isolated_nodes(self):
        # C6 plus 20 isolated nodes: an isolated node in X1 keeps that side
        # from being a chordless path
        g = Graph.from_edge_list(26, [(i, (i + 1) % 6) for i in range(6)])
        split = find_2join(g)
        assert split is not None
        assert validate_split(g, split, "full").ok


class TestSeeds:
    """The adjacency-mask seed listing against the edge-pair enumerator
    it replaced: every seed, those whose closure contradicts included,
    in the same order."""

    @staticmethod
    def seeds_agree(g):
        mine = list(_seeds(g))
        assert mine == list(reference_seeds(g)), g.edges()
        return len(mine)

    def test_every_small_graph(self):
        assert sum(map(self.seeds_agree, small_graphs())) > 350000

    def test_gnp_up_to_dense(self):
        graphs = gnp_graphs(51, 600, 7, 16, (0.2, 0.35, 0.5, 0.7, 0.85, 0.95))
        assert sum(map(self.seeds_agree, graphs)) > 150000

    def test_planted_2joins(self):
        rng = random.Random(52)
        total = 0
        for _ in range(300):
            total += self.seeds_agree(planted_2join(rng, rng.randint(11, 16)))
        assert total > 70000


class TestClosure:
    """The mask-algebra closure and its resumed retries against a fresh
    per-node reference closure for every seed and every retry node.

    _fixpoints leaves out the retries that end with X1 = V - {a2, b2}
    (find_2join skips them), so those are dropped from the reference;
    seed-pass fixpoints must match exactly.  A retry repeats the seed of
    an earlier entry, while the seed pass yields each seed once."""

    @staticmethod
    def fixpoints_agree(g):
        mine = list(_fixpoints(g))
        reference = reference_fixpoints(g)
        expected, seen = [], set()
        for a1, a2, b1, b2, x1 in reference:
            pins = (1 << a2) | (1 << b2)
            if (a1, a2, b1, b2) in seen and x1 == g.full_mask() & ~pins:
                continue
            seen.add((a1, a2, b1, b2))
            expected.append((a1, a2, b1, b2, x1))
        assert mine == expected, g.edges()
        for _a1, a2, _b1, b2, x1 in mine:
            # the pins always fit their own pattern, so never cross
            assert not x1 & ((1 << a2) | (1 << b2)), g.edges()
        return len(reference)

    def test_seed_with_three_outside_is_not_retried(self, monkeypatch):
        # a seed whose fixpoint leaves only the pins and one node outside
        # can only retry into X2 = {a2, b2}, so no retry resumes from it
        calls = []
        real = twojoin._closure

        def recording(adj, na2, nb2, dead, state, add):
            result = real(adj, na2, nb2, dead, state, add)
            calls.append((state, result))
            return result

        monkeypatch.setattr(twojoin, "_closure", recording)
        start = (0, -1, 0, -1, 0)
        few = 0
        for g in all_graphs(6):
            calls.clear()
            list(_fixpoints(g))
            for state, result in calls:
                if state != start:
                    assert (g.full_mask() & ~state[0]).bit_count() >= 4, g.edges()
                elif result is not None:
                    few += (g.full_mask() & ~result[0]).bit_count() <= 3
        assert few > 1000

    def test_every_small_graph(self):
        assert sum(map(self.fixpoints_agree, small_graphs())) > 600000

    def test_gnp(self):
        assert sum(map(self.fixpoints_agree, gnp_graphs(48, 600))) > 80000

    def test_planted_configurations(self):
        total = 0
        for i in range(60):
            g = plant_configuration(i, KINDS[i % len(KINDS)], 12 + i % 5)
            total += self.fixpoints_agree(g)
        assert total > 60000

    def test_sparse_planted_2joins(self):
        rng = random.Random(49)
        total = 0
        for _ in range(60):
            total += self.fixpoints_agree(planted_2join(rng, rng.randint(11, 16)))
        assert total > 120000


class TestSizeLemma:
    def test_consistent_splits_have_sides_of_four(self):
        rng = random.Random(43)
        comp, _ = composed_long_pyramids()
        corpus = [comp]
        for _ in range(300):
            corpus.append(random_graph(rng, rng.randint(6, 9),
                                       rng.choice([0.3, 0.5])))
        seen = 0
        for g in corpus:
            for split in all_2joins_brute(g):
                ok, _ = is_consistent(g, split)
                if ok:
                    seen += 1
                    assert split.X1.bit_count() >= 4 and split.X2.bit_count() >= 4
        assert seen > 0


class TestConsistencyLemma:
    def test_theta_wheel_free_no_cutset_implies_all_consistent(self):
        # every almost 2-join of a (theta, wheel)-free graph with no
        # clique cutset is consistent
        rng = random.Random(44)
        hits = 0
        trials = 0
        while hits < 25 and trials < 4000:
            trials += 1
            g = random_graph(rng, rng.randint(6, 9), rng.choice([0.2, 0.3, 0.45]))
            found = scan_configs(g, ("theta", "wheel"))
            if found["theta"] is not None or found["wheel"] is not None:
                continue
            if find_clique_cutset(g) is not None:
                continue
            almosts = all_almost_2joins_brute(g)
            hits += 1
            for split in almosts:
                ok, idx = is_consistent(g, split)
                assert ok, (g.edges(), split, idx)

    def test_composed_members_have_consistent_almosts(self):
        comp, _ = composed_long_pyramids()
        assert find_clique_cutset(comp) is None
        assert scan_configs(comp, ("theta", "wheel"))["theta"] is None
        for split in all_almost_2joins_brute(comp):
            ok, _ = is_consistent(comp, split)
            assert ok


class TestBlocks:
    def test_block_sizes(self):
        comp, split = composed_long_pyramids()
        (b1, m1), (b2, m2) = blocks_of_2join(comp, split)
        assert b1.n == split.X1.bit_count() + 3
        assert b2.n == split.X2.bit_count() + 3

    def test_marker_structure(self):
        comp, split = composed_long_pyramids()
        (b1, m1), _ = blocks_of_2join(comp, split)
        a, c, b = last_three(b1)
        assert b1.degree(c) == 2 and not b1.has_edge(a, b)
        assert mask_of(m1[v] for v in bits(b1.adj_mask(a)) if v != c) == split.A1
        assert mask_of(m1[v] for v in bits(b1.adj_mask(b)) if v != c) == split.B1
        assert m1[a] is None and m1[c] is None and m1[b] is None
        for new_id, old in enumerate(m1[:-3]):
            assert old is not None

    def test_blocks_recover_factors(self):
        lp = make_pyramid((2, 2, 2))
        comp, split = compose_2join_with_split(lp, (1, 4, 0), lp, (1, 4, 0))
        (b1, _), (b2, _) = blocks_of_2join(comp, split)
        assert is_isomorphic(b1, lp)
        assert is_isomorphic(b2, lp)

    def test_marker_side_consistency_is_inherited(self):
        comp, split = composed_long_pyramids()
        ok, _ = is_consistent(comp, split)
        assert ok
        for block, _m in blocks_of_2join(comp, split):
            ms = check_marker_precondition(block, last_three(block))
            assert is_consistent(block, ms)[0]

    def test_invalid_split_rejected(self):
        with pytest.raises(ValueError, match="not a 2-join"):
            blocks_of_2join(C8, C8_SPLIT)

    def test_blocks_and_compositions_revalidate(self):
        rng = random.Random(46)
        split_count = 0
        for _ in range(60):
            g = planted_2join(rng, rng.randint(8, 13))
            split = find_2join(g)
            if split is not None:
                split_count += 1
                for block, _ in blocks_of_2join(g, split):
                    assert_revalidates(block)
        composed = 0
        for _ in range(60):
            factors = []
            for _ in range(2):
                f = make_pyramid(tuple(sorted(rng.randint(2, 4) for _ in range(3))))
                factors += [f, rng.choice(_marker_candidates(f))]
            try:
                comp, _ = compose_2join_with_split(*factors)
            except ValueError:
                continue
            assert_revalidates(comp)
            composed += 1
        assert split_count >= 20 and composed >= 20


class TestCompose:
    def test_two_c7_give_c8(self):
        from truemper.graph import is_hole_graph
        comp = compose_2join(hole(7), (0, 1, 2), hole(7), (0, 1, 2))
        assert comp.n == 8 and is_hole_graph(comp)

    def test_two_holes_of_different_girth(self):
        from truemper.graph import is_hole_graph
        comp = compose_2join(hole(7), (0, 1, 2), hole(9), (0, 1, 2))
        assert comp.n == 10 and is_hole_graph(comp)

    def test_malformed_marker_rejected(self):
        c7 = hole(7)
        chord_02 = Graph.from_edge_list(7, c7.edges() + [(0, 2)])
        chord_14 = Graph.from_edge_list(7, c7.edges() + [(1, 4)])
        for g, marker, fault in (
                (c7, (0, 1, 7), "marker node 7 not in graph"),
                (c7, (-1, 0, 1), "marker node -1 not in graph"),
                (c7, (0, 1, 0), "marker nodes must be distinct"),
                (c7, (0, 2, 4), "marker nodes do not form a path"),
                (c7, (0, 1, 3), "marker nodes do not form a path"),
                (chord_02, (0, 1, 2), "marker path ends are adjacent"),
                (chord_14, (0, 1, 2), "marker middle node must have degree 2")):
            with pytest.raises(ValueError, match=fault):
                check_marker_precondition(g, marker)
            with pytest.raises(ValueError, match=fault):
                compose_2join(c7, (0, 1, 2), g, marker)
            with pytest.raises(ValueError, match=fault):
                compose_2join(g, marker, c7, (0, 1, 2))

    def test_small_hole_side_rejected(self):
        with pytest.raises(ValueError, match="almost 2-join"):
            compose_2join(hole(5), (0, 1, 2), hole(5), (0, 1, 2))

    def test_hole_factors_compose_to_almost_only_partitions(self):
        # hole sides are chordless paths with singleton specials, so the
        # induced partition of the composition never upgrades to a full
        # 2-join and the blocks cannot be recovered from it
        comp, split = compose_2join_with_split(hole(7), (0, 1, 2),
                                               hole(7), (0, 1, 2))
        assert validate_split(comp, split, "almost").ok
        assert not validate_split(comp, split, "full").ok
        with pytest.raises(ValueError, match="not a 2-join"):
            blocks_of_2join(comp, split)

    def test_marker_precondition_error_names_condition(self):
        # a path's marker side fails connectivity of the far side: build a
        # graph where X1 is disconnected
        g = Graph.from_edge_list(7, [(0, 1), (1, 2), (0, 3), (0, 4), (2, 5), (2, 6)])
        with pytest.raises(ValueError):
            check_marker_precondition(g, (0, 1, 2))


class TestPreservationLemmas:
    def test_keep_lemmas_and_round_trip(self):
        rng = random.Random(45)
        for _ in range(25):
            comp, split, g1, g2 = consistent_composition(rng)
            (b1, _), (b2, _) = blocks_of_2join(comp, split)
            assert is_isomorphic(b1, g1) and is_isomorphic(b2, g2)
            # clique cutsets transfer between the graph and its blocks
            free_g = find_clique_cutset(comp) is None
            free_b = (find_clique_cutset(b1) is None
                      and find_clique_cutset(b2) is None)
            assert free_g == free_b
            fg, f1, f2 = scan_configs(comp), scan_configs(b1), scan_configs(b2)
            assert (fg["prism"] is None) == (f1["prism"] is None
                                             and f2["prism"] is None)
            tw = lambda f: f["theta"] is None and f["wheel"] is None
            assert tw(fg) == (tw(f1) and tw(f2))


class TestDecompositionTree:
    def test_c9_single_no_2join_leaf(self):
        tree = two_join_decomposition_tree(hole(9))
        assert tree.calls == 1
        assert [leaf.kind for leaf in tree.leaves] == ["no-2join"]

    def test_composed_instance_decomposes(self):
        comp, _ = composed_long_pyramids()
        tree = two_join_decomposition_tree(comp)
        assert tree.root.kind == "internal"
        assert all(leaf.kind == "no-2join" for leaf in tree.leaves)

    def test_double_composition_has_two_internal_nodes(self):
        lp = make_pyramid((3, 3, 3))
        comp, _ = composed_long_pyramids()
        cands = _marker_candidates(comp)
        assert cands
        bigger = None
        for cand in cands:
            try:
                bigger, split = compose_2join_with_split(
                    comp, cand, lp, (4, 5, 1))
            except ValueError:
                continue
            if (validate_split(bigger, split, "full").ok
                    and is_consistent(bigger, split)[0]):
                break
            bigger = None
        assert bigger is not None
        tree = two_join_decomposition_tree(bigger)
        internal = tree.calls - len(tree.leaves)
        assert internal >= 2
        from truemper.basic import classify_basic, ONLY_PYRAMID_BASIC
        for leaf in tree.leaves:
            assert leaf.kind == "no-2join"
            assert classify_basic(leaf.graph).category in ONLY_PYRAMID_BASIC

    def test_nested_blocks_recompose(self):
        # blocks of a block carry two marker paths; the last three nodes
        # name the newest one
        internal = 0
        for seed in range(40):
            g, _ = synth_only_pyramid(seed, 30)
            todo = [two_join_decomposition_tree(leaf.graph).root
                    for leaf in clique_decomposition_tree(g).leaves]
            while todo:
                node = todo.pop()
                todo.extend(node.children)
                if node.is_leaf:
                    continue
                internal += 1
                (b1, _), (b2, _) = blocks_of_2join(node.graph, node.split)
                comp = compose_2join(b1, last_three(b1), b2, last_three(b2))
                assert is_isomorphic(comp, node.graph), (seed, node.split)
        assert internal == 33

    def test_call_bound(self):
        for g in gnp_graphs(46, 40, 7, 11, [0.2, 0.4, 0.6]):
            tree = two_join_decomposition_tree(g)
            assert tree.calls <= 2 * g.n - 13

    def test_json_leaf_kinds(self):
        tree = two_join_decomposition_tree(hole(9))
        data = tree.to_json()
        assert data["root"]["kind"] == "no-2join"
        assert data["tree"] == "consistent-2join"


# The smallest hits of a search over seeded G(n, p): rng = random.Random(seed),
# n = rng.randint(6, 9), p = rng.choice([0.3, 0.4, 0.5, 0.6, 0.7]), then
# random_graph(rng, n, p).  Each graph's 2-join tree has a non-consistent
# leaf that fails the keyed condition.
NON_CONSISTENT_LEAF = {
    1: (6, [(0, 1), (0, 5), (1, 4), (4, 5)]),
    2: (6, [(0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (1, 5), (2, 3), (2, 4)]),
    3: (6, [(0, 1), (0, 3), (1, 2), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5),
            (4, 5)]),
    4: (8, [(0, 3), (0, 6), (0, 7), (1, 2), (1, 5), (1, 7), (2, 5), (2, 6),
            (3, 4), (3, 5), (4, 6), (4, 7)]),
    5: (8, [(0, 4), (0, 5), (0, 6), (1, 2), (1, 4), (1, 5), (1, 7), (2, 3),
            (2, 4), (3, 6), (3, 7), (4, 7), (5, 6)]),
    6: (8, [(0, 4), (1, 5), (1, 6), (2, 4), (2, 6), (2, 7), (3, 5), (3, 7),
            (4, 5)]),
    7: (8, [(0, 5), (0, 7), (1, 2), (1, 4), (2, 6), (3, 6), (4, 7), (5, 6),
            (5, 7)]),
    8: (8, [(0, 2), (0, 3), (1, 4), (1, 6), (2, 7), (3, 4), (4, 6), (5, 7),
            (6, 7)]),
}

# From the same search: graphs with no clique cutset that only-pyramid
# rejects for a non-consistent 2-join failing the keyed condition.
NON_CONSISTENT_REJECT = {
    1: (6, [(0, 2), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (3, 4), (3, 5)]),
    2: (6, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5)]),
    3: (7, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (1, 6), (2, 3),
            (2, 4), (4, 6)]),
    4: NON_CONSISTENT_LEAF[4],
    5: NON_CONSISTENT_LEAF[5],
    6: (8, [(0, 4), (0, 5), (1, 2), (1, 4), (2, 5), (2, 6), (2, 7), (3, 4),
            (3, 6), (4, 7)]),
}


class TestNonConsistentLeaf:
    @pytest.mark.parametrize("cond", sorted(NON_CONSISTENT_LEAF))
    def test_leaf_names_failed_condition(self, cond):
        g = Graph.from_edge_list(*NON_CONSISTENT_LEAF[cond])
        tree = two_join_decomposition_tree(g)
        hits = [leaf for leaf in tree.leaves
                if leaf.kind == "non-consistent-2join"
                and leaf.failed_condition == cond]
        assert hits
        for leaf in hits:
            assert leaf.is_leaf
            assert validate_split(leaf.graph, leaf.split, "full")
            assert is_consistent(leaf.graph, leaf.split) == (False, cond)
        schema_validator("twojoin-tree.schema.json").validate(tree.to_json())

    @pytest.mark.parametrize("cond", sorted(NON_CONSISTENT_REJECT))
    def test_only_pyramid_rejects_with_condition(self, cond):
        g = Graph.from_edge_list(*NON_CONSISTENT_REJECT[cond])
        assert find_clique_cutset(g) is None
        report = recognize_only_pyramid(g)
        assert not report.verdict
        assert report.rejection.reason == "leaf carries a non-consistent 2-join"
        assert report.rejection.failed_condition == cond
