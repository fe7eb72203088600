import random

import pytest

from truemper.graph import Graph, bits, induced_subgraph, mask_of
from truemper.oracle import (KINDS, OracleScaleError, _three_path_mask,
                             contains_config, has_star_cutset, is_long_pyramid,
                             is_prism, is_pyramid, is_theta, is_wheel,
                             scan_configs)
from truemper.gen import make_pyramid

from util import (all_graphs, config_templates, random_graph,
                  reference_degree3, reference_prism_mask,
                  reference_pyramid_mask, reference_scan,
                  reference_theta_mask, template_contains)

K23 = Graph.from_edge_list(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
PRISM6 = Graph.from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5),
                                  (4, 5), (0, 3), (1, 4), (2, 5)])
C7 = Graph.from_edge_list(7, [(i, (i + 1) % 7) for i in range(7)])


def holes_of(g):
    """All node subsets inducing a hole (brute force; test helper)."""
    from itertools import combinations
    out = []
    for size in range(4, g.n + 1):
        for combo in combinations(range(g.n), size):
            sub, _ = induced_subgraph(g, combo)
            from truemper.graph import is_hole_graph
            if is_hole_graph(sub):
                out.append(set(combo))
    return out


class TestWholeGraphChecks:
    def test_k23_is_theta(self):
        w = is_theta(K23)
        assert w is not None and w.kind == "theta"
        assert all(len(p) == 3 for p in w.structure["paths"])

    def test_prism_with_unit_paths(self):
        w = is_prism(PRISM6)
        assert w is not None
        assert all(len(p) == 2 for p in w.structure["paths"])

    def test_seven_node_pyramid(self):
        w = is_pyramid(make_pyramid((2, 2, 2)))
        assert w is not None and all(len(p) == 3 for p in w.structure["paths"])

    def test_k4_is_not_a_pyramid(self):
        k4 = Graph.from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        assert is_pyramid(k4) is None

    def test_pyramid_enumeration_against_definition(self):
        # every template built from the definition is recognized, and the
        # structural check refuses non-pyramids of the same sizes
        for tmpl in config_templates(8)["pyramid"]:
            assert is_pyramid(tmpl) is not None
        assert is_pyramid(K23) is None
        assert is_pyramid(PRISM6) is None

    def test_wheel_is_rim_plus_center(self):
        w4 = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3),
                                      (4, 0), (4, 1), (4, 2)])
        w = is_wheel(w4)
        assert w is not None
        rim, center = w.structure["rim"], w.structure["center"]
        assert len(rim) == 4 and center not in rim
        assert sum(1 for v in rim if w4.has_edge(center, v)) >= 3
        for i, v in enumerate(rim):
            assert w4.has_edge(v, rim[(i + 1) % len(rim)])


class TestWitnessStructure:
    # the exact order rules of the witnesses, which reports carry

    def test_theta_paths_ordered_by_lowest_interior_node(self):
        g = Graph.from_edge_list(8, [(0, 7), (7, 2), (2, 1), (0, 5), (5, 1),
                                     (0, 6), (6, 3), (3, 4), (4, 1)])
        w = is_theta(g)
        assert (w.structure["a"], w.structure["b"]) == (0, 1)
        # by a's neighbors the order would be 5, 6, 7
        assert w.structure["paths"] == [[0, 7, 2, 1], [0, 6, 3, 4, 1], [0, 5, 1]]

    def test_wheel_rim_from_lowest_node_toward_its_lower_neighbor(self):
        g = Graph.from_edge_list(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 0),
                                     (5, 0), (5, 1), (5, 4)])
        w = is_wheel(g)
        assert w.structure == {"rim": [0, 2, 4, 1, 3], "center": 5}

    def test_pyramid_with_one_short_path(self):
        g = Graph.from_edge_list(6, [(1, 2), (1, 3), (2, 3), (0, 1), (0, 4),
                                     (4, 2), (0, 5), (5, 3)])
        w = is_pyramid(g)
        assert w.structure == {"apex": 0, "triangle": [1, 2, 3],
                               "paths": [[0, 1], [0, 4, 2], [0, 5, 3]]}
        assert not is_long_pyramid(g)


class TestThreePathReader:
    # one reader for thetas, pyramids and prisms: the kind follows from
    # the ends, and the witness must be the old per-kind check's

    REFERENCES = {"theta": reference_theta_mask, "prism": reference_prism_mask,
                  "pyramid": reference_pyramid_mask}

    def assert_matches_references(self, g):
        for sub in range(1 << g.n):
            deg3 = reference_degree3(g, sub)
            if deg3 is None:
                continue
            got = _three_path_mask(g, sub, deg3)
            for kind, reference in self.REFERENCES.items():
                want = reference(g, sub)
                assert (got if got is not None and got.kind == kind else None) == want, \
                    (g.edges(), bits(sub))

    def test_matches_per_kind_checks_on_templates(self):
        for graphs in config_templates(9).values():
            for g in graphs:
                self.assert_matches_references(g)

    def test_matches_per_kind_checks_on_random_graphs(self):
        rng = random.Random(37)
        for n in range(7, 12):
            for _ in range(100):
                self.assert_matches_references(
                    random_graph(rng, n, rng.choice([0.25, 0.35, 0.45, 0.6])))

    def test_theta_with_adjacent_ends_is_rejected(self):
        # a, b = 0, 1 joined by paths of lengths 1, 3 and 3
        g = Graph.from_edge_list(6, [(0, 1), (0, 2), (2, 3), (3, 1),
                                     (0, 4), (4, 5), (5, 1)])
        assert is_theta(g) is None and is_pyramid(g) is None and is_prism(g) is None

    def test_pyramid_with_two_short_paths_is_rejected(self):
        # apex 0 next to triangle nodes 1 and 2; its triangle 0 1 2 meets
        # the triangle 1 2 3
        g = Graph.from_edge_list(6, [(1, 2), (1, 3), (2, 3), (0, 1), (0, 2),
                                     (0, 4), (4, 5), (5, 3)])
        assert is_pyramid(g) is None and is_theta(g) is None and is_prism(g) is None

    def test_k3_times_k2_is_a_prism(self):
        # three paths of length 1 join the two triangles
        w = is_prism(PRISM6)
        assert w.structure == {"triangles": [[0, 1, 2], [3, 4, 5]],
                               "paths": [[0, 3], [1, 4], [2, 5]]}
        assert is_pyramid(PRISM6) is None and is_theta(PRISM6) is None


class TestLongPyramid:
    def test_all_paths_length_two(self):
        assert is_long_pyramid(make_pyramid((2, 2, 2)))

    def test_one_short_path(self):
        assert not is_long_pyramid(make_pyramid((1, 2, 2)))

    def test_non_pyramid(self):
        c6 = Graph.from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
        assert not is_long_pyramid(c6)

    def test_long_means_wheel_free(self):
        # the wheel-free pyramids are exactly the long ones
        for tmpl in config_templates(9)["pyramid"]:
            wheel_free = contains_config(tmpl, ["wheel"]) is None
            assert is_long_pyramid(tmpl) == wheel_free


class TestContainsConfig:
    def test_hole_contains_nothing(self):
        assert contains_config(C7) is None

    def test_wheel_found_inside_host(self):
        g = Graph.from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                                     (5, 0), (5, 1), (5, 2)])
        w = contains_config(g, ["wheel"])
        assert w is not None and w.kind == "wheel"
        sub, _ = induced_subgraph(g, w.nodes)
        assert is_wheel(sub) is not None

    def test_short_pyramid_contains_pyramid_and_wheel(self):
        g = make_pyramid((1, 2, 2))
        assert contains_config(g, ["pyramid"]) is not None
        assert contains_config(g, ["wheel"]) is not None

    def test_cap_is_enforced(self):
        big = Graph.from_edge_list(15, [(i, i + 1) for i in range(14)])
        with pytest.raises(OracleScaleError, match="oracle scale exceeded"):
            contains_config(big)
        assert contains_config(big, cap=15) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            contains_config(C7, ["pentagon"])
        with pytest.raises(ValueError, match=r"\['pentagon'\]"):
            contains_config(C7, "pentagon")

    def test_bare_kind_name_is_one_kind(self):
        g = make_pyramid((1, 2, 2))
        for kind in KINDS:
            assert scan_configs(g, kind) == scan_configs(g, (kind,))
        assert scan_configs(K23, "theta") == scan_configs(K23, ("theta",))
        assert contains_config(g, "wheel") is not None

    def test_one_shot_iterable_of_kinds(self):
        g = make_pyramid((1, 2, 2))
        assert (scan_configs(g, iter(["wheel", "pyramid"]))
                == scan_configs(g, ("wheel", "pyramid")))

    def test_deterministic_witness(self):
        g = make_pyramid((1, 2, 2))
        w1 = contains_config(g)
        w2 = contains_config(g)
        assert w1.to_json() == w2.to_json()

    def test_witnesses_revalidate(self):
        from truemper.graph import (is_chordless_cycle_sequence,
                                    is_chordless_path_sequence)
        checks = {"theta": is_theta, "wheel": is_wheel,
                  "prism": is_prism, "pyramid": is_pyramid}
        rng = random.Random(17)
        seen = 0
        while seen < 40:
            g = random_graph(rng, rng.randint(5, 9), 0.4)
            found = scan_configs(g)
            for kind, w in found.items():
                if w is None:
                    continue
                sub, idmap = induced_subgraph(g, w.nodes)
                again = checks[kind](sub)
                assert again is not None
                # the reported pieces are node sequences in g's own ids
                if kind == "wheel":
                    assert is_chordless_cycle_sequence(g, w.structure["rim"])
                else:
                    for path in w.structure["paths"]:
                        assert is_chordless_path_sequence(g, path)
                seen += 1


class TestAgainstTemplateOracle:
    def test_exhaustive_small(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                got = {k: w is not None for k, w in scan_configs(g).items()}
                want = (template_contains(g, KINDS) if n >= 5
                        else {k: False for k in KINDS})
                assert got == want, (n, g.edges())

    @pytest.mark.parametrize("density", [0.3, 0.5, 0.7])
    def test_random_medium(self, density):
        rng = random.Random(int(density * 100))
        for _ in range(60):
            g = random_graph(rng, rng.randint(6, 8), density)
            got = {k: w is not None for k, w in scan_configs(g).items()}
            assert got == template_contains(g, KINDS), g.edges()


# every non-empty set of kinds, in KINDS order
KIND_SETS = [tuple(k for i, k in enumerate(KINDS) if m >> i & 1) for m in range(1, 16)]


def as_json(found):
    return {k: None if w is None else w.to_json() for k, w in found.items()}


class TestPrunedSweep:
    # the pruned DFS must visit the subsets that matter in the same
    # (size, lexicographic) order as the combinations sweep it replaced

    def assert_matches_reference(self, g, kind_sets):
        for kinds in kind_sets:
            assert as_json(scan_configs(g, kinds)) == \
                as_json(reference_scan(g, kinds, first_only=False)), (g.edges(), kinds)
            # the first-only sweep stops at its first witness
            first = [w.to_json() for w in reference_scan(g, kinds, first_only=True).values()
                     if w is not None]
            got = contains_config(g, kinds)
            assert ([] if got is None else [got.to_json()]) == first, (g.edges(), kinds)

    def test_every_graph_up_to_six_nodes(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                self.assert_matches_reference(g, KIND_SETS if n <= 5 else [KINDS])
        for i, g in enumerate(all_graphs(6)):
            # every 7th graph, so that each set of kinds meets a spread of graphs
            if i % 7 == 0:
                self.assert_matches_reference(g, [KIND_SETS[i // 7 % 15]])

    @pytest.mark.parametrize("p", [0.15, 0.35, 0.5, 0.65, 0.8])
    def test_random_graphs_up_to_the_cap(self, p):
        rng = random.Random(f"pruned:{p}")
        for n in range(7, 15):
            for _ in range(4):
                self.assert_matches_reference(random_graph(rng, n, p),
                                              [KINDS] + rng.sample(KIND_SETS, 2))

    def test_short_pyramid_reads_as_a_wheel_first(self):
        # four degree-3 nodes and none above: the wheel filter must let
        # the (1,2,2)-pyramid through to the wheel reader
        g = make_pyramid((1, 2, 2))
        assert contains_config(g, ("wheel", "pyramid")).kind == "wheel"
        found = scan_configs(g, ("wheel", "pyramid"))
        assert found["wheel"].nodes == found["pyramid"].nodes == frozenset(range(6))

    @pytest.mark.parametrize("k, spokes", [(4, (0, 1, 2, 3)), (6, (0, 1, 2, 4)),
                                           (5, (0, 1, 2, 3, 4))])
    def test_wheel_with_a_centre_above_degree_three(self, k, spokes):
        # one node of degree >= 4 is allowed, and the wheel then has as
        # many degree-3 nodes as its centre k has spokes on the rim C_k
        rim = [(i, (i + 1) % k) for i in range(k)]
        g = Graph.from_edge_list(k + 1, rim + [(v, k) for v in spokes])
        w = contains_config(g, "wheel")
        assert w is not None and w.structure["center"] == k
        assert w.nodes == frozenset(range(k + 1))

    def test_low_degree_node_waits_for_the_last_node(self):
        # K_{2,3} with ends 3, 4: after {0, 1, 2} every node has degree 0
        # and needs both later nodes; after {0, 1, 2, 3} degree 1, and
        # needs the last node
        g = Graph.from_edge_list(5, [(u, v) for u in (0, 1, 2) for v in (3, 4)])
        w = contains_config(g, "theta")
        assert w is not None and w.nodes == frozenset(range(5))

    def test_three_path_kinds_found_after_the_wheel(self):
        # once the wheel is found no node may exceed degree 3, but nodes of
        # degree 3 still may: the 4-wheel on 0..4 comes first, then K_{2,3}
        # on 5..9 and a prism on 10..15
        edges = [(0, 1), (1, 2), (2, 3), (0, 3)] + [(v, 4) for v in range(4)]
        edges += [(u, v) for u in (5, 6) for v in (7, 8, 9)]
        edges += [(u + 10, v + 10) for u, v in PRISM6.edges()]
        g = Graph.from_edge_list(16, edges)
        found = scan_configs(g, ("theta", "wheel", "prism"), cap=16)
        assert found["wheel"].nodes == frozenset(range(5))
        assert found["theta"].nodes == frozenset(range(5, 10))
        assert found["prism"].nodes == frozenset(range(10, 16))


class TestHoleNeighborLemma:
    def test_outside_node_sees_at_most_two_adjacent(self):
        # in a (theta, wheel)-free graph every node off a hole has at most
        # two neighbors on it, and two only when they are adjacent
        rng = random.Random(23)
        checked = 0
        while checked < 30:
            g = random_graph(rng, rng.randint(5, 8), 0.35)
            found = scan_configs(g, ("theta", "wheel"))
            if found["theta"] is not None or found["wheel"] is not None:
                continue
            for hole in holes_of(g):
                for v in range(g.n):
                    if v in hole:
                        continue
                    nbrs = [u for u in g.neighbors(v) if u in hole]
                    assert len(nbrs) <= 2
                    if len(nbrs) == 2:
                        assert g.has_edge(nbrs[0], nbrs[1])
            checked += 1


class TestFourHoleLemma:
    def test_connected_only_pyramid_with_4hole(self):
        from truemper.cutset import find_clique_cutset
        from truemper.graph import is_connected, is_hole_graph
        rng = random.Random(29)
        hits = 0
        while hits < 25:
            g = random_graph(rng, rng.randint(4, 8), 0.4)
            if not is_connected(g):
                continue
            found = scan_configs(g)
            if any(found[k] is not None for k in ("theta", "wheel", "prism")):
                continue
            four_holes = [h for h in holes_of(g) if len(h) == 4]
            if not four_holes:
                continue
            hits += 1
            assert is_hole_graph(g) or find_clique_cutset(g) is not None


class TestStarCutset:
    def test_path_of_three(self):
        g = Graph.from_edge_list(3, [(0, 1), (1, 2)])
        assert has_star_cutset(g) == (1, mask_of({1}))

    def test_c5_has_none(self):
        c5 = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert has_star_cutset(c5) is None

    def test_diamond(self):
        dia = Graph.from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        center, cutset = has_star_cutset(dia)
        assert center == 0 and cutset == mask_of({0, 1})

    def test_witness_is_a_cutset_inside_a_star(self):
        from truemper.graph import components
        rng = random.Random(31)
        for _ in range(60):
            g = random_graph(rng, rng.randint(3, 8), 0.4)
            res = has_star_cutset(g)
            if res is None:
                continue
            center, cutset = res
            assert cutset >> center & 1
            closed = g.adj_mask(center) | 1 << center
            assert not cutset & ~closed
            rest, _ = induced_subgraph(g, bits(g.full_mask() & ~cutset))
            assert len(components(rest)) >= 2
