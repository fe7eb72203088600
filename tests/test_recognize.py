import gc
import json
import random
from itertools import permutations

import truemper.recognize
from truemper.gen import (glue_on_clique, make_pyramid, plant_configuration,
                          random_tf_chordless, synth_only_prism,
                          synth_only_pyramid)
from truemper.basic import line_graph
from truemper.cutset import clique_decomposition_tree
from truemper.decomp import INTERNAL, DecompNode, DecompTree, decompose
from truemper.graph import Graph, induced_subgraph
from truemper.oracle import (contains_config, is_prism, is_pyramid, is_theta,
                             is_wheel, scan_configs)
from truemper.recognize import (EXCLUDED_SETS, recognize_only_prism,
                                recognize_only_pyramid,
                                recognize_universally_signable)
from truemper.twojoin import two_join_decomposition_tree

from util import (all_graphs, consistent_composition, gnp_graphs,
                  perfect_elimination_chordal, planted_2join, random_graph,
                  reference_node_json, relabeled)

K4 = Graph.from_edge_list(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
W4 = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (0, 3),
                              (4, 0), (4, 1), (4, 2)])
PRISM6 = Graph.from_edge_list(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5),
                                  (4, 5), (0, 3), (1, 4), (2, 5)])
C7 = Graph.from_edge_list(7, [(i, (i + 1) % 7) for i in range(7)])

CHECKS = {"theta": is_theta, "wheel": is_wheel,
          "prism": is_prism, "pyramid": is_pyramid}


def oracle_verdict(g, class_name):
    found = scan_configs(g)
    return all(found[k] is None for k in EXCLUDED_SETS[class_name])


class TestOnlyPrism:
    def test_k4_accepted(self):
        assert recognize_only_prism(K4).verdict

    def test_w4_rejected_with_wheel_witness(self):
        report = recognize_only_prism(W4, witness_cap=14)
        assert not report.verdict
        assert report.rejection is not None
        assert report.rejection.witness.kind == "wheel"

    def test_prism_itself_accepted(self):
        assert recognize_only_prism(PRISM6).verdict

    def test_clique_gluings_accepted(self):
        rng = random.Random(50)
        for seed in range(5):
            g1 = line_graph(random_tf_chordless(seed, 7))
            g2 = line_graph(random_tf_chordless(seed + 100, 6))
            u = rng.randrange(g1.n)
            v = rng.randrange(g2.n)
            glued = glue_on_clique(g1, (u,), g2, (v,))
            assert recognize_only_prism(glued).verdict


class TestOnlyPyramid:
    def test_long_pyramid_accepted(self):
        assert recognize_only_pyramid(make_pyramid((2, 2, 2))).verdict

    def test_short_pyramid_rejected(self):
        # a pyramid with a unit path contains a wheel
        report = recognize_only_pyramid(make_pyramid((1, 2, 2)), witness_cap=14)
        assert not report.verdict
        assert report.rejection.witness.kind in ("theta", "wheel", "prism")

    def test_prism_rejected_with_witness(self):
        report = recognize_only_pyramid(PRISM6, witness_cap=14)
        assert not report.verdict
        assert report.rejection.witness.kind == "prism"

    def test_oracle_runs_for_the_first_rejecting_leaf_only(self, monkeypatch):
        calls = []

        def counting(g, kinds, cap):
            calls.append(g.n)
            return contains_config(g, kinds, cap=cap)

        monkeypatch.setattr(truemper.recognize, "contains_config", counting)
        two_prisms = Graph.from_edge_list(
            12, PRISM6.edges() + [(u + 6, v + 6) for u, v in PRISM6.edges()])
        report = recognize_only_pyramid(two_prisms, witness_cap=14)
        assert [leaf.accepted for leaf in report.leaves] == [False, False]
        assert report.rejection.witness.kind == "prism"
        assert calls == [6]


class TestUniversallySignable:
    def test_chordal_accepted(self):
        rng = random.Random(51)
        for _ in range(20):
            g = perfect_elimination_chordal(rng, rng.randint(1, 11))
            assert recognize_universally_signable(g).verdict

    def test_c7_accepted(self):
        assert recognize_universally_signable(C7).verdict

    def test_prism_rejected(self):
        assert not recognize_universally_signable(PRISM6).verdict

    def test_matches_all_four_exclusion(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                want = all(w is None for w in scan_configs(g).values())
                assert recognize_universally_signable(g).verdict == want
        for g in gnp_graphs(52, 150, 6, 9, [0.2, 0.4, 0.6]):
            want = all(w is None for w in scan_configs(g).values())
            assert recognize_universally_signable(g).verdict == want, g.edges()


class TestOracleAgreement:
    def test_exhaustive_tiny(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                assert recognize_only_prism(g).verdict == oracle_verdict(g, "only-prism")
                assert (recognize_only_pyramid(g).verdict
                        == oracle_verdict(g, "only-pyramid"))

    def test_random_medium(self):
        for g in gnp_graphs(53, 200, 6, 10, [0.2, 0.45, 0.7]):
            assert recognize_only_prism(g).verdict == oracle_verdict(g, "only-prism"), g.edges()
            assert (recognize_only_pyramid(g).verdict
                    == oracle_verdict(g, "only-pyramid")), g.edges()


class TestReports:
    def test_acceptance_carries_certificates(self):
        report = recognize_only_prism(K4)
        assert all(leaf.accepted and leaf.basic is not None
                   for leaf in report.leaves)

    def test_rejection_witness_revalidates(self):
        rng = random.Random(54)
        seen = 0
        while seen < 20:
            g = random_graph(rng, rng.randint(5, 9), 0.5)
            for recognizer, cls in ((recognize_only_prism, "only-prism"),
                                    (recognize_only_pyramid, "only-pyramid")):
                report = recognizer(g, witness_cap=14)
                if report.verdict or report.rejection is None:
                    continue
                w = report.rejection.witness
                if w is None:
                    continue
                seen += 1
                assert w.kind in EXCLUDED_SETS[cls]
                sub, _ = induced_subgraph(report.rejection.graph, w.nodes)
                assert CHECKS[w.kind](sub) is not None

    def test_planted_rejections(self):
        for seed in range(8):
            g = plant_configuration(seed, "prism", 11)
            assert not recognize_only_pyramid(g).verdict
            g = plant_configuration(seed, "pyramid", 11)
            assert not recognize_only_prism(g).verdict

    def test_json_shape(self):
        report = recognize_only_pyramid(make_pyramid((2, 2, 2)))
        data = report.to_json()
        assert data["class"] == "only-pyramid" and data["verdict"] is True
        assert data["clique_tree"]["tree"] == "clique-cutset"
        assert all("accepted" in leaf for leaf in data["leaves"])


class TestDegenerateInputs:
    def test_tiny_graphs_accepted_everywhere(self):
        for n in (0, 1, 2):
            for g in all_graphs(n):
                assert recognize_only_prism(g).verdict
                assert recognize_only_pyramid(g).verdict
                assert recognize_universally_signable(g).verdict

    def test_disconnected_input(self):
        two_prisms = Graph.from_edge_list(
            12, PRISM6.edges() + [(u + 6, v + 6) for u, v in PRISM6.edges()])
        assert recognize_only_prism(two_prisms).verdict
        assert not recognize_only_pyramid(two_prisms).verdict

        two_pyramids = Graph.from_edge_list(
            14, make_pyramid((2, 2, 2)).edges()
            + [(u + 7, v + 7) for u, v in make_pyramid((2, 2, 2)).edges()])
        assert recognize_only_pyramid(two_pyramids).verdict
        assert not recognize_only_prism(two_pyramids).verdict

    def test_many_components(self):
        # an empty cutset halves the components, so the clique tree is
        # about log2 k deep, within reach of recursion and json.dumps
        isolated = Graph.from_edge_list(1200, [])
        matching = Graph.from_edge_list(2000, [(2 * i, 2 * i + 1) for i in range(1000)])
        for g, leaves in ((isolated, 1200), (matching, 1000)):
            for rec in (recognize_only_prism, recognize_only_pyramid,
                        recognize_universally_signable):
                report = rec(g)
                assert report.verdict and len(report.leaves) == leaves
                assert json.loads(json.dumps(report.to_json()))["verdict"]
                assert report.clique_tree.to_dot().count(" -- ") == 2 * leaves - 2


RECOGNIZERS = (recognize_only_prism, recognize_only_pyramid,
               recognize_universally_signable)


def shared_tree_corpus() -> list[Graph]:
    """Seeded G(n, p), planted configurations of every kind and members
    of both synthesized classes."""
    graphs = list(gnp_graphs(60, 24, 5, 11, [0.2, 0.5, 0.8]))
    graphs += [plant_configuration(seed, kind, 11) for seed in range(2)
               for kind in ("theta", "wheel", "prism", "pyramid")]
    graphs += [synth_only_prism(seed, 16)[0] for seed in range(3)]
    graphs += [synth_only_pyramid(seed, 12)[0] for seed in range(3)]
    return graphs


def outputs(report):
    return json.dumps(report.to_json()), report.clique_tree.to_dot()


def cold_outputs(rec, g):
    """rec's report on g with its clique tree built afresh."""
    truemper.recognize._last_tree = None
    return outputs(rec(g, witness_cap=14))


class TestSharedCliqueTree:
    def test_every_order_matches_a_cold_build(self):
        for g in shared_tree_corpus():
            want = {rec: cold_outputs(rec, g) for rec in RECOGNIZERS}
            for order in permutations(RECOGNIZERS):
                truemper.recognize._last_tree = None
                reports = [rec(g, witness_cap=14) for rec in order]
                assert all(r.clique_tree is reports[0].clique_tree for r in reports)
                for rec, report in zip(order, reports):
                    assert outputs(report) == want[rec], (rec.__name__, g.edges())

    def test_interleaved_graphs_match_cold_builds(self):
        # each graph comes with an equal-sized relabeling, so a memo that
        # told graphs apart by size alone would hand one the other's tree
        rng = random.Random(61)
        graphs = []
        for g in shared_tree_corpus():
            graphs += [g, relabeled(g, rng)]
        want = [{rec: cold_outputs(rec, g) for rec in RECOGNIZERS} for g in graphs]
        for i in range(len(graphs) - 1):
            for rec in RECOGNIZERS:
                for k in (i, i + 1, i):
                    report = rec(graphs[k], witness_cap=14)
                    assert outputs(report) == want[k][rec], (rec.__name__, k)

    def test_an_equal_graph_object_hits_the_memo(self):
        g = plant_configuration(3, "prism", 11)
        twin = Graph(g.n, [g.adj_mask(v) for v in range(g.n)])
        assert twin is not g and twin == g
        truemper.recognize._last_tree = None
        first = recognize_only_prism(g)
        assert recognize_only_pyramid(twin).clique_tree is first.clique_tree

    def test_builds_counted(self, monkeypatch):
        builds = []

        def counting(g):
            builds.append(g)
            return clique_decomposition_tree(g)

        monkeypatch.setattr(truemper.recognize, "clique_decomposition_tree", counting)
        monkeypatch.setattr(truemper.recognize, "_last_tree", None)
        g1 = plant_configuration(4, "theta", 11)
        g2 = relabeled(g1, random.Random(62))
        assert g2 != g1
        for rec in RECOGNIZERS:
            rec(g1)
        assert builds == [g1]
        builds.clear()
        truemper.recognize._last_tree = None
        for g in (g1, g2, g1):
            recognize_only_pyramid(g)
        assert builds == [g1, g2, g1]


class TestNoReferenceCycles:
    def test_recognition_leaves_nothing_for_the_cycle_collector(self):
        # each report is freed by reference counting alone
        rng = random.Random(18)
        graphs = [random_graph(rng, rng.randint(7, 11), 0.4) for _ in range(4)]
        graphs += [plant_configuration(i, kind, 10)
                   for i, kind in enumerate(("theta", "wheel", "prism", "pyramid"))]
        gc.collect()
        gc.disable()
        try:
            for g in graphs:
                for rec in (recognize_only_prism, recognize_only_pyramid,
                            recognize_universally_signable):
                    report = rec(g, witness_cap=14)
                    json.dumps(report.to_json())
                    report.clique_tree.to_dot()
                    for leaf in report.leaves:
                        if leaf.twojoin_tree is not None:
                            leaf.twojoin_tree.to_dot()
            del report
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDeepTrees:
    def test_builder_and_dot_writer_take_3000_levels(self):
        # each level peels one node off as a finished leaf: far deeper
        # than the recursion limit
        def peel(g):
            if g.n == 1:
                return DecompNode(g, "leaf"), None
            single = DecompNode(Graph.derived(1, [0]), "leaf")
            rest = Graph.derived(g.n - 1, [0] * (g.n - 1))
            return DecompNode(g, INTERNAL), ((single, (0,)),
                                             (rest, tuple(range(1, g.n))))

        n = 3001
        root, leaves = decompose(Graph.derived(n, [0] * n), peel, tuple(range(n)))
        assert [leaf.origin for leaf in leaves] == [(v,) for v in range(n)]
        tree = DecompTree(root, leaves, {}, "chain", lambda node: node.kind)
        lines = tree.to_dot().splitlines()
        assert lines[2:5] == ['  v0 [label="internal"];', '  v1 [label="leaf"];',
                              "  v0 -- v1;"]
        # the last leaf, v(2n - 2), closes the right spine's edges bottom up
        assert lines[-n:-1] == [f"  v{2 * k} -- v{2 * k + 2};"
                                for k in reversed(range(n - 1))]
        assert len(lines) == 3 + (2 * n - 1) + (2 * n - 2)
        # the JSON builder takes the chain too: one level per peeled node
        node = tree.to_json()["root"]
        for v in range(n - 1):
            assert node["kind"] == INTERNAL and node["n"] == n - v
            single, node = node["children"]
            assert single["origin"] == [v] and single["kind"] == "leaf"
        assert node["origin"] == [n - 1] and "children" not in node

    def test_json_matches_the_recursive_writer(self):
        rng = random.Random(63)
        trees = [clique_decomposition_tree(g)
                 for g in gnp_graphs(64, 60, 5, 12, [0.2, 0.5, 0.8])]
        trees += [two_join_decomposition_tree(planted_2join(rng, rng.randint(8, 14)))
                  for _ in range(30)]
        trees += [two_join_decomposition_tree(consistent_composition(rng)[0])
                  for _ in range(20)]
        assert any(len(t.leaves) > 2 for t in trees)
        for tree in trees:
            assert (json.dumps(tree.root.to_json())
                    == json.dumps(reference_node_json(tree.root)))
