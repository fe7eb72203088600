"""Oracle-free metamorphic checks above the oracle's node cap.

These relations hold at every size, so they check verdicts where no
oracle or brute-force sweep reaches: relabeling the nodes never changes
a verdict; every class is hereditary, so deleting one node of an
accepted graph leaves it accepted; gluing two members on a clique gives
a member; and the line graph of a triangle-free chordless graph is
only-prism.  Any mismatch is a bug in the recognizers, never a reason
to pick other seeds.
"""

import random

import pytest

from truemper.basic import line_graph
from truemper.gen import (glue_on_clique, plant_configuration, random_tf_chordless,
                          synth_only_prism, synth_only_pyramid)
from truemper.graph import Graph, bits, cliques, induced_subgraph
from truemper.recognize import (recognize_only_prism, recognize_only_pyramid,
                                recognize_universally_signable)

from util import perfect_elimination_chordal


def relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def assert_relabelings_agree(g, recognize, expected, seed):
    assert g.n > 14  # above the oracle's cap
    assert recognize(g).verdict is expected
    rng = random.Random(seed)
    for _ in range(2):
        assert recognize(relabeled(g, rng)).verdict is expected


SYNTH = {"only-prism": (synth_only_prism, recognize_only_prism),
         "only-pyramid": (synth_only_pyramid, recognize_only_pyramid)}


@pytest.mark.parametrize("cls", sorted(SYNTH))
@pytest.mark.parametrize("seed, size", [(1, 30), (1, 40), (2, 30), (2, 40)])
def test_relabeling_keeps_member_verdicts(cls, seed, size):
    synth, recognize = SYNTH[cls]
    assert_relabelings_agree(synth(seed, size)[0], recognize, True,
                             f"relabel:{cls}:{seed}:{size}")


@pytest.mark.parametrize("kind", ["theta", "wheel", "prism"])
@pytest.mark.parametrize("seed", [1, 2])
def test_relabeling_keeps_planted_rejections(kind, seed):
    # the only-pyramid class excludes all three planted kinds
    assert_relabelings_agree(plant_configuration(seed, kind, 30),
                             recognize_only_pyramid, False,
                             f"relabel:{kind}:{seed}")


HEREDITY_CASES = {
    "only-prism": (lambda: synth_only_prism(1, 30)[0], recognize_only_prism),
    "only-pyramid": (lambda: synth_only_pyramid(1, 30)[0], recognize_only_pyramid),
    "universally-signable": (lambda: perfect_elimination_chordal(random.Random(5), 30),
                             recognize_universally_signable),
}


@pytest.mark.parametrize("case", sorted(HEREDITY_CASES))
def test_single_node_deletions_stay_accepted(case):
    make, recognize = HEREDITY_CASES[case]
    g = make()
    assert g.n >= 30 and recognize(g).verdict
    for v in range(g.n):
        sub, _ = induced_subgraph(g, [u for u in range(g.n) if u != v])
        assert recognize(sub).verdict, v


def clique_of_size(g, k, rng):
    # the empty clique gives the disjoint union
    if not k:
        return []
    return bits(rng.choice([c for c in cliques(g, g.full_mask()) if c.bit_count() == k]))


GLUE_CASES = {
    "only-prism": (lambda: [synth_only_prism(s, 30)[0] for s in (1, 2)],
                   recognize_only_prism, 3),
    "only-pyramid": (lambda: [synth_only_pyramid(s, 30)[0] for s in (1, 2)],
                     recognize_only_pyramid, 2),
    "universally-signable": (lambda: [perfect_elimination_chordal(random.Random(s), 30)
                                      for s in (5, 6)],
                             recognize_universally_signable, 3),
}


@pytest.mark.parametrize("case", sorted(GLUE_CASES))
def test_gluing_two_members_on_a_clique_stays_accepted(case):
    # no Truemper configuration has a clique cutset, so each class is
    # closed under gluing two of its members on a clique
    make, recognize, max_k = GLUE_CASES[case]
    g1, g2 = make()
    rng = random.Random(f"glue:{case}")
    for k in range(max_k + 1):
        g = glue_on_clique(g1, clique_of_size(g1, k, rng), g2, clique_of_size(g2, k, rng))
        assert g.n == g1.n + g2.n - k > 14
        assert recognize(g).verdict, k


@pytest.mark.parametrize("seed", [1, 2])
def test_relabeled_tf_chordless_line_graphs_stay_only_prism(seed):
    # the line graph of a triangle-free chordless graph is basic for only-prism
    assert_relabelings_agree(line_graph(random_tf_chordless(seed, 60)),
                             recognize_only_prism, True, f"relabel:lg:{seed}")
