"""Oracle-free metamorphic checks above the oracle's node cap.

Two relations hold at every size, so they check verdicts where no
oracle or brute-force sweep reaches: relabeling the nodes never changes
a verdict, and every class is hereditary, so deleting one node of an
accepted graph leaves it accepted.  Any mismatch is a bug in the
recognizers, never a reason to pick other seeds.
"""

import random

import pytest

from truemper.gen import plant_configuration, synth_only_prism, synth_only_pyramid
from truemper.graph import Graph, induced_subgraph
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
