"""Recognition of the only-prism, only-pyramid and universally-signable
graph classes via decomposition.

only-prism graphs exclude thetas, wheels and pyramids; only-pyramid
graphs exclude thetas, wheels and prisms; universally-signable graphs
exclude all four configurations.  One driver, _recognize, serves all
three: it decomposes the input along clique cutsets and hands every
leaf to the class's certifier.  only-prism leaves must be line graphs of
triangle-free chordless graphs; only-pyramid leaves are decomposed
further along consistent 2-joins, whose terminal graphs must be cliques,
holes, long pyramids or pyramid-basic graphs; universally-signable
leaves must be cliques or holes.  The first failing leaf becomes the
rejection, and only its graph goes to the oracle for a witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .basic import (BasicVerdict, ONLY_PYRAMID_BASIC, classify_basic,
                    is_lg_tf_chordless)
from .cutset import clique_decomposition_tree
from .decomp import DecompNode, DecompTree
from .graph import Graph, graph_json, is_clique_graph, is_hole_graph
from .oracle import ConfigWitness, contains_config
from .twojoin import LEAF_NON_CONSISTENT, two_join_decomposition_tree

EXCLUDED_SETS = {
    "only-prism": ("theta", "wheel", "pyramid"),
    "only-pyramid": ("theta", "wheel", "prism"),
    "universally-signable": ("theta", "wheel", "prism", "pyramid"),
}

CLASS_NAMES = tuple(EXCLUDED_SETS)


@dataclass
class LeafReport:
    """Certification outcome for one clique-tree leaf."""

    graph: Graph
    origin: tuple[int, ...]
    accepted: bool
    basic: Optional[BasicVerdict] = None
    twojoin_tree: Optional[DecompTree] = None
    terminal_verdicts: list[BasicVerdict] = field(default_factory=list)

    def to_json(self) -> dict:
        out = {
            **graph_json(self.graph),
            "origin": list(self.origin),
            "accepted": self.accepted,
        }
        if self.basic is not None:
            out["basic"] = self.basic.to_json()
        if self.twojoin_tree is not None:
            out["twojoin_tree"] = self.twojoin_tree.to_json()
            out["terminal_verdicts"] = [v.to_json() for v in self.terminal_verdicts]
        return out


@dataclass
class Rejection:
    reason: str
    graph: Graph
    witness: Optional[ConfigWitness] = None
    failed_condition: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "reason": self.reason,
            "leaf": graph_json(self.graph),
            "witness": None if self.witness is None else self.witness.to_json(),
            "failed_condition": self.failed_condition,
        }


@dataclass
class RecognitionReport:
    class_name: str
    verdict: bool
    clique_tree: DecompTree
    leaves: list[LeafReport]
    rejection: Optional[Rejection] = None

    def to_json(self) -> dict:
        return {
            "class": self.class_name,
            "verdict": self.verdict,
            "clique_tree": self.clique_tree.to_json(),
            "leaves": [leaf.to_json() for leaf in self.leaves],
            "rejection": None if self.rejection is None else self.rejection.to_json(),
        }


def _recognize(class_name: str, g: Graph, witness_cap: Optional[int],
               certify: Callable[[DecompNode], tuple]) -> RecognitionReport:
    """Run certify on every clique-tree leaf.  certify returns the leaf's
    report and, for a failing leaf, (reason, offending graph, failed
    consistency condition); the first failure rejects g."""
    tree = clique_decomposition_tree(g)
    leaves = []
    rejection = None
    for node in tree.leaves:
        leaf, failure = certify(node)
        leaves.append(leaf)
        if failure is not None and rejection is None:
            reason, graph, failed_condition = failure
            witness = None
            if witness_cap is not None and graph.n <= witness_cap:
                witness = contains_config(graph, EXCLUDED_SETS[class_name],
                                          cap=witness_cap)
            rejection = Rejection(reason, graph, witness, failed_condition)
    return RecognitionReport(class_name, rejection is None, tree, leaves,
                             rejection)


def _certify_lg_tf_chordless(node: DecompNode):
    root = is_lg_tf_chordless(node.graph)
    if root is not None:
        basic = BasicVerdict("lg-tf-chordless", root)
        return LeafReport(node.graph, node.origin, True, basic), None
    return (LeafReport(node.graph, node.origin, False, BasicVerdict("none")),
            ("leaf is not the line graph of a triangle-free chordless graph",
             node.graph, None))


def _certify_2join_leaves(node: DecompNode):
    tj = two_join_decomposition_tree(node.graph)
    verdicts = []
    failure = None
    for tnode in tj.leaves:
        if tnode.kind == LEAF_NON_CONSISTENT:
            if failure is None:
                failure = ("leaf carries a non-consistent 2-join", tnode.graph,
                           tnode.failed_condition)
            continue
        verdict = classify_basic(tnode.graph)
        verdicts.append(verdict)
        if verdict.category not in ONLY_PYRAMID_BASIC and failure is None:
            failure = ("terminal graph is not a clique, hole, long pyramid "
                       "or pyramid-basic graph", tnode.graph, None)
    leaf = LeafReport(node.graph, node.origin, failure is None, None, tj, verdicts)
    return leaf, failure


def _certify_clique_or_hole(node: DecompNode):
    if is_clique_graph(node.graph) or is_hole_graph(node.graph):
        return LeafReport(node.graph, node.origin, True,
                          classify_basic(node.graph)), None
    return (LeafReport(node.graph, node.origin, False, BasicVerdict("none")),
            ("leaf is neither a clique nor a hole", node.graph, None))


def recognize_only_prism(g: Graph, witness_cap: Optional[int] = None) -> RecognitionReport:
    """Decide membership in the class excluding thetas, wheels and
    pyramids: every clique-tree leaf must be the line graph of a
    triangle-free chordless graph."""
    return _recognize("only-prism", g, witness_cap, _certify_lg_tf_chordless)


def recognize_only_pyramid(g: Graph, witness_cap: Optional[int] = None) -> RecognitionReport:
    """Decide membership in the class excluding thetas, wheels and
    prisms.

    Clique-tree leaves have no clique cutset, so all their almost
    2-joins must be consistent if the graph is in the class; a leaf of
    the 2-join tree flagged non-consistent therefore rejects.  Terminal
    graphs with no 2-join must be cliques, holes, long pyramids or
    pyramid-basic graphs.
    """
    return _recognize("only-pyramid", g, witness_cap, _certify_2join_leaves)


def recognize_universally_signable(g: Graph,
                                   witness_cap: Optional[int] = None) -> RecognitionReport:
    """Decide whether g excludes all four configurations: every
    clique-tree leaf must be a clique or a hole."""
    return _recognize("universally-signable", g, witness_cap,
                      _certify_clique_or_hole)


RECOGNIZERS = {
    "only-prism": recognize_only_prism,
    "only-pyramid": recognize_only_pyramid,
    "universally-signable": recognize_universally_signable,
}
