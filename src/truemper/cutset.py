"""Clique cutsets and the clique cutset decomposition tree.

A node cutset K is a clique cutset when K induces a clique; the empty
set counts, so every disconnected graph has one.  find_clique_cutset
returns a split (A, K, B) with no edge between A and B.

* A disconnected graph with k components splits with K empty and A the
  union of its first k // 2 components (ordered by lowest node), so the
  components are halved at each level and the tree over them is about
  log2 k deep rather than a chain of k levels.  Both children may split
  further (two disjoint P3s give a root whose first child is internal),
  so the tree need not be a caterpillar.
* A connected graph splits on a nonempty clique cutset: A is a full
  component of the removal, K = N(A) is exactly A's neighborhood, and B
  is everything else.  Among all candidates the one with the smallest A
  is chosen (ties broken by lexicographic node order).

Two lemmas spare the search over every clique:

* Pair lemma.  If a clique cutset K of a connected graph separates u
  from v, then u and v are non-adjacent and every common neighbour of
  theirs lies in K, so N(u) & N(v) is a clique.  Hence when no
  non-adjacent pair u < v has a clique (the empty set included) as its
  common neighbourhood, a connected graph has no clique cutset, and
  _no_cutset_by_pairs proves it in O(n^2 * omega) mask operations,
  omega the clique number: a common neighbourhood that is not a clique
  shows a node missing one of the others within omega + 1 tests.
* Leaf lemma.  The block G[A + K] of a split with nonempty K has no
  clique cutset.  It is connected, since A is and every node of K has a
  neighbour in A.  Were K' a clique cutset of it, the clique K - K'
  would lie inside one component of G[A + K] - K', and some other
  component C would lie inside A.  Then N(C) is inside K', so C is a
  component of G - K' beside at least one more.  And C != A, since
  each other component either lies inside A or holds a node of K - K',
  whose neighbours in A are not in C.  So C is smaller than A, against
  the choice of A; the first child of such a split is built as a leaf,
  with no search.

The tree has at most n leaves either way: an empty K splits the n nodes
between the children, and a nonempty K makes a leaf beside a child on
n - |A| nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .decomp import INTERNAL, DecompNode, DecompTree, StepResult, decompose
from .graph import (Graph, bits, cliques, components_masks, induced_subgraph,
                    is_clique_mask)


@dataclass(frozen=True)
class CliqueSplit:
    """A certified clique-cutset partition (A, K, B) of a graph, each
    part a node bitmask."""

    A: int
    K: int
    B: int

    def to_json(self) -> dict:
        return {"A": bits(self.A), "K": bits(self.K), "B": bits(self.B)}


def validate_clique_split(g: Graph, s: CliqueSplit) -> None:
    """Raise ValueError unless s is a valid clique-cutset split of g."""
    a, k, b = s.A, s.K, s.B
    if a & k or a & b or k & b or (a | k | b) != g.full_mask():
        raise ValueError("A, K, B must partition the node set")
    if not a or not b:
        raise ValueError("A and B must be nonempty")
    for u in bits(k):  # names the lexicographically first non-adjacent pair
        missing = k & ~g.adj_mask(u) & -2 << u
        if missing:
            raise ValueError(f"K is not a clique: {u} and {bits(missing)[0]} are non-adjacent")
    for u in bits(a):
        if g.adj_mask(u) & b:
            raise ValueError(f"edge between A and B at node {u}")


def _component_candidates(g: Graph) -> Iterator[int]:
    """Components of G minus K, over every nonempty clique cutset K.

    Only meaningful for connected graphs; components are untrimmed, the
    caller trims K down to the exact neighborhood of the winner.
    """
    full = g.full_mask()
    for clique in cliques(g, full):
        rest = full & ~clique
        if not rest:
            continue
        parts = components_masks(g, rest)
        if len(parts) < 2:
            continue
        yield from parts


def _no_cutset_by_pairs(g: Graph) -> bool:
    """True when no non-adjacent pair u < v has a clique as its common
    neighbourhood, which proves that g has no clique cutset (the pair
    lemma); False at the first pair that does, which proves nothing."""
    adj = g._adj
    full = g.full_mask()
    for u in range(g.n):
        row = adj[u]
        for v in bits(full & ~row & -2 << u):  # non-neighbours above u
            if is_clique_mask(g, row & adj[v]):
                return False
    return True


def find_clique_cutset(g: Graph) -> Optional[CliqueSplit]:
    """A clique-cutset split of g, or None.

    A disconnected graph with k components yields K = empty set with A
    the union of its first k // 2 components, ordered by lowest node.
    Otherwise A is the smallest component over all clique cutsets
    (lexicographically smallest on ties) and K is trimmed to N(A); the
    minimal choice makes the block G[A + K] cutset-free.  A connected
    graph that the pair lemma clears gets None with no clique
    enumerated.
    """
    if g.n <= 1:
        return None
    comps = components_masks(g)
    if len(comps) >= 2:
        a_mask = sum(comps[:len(comps) // 2])  # disjoint masks: sum = union
        b_mask = g.full_mask() & ~a_mask
        return CliqueSplit(a_mask, 0, b_mask)
    if _no_cutset_by_pairs(g):  # complete graphs included: no pairs
        return None
    # the smallest A by size, then by sorted node list: of two node sets
    # of one size, the smaller list holds the lowest node of a ^ b
    a_mask = 0
    a_size = g.n + 1
    for comp in _component_candidates(g):
        size = comp.bit_count()
        diff = comp ^ a_mask
        if size < a_size or (size == a_size and comp & diff & -diff):
            a_mask, a_size = comp, size
    if not a_mask:
        return None
    nbhd = 0
    for v in bits(a_mask):
        nbhd |= g.adj_mask(v)
    k_mask = nbhd & ~a_mask
    b_mask = g.full_mask() & ~a_mask & ~k_mask
    return CliqueSplit(a_mask, k_mask, b_mask)


def blocks_of_clique_split(g: Graph, s: CliqueSplit) -> tuple[tuple[Graph, tuple[int, ...]],
                                                              tuple[Graph, tuple[int, ...]]]:
    """The induced blocks G[A + K] and G[K + B], each with its id map."""
    validate_clique_split(g, s)
    return induced_subgraph(g, bits(s.A | s.K)), induced_subgraph(g, bits(s.K | s.B))


def _dot_label(node: DecompNode) -> str:
    if node.is_leaf:
        return f"leaf n={node.graph.n}"
    k = ",".join(map(str, bits(node.split.K)))
    return f"n={node.graph.n} K={{{k}}}"


def _clique_step(graph: Graph) -> StepResult:
    split = find_clique_cutset(graph)
    if split is None:
        return DecompNode(graph, "leaf"), None
    (block_a, map_a), block_b = blocks_of_clique_split(graph, split)
    if split.K:  # the leaf lemma: G[A + K] has no clique cutset
        block_a = DecompNode(block_a, "leaf")
    return DecompNode(graph, INTERNAL, split), ((block_a, map_a), block_b)


def clique_decomposition_tree(g: Graph) -> DecompTree:
    """Decompose g along clique cutsets until no block has one.

    Every leaf satisfies find_clique_cutset(leaf) is None and the tree
    has at most n leaves.
    """
    root, leaves = decompose(g, _clique_step, tuple(range(g.n)))
    return DecompTree(root, leaves, {"tree": "clique-cutset"},
                      "clique_decomposition", _dot_label)
