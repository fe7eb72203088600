"""Recognizers and constructors for the basic graph classes.

The basic classes are cliques, holes, long pyramids, pyramid-basic
graphs, and line graphs of triangle-free chordless graphs.  A root graph
R with L(R) = g comes from a Krausz clique partition of g (each edge
covered by exactly one clique, each node in at most two).  One search
finds it for every caller: it covers edges in lexicographic order, and an
edge uv has at most two candidate cliques, both {u, v} plus all common
neighbours of u and v but at most one.  It backtracks only on inputs with
a diamond; on the claw-free, diamond-free graphs that every internal
caller passes, it returns the maximal cliques.  A K3 component of g is
covered by one 3-clique, so its root is a claw, never the triangle that
has the same line graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .graph import (Graph, biconnected_blocks, bits, find_claw, find_diamond,
                    graph_json, induced_subgraph, is_clique_graph,
                    is_clique_mask, is_connected, is_hole_graph,
                    hole_order, mask_of, walk)
from .oracle import ConfigWitness, is_pyramid

Edge = tuple[int, int]


# -- line graphs and roots ----------------------------------------------------

def line_graph(r: Graph) -> Graph:
    """The line graph of r; node i of the result is edge i of r (lex order)."""
    edges = r.edges()
    incident = [0] * r.n
    for i, (u, v) in enumerate(edges):
        incident[u] |= 1 << i
        incident[v] |= 1 << i
    rows = [(incident[u] | incident[v]) & ~(1 << i) for i, (u, v) in enumerate(edges)]
    return Graph.derived(len(edges), rows)


def _krausz_partition(g: Graph) -> Optional[list[frozenset[int]]]:
    """The first Krausz partition of g in search order, or None if g is
    not a line graph.

    Each step covers the first uncovered edge uv (lexicographic order) by
    a candidate clique, largest first, then lexicographically first; an
    explicit stack undoes choices.  With C = N(u) & N(v), the clique Q
    covering uv is {u, v} + C - T with |T| <= 1, and T's node t has no
    neighbour in Q - {u, v}: tu and tv lie in two more cliques, after
    which u, v and t are each in two; a second such node would share both
    with t, covering their edge twice, and an edge tq, q in Q - {u, v},
    fits in neither (Q covers uq and vq) nor in a third clique at t.  So
    an edge has at most two candidates and only dead branches are pruned.
    On a claw-free, diamond-free g nothing is undone and the cliques are
    the maximal ones.
    """
    adj = g._adj
    covered = [0] * g.n  # covered[w]: w's neighbours over covered edges
    chosen: list[int] = []
    stack: list[list] = []  # [u, candidates, next index, twice]
    u = twice = 0  # twice: the nodes in two chosen cliques
    while True:
        while u < g.n and not adj[u] & ~covered[u] & -1 << (u + 1):
            u += 1
        if u == g.n:
            return [frozenset(bits(q)) for q in chosen]
        row = adj[u] & ~covered[u] & -1 << (u + 1)
        cands = [q for q in _krausz_candidates(g, u, (row & -row).bit_length() - 1)
                 if not q & twice and not any(covered[w] & q for w in bits(q))]
        stack.append([u, cands, 0, twice])
        while stack:
            frame = stack[-1]
            u, cands, i, twice = frame
            if i:  # undo this frame's last choice
                q = chosen.pop()
                for w in bits(q):
                    covered[w] ^= q ^ (1 << w)
            if i < len(cands):
                frame[2] = i + 1
                q = cands[i]
                for w in bits(q):
                    if covered[w]:
                        twice |= 1 << w
                    covered[w] |= q ^ (1 << w)
                chosen.append(q)
                break
            stack.pop()
        else:
            return None


def _krausz_candidates(g: Graph, u: int, v: int) -> list[int]:
    """The cliques that may cover edge uv in a Krausz partition of g, as
    masks in search order: {u, v} + C when C = N(u) & N(v) is a clique
    ({u, v} alone next when |C| = 1), else {u, v} + C - t for each t
    that leaves a clique it has no edge to."""
    adj = g._adj
    uv = 1 << u | 1 << v
    common = adj[u] & adj[v]
    if is_clique_mask(g, common):
        return [uv | common, uv] if common.bit_count() == 1 else [uv | common]
    out = []
    for t in reversed(bits(common)):  # a larger t leaves a lex-smaller clique
        rest = common & ~(1 << t)
        if not adj[t] & rest and is_clique_mask(g, rest):
            out.append(uv | rest)
    return out


def _root_with_edge_map(g: Graph, part: list[frozenset[int]]) -> tuple[Graph, list[Edge]]:
    """Root graph of a Krausz partition of g, plus the map g-node -> root
    edge."""
    clique_of: list[list[int]] = [[] for _ in range(g.n)]
    for ci, clique in enumerate(part):
        for v in clique:
            clique_of[v].append(ci)
    next_id = len(part)
    edge_of: list[Edge] = []
    for v in range(g.n):
        cs = clique_of[v]
        if len(cs) == 2:
            e = (min(cs), max(cs))
        elif len(cs) == 1:
            e = (cs[0], next_id)
            next_id += 1
        else:  # isolated node of g: a lone edge in the root
            e = (next_id, next_id + 1)
            next_id += 2
        edge_of.append(e)
    return Graph.from_edge_list(next_id, edge_of), edge_of


def root_graph(g: Graph) -> Optional[Graph]:
    """Some graph R with L(R) isomorphic to g, or None if g is not a
    line graph.  R has no triangle component (a K3 component of g gets a
    claw)."""
    if find_claw(g) is not None:
        return None  # line graphs are claw-free
    part = _krausz_partition(g)
    return None if part is None else _root_with_edge_map(g, part)[0]


def is_chordless_graph(r: Graph) -> bool:
    """True iff every cycle of r is chordless.

    An edge uv is a chord of some cycle exactly when u and v still share
    a block, a node mask of biconnected_blocks, after the edge itself is
    removed.  Both ends of a chord lie on its cycle, so both have degree
    at least 3.
    """
    adj = r._adj
    for u, v in r.edges():
        if adj[u].bit_count() < 3 or adj[v].bit_count() < 3:
            continue
        rows = list(adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        both = 1 << u | 1 << v
        if any(block & both == both
               for block in biconnected_blocks(Graph.derived(r.n, rows))):
            return False
    return True


def _tf_root(g: Graph) -> Optional[tuple[Graph, list[Edge]]]:
    """A triangle-free root of g and its map g-node -> root edge, or None
    if g has a claw or a diamond.

    The line graphs of triangle-free graphs are exactly the claw-free,
    diamond-free graphs.  On such a g the Krausz cliques are the maximal
    cliques and each edge lies in exactly one, so every triangle of g
    lies in one clique.  A root triangle would need three cliques that
    pairwise meet, in three nodes of g that are pairwise adjacent, a
    triangle of g spread over three cliques: so the root has none.
    """
    if find_claw(g) is not None or find_diamond(g) is not None:
        return None
    return _root_with_edge_map(g, _krausz_partition(g))


def is_lg_tf_chordless(g: Graph) -> Optional[Graph]:
    """Root certificate iff g is the line graph of a triangle-free
    chordless graph."""
    tf = _tf_root(g)
    return tf[0] if tf is not None and is_chordless_graph(tf[0]) else None


# -- safe trees and pyramid-basic graphs -------------------------------------

def is_tree_graph(g: Graph) -> bool:
    return g.n >= 1 and g.m == g.n - 1 and is_connected(g)


def pendant_edges(t: Graph) -> list[Edge]:
    return [(u, v) for u, v in t.edges() if t.degree(u) == 1 or t.degree(v) == 1]


def _sibling_keys(t: Graph) -> dict[Edge, int]:
    """One key per pendant edge of the tree t: the node of degree >= 3
    that the walk from its leaf through nodes of degree 2 reaches, or -1
    on a path.  The path between two leaves holds at most one node of
    degree >= 3 iff their walks reach the same one."""
    stop = mask_of(v for v in range(t.n) if t.degree(v) != 2)
    keys = {}
    for e in pendant_edges(t):
        leaf, nxt = e if t.degree(e[0]) == 1 else e[::-1]
        end = walk(t, t.full_mask(), leaf, nxt, stop)[-1]
        keys[e] = end if t.degree(end) >= 3 else -1
    return keys


def pendant_siblings(t: Graph) -> list[tuple[Edge, Edge]]:
    """Pairs of pendant edges whose connecting path (between their
    degree-1 endpoints) holds at most one node of degree >= 3."""
    if not is_tree_graph(t):
        raise ValueError("pendant_siblings expects a tree")
    keys = _sibling_keys(t)
    return [(e, f) for e, f in combinations(keys, 2) if keys[e] == keys[f]]


def is_safe_tree(t: Graph, labels: Optional[dict[Edge, str]] = None) -> bool:
    """Safety of a tree, and validity of a pendant-edge labeling if given.

    Safe: every degree-1 node's neighbor has degree at most 2 and every
    pendant edge has at most one sibling.  A labeling is valid when it
    assigns 'x' or 'y' to exactly the pendant edges and gives distinct
    labels to the members of every sibling pair.
    """
    if not is_tree_graph(t):
        raise ValueError("is_safe_tree expects a tree")
    for u in range(t.n):
        if t.degree(u) == 1:
            v = t.neighbors(u)[0]
            if t.degree(v) > 2:
                return False
    keys = _sibling_keys(t)
    ends = list(keys.values())
    if any(ends.count(k) > 2 for k in ends):  # a pendant edge with two siblings
        return False
    if labels is not None:
        norm = {tuple(sorted(e)): lab for e, lab in labels.items()}
        if set(norm) != set(keys):
            return False
        if any(lab not in ("x", "y") for lab in norm.values()):
            return False
        # siblings share a key, so their labels differ iff no key repeats
        # with one label
        if len({(keys[e], lab) for e, lab in norm.items()}) != len(keys):
            return False
    return True


@dataclass(frozen=True)
class LabeledSafeTree:
    """A safe tree with pendant edges labeled 'x' or 'y'.

    The seed of the pyramid-basic construction; labels are keyed by the
    sorted node pair of the pendant edge.
    """

    tree: Graph
    labels: dict[Edge, str]

    def normalized_labels(self) -> dict[Edge, str]:
        return {tuple(sorted(e)): lab for e, lab in self.labels.items()}

    def to_json(self) -> dict:
        return {
            "tree": graph_json(self.tree),
            "labels": {f"{u} {v}": lab
                       for (u, v), lab in sorted(self.normalized_labels().items())},
        }


def build_pyramid_basic(t: LabeledSafeTree) -> Graph:
    """Construct a pyramid-basic graph from a labeled safe tree.

    Nodes 0..m-1 are the tree's edges (the line graph), node m is x
    (adjacent to every x-labeled pendant edge) and node m+1 is y
    (adjacent to x and every y-labeled pendant edge).
    """
    tree = t.tree
    labels = t.normalized_labels()
    if not is_tree_graph(tree):
        raise ValueError("pyramid-basic seed must be a tree")
    if len(pendant_edges(tree)) < 2:
        raise ValueError("tree needs at least two pendant edges to attach x and y")
    if not is_safe_tree(tree, labels):
        if not is_safe_tree(tree):
            raise ValueError("tree is not safe")
        raise ValueError("pendant-edge labeling is invalid (missing label or "
                         "identically labeled sibling pair)")
    lg = line_graph(tree)
    edges_lex = tree.edges()
    m = lg.n
    x, y = m, m + 1
    new_edges = list(lg.edges())
    for i, e in enumerate(edges_lex):
        lab = labels.get(e)
        if lab == "x":
            new_edges.append((i, x))
        elif lab == "y":
            new_edges.append((i, y))
    new_edges.append((x, y))
    return Graph.from_edge_list(m + 2, new_edges)


def is_pyramid_basic(g: Graph) -> Optional[LabeledSafeTree]:
    """Certificate iff g can be built from some labeled safe tree.

    Scans edges xy in ascending order, tests whether g minus {x, y} is
    the line graph of a tree and whether the attachments realize a valid
    labeling; first hit wins.
    """
    for x, y in g.edges():
        cert = _pyramid_basic_via(g, x, y)
        if cert is not None:
            return cert
    return None


def _pyramid_basic_via(g: Graph, x: int, y: int) -> Optional[LabeledSafeTree]:
    # the attachment nodes are pendant edges of a safe tree, whose line
    # graph leaves them with degree at most 1; so their degree in g is at
    # most 2, which disposes of dense candidates before any root search
    for s, other in ((x, y), (y, x)):
        for v in g.neighbors(s):
            if v != other and g.degree(v) > 2:
                return None
    rest = [v for v in range(g.n) if v not in (x, y)]
    if len(rest) < 2:
        return None
    h, h_map = induced_subgraph(g, rest)
    if not is_connected(h):
        return None
    # the line graph of a tree is claw-free and diamond-free
    tf = _tf_root(h)
    if tf is None or not is_tree_graph(tf[0]):
        return None
    root, edge_of = tf
    # is_safe_tree checks that exactly the pendant edges are labeled and
    # that siblings differ
    nx, ny = g.adj_mask(x), g.adj_mask(y)
    labels: dict[Edge, str] = {}
    for hv, v in enumerate(h_map):
        # none is next to both x and y: the filter leaves it isolated in h
        if nx >> v & 1:
            labels[edge_of[hv]] = "x"
        elif ny >> v & 1:
            labels[edge_of[hv]] = "y"
    if not is_safe_tree(root, labels):
        return None
    return LabeledSafeTree(root, labels)


# -- combined classification --------------------------------------------------

ONLY_PYRAMID_BASIC = ("clique", "hole", "long-pyramid", "pyramid-basic")


@dataclass(frozen=True)
class BasicVerdict:
    """Outcome of classify_basic: a class name and a re-validatable
    certificate (or 'none' with no certificate)."""

    category: str
    certificate: object = None

    def to_json(self) -> dict:
        cert: object
        if self.certificate is None:
            cert = None
        elif isinstance(self.certificate, Graph):
            cert = graph_json(self.certificate)
        elif isinstance(self.certificate, LabeledSafeTree):
            cert = self.certificate.to_json()
        elif isinstance(self.certificate, ConfigWitness):
            cert = self.certificate.to_json()
        else:
            cert = self.certificate
        return {"class": self.category, "certificate": cert}


def classify_basic(g: Graph) -> BasicVerdict:
    """First matching basic class in the fixed order clique, hole,
    long-pyramid, pyramid-basic, lg-tf-chordless; else 'none'."""
    if is_clique_graph(g):
        return BasicVerdict("clique", sorted(range(g.n)))
    if is_hole_graph(g):
        return BasicVerdict("hole", hole_order(g))
    w = is_pyramid(g)
    if w is not None and all(len(p) >= 3 for p in w.structure["paths"]):
        return BasicVerdict("long-pyramid", w)
    cert = is_pyramid_basic(g)
    if cert is not None:
        return BasicVerdict("pyramid-basic", cert)
    root = is_lg_tf_chordless(g)
    if root is not None:
        return BasicVerdict("lg-tf-chordless", root)
    return BasicVerdict("none")
