"""Constructive synthesis of class members and planted counterexamples.

Synthesis follows the structure of the target classes: only-prism
instances are clique-gluings of line graphs of triangle-free chordless
graphs; only-pyramid instances start from long pyramids, holes, cliques
and pyramid-basic graphs, grow by consistent 2-join composition
(validating the marker-path precondition at every step) and finish with
clique gluings.  Every random draw flows from one seeded generator, and
the emitted recipe replays to the identical graph without touching the
RNG again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .basic import (LabeledSafeTree, build_pyramid_basic, is_chordless_graph,
                    is_safe_tree, line_graph, pendant_edges, pendant_siblings)
from .graph import Graph, bits, cliques, graph_from_json, graph_json, mask_of
from .oracle import KINDS
from .twojoin import (check_marker_precondition, compose_2join_with_split,
                      is_consistent, validate_split)

ATTEMPTS_PER_STEP = 64


@dataclass
class SynthRecipe:
    """Replayable log of one synthesis run."""

    kind: str
    seed: int
    size: int
    ops: list[dict] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "size": self.size,
                "ops": self.ops}

    @staticmethod
    def from_json(data: dict) -> "SynthRecipe":
        return SynthRecipe(data["kind"], data["seed"], data["size"],
                           list(data["ops"]))


# -- triangle-free chordless hosts --------------------------------------------

def random_tf_chordless(seed: int, n: int) -> Graph:
    """A random triangle-free chordless graph on n nodes.

    Grows a random tree, then keeps only those extra edges that preserve
    both properties: an edge whose ends have no common neighbour closes
    no triangle, and chordlessness is checked outright.
    """
    if n < 1:
        raise ValueError("need at least one node")
    rng = random.Random(f"tf-chordless:{seed}:{n}")
    return _random_tf_chordless(rng, n)


def _random_tf_chordless(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    g = Graph.from_edge_list(n, edges)
    extra_budget = max(1, n // 4)
    for _ in range(extra_budget * ATTEMPTS_PER_STEP):
        if extra_budget == 0:
            break
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or g.has_edge(u, v) or g.adj_mask(u) & g.adj_mask(v):
            continue
        rows = list(g._adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        cand = Graph.derived(n, rows)
        if is_chordless_graph(cand):
            g = cand
            extra_budget -= 1
    return g


# -- clique gluing --------------------------------------------------------------

def glue_on_clique(g1: Graph, k1: Sequence[int], g2: Graph,
                   k2: Sequence[int]) -> Graph:
    """Union of g1 and g2 identifying the clique k1 with k2 pointwise.

    g1 keeps its ids; the non-identified nodes of g2 are appended in
    ascending order.  Empty cliques give the disjoint union.
    """
    k1 = tuple(k1)
    k2 = tuple(k2)
    if len(k1) != len(k2):
        raise ValueError("cliques must have equal size")
    if len(set(k1)) != len(k1) or len(set(k2)) != len(k2):
        raise ValueError("clique node lists must not repeat nodes")
    for seq, g in ((k1, g1), (k2, g2)):
        for u in seq:
            if not 0 <= u < g.n:
                raise ValueError(f"node {u} not in graph")
        for i, u in enumerate(seq):
            for v in seq[i + 1:]:
                if not g.has_edge(u, v):
                    raise ValueError(f"nodes {u} and {v} do not span a clique")
    ident = dict(zip(k2, k1))
    fresh = [v for v in range(g2.n) if v not in ident]
    pos = {v: g1.n + i for i, v in enumerate(fresh)}
    pos.update(ident)
    edges = set(g1.edges())
    for u, v in g2.edges():
        a, b = pos[u], pos[v]
        edge = (a, b) if a < b else (b, a)
        edges.add(edge)
    return Graph.from_edge_list(g1.n + len(fresh), sorted(edges))


def _cliques_of_size(g: Graph, k: int) -> list[tuple[int, ...]]:
    if k == 0:
        return [()]
    return [tuple(bits(c)) for c in cliques(g, g.full_mask()) if c.bit_count() == k]


# -- factor stock ----------------------------------------------------------------

def _make_hole(k: int) -> Graph:
    edges = [(i, (i + 1) % k) for i in range(k)]
    return Graph.from_edge_list(k, [(min(u, v), max(u, v)) for u, v in edges])


def _make_clique(k: int) -> Graph:
    return Graph.from_edge_list(k, [(u, v) for u in range(k) for v in range(u + 1, k)])


def _three_path_graph(near: Sequence[int], far: Sequence[int],
                      lengths: Sequence[int]) -> Graph:
    """Three paths, the i-th of length lengths[i] from near[i] to far[i].

    The end nodes are 0 .. max(near + far); three distinct ascending ids
    make an end a triangle.  The interior nodes follow, path by path.
    """
    edges = set()
    for ends in (near, far):
        if len(set(ends)) == 3:
            edges |= {(ends[0], ends[1]), (ends[0], ends[2]), (ends[1], ends[2])}
    nxt = max(*near, *far) + 1
    for prev, end, length in zip(near, far, lengths):
        for _ in range(length - 1):
            edges.add((prev, nxt))
            prev, nxt = nxt, nxt + 1
        edges.add((prev, end))
    return Graph.from_edge_list(nxt, edges)


def make_pyramid(lengths: Sequence[int]) -> Graph:
    """The pyramid with the given three path lengths (apex is node 0,
    triangle nodes are 1, 2, 3)."""
    l1, l2, l3 = lengths
    if sorted((l1, l2, l3))[1] < 2 or min(l1, l2, l3) < 1:
        raise ValueError("pyramid needs lengths >= 1 with at least two >= 2")
    return _three_path_graph((0, 0, 0), (1, 2, 3), (l1, l2, l3))


def _random_safe_labeled_tree(rng: random.Random) -> Optional[LabeledSafeTree]:
    for _ in range(ATTEMPTS_PER_STEP):
        spine = rng.randint(1, 4)
        edges = [(i, i + 1) for i in range(spine - 1)]
        nxt = spine
        for s in range(spine):
            for _ in range(rng.randint(0, 2)):
                leg = rng.randint(2, 3)
                prev = s
                for _ in range(leg):
                    edges.append((prev, nxt))
                    prev = nxt
                    nxt += 1
        if nxt < 4:
            nxt_edges = [(i, i + 1) for i in range(rng.randint(3, 5))]
            edges, nxt = nxt_edges, len(nxt_edges) + 1
        t = Graph.from_edge_list(nxt, [(min(u, v), max(u, v)) for u, v in edges])
        if not is_safe_tree(t):
            continue
        pend = pendant_edges(t)
        sibs = pendant_siblings(t)
        labels: dict[tuple[int, int], str] = {}
        for e, f in sibs:
            lab = rng.choice(("x", "y"))
            labels[e] = lab
            labels[f] = "y" if lab == "x" else "x"
        for e in pend:
            if e not in labels:
                labels[e] = rng.choice(("x", "y"))
        if is_safe_tree(t, labels):
            return LabeledSafeTree(t, labels)
    return None


def _random_only_pyramid_factor(rng: random.Random,
                                compose_friendly: bool = False) -> Graph:
    # holes and cliques never survive as blocks of a full 2-join (a hole
    # side is a chordless path with singleton specials), so the compose
    # phase draws only from pyramids and pyramid-basic graphs
    choice = rng.randrange(2) + 2 if compose_friendly else rng.randrange(4)
    if choice == 0:
        return _make_hole(rng.randint(5, 14))
    if choice == 1:
        return _make_clique(rng.randint(2, 6))
    if choice == 2:
        lengths = sorted(rng.randint(2, 5) for _ in range(3))
        return make_pyramid(lengths)
    t = _random_safe_labeled_tree(rng)
    if t is None:
        lengths = sorted(rng.randint(2, 5) for _ in range(3))
        return make_pyramid(lengths)
    return build_pyramid_basic(t)


def _random_only_prism_factor(rng: random.Random) -> Graph:
    root = _random_tf_chordless(rng, rng.randint(4, 12))
    lg = line_graph(root)
    if lg.n == 0:
        return _make_clique(1)
    return lg


# -- marker paths for composition -------------------------------------------------

def _marker_candidates(g: Graph) -> list[tuple[int, int, int]]:
    # consistency is symmetric in the two bundles, so one orientation
    # vouches for both
    out = []
    for c in range(g.n):
        if g.degree(c) != 2:
            continue
        a, b = g.neighbors(c)
        if g.has_edge(a, b):
            continue
        try:
            check_marker_precondition(g, (a, c, b))
        except ValueError:
            continue
        out.append((a, c, b))
        out.append((b, c, a))
    return out


def _compose_step(host: Graph, host_marker: tuple[int, int, int],
                  factor: Graph, factor_marker: tuple[int, int, int]) -> Graph:
    composed, split = compose_2join_with_split(host, host_marker,
                                               factor, factor_marker)
    # synthesis only takes steps the decomposition can undo: the composed
    # split must be a full 2-join and consistent
    rep = validate_split(composed, split, mode="full")
    if not rep:
        raise ValueError(f"composed partition is not a 2-join: {rep.violation}")
    ok, idx = is_consistent(composed, split)
    if not ok:
        raise ValueError(f"composed split fails consistency condition {idx}")
    return composed


# -- synthesis -------------------------------------------------------------------

def _glue_until(rng: random.Random, g: Graph, size: int, recipe: SynthRecipe,
                draw_factor: Callable[[random.Random], Graph],
                max_k: int) -> Graph:
    """Glue random factors onto g along random cliques of at most max_k
    nodes until g has size nodes or a step runs out of attempts."""
    while g.n < size:
        for _ in range(ATTEMPTS_PER_STEP):
            factor = draw_factor(rng)
            k = rng.randint(0, min(max_k, factor.n))
            host_cliques = _cliques_of_size(g, k)
            factor_cliques = _cliques_of_size(factor, k)
            if not host_cliques or not factor_cliques:
                continue
            k1 = rng.choice(host_cliques)
            k2 = rng.choice(factor_cliques)
            g = glue_on_clique(g, k1, factor, k2)
            recipe.ops.append({"op": "glue", "factor": graph_json(factor),
                               "host_clique": list(k1),
                               "factor_clique": list(k2)})
            break
        else:
            break
    return g


def synth_only_prism(seed: int, size: int) -> tuple[Graph, SynthRecipe]:
    """A random only-prism member of at least the requested size, with a
    replayable recipe (clique gluings of line graphs of triangle-free
    chordless graphs)."""
    if size < 1:
        raise ValueError("size must be positive")
    rng = random.Random(f"synth-only-prism:{seed}:{size}")
    recipe = SynthRecipe("only-prism", seed, size)
    g = _random_only_prism_factor(rng)
    recipe.ops.append({"op": "factor", "graph": graph_json(g)})
    # factors have at least 3 nodes (roots have at least 4), so every
    # gluing draws k from 0..3
    g = _glue_until(rng, g, size, recipe, _random_only_prism_factor, 3)
    return g, recipe


def synth_only_pyramid(seed: int, size: int) -> tuple[Graph, SynthRecipe]:
    """A random only-pyramid member of at least the requested size:
    consistent 2-join compositions over the basic stock, then clique
    gluings."""
    if size < 1:
        raise ValueError("size must be positive")
    rng = random.Random(f"synth-only-pyramid:{seed}:{size}")
    recipe = SynthRecipe("only-pyramid", seed, size)
    g = _random_only_pyramid_factor(rng, compose_friendly=True)
    recipe.ops.append({"op": "factor", "graph": graph_json(g)})
    compose_target = max(size // 2, size - 10)
    while g.n < compose_target:
        composed = False
        host_markers = _marker_candidates(g)
        if not host_markers:
            break
        for _ in range(ATTEMPTS_PER_STEP):
            factor = _random_only_pyramid_factor(rng, compose_friendly=True)
            factor_markers = _marker_candidates(factor)
            if not factor_markers:
                continue
            hm = rng.choice(host_markers)
            fm = rng.choice(factor_markers)
            try:
                g = _compose_step(g, hm, factor, fm)
            except ValueError:
                continue
            recipe.ops.append({"op": "compose", "factor": graph_json(factor),
                               "host_marker": list(hm),
                               "factor_marker": list(fm)})
            composed = True
            break
        if not composed:
            break
    g = _glue_until(rng, g, size, recipe, _random_only_pyramid_factor, 2)
    return g, recipe


def replay_recipe(recipe: SynthRecipe) -> Graph:
    """Re-execute a recipe's operation log; bit-exact, no randomness."""
    g: Optional[Graph] = None
    for op in recipe.ops:
        if op["op"] == "factor":
            g = graph_from_json(op["graph"])
        elif op["op"] == "glue":
            factor = graph_from_json(op["factor"])
            g = glue_on_clique(g, tuple(op["host_clique"]), factor,
                               tuple(op["factor_clique"]))
        elif op["op"] == "compose":
            factor = graph_from_json(op["factor"])
            g = _compose_step(g, tuple(op["host_marker"]), factor,
                              tuple(op["factor_marker"]))
        else:
            raise ValueError(f"unknown recipe op {op['op']!r}")
    if g is None:
        raise ValueError("recipe has no operations")
    return g


# -- planted counterexamples -------------------------------------------------------

def _random_pattern(rng: random.Random, kind: str) -> Graph:
    if kind == "theta":
        lengths = sorted(rng.randint(2, 4) for _ in range(3))
        return _three_path_graph((0, 0, 0), (1, 1, 1), lengths)
    if kind == "wheel":
        k = rng.randint(4, 7)
        rim = _make_hole(k)
        hits = rng.randint(3, k)
        chosen = sorted(rng.sample(range(k), hits))
        edges = rim.edges() + [(v, k) for v in chosen]
        return Graph.from_edge_list(k + 1, edges)
    if kind == "prism":
        lengths = [rng.randint(1, 3) for _ in range(3)]
        return _three_path_graph((0, 1, 2), (3, 4, 5), lengths)
    if kind == "pyramid":
        lengths = sorted(rng.randint(1, 3) for _ in range(3))
        while lengths[1] < 2:
            lengths = sorted(rng.randint(1, 3) for _ in range(3))
        return make_pyramid(lengths)
    raise ValueError(f"unknown configuration kind {kind!r}")


def plant_configuration(seed: int, kind: str, host_size: int) -> Graph:
    """A random host graph guaranteed to contain an induced configuration
    of the requested kind (the embedding overwrites the host's adjacency
    inside the pattern's node set)."""
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    rng = random.Random(f"plant:{kind}:{seed}:{host_size}")
    pattern = _random_pattern(rng, kind)
    n = max(host_size, pattern.n)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    spots = sorted(rng.sample(range(n), pattern.n))
    spot_mask = mask_of(spots)
    for i, u in enumerate(spots):
        rows[u] &= ~spot_mask
    for i, u in enumerate(spots):
        for j in bits(pattern.adj_mask(i)):
            v = spots[j]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, rows)
