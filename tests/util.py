"""Shared helpers for the test suite: the seeded corpora (every small
labeled graph, seeded G(n, p), relabelings, planted 2-joins and random
consistent 2-join compositions) that the tests and tests/digest.py draw
from, a JSON Schema validator, a small-n isomorphism check, an
independent template-based oracle for the four configurations, and the
plain versions of the claw and diamond finders, the clique-cutset search
over every clique, the recursive tree JSON writer, the edge-stack block
walker and the chord test on it, the clique-enumerating root search,
the edge-pair 2-join seed enumerator, the per-node 2-join forcing
closure, the per-kind theta, prism and pyramid checks and the
combinations sweep of the oracle that the library's bitset, node-mask,
bounded-candidate, explicit-stack, adjacency-mask, mask-algebra,
three-path and pruned-DFS versions must match exactly."""

from __future__ import annotations

import json
import random
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from typing import Iterator, Optional, Sequence

from truemper.basic import _root_with_edge_map, build_pyramid_basic, line_graph
from truemper.cutset import CliqueSplit
from truemper.decomp import DecompNode
from truemper.gen import (_marker_candidates, _random_safe_labeled_tree,
                          make_pyramid, random_tf_chordless)
from truemper.graph import (Graph, bits, cliques, components_masks,
                            graph_json, is_clique_graph, is_triangle_free,
                            mask_of, walk)
from truemper.oracle import (_KIND_BY_DEGREE3, _MIN_NODES, ConfigWitness,
                             _three_path_mask, _wheel_mask)
from truemper.twojoin import (TwoJoinSplit, compose_2join_with_split,
                              is_consistent, validate_split)

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


# -- the seeded corpora (tests/digest.py pins the graphs they draw) -----------

def graph_from_bits(n: int, code: int) -> Graph:
    """The graph on n nodes with pair k of combinations(range(n), 2) an
    edge iff bit k of code is set."""
    rows = [0] * n
    for k, (u, v) in enumerate(combinations(range(n), 2)):
        if code >> k & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, rows)


def all_graphs(n: int) -> Iterator[Graph]:
    total = 1 << (n * (n - 1) // 2)
    for code in range(total):
        yield graph_from_bits(n, code)


def small_graphs() -> Iterator[Graph]:
    """Every labeled graph with n <= 6 (33868 graphs)."""
    for n in range(7):
        yield from all_graphs(n)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """G(n, p): one rng.random() per pair, in combinations order."""
    rows = [0] * n
    for u, v in combinations(range(n), 2):
        if rng.random() < p:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, rows)


def gnp_graphs(seed, count: int, lo: int = 7, hi: int = 12,
               ps: Sequence[float] = (0.2, 0.35, 0.5, 0.7, 0.85)) -> Iterator[Graph]:
    """count seeded G(n, p), each with n = rng.randint(lo, hi) and then
    p = rng.choice(ps)."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_graph(rng, rng.randint(lo, hi), rng.choice(ps))


def relabeled(g: Graph, rng: random.Random) -> Graph:
    """g with its node ids permuted by one rng.shuffle."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def planted_2join(rng: random.Random, n: int) -> Graph:
    """Two random trees, each sometimes with one extra edge, joined by
    complete bundles between special sets of one or two nodes, sometimes
    with one stray crossing edge; node ids shuffled."""
    k = rng.randint(3, n - 3)
    edges = set()
    bundles = []
    for side in (list(range(k)), list(range(k, n))):
        for i in range(1, len(side)):
            edges.add((rng.choice(side[:i]), side[i]))
        if rng.random() < 0.3:
            edges.add(tuple(sorted(rng.sample(side, 2))))
        sizes = [2 if rng.random() < 0.2 else 1 for _ in range(2)]
        pick = rng.sample(side, min(len(side), sum(sizes)))
        bundles.append((pick[:len(pick) - sizes[1]], pick[len(pick) - sizes[1]:]))
    (a1, b1), (a2, b2) = bundles
    if rng.random() < 0.3:
        edges.add((rng.randrange(k), rng.randrange(k, n)))
    edges |= {(u, v) for u in a1 for v in a2} | {(u, v) for u in b1 for v in b2}
    return relabeled(Graph.from_edge_list(n, sorted(edges)), rng)


def _compose_factor(rng: random.Random) -> Graph:
    """A (2|3)-pyramid with probability 0.6, else the pyramid-basic graph
    of a random safe labeled tree; redrawn until it has at most 9 nodes
    and a marker path."""
    while True:
        if rng.random() < 0.6:
            g = make_pyramid(tuple(sorted(rng.randint(2, 3) for _ in range(3))))
        else:
            t = _random_safe_labeled_tree(rng)
            if t is None:
                continue
            g = build_pyramid_basic(t)
        if g.n <= 9 and _marker_candidates(g):
            return g


def consistent_composition(
        rng: random.Random) -> tuple[Graph, TwoJoinSplit, Graph, Graph]:
    """(composition, split, g1, g2): two random factors composed on one
    random marker path each, redrawn until the composition has at most
    14 nodes and its split is a full, consistent 2-join."""
    while True:
        g1, g2 = _compose_factor(rng), _compose_factor(rng)
        m1 = rng.choice(_marker_candidates(g1))
        m2 = rng.choice(_marker_candidates(g2))
        try:
            comp, split = compose_2join_with_split(g1, m1, g2, m2)
        except ValueError:
            continue
        if (comp.n <= 14 and validate_split(comp, split, "full")
                and is_consistent(comp, split)[0]):
            return comp, split, g1, g2


def tf_chordless_line_graphs(count: int) -> Iterator[Graph]:
    for seed in range(count):
        yield line_graph(random_tf_chordless(seed, 4 + seed % 27))


def assert_revalidates(g: Graph) -> None:
    """A derived graph must equal its rebuild through the checking
    constructor."""
    assert Graph(g.n, [g.adj_mask(v) for v in range(g.n)]) == g


def schema_validator(name: str):
    """A validator for docs/schemas/<name> that resolves references to
    the other schemas there; the calling test is skipped without
    jsonschema."""
    import pytest
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))
    try:
        from referencing import Registry, Resource
    except ImportError:
        return jsonschema.Draft202012Validator(schema)
    resources = []
    for path in SCHEMA_DIR.glob("*.schema.json"):
        doc = Resource.from_contents(json.loads(path.read_text(encoding="utf-8")))
        resources += [(doc.contents["$id"], doc), (path.name, doc)]
    return jsonschema.Draft202012Validator(
        schema, registry=Registry().with_resources(resources))


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Backtracking isomorphism test for small graphs."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(map(g1.degree, range(g1.n))) != sorted(map(g2.degree, range(g2.n))):
        return False
    n = g1.n
    order = sorted(range(n), key=lambda v: (-g1.degree(v), v))
    image: list[Optional[int]] = [None] * n
    used = [False] * n

    def extend(idx: int) -> bool:
        if idx == n:
            return True
        v = order[idx]
        for w in range(n):
            if used[w] or g1.degree(v) != g2.degree(w):
                continue
            ok = True
            for j in range(idx):
                u = order[j]
                if g1.has_edge(v, u) != g2.has_edge(w, image[u]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if extend(idx + 1):
                    return True
                used[w] = False
                image[v] = None
        return False

    return extend(0)


# -- independent configuration oracle -----------------------------------------
# Builds every theta/prism/pyramid/wheel on at most max_n nodes directly from
# the definitions (path-length tuples; rim plus center attachments) and tests
# induced subgraphs against the templates by isomorphism.  Completely separate
# from the structural checks in truemper.oracle.


def _theta_template(lengths: Sequence[int]) -> Graph:
    a, b = 0, 1
    edges = []
    nxt = 2
    for length in lengths:
        prev = a
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((prev, b))
    return Graph.from_edge_list(nxt, sorted({(min(u, v), max(u, v)) for u, v in edges}))


def _prism_template(lengths: Sequence[int]) -> Graph:
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    nxt = 6
    for a, b, length in ((0, 3, lengths[0]), (1, 4, lengths[1]), (2, 5, lengths[2])):
        prev = a
        for _ in range(length - 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
        edges.append((min(prev, b), max(prev, b)))
    return Graph.from_edge_list(nxt, sorted(set(edges)))


def _pyramid_template(lengths: Sequence[int]) -> Graph:
    edges = [(1, 2), (1, 3), (2, 3)]
    nxt = 4
    for b, length in ((1, lengths[0]), (2, lengths[1]), (3, lengths[2])):
        prev = 0
        for _ in range(length - 1):
            edges.append((min(prev, nxt), max(prev, nxt)))
            prev = nxt
            nxt += 1
        edges.append((min(prev, b), max(prev, b)))
    return Graph.from_edge_list(nxt, sorted(set(edges)))


def _wheel_templates(max_n: int) -> list[Graph]:
    out = []
    for k in range(4, max_n):
        rim = [(i, (i + 1) % k) for i in range(k)]
        for size in range(3, k + 1):
            for chosen in combinations(range(k), size):
                edges = [(min(u, v), max(u, v)) for u, v in rim]
                edges += [(v, k) for v in chosen]
                out.append(Graph.from_edge_list(k + 1, edges))
    return out


def _length_tuples(three_min: Sequence[int], total_max: int) -> Iterator[tuple[int, ...]]:
    lo1, lo2, lo3 = three_min
    for l1 in range(lo1, total_max + 1):
        for l2 in range(max(l1, lo2), total_max + 1):
            for l3 in range(max(l2, lo3), total_max + 1):
                if l1 + l2 + l3 <= total_max:
                    yield l1, l2, l3


@lru_cache(maxsize=None)
def config_templates(max_n: int) -> dict[str, list[Graph]]:
    """All configurations on at most max_n nodes, deduplicated up to
    isomorphism."""
    raw: dict[str, list[Graph]] = {"theta": [], "wheel": [], "prism": [], "pyramid": []}
    for lengths in _length_tuples((2, 2, 2), max_n + 1):
        g = _theta_template(lengths)
        if g.n <= max_n:
            raw["theta"].append(g)
    for lengths in _length_tuples((1, 1, 1), max_n - 3):
        g = _prism_template(lengths)
        if g.n <= max_n:
            raw["prism"].append(g)
    for lengths in _length_tuples((1, 2, 2), max_n - 1):
        g = _pyramid_template(lengths)
        if g.n <= max_n:
            raw["pyramid"].append(g)
    raw["wheel"] = [g for g in _wheel_templates(max_n) if g.n <= max_n]
    out: dict[str, list[Graph]] = {}
    for kind, graphs in raw.items():
        kept: list[Graph] = []
        for g in graphs:
            if not any(is_isomorphic(g, h) for h in kept if h.n == g.n):
                kept.append(g)
        out[kind] = kept
    return out


def template_contains(g: Graph, kinds: Sequence[str], max_n: int = 8) -> dict[str, bool]:
    """Second oracle: does g contain each configuration kind as an
    induced subgraph, decided by isomorphism against the templates."""
    templates = config_templates(max_n)
    found = {k: False for k in kinds}
    if g.n > max_n:
        raise ValueError("template oracle capped")
    for size in range(5, g.n + 1):
        by_size = {k: [t for t in templates[k] if t.n == size] for k in kinds}
        if not any(by_size.values()):
            continue
        for combo in combinations(range(g.n), size):
            sel = mask_of(combo)
            rows = []
            pos = {v: i for i, v in enumerate(combo)}
            for v in combo:
                row = 0
                for w in bits(g.adj_mask(v) & sel):
                    row |= 1 << pos[w]
                rows.append(row)
            sub = Graph(size, rows)
            for kind in kinds:
                if found[kind]:
                    continue
                for tmpl in by_size[kind]:
                    if is_isomorphic(sub, tmpl):
                        found[kind] = True
                        break
        if all(found.values()):
            break
    return found


def perfect_elimination_chordal(rng: random.Random, n: int) -> Graph:
    """Random chordal graph: each new node attaches to a clique inside an
    existing closed neighborhood, so reverse insertion order is a perfect
    elimination ordering."""
    rows = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        pool = [u] + [w for w in range(v) if rows[u] >> w & 1]
        rng.shuffle(pool)
        base: list[int] = []
        for w in pool:
            if all(rows[w] >> b & 1 for b in base):
                base.append(w)
            if len(base) > 3:
                break
        keep = rng.randint(1, len(base))
        for w in base[:keep]:
            rows[v] |= 1 << w
            rows[w] |= 1 << v
    return Graph(n, rows)


# -- plain references for the hot predicates ----------------------------------

def reference_find_diamond(g: Graph) -> Optional[frozenset[int]]:
    """First induced diamond: non-adjacent u < v, then adjacent common
    neighbours w1 < w2, in lexicographic order."""
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                continue
            common = bits(g.adj_mask(u) & g.adj_mask(v))
            for w1, w2 in combinations(common, 2):
                if g.has_edge(w1, w2):
                    return frozenset((u, v, w1, w2))
    return None


def reference_find_claw(g: Graph) -> Optional[frozenset[int]]:
    """First induced claw: centre c, then the first independent triple of
    its neighbours in lexicographic order."""
    for c in range(g.n):
        for t in combinations(g.neighbors(c), 3):
            if not (g.has_edge(t[0], t[1]) or g.has_edge(t[0], t[2])
                    or g.has_edge(t[1], t[2])):
                return frozenset((c,) + t)
    return None


def reference_find_clique_cutset(g: Graph) -> Optional[CliqueSplit]:
    """find_clique_cutset without the pair lemma: a connected graph has
    every clique swept, and the smallest component of G - K over all of
    them (then the smallest sorted node list) is A, with K = N(A)."""
    if g.n <= 1:
        return None
    comps = components_masks(g)
    if len(comps) >= 2:
        a_mask = sum(comps[:len(comps) // 2])
        return CliqueSplit(a_mask, 0, g.full_mask() & ~a_mask)
    if is_clique_graph(g):
        return None
    best = None
    for clique in cliques(g, g.full_mask()):
        rest = g.full_mask() & ~clique
        parts = components_masks(g, rest) if rest else []
        if len(parts) < 2:
            continue
        for part in parts:
            key = (part.bit_count(), bits(part))
            if best is None or key < best[0]:
                best = key, part
    if best is None:
        return None
    a_mask = best[1]
    nbhd = 0
    for v in bits(a_mask):
        nbhd |= g.adj_mask(v)
    k_mask = nbhd & ~a_mask
    return CliqueSplit(a_mask, k_mask, g.full_mask() & ~a_mask & ~k_mask)


def reference_node_json(node: DecompNode) -> dict:
    """A decomposition node's JSON as the recursive writer built it, key
    order included."""
    out = graph_json(node.graph)
    if node.origin is not None:
        out["origin"] = list(node.origin)
    out["kind"] = node.kind
    if node.split is not None:
        out["split"] = node.split.to_json()
    if node.failed_condition is not None:
        out["failed_condition"] = node.failed_condition
    if node.children:
        out["children"] = [reference_node_json(c) for c in node.children]
    return out


def reference_biconnected_blocks(g: Graph) -> list[frozenset[tuple[int, int]]]:
    """2-connected blocks as edge sets (edges normalized u < v).

    Iterative Hopcroft-Tarjan over an edge stack; isolated nodes
    contribute no block.  The library's node-mask walker must give the
    node sets of these blocks.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    blocks: list[frozenset[tuple[int, int]]] = []
    stack: list[tuple[int, int]] = []
    timer = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        work = [(root, -1, iter(g.neighbors(root)))]
        disc[root] = low[root] = timer
        timer += 1
        while work:
            v, parent, it = work[-1]
            advanced = False
            for w in it:
                if w == parent:
                    # skip one parent edge occurrence; simple graph so this is exact
                    parent = -1
                    work[-1] = (v, -1, it)
                    continue
                if disc[w] == -1:
                    stack.append((v, w) if v < w else (w, v))
                    disc[w] = low[w] = timer
                    timer += 1
                    work.append((w, v, iter(g.neighbors(w))))
                    advanced = True
                    break
                if disc[w] < disc[v]:
                    stack.append((v, w) if v < w else (w, v))
                    low[v] = min(low[v], disc[w])
                    work[-1] = (v, parent, it)
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    edge = (pv, v) if pv < v else (v, pv)
                    block = []
                    while stack:
                        e = stack.pop()
                        block.append(e)
                        if e == edge:
                            break
                    if block:
                        blocks.append(frozenset(block))
        if stack:
            blocks.append(frozenset(stack))
            stack.clear()
    return blocks


def reference_is_chordless_graph(r: Graph) -> bool:
    """Every edge tested: a chord's ends still share a 2-connected block
    once the edge is removed."""
    for u, v in r.edges():
        rows = [r.adj_mask(w) for w in range(r.n)]
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        for block in reference_biconnected_blocks(Graph(r.n, rows)):
            nodes = {w for e in block for w in e}
            if u in nodes and v in nodes:
                return False
    return True


def reference_krausz_partition(g: Graph) -> Optional[list[frozenset[int]]]:
    """Partition of the edges of g into cliques with every node in at
    most two of them, or None if impossible (g is not a line graph).

    Covers the first uncovered edge uv by every clique among the common
    neighbours of u and v, largest first, then lexicographically first,
    recursing on each.  Exponential in the degree: keep inputs small."""
    edges = g.edges()
    edge_index = {e: i for i, e in enumerate(edges)}
    uncovered = set(range(len(edges)))
    clique_count = [0] * g.n
    chosen: list[frozenset[int]] = []

    def clique_edges(nodes: tuple[int, ...]) -> list[int]:
        out = []
        for a, b in combinations(nodes, 2):
            out.append(edge_index[(a, b) if a < b else (b, a)])
        return out

    def candidates(u: int, v: int) -> list[tuple[int, ...]]:
        common = mask_of(w for w in bits(g.adj_mask(u) & g.adj_mask(v))
                         if clique_count[w] < 2)
        extras = [()] + [tuple(bits(c)) for c in cliques(g, common)]
        options: list[tuple[int, ...]] = []
        for extra in sorted(extras, key=lambda t: (-len(t), t)):
            nodes = tuple(sorted((u, v) + extra))
            es = clique_edges(nodes)
            if any(e not in uncovered for e in es):
                continue
            options.append(nodes)
        return options

    def solve() -> bool:
        if not uncovered:
            return True
        i = min(uncovered)
        u, v = edges[i]
        if clique_count[u] >= 2 or clique_count[v] >= 2:
            return False
        for nodes in candidates(u, v):
            es = clique_edges(nodes)
            for e in es:
                uncovered.discard(e)
            for w in nodes:
                clique_count[w] += 1
            chosen.append(frozenset(nodes))
            if solve():
                return True
            chosen.pop()
            for w in nodes:
                clique_count[w] -= 1
            uncovered.update(es)
        return False

    if not solve():
        return None
    return chosen


def reference_root_graph(g: Graph) -> Optional[Graph]:
    """Root from the clique-enumerating Krausz search on every input."""
    if reference_find_claw(g) is not None:
        return None
    part = reference_krausz_partition(g)
    return None if part is None else _root_with_edge_map(g, part)[0]


def reference_is_lg_tf_chordless(g: Graph) -> Optional[Graph]:
    if reference_find_claw(g) is not None or reference_find_diamond(g) is not None:
        return None
    root = reference_root_graph(g)
    if root is None or not is_triangle_free(root):
        return None
    return root if reference_is_chordless_graph(root) else None


# -- the per-node 2-join forcing closure ---------------------------------------

def reference_closure(g: Graph, a1: int, a2: int, b1: int, b2: int,
                      extra: int) -> tuple[Optional[TwoJoinSplit], int]:
    """Grow X1 from {a1, b1} + extra by forcing, with a2, b2 pinned in X2.

    A node sitting in X2 must look like an A2 node (adjacent to a1, side-1
    neighborhood exactly N(a2) & X1), a B2 node, or a C2 node (no side-1
    neighbors); anything else is forced across.  A node that does not fit
    against X1 does not fit against any superset of it either, so starting
    from any set between the start and the fixpoint gives the same
    fixpoint.  Returns (split, x1): the split when the fixpoint validates
    as a full 2-join, else None; x1 is the fixpoint as a mask, or 0 on a
    contradiction (a pinned node forced across, or A1 meeting B1).
    """
    adj = g._adj
    n = g.n
    pin2 = (1 << a2) | (1 << b2)
    x1 = (1 << a1) | (1 << b1) | extra
    if x1 & pin2:
        return None, 0
    na1, nb1 = adj[a1], adj[b1]
    forced = True
    while forced:
        a1s = adj[a2] & x1
        b1s = adj[b2] & x1
        if a1s & b1s:
            return None, 0
        forced = 0
        for v in range(n):
            vb = 1 << v
            if x1 & vb:
                continue
            pat = adj[v] & x1
            if na1 & vb:
                if nb1 & vb or pat != a1s:
                    forced |= vb
            elif nb1 & vb:
                if pat != b1s:
                    forced |= vb
            elif pat:
                forced |= vb
        if forced & pin2:
            return None, 0
        x1 |= forced
    x2 = g.full_mask() & ~x1
    if x1.bit_count() < 3 or x2.bit_count() < 3:
        return None, x1
    split = TwoJoinSplit(x1, x2, a1s, adj[a1] & x2, b1s, adj[b1] & x2)
    return (split if validate_split(g, split, mode="full") else None), x1


def reference_seeds(g: Graph) -> Iterator[tuple[int, int, int, int]]:
    """Every seed (a1, a2, b1, b2) by testing every pair of edges in
    lexicographic order, each in four orientations: the seed enumerator
    before the adjacency-mask one, kept as written."""
    adj = g._adj
    edges = g.edges()
    for i, (u, v) in enumerate(edges):
        for eb in edges[i + 1:]:
            if u in eb or v in eb:
                continue
            for a1, a2 in ((u, v), (v, u)):
                for b1, b2 in (eb, eb[::-1]):
                    if not (adj[a1] >> b2 & 1 or adj[b1] >> a2 & 1):
                        yield a1, a2, b1, b2


def reference_fixpoints(g: Graph) -> list[tuple[int, int, int, int, int]]:
    """(a1, a2, b1, b2, x1) for every seed closure and every retry of a
    stalled seed with one extra node c outside its fixpoint and the pins,
    each by a fresh reference_closure from {a1, b1, c}, in seed order and
    then retry order; contradictions (x1 = 0) are left out."""
    out = []
    stalled = []
    for a1, a2, b1, b2 in reference_seeds(g):
        _, x1 = reference_closure(g, a1, a2, b1, b2, 0)
        if x1:
            out.append((a1, a2, b1, b2, x1))
            stalled.append((a1, a2, b1, b2, x1))
    for a1, a2, b1, b2, x1 in stalled:
        for c in bits(g.full_mask() & ~x1 & ~(1 << a2) & ~(1 << b2)):
            _, y1 = reference_closure(g, a1, a2, b1, b2, 1 << c)
            if y1:
                out.append((a1, a2, b1, b2, y1))
    return out


# -- the per-kind theta, prism and pyramid checks ------------------------------
# The oracle's structural checks before one three-path reader replaced them,
# kept as written; the reader must return the same witness on every subset.

def reference_degree3(g: Graph, sub: int) -> Optional[int]:
    """The nodes of degree 3 in G[sub] as a mask, or None if some node of
    sub has a degree other than 2 or 3 there."""
    adj = g._adj
    deg3 = 0
    for v in bits(sub):
        d = (adj[v] & sub).bit_count()
        if d == 3:
            deg3 |= 1 << v
        elif d != 2:
            return None
    return deg3


def reference_triangles(g: Graph, sub: int) -> list[tuple[int, int, int]]:
    adj = g._adj
    out = []
    nodes = bits(sub)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if not adj[u] & (1 << v):
                continue
            common = adj[u] & adj[v] & sub
            for w in bits(common):
                if w > v:
                    out.append((u, v, w))
    return out


def reference_theta_mask(g: Graph, sub: int) -> Optional[ConfigWitness]:
    adj = g._adj
    if sub.bit_count() < _MIN_NODES["theta"]:
        return None
    deg3 = reference_degree3(g, sub)
    if deg3 is None or deg3.bit_count() != 2:
        return None
    a, b = bits(deg3)
    if adj[a] & (1 << b):
        return None
    paths = []
    for first in bits(adj[a] & sub):
        path = walk(g, sub, a, first, 1 << b)
        if path is None:
            return None
        paths.append(path)
    # three walks that end at b are internally disjoint; they cover sub
    # iff their interiors hold the other |sub| - 2 nodes
    if sum(map(len, paths)) != sub.bit_count() + 4:
        return None
    paths.sort(key=lambda p: min(p[1:-1]))
    return ConfigWitness("theta", frozenset(bits(sub)),
                         {"a": a, "b": b, "paths": paths})


def reference_prism_mask(g: Graph, sub: int) -> Optional[ConfigWitness]:
    adj = g._adj
    if sub.bit_count() < _MIN_NODES["prism"]:
        return None
    deg3 = reference_degree3(g, sub)
    if deg3 is None or deg3.bit_count() != 6:
        return None
    tris = reference_triangles(g, sub)
    if len(tris) != 2:
        return None
    ta, tb = tris
    ta_mask, tb_mask = mask_of(ta), mask_of(tb)
    if ta_mask & tb_mask or (ta_mask | tb_mask) != deg3:
        return None
    # the three paths end at distinct nodes of tb: each has degree 3,
    # so one neighbor outside its triangle
    paths = []
    covered = 0
    for a_i in ta:
        out = adj[a_i] & sub & ~ta_mask
        if out.bit_count() != 1:
            return None
        path = walk(g, sub, a_i, out.bit_length() - 1, tb_mask | ta_mask)
        if path is None or not tb_mask >> path[-1] & 1:
            return None
        covered |= mask_of(path)
        paths.append(path)
    if covered != sub:
        return None
    return ConfigWitness("prism", frozenset(bits(sub)),
                         {"triangles": [list(ta), list(tb)], "paths": paths})


def reference_pyramid_mask(g: Graph, sub: int) -> Optional[ConfigWitness]:
    adj = g._adj
    if sub.bit_count() < _MIN_NODES["pyramid"]:
        return None
    deg3 = reference_degree3(g, sub)
    if deg3 is None or deg3.bit_count() != 4:
        return None
    tris = reference_triangles(g, sub)
    if len(tris) != 1:
        return None
    tri = tris[0]
    tri_mask = mask_of(tri)
    if tri_mask & ~deg3:
        return None
    apex_mask = deg3 & ~tri_mask
    if apex_mask.bit_count() != 1:
        return None
    apex = apex_mask.bit_length() - 1
    paths = []
    covered = 0
    for b_i in tri:
        out = adj[b_i] & sub & ~tri_mask
        if out.bit_count() != 1:
            return None
        path = walk(g, sub, b_i, out.bit_length() - 1, apex_mask | tri_mask)
        if path is None or path[-1] != apex:
            return None
        covered |= mask_of(path)
        paths.append(path[::-1])
    # at most one path of length 1 (the 2-node walk b_i, apex)
    if sum(len(p) == 2 for p in paths) > 1 or covered != sub:
        return None
    return ConfigWitness("pyramid", frozenset(bits(sub)),
                         {"apex": apex, "triangle": list(tri), "paths": paths})


# -- the oracle's subset sweep -------------------------------------------------
# The oracle's sweep before the pruned DFS replaced it, kept as written;
# scan_configs and contains_config must return the same witnesses.

def reference_scan(g: Graph, wanted: tuple[str, ...], first_only: bool) -> dict:
    adj = g._adj
    found: dict[str, Optional[ConfigWitness]] = {k: None for k in wanted}
    remaining = set(wanted)
    nodes = list(range(g.n))
    for size in range(min(_MIN_NODES[k] for k in wanted), g.n + 1):
        for combo in combinations(nodes, size):
            sub = mask_of(combo)
            # every kind has minimum degree 2 inside the subgraph, and
            # only a wheel's center may exceed degree 3
            deg3 = high = 0  # high: the count of nodes of degree >= 4
            for v in combo:
                d = (adj[v] & sub).bit_count()
                if d <= 1:
                    break
                if d == 3:
                    deg3 |= 1 << v
                elif d > 3:
                    high += 1
            else:
                # a pyramid with a path of length 1 is also a wheel, and
                # no other two kinds share a subset: read the wheel first
                hits = []
                if "wheel" in remaining and high <= 1:
                    hits.append(_wheel_mask(g, sub))
                if not high and _KIND_BY_DEGREE3.get(deg3.bit_count()) in remaining:
                    hits.append(_three_path_mask(g, sub, deg3))
                for w in hits:
                    if w is not None and w.kind in remaining:
                        found[w.kind] = w
                        remaining.discard(w.kind)
                        if first_only or not remaining:
                            return found
    return found
