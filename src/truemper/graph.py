"""Immutable simple undirected graphs over contiguous integer node ids.

A graph is its node count n plus one adjacency bitset row per node
(Python ints, one bit per neighbor); neighbor tuples are derived from the
rows on demand.  Nodes carry no labels: callers that need to name nodes
(a 2-join block's marker path, say) pass the ids explicitly.  All
operations are pure functions; edits return new graphs.  Iteration order
is ascending node id everywhere, so every "first found" answer is
reproducible.

Graphs are built two ways.  The validated constructor Graph(n, rows)
takes outside input and checks everything: size, row count, loops, range
and symmetry.  Graph.derived(n, rows) trusts its rows; it builds the
graphs computed from a validated one (induced subgraphs, line graphs,
2-join blocks and compositions), and Graph.from_edge_list uses it once
its own edge checks have passed.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

MAX_NODES = 4096


class Graph:
    """A finite simple graph on nodes 0..n-1."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, adj_masks: Sequence[int]):
        if n < 0 or n > MAX_NODES:
            raise ValueError(f"node count {n} outside supported range 0..{MAX_NODES}")
        if len(adj_masks) != n:
            raise ValueError(f"{len(adj_masks)} adjacency rows for {n} nodes")
        full = (1 << n) - 1
        for v in range(n):
            row = adj_masks[v]
            if row & (1 << v):
                raise ValueError(f"self-loop at node {v}")
            if row & ~full:
                raise ValueError(f"adjacency row of node {v} mentions out-of-range nodes")
        for v in range(n):
            row = adj_masks[v]
            w = row
            while w:
                b = w & -w
                u = b.bit_length() - 1
                if not adj_masks[u] & (1 << v):
                    raise ValueError(f"adjacency not symmetric on pair ({v}, {u})")
                w ^= b
        self.n = n
        self._adj = tuple(adj_masks)

    # -- construction ----------------------------------------------------

    @staticmethod
    def derived(n: int, adj_masks: Sequence[int]) -> "Graph":
        """Internal constructor for a graph computed from a validated one
        (induced subgraphs, line graphs, blocks, compositions): the rows
        must already be symmetric, loop-free and in range, so nothing is
        checked."""
        g = object.__new__(Graph)
        g.n = n
        g._adj = tuple(adj_masks)
        return g

    @staticmethod
    def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an explicit edge list.

        Rejects self-loops, duplicate edges and out-of-range ids.
        """
        if n < 0 or n > MAX_NODES:
            raise ValueError(f"node count {n} outside supported range 0..{MAX_NODES}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph.derived(n, rows)

    # -- elementary queries ----------------------------------------------
    # each refuses an id outside 0..n-1 by name (a negative id would
    # otherwise read the rows from the end)

    def adj_mask(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise IndexError(f"node {v} not in graph")
        return self._adj[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj_mask(v)))

    def degree(self, v: int) -> int:
        return self.adj_mask(v).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            raise IndexError(f"node {v if 0 <= u < n else u} not in graph")
        return bool(self._adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, row in enumerate(self._adj) for v in bits(row & -2 << u)]

    @property
    def m(self) -> int:
        return sum(r.bit_count() for r in self._adj) // 2

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def bits(mask: int) -> list[int]:
    """Node ids present in a bitmask, ascending.  The one bit walker:
    only the hot kernels peel lowest bits inline instead."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def mask_of(nodes: Iterable[int]) -> int:
    m = 0
    for v in nodes:
        m |= 1 << v
    return m


# -- derived graphs -------------------------------------------------------

def induced_subgraph(g: Graph, nodes: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on a node set, plus the map new id -> old id."""
    order = sorted(set(nodes))
    if order and (order[0] < 0 or order[-1] >= g.n):
        bad = next(v for v in order if not 0 <= v < g.n)
        raise ValueError(f"node {bad} not in graph")
    adj = g._adj
    pos = {v: i for i, v in enumerate(order)}
    sel = mask_of(order)
    rows = []
    for v in order:
        row = 0
        w = adj[v] & sel
        while w:
            b = w & -w
            row |= 1 << pos[b.bit_length() - 1]
            w ^= b
        rows.append(row)
    return Graph.derived(len(order), rows), tuple(order)


# -- connectivity ---------------------------------------------------------

def reach(g: Graph, sources: int, within: int) -> int:
    """The sources plus every node of within that a path inside within
    connects to one of them, as a bitmask."""
    adj = g._adj
    seen = frontier = sources
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            nxt |= adj[b.bit_length() - 1]
            frontier ^= b
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def components_masks(g: Graph, within: Optional[int] = None) -> list[int]:
    """Connected components as bitmasks, ordered by smallest contained id."""
    todo = g.full_mask() if within is None else within
    comps = []
    while todo:
        comp = reach(g, todo & -todo, todo)
        comps.append(comp)
        todo &= ~comp
    return comps


def components(g: Graph) -> list[set[int]]:
    return [set(bits(c)) for c in components_masks(g)]


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return len(components_masks(g)) == 1


def biconnected_blocks(g: Graph) -> list[int]:
    """The blocks of g as node bitmasks: its maximal 2-connected subgraphs
    and its bridges (two-node blocks); isolated nodes give none.

    One iterative Hopcroft-Tarjan walk over the adjacency rows.  In a
    depth-first search every non-tree edge joins a node to an ancestor,
    so the nodes already seen next to a new node w, its parent aside,
    are exactly the targets of w's back edges.  low[v] is the earliest
    discovery time among v and the back-edge targets of v's subtree; a
    child v of p closes a block, p plus the nodes stacked from v on,
    when low[v] >= disc[p].
    """
    adj = g._adj
    disc = [0] * g.n
    low = [0] * g.n
    left = list(adj)  # left[v]: the neighbours v has still to try
    blocks: list[int] = []
    seen = 0
    for root in range(g.n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        disc[root] = low[root] = time = 0  # only one tree's times are compared
        stack = [root]  # nodes of the blocks still open
        path = [root]  # the search path from root
        while path:
            v = path[-1]
            todo = left[v] & ~seen
            if todo:
                b = todo & -todo
                left[v] = todo ^ b
                w = b.bit_length() - 1
                time += 1
                disc[w] = low_w = time
                up = adj[w] & seen & ~(1 << v)
                while up:
                    a = up & -up
                    d = disc[a.bit_length() - 1]
                    if d < low_w:
                        low_w = d
                    up ^= a
                low[w] = low_w
                seen |= b
                stack.append(w)
                path.append(w)
                continue
            path.pop()
            if path:
                p = path[-1]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    block = 1 << p
                    while True:
                        u = stack.pop()
                        block |= 1 << u
                        if u == v:
                            break
                    blocks.append(block)
    return blocks


# -- paths and cycles as node sequences -------------------------------------

def is_path_sequence(g: Graph, nodes: Sequence[int]) -> bool:
    """True iff nodes lists a path: distinct nodes of g, consecutive
    adjacent."""
    if len(set(nodes)) != len(nodes) or not nodes:
        return False
    if not all(0 <= v < g.n for v in nodes):
        return False
    return all(g.has_edge(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1))


def is_chordless_path_sequence(g: Graph, nodes: Sequence[int]) -> bool:
    """True iff nodes lists a path with no chord (no non-consecutive
    pair adjacent)."""
    if not is_path_sequence(g, nodes):
        return False
    for i in range(len(nodes)):
        for j in range(i + 2, len(nodes)):
            if g.has_edge(nodes[i], nodes[j]):
                return False
    return True


def is_chordless_cycle_sequence(g: Graph, nodes: Sequence[int]) -> bool:
    """True iff nodes lists a chordless cycle (closing on its first node)."""
    if len(nodes) < 3 or not is_path_sequence(g, nodes):
        return False
    if not g.has_edge(nodes[-1], nodes[0]):
        return False
    for i in range(len(nodes)):
        for j in range(i + 2, len(nodes)):
            if (i, j) == (0, len(nodes) - 1):
                continue
            if g.has_edge(nodes[i], nodes[j]):
                return False
    return True


# -- small structural predicates -------------------------------------------

def is_clique_mask(g: Graph, m: int) -> bool:
    """True iff the nodes of mask m are pairwise adjacent."""
    adj = g._adj
    rest = m
    while rest:
        b = rest & -rest
        if adj[b.bit_length() - 1] & m != m ^ b:
            return False
        rest ^= b
    return True


def is_clique_graph(g: Graph) -> bool:
    """True iff g itself is complete (vacuously for n <= 1)."""
    return is_clique_mask(g, g.full_mask())


def cliques(g: Graph, cand: int) -> Iterator[int]:
    """Every nonempty clique inside mask cand, as a mask, in lexicographic
    order of the ascending node lists (a clique comes before its
    extensions)."""
    return _extend_cliques(g._adj, 0, cand)


def _extend_cliques(adj: tuple[int, ...], clique: int, cand: int) -> Iterator[int]:
    for v in bits(cand):
        new = clique | (1 << v)
        yield new
        yield from _extend_cliques(adj, new, cand & adj[v] & ~((1 << (v + 1)) - 1))


def walk(g: Graph, within: int, start: int, first: int,
         stop: int) -> Optional[list[int]]:
    """The chain start, first, ... that leaves each node of degree 2 in
    G[within] by its other neighbor, up to the first node of mask stop
    (start may be one, closing a cycle); None if the chain meets a node
    of another degree or repeats a node first.  start and first are
    adjacent nodes of within."""
    adj = g._adj
    order = [start, first]
    seen = 1 << start
    prev, cur = start, first
    while not stop >> cur & 1:
        nbrs = adj[cur] & within
        if seen >> cur & 1 or nbrs.bit_count() != 2:
            return None
        seen |= 1 << cur
        prev, cur = cur, (nbrs & ~(1 << prev)).bit_length() - 1
        order.append(cur)
    return order


def path_order(g: Graph, part: int) -> Optional[list[int]]:
    """Node order of the chordless path that mask part induces, from its
    lower end, or None if part does not induce a path."""
    if part.bit_count() == 1:
        return [part.bit_length() - 1]
    adj = g._adj
    ends = [v for v in bits(part) if (adj[v] & part).bit_count() == 1]
    if len(ends) != 2:
        return None
    order = walk(g, part, ends[0], (adj[ends[0]] & part).bit_length() - 1,
                 1 << ends[1])
    if order is None or len(order) != part.bit_count():
        return None
    return order


def _hole(g: Graph, part: int) -> Optional[list[int]]:
    """Cyclic node order of the hole that mask part induces, from its
    lowest node toward that node's lower neighbor, or None if part does
    not induce a chordless cycle of length >= 4."""
    v0 = (part & -part).bit_length() - 1
    row = g._adj[v0] & part if part.bit_count() >= 4 else 0
    if not row:
        return None
    order = walk(g, part, v0, (row & -row).bit_length() - 1, 1 << v0)
    if order is None or len(order) != part.bit_count() + 1:
        return None
    return order[:-1]


def is_hole_graph(g: Graph) -> bool:
    """True iff g itself is a chordless cycle of length >= 4."""
    return _hole(g, g.full_mask()) is not None


def hole_order(g: Graph) -> list[int]:
    """Cyclic node order of a hole graph, starting at node 0 and going
    on to its lower neighbor."""
    order = _hole(g, g.full_mask())
    if order is None:
        raise ValueError("not a hole graph")
    return order


def is_triangle_free(g: Graph) -> bool:
    adj = g._adj
    for u in range(g.n):
        for v in bits(adj[u] & -2 << u):
            if adj[u] & adj[v]:
                return False
    return True


def find_diamond(g: Graph) -> Optional[frozenset[int]]:
    """Some induced K4-minus-an-edge as a node set, or None.

    Scans non-adjacent pairs u < v for two adjacent common neighbors
    w1 < w2; the first hit in that lexicographic order.
    """
    adj = g._adj
    full = g.full_mask()
    for u in range(g.n):
        rest = full & ~adj[u] & -1 << (u + 1)
        while rest:
            b = rest & -rest
            rest ^= b
            common = adj[u] & adj[b.bit_length() - 1]
            while common & (common - 1):  # at least two common neighbors
                w1 = common & -common
                common ^= w1
                w2s = common & adj[w1.bit_length() - 1]
                if w2s:
                    return frozenset((u, b.bit_length() - 1, w1.bit_length() - 1,
                                      (w2s & -w2s).bit_length() - 1))
    return None


def find_claw(g: Graph) -> Optional[frozenset[int]]:
    """Some induced K_{1,3} as a node set, or None.

    The first center c, then the lexicographically first pairwise
    non-adjacent leaves t0 < t1 < t2 among its neighbors.
    """
    adj = g._adj
    for c in range(g.n):
        rest = adj[c]
        while rest & (rest - 1):  # each mask below holds the nodes above
            t0 = rest & -rest     # its lowest-bit node
            rest ^= t0
            c1 = rest & ~adj[t0.bit_length() - 1]
            while c1 & (c1 - 1):
                t1 = c1 & -c1
                c1 ^= t1
                c2 = c1 & ~adj[t1.bit_length() - 1]
                if c2:
                    return frozenset((c, t0.bit_length() - 1, t1.bit_length() - 1,
                                      (c2 & -c2).bit_length() - 1))
    return None


# -- graph JSON ------------------------------------------------------------------
# The {"n", "edges"} object of docs/schemas/graph.schema.json.

def graph_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def graph_from_json(data: dict) -> Graph:
    return Graph.from_edge_list(data["n"], [tuple(e) for e in data["edges"]])


# -- edge-list text format --------------------------------------------------
# Canonical on-disk representation: first line "n m", then m lines "u v",
# 0-based, whitespace separated, '#' starts a comment.

class EdgeListParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; errors carry the offending line."""
    pairs = _integer_pairs(text)
    header = next(pairs, None)
    if header is None:
        raise EdgeListParseError("missing header line 'n m'", 1)
    header_line, n, m = header
    line = header_line

    def edges() -> Iterator[tuple[int, int]]:
        nonlocal line
        for line, u, v in pairs:
            yield u, v

    try:
        g = Graph.from_edge_list(n, edges())
    except EdgeListParseError:
        raise
    except ValueError as exc:
        raise EdgeListParseError(str(exc), line) from None
    if g.m != m:  # duplicates were refused, so g.m counts the edge lines
        raise EdgeListParseError(
            f"header announces {m} edges but file lists {g.m}", header_line)
    return g


def _integer_pairs(text: str) -> Iterator[tuple[int, int, int]]:
    """(line number, a, b) for every non-blank, non-comment line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        # plain ASCII digits only: int() would also take "1_0", "+1" and
        # non-ASCII digits
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise EdgeListParseError(f"expected two integers, got {body!r}", lineno)
        yield lineno, int(parts[0]), int(parts[1])


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_graph_file(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_graph_file(path: str, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))


def from_graph6(line: str) -> Graph:
    """Decode one graph in graph6 format (optional import path)."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = [ord(c) - 63 for c in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("invalid graph6 character")
    if not data:
        raise ValueError("empty graph6 string")
    if data[0] <= 62:
        n = data[0]
        body = data[1:]
    elif len(data) >= 4 and data[1] <= 62:
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        raise ValueError("graph6 sizes above 258047 not supported")
    if n > MAX_NODES:
        raise ValueError(f"node count {n} outside supported range 0..{MAX_NODES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} characters, expected {need}")
    bitstream = 0
    for b in body:
        bitstream = (bitstream << 6) | b
    total = need * 6
    if bitstream & ((1 << (total - n * (n - 1) // 2)) - 1):
        raise ValueError("graph6 padding bits must be zero")
    edges = []
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bitstream >> (total - 1 - k) & 1:
                edges.append((u, v))
            k += 1
    return Graph.from_edge_list(n, edges)
