"""2-joins: validation, consistency, detection, blocks and composition.

A split (X1, X2, A1, A2, B1, B2) is an almost 2-join when X1, X2
partition the nodes, the nonempty disjoint special sets A_i, B_i sit
inside X_i, the crossing edges are exactly the two complete bipartite
bundles A1-A2 and B1-B2, and |X_i| >= 3.  A 2-join additionally needs an
A_i-B_i path inside each side, and forbids a side that is a chordless
path with singleton special sets.

Detection seeds on ordered pairs of crossing edges and closes the
partition under forcing rules, at every graph size (see find_2join for
what is proven about it); the exhaustive partition sweep serves only as
a test oracle.  Splitting a 2-join replaces the far side by a
three-node marker path (a, c, b), which is always the block's last three
nodes; composition is the inverse operation and takes each factor's
marker path as an explicit triple of node ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterator, Optional

from .decomp import INTERNAL, DecompNode, DecompTree, StepResult, decompose
from .graph import (Graph, bits, components_masks, induced_subgraph,
                    is_clique_graph, is_clique_mask, is_hole_graph, path_order,
                    reach)


@dataclass(frozen=True)
class TwoJoinSplit:
    """A (candidate) split, each set a node bitmask; validity is checked
    by validate_split."""

    X1: int
    X2: int
    A1: int
    A2: int
    B1: int
    B2: int

    def to_json(self) -> dict:
        return {name: bits(getattr(self, name))
                for name in ("X1", "X2", "A1", "A2", "B1", "B2")}


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violation: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def validate_split(g: Graph, s: TwoJoinSplit, mode: str = "full") -> ValidationReport:
    """Check every clause of the almost-2-join (and, in full mode,
    2-join) definition; the report names the first violated clause."""
    if mode not in ("almost", "full"):
        raise ValueError(f"mode must be 'almost' or 'full', got {mode!r}")
    x1, x2, a1, a2, b1, b2 = s.X1, s.X2, s.A1, s.A2, s.B1, s.B2
    if x1 & x2 or (x1 | x2) != g.full_mask():
        return ValidationReport(False, "X1 and X2 must partition the node set")
    for name, spec_mask, side in (("A1", a1, x1), ("B1", b1, x1),
                                  ("A2", a2, x2), ("B2", b2, x2)):
        if not spec_mask:
            return ValidationReport(False, f"{name} is empty")
        if spec_mask & ~side:
            return ValidationReport(False, f"{name} is not contained in its side")
    if a1 & b1:
        return ValidationReport(False, "A1 and B1 intersect")
    if a2 & b2:
        return ValidationReport(False, "A2 and B2 intersect")
    for u in bits(a1):
        if g.adj_mask(u) & a2 != a2:
            return ValidationReport(False, "A1 is not complete to A2")
    for u in bits(b1):
        if g.adj_mask(u) & b2 != b2:
            return ValidationReport(False, "B1 is not complete to B2")
    for u in bits(x1):
        allowed = a2 if a1 & (1 << u) else 0
        allowed |= b2 if b1 & (1 << u) else 0
        if g.adj_mask(u) & x2 & ~allowed:
            return ValidationReport(False, "crossing edge outside the two bundles")
    if x1.bit_count() < 3 or x2.bit_count() < 3:
        return ValidationReport(False, "|X_i| >= 3 fails")
    if mode == "almost":
        return ValidationReport(True)
    for side, am, bm, name in ((x1, a1, b1, "X1"), (x2, a2, b2, "X2")):
        if not reach(g, am, side) & bm:
            return ValidationReport(False, f"{name} has no path between its special sets")
    for side, am, bm, name in ((x1, a1, b1, "X1"), (x2, a2, b2, "X2")):
        if am.bit_count() == 1 and bm.bit_count() == 1 and path_order(g, side) is not None:
            return ValidationReport(False, f"{name} is a chordless path with singleton special sets")
    return ValidationReport(True)


# -- consistency ---------------------------------------------------------------

CONSISTENCY_CONDITIONS = (
    "every component of G[X_i] meets both A_i and B_i",
    "every node of A_i has a non-neighbor in B_i",
    "every node of B_i has a non-neighbor in A_i",
    "A1 and A2 are both cliques, or one is a single node and the other a disjoint union of cliques",
    "B1 and B2 are both cliques, or one is a single node and the other a disjoint union of cliques",
    "G[X_i] is connected",
    "every node of X_i reaches B_i by a path with no internal node in A_i",
    "every node of X_i reaches A_i by a path with no internal node in B_i",
)


def is_consistent(g: Graph, s: TwoJoinSplit) -> tuple[bool, Optional[int]]:
    """Evaluate the eight consistency conditions of an almost 2-join.

    Returns (True, None) or (False, index) with the 1-based index of the
    first failed condition.  Rejects splits that are not valid almost
    2-joins outright.
    """
    rep = validate_split(g, s, mode="almost")
    if not rep:
        raise ValueError(f"not an almost 2-join: {rep.violation}")
    sides = ((s.X1, s.A1, s.B1), (s.X2, s.A2, s.B2))

    # 1: components of each side meet both special sets
    for side, am, bm in sides:
        for comp in components_masks(g, side):
            if not (comp & am) or not (comp & bm):
                return False, 1
    # 2 and 3: non-neighbor requirements between A_i and B_i
    for side, am, bm in sides:
        for u in bits(am):
            if g.adj_mask(u) & bm == bm:
                return False, 2
    for side, am, bm in sides:
        for u in bits(bm):
            if g.adj_mask(u) & am == am:
                return False, 3
    # 4 and 5: clique shape of the special-set pairs
    if not _clique_pair_ok(g, sides[0][1], sides[1][1]):
        return False, 4
    if not _clique_pair_ok(g, sides[0][2], sides[1][2]):
        return False, 5
    # 6: connected sides
    for side, _am, _bm in sides:
        if len(components_masks(g, side)) != 1:
            return False, 6
    # 7 and 8: reachability avoiding the opposite special set internally
    for side, am, bm in sides:
        if not _all_reach_avoiding(g, side, target=bm, forbidden=am):
            return False, 7
    for side, am, bm in sides:
        if not _all_reach_avoiding(g, side, target=am, forbidden=bm):
            return False, 8
    return True, None


def _all_reach_avoiding(g: Graph, side: int, target: int, forbidden: int) -> bool:
    """Whether every node of side reaches target by a path inside side
    whose internal nodes avoid forbidden.

    One search from target through side minus forbidden finds the nodes
    outside forbidden that qualify; a node of forbidden qualifies when it
    has a neighbor among them.
    """
    allowed = side & ~forbidden
    reached = reach(g, target, allowed)
    if allowed & ~reached:
        return False
    return all(g.adj_mask(v) & reached for v in bits(forbidden))


def _clique_pair_ok(g: Graph, m1: int, m2: int) -> bool:
    def union_of_cliques(m: int) -> bool:
        return all(is_clique_mask(g, comp) for comp in components_masks(g, m))

    return ((is_clique_mask(g, m1) and is_clique_mask(g, m2))
            or (m1.bit_count() == 1 and union_of_cliques(m2))
            or (m2.bit_count() == 1 and union_of_cliques(m1)))


# -- detection -------------------------------------------------------------------

def find_2join(g: Graph) -> Optional[TwoJoinSplit]:
    """A valid 2-join split of g, or None if none exists.

    A seed (a1, a2, b1, b2) is a pair of disjoint edges a1a2, b1b2 with
    a1b2 and b1a2 non-edges.  _seeds lists them in lexicographic order
    of their edge pairs from adjacency masks, in O(n) mask operations
    per edge plus O(1) per seed.  Each seed, in that order, grows X1
    from {a1, b1} to its forcing fixpoint (see _closure), with a2 and
    b2 pinned in X2.  Then each stalled seed is closed again with one
    extra node c, for every c outside its fixpoint and the pins in
    ascending order; the retry resumes from the seed's fixpoint plus c,
    which reaches the same fixpoint as a fresh closure from {a1, b1, c}
    because forcing is monotone.  The retry pass walks the seeds again
    and recomputes each fixpoint rather than keeping one per seed.  It
    retries only the seeds with at least four nodes outside their
    fixpoint: with three or fewer every retry leaves X2 = {a2, b2}.  A c
    in N(a2) & N(b2) is skipped: it would make A1 meet B1 at once.  A c
    whose retry contradicts or leaves X2 = {a2, b2} joins the seed's
    dead mask, and a later retry of the seed that forces a dead node
    stops there: forcing is monotone and idempotent for fixed pins, so
    that retry's fixpoint contains the dead node's and ends the same
    way.  Every fixpoint that could validate is still tried, in the same
    order.  Memory is O(n) words plus one byte per seed.  The first
    fixpoint that validate_split accepts, with A1 = N(a2) & X1,
    B1 = N(b2) & X1, A2 = N(a1) - X1 and B2 = N(b1) - X1, is returned,
    so every answer is checked and the result is deterministic.

    Completeness, for a 2-join (X1, X2, A1, A2, B1, B2) and a seed with
    a_i in A_i and b_i in B_i.  Proven:
      - With extra inside X1, every node of X2 fits its A2/B2/C2 pattern
        against any subset of X1 that holds a1 and b1.  So the closure
        X1' never forces a node of X2, never makes A1 meet B1 and stays
        inside X1: the seed validates or stalls, it never contradicts.
        Once |X1'| >= 3, X1' gives an almost 2-join with A1' = A1 & X1'
        and B1' = B1 & X1'.
      - The side V - X1' passes the full clauses.  It contains X2, and
        its special sets contain A2 and B2, so it has an A-B path.  If
        it were a chordless path with singleton specials a2, b2, then X2,
        which meets the rest of it only at a2 and b2 and holds an a2-b2
        path, would be a subpath of it with the same specials, and X2
        would break the non-path clause itself.
      - Let a1, b1 end a shortest A1-B1 path of G[X1] and c be the
        neighbour of a1 on it (any node of X1 - {a1, b1} if a1b1 is an
        edge).  With c, the rest of the path is forced into X1' node by
        node, so X1' has at least 3 nodes and an A1'-B1' path.
    Checked, not proven: that some seed and extra node also keep X1'
    from being a chordless path with singleton specials.  No miss
    against the exhaustive sweep on every graph with n <= 8 (up to
    isomorphism), on 3000 seeded G(n, p) with n = 7..12 and on 2240
    seeded sparse planted 2-joins with n = 11..16.
    """
    if g.n < 6:
        return None  # both sides need three nodes
    if is_clique_graph(g) or is_hole_graph(g):
        return None  # neither admits a 2-join (one bundle / path-side clauses)
    adj = g._adj
    full = g.full_mask()
    for a1, a2, b1, b2, x1 in _fixpoints(g):
        x2 = full & ~x1
        if x1.bit_count() < 3 or x2.bit_count() < 3:
            continue
        split = TwoJoinSplit(x1, x2, adj[a2] & x1, adj[a1] & x2,
                             adj[b2] & x1, adj[b1] & x2)
        if validate_split(g, split, mode="full"):
            return split
    return None


def _seeds(g: Graph) -> Iterator[tuple[int, int, int, int]]:
    """Every seed (a1, a2, b1, b2) in find_2join's order: disjoint edges
    uv before xy (u < v, x < y, lexicographically), each in the
    orientations (u,v,x,y), (u,v,y,x), (v,u,x,y), (v,u,y,x) that are
    seeds.

    Read from adjacency masks, not from an edge list.  An edge xy after
    uv that misses u and v has u < x and x, y != v, so x runs over the
    nodes above u with an upper neighbour and y over up[x], the
    neighbours above x.  (u,v,x,y) and (v,u,y,x) need x outside N(v)
    and y outside N(u), so their y form fit1; (u,v,y,x) and (v,u,x,y)
    need x outside N(u) and y outside N(v), so theirs form fit2.  That
    is O(n) mask operations per edge uv plus O(1) per seed, with no test
    per pair of edges; memory is O(n) words.
    """
    adj = g._adj
    up = [row & -2 << x for x, row in enumerate(adj)]
    has_up = sum(1 << x for x, row in enumerate(up) if row)
    for u in range(g.n):
        nu = adj[u]
        for v in bits(up[u]):
            nv = adj[v]
            uv = (1 << u) | (1 << v)
            lows = has_up & ~uv & -2 << u
            while lows:
                xb = lows & -lows
                lows ^= xb
                x = xb.bit_length() - 1
                ends = up[x] & ~uv
                fit1 = 0 if nv & xb else ends & ~nu
                fit2 = 0 if nu & xb else ends & ~nv
                highs = fit1 | fit2
                while highs:
                    yb = highs & -highs
                    highs ^= yb
                    y = yb.bit_length() - 1
                    if fit1 & yb:
                        yield u, v, x, y
                    if fit2 & yb:
                        yield u, v, y, x
                        yield v, u, x, y
                    if fit1 & yb:
                        yield v, u, y, x


def _fixpoints(g: Graph) -> Iterator[tuple[int, int, int, int, int]]:
    """(a1, a2, b1, b2, x1) for every closure find_2join runs that does
    not contradict, in its order: each seed's fixpoint, then each
    stalled seed's retries by ascending extra node, leaving out retries
    that end with X1 = V - {a2, b2}.  The consumer stops at the first
    fixpoint that validates, so every seed that reaches the retry pass
    has stalled.

    Only a seed with at least four nodes outside its fixpoint is
    retried, one flag byte per seed: with three or fewer (the
    pins and at most one node) every retry either contradicts or leaves
    X2 = {a2, b2}, which find_2join skips.  Within one seed's retries an
    extra node c whose retry contradicts or leaves X2 = {a2, b2} joins
    the dead mask, which starts as N(a2) & N(b2); a later retry that
    forces a dead node stops at once (see _closure for why that loses
    nothing).  Seeds are listed twice, by _seeds, rather than kept.
    Memory is O(n) words plus one byte per seed.
    """
    adj = g._adj
    full = g.full_mask()
    start = (0, -1, 0, -1, 0)  # empty X1: the intersections are all ones
    retry = bytearray()
    for a1, a2, b1, b2 in _seeds(g):
        state = _closure(adj, adj[a2], adj[b2], adj[a2] & adj[b2], start,
                         (1 << a1) | (1 << b1))
        retry.append(state is not None and (full & ~state[0]).bit_count() >= 4)
        if state is not None:
            yield a1, a2, b1, b2, state[0]
    for a1, a2, b1, b2 in compress(_seeds(g), retry):
        na2, nb2 = adj[a2], adj[b2]
        dead = na2 & nb2
        state = _closure(adj, na2, nb2, dead, start, (1 << a1) | (1 << b1))
        pins_out = full & ~(1 << a2) & ~(1 << b2)
        # c inside the fixpoint would only rebuild it; a dead c fails at once
        for c in bits(pins_out & ~state[0] & ~dead):
            fixpoint = _closure(adj, na2, nb2, dead, state, 1 << c)
            if fixpoint is None or fixpoint[0] == pins_out:
                dead |= 1 << c
            else:
                yield a1, a2, b1, b2, fixpoint[0]


def _closure(adj: tuple[int, ...], na2: int, nb2: int, dead: int,
             state: tuple[int, int, int, int, int],
             add: int) -> Optional[tuple[int, int, int, int, int]]:
    """Add the nodes of add to X1 and grow it to its forcing fixpoint,
    with a2 and b2 (rows na2, nb2) pinned in X2.

    A node v sitting in X2 must look like an A2 node (side-1
    neighbourhood exactly A1' = N(a2) & X1), a B2 node (exactly
    B1' = N(b2) & X1) or a C2 node (no side-1 neighbour); anything else
    is forced across.  The rule depends only on the pins: for a seed,
    a1 is in A1' and not in B1', and b1 the other way round, so the
    classic case split on N(a1) and N(b1) adds nothing.  In mask form, v
    fits A iff it lies in the intersection of the rows of A1' and
    outside the union of the rows of X1 - A1'; likewise for B; and v
    fits C iff it lies outside the union of the rows of X1, which is
    the union of the two outside masks because A1' and B1' are disjoint.
    The state (x1, in_a, out_a, in_b, out_b) keeps these masks, and
    since membership in A1' or B1' is fixed by the pins, each added node
    costs one row update and each round a few mask operations.

    The pins themselves always fit (a2 its A pattern, b2 its B pattern),
    so the only contradiction is X1 meeting N(a2) & N(b2), which makes
    A1' meet B1'.  A node that does not fit against X1 does not fit
    against any superset of X1 either, so forcing is monotone and
    idempotent for fixed pins: starting from any set between the start
    and the fixpoint gives the same fixpoint, so a stalled seed's state
    can be resumed with one extra node, and a closure that forces a node
    c contains the whole closure of c.  Hence the dead mask, which holds
    N(a2) & N(b2) and may hold nodes whose own closure from this state
    contradicts or leaves X2 = {a2, b2}: a closure that forces a dead
    node ends the same way, and None is returned at once.  The nodes of
    add must avoid it.  Returns the fixpoint's state, or None.
    """
    x1, in_a, out_a, in_b, out_b = state
    while add:
        x1 |= add
        while add:
            b = add & -add
            row = adj[b.bit_length() - 1]
            if na2 & b:
                in_a &= row
            else:
                out_a |= row
            if nb2 & b:
                in_b &= row
            else:
                out_b |= row
            add ^= b
        add = (out_a | out_b) & ~(x1 | in_a & ~out_a | in_b & ~out_b)
        if add & dead:
            return None
    return x1, in_a, out_a, in_b, out_b


def _bundles_of_partition(g: Graph, x1: int, x2: int) -> Optional[tuple[int, int, int, int]]:
    """Derive (A1, B1, A2, B2) masks forced by a partition, or None if
    the crossing edges do not form exactly two complete bundles."""
    m_a = m_b = 0
    a1 = b1 = 0
    for v in bits(x1):
        cm = g.adj_mask(v) & x2
        if not cm:
            continue
        if not m_a or cm == m_a:
            m_a = cm
            a1 |= 1 << v
        elif not m_b or cm == m_b:
            m_b = cm
            b1 |= 1 << v
        else:
            return None
    if not m_a or not m_b or m_a & m_b:
        return None
    return a1, b1, m_a, m_b


def _brute_splits(g: Graph, mode: str) -> Iterator[TwoJoinSplit]:
    """Every split that validate_split accepts in the given mode, by
    exhaustive partition enumeration with node 0 kept in X1 (swapping the
    sides gives an equivalent split)."""
    if g.n < 6:
        return
    full = g.full_mask()
    for half in range(1 << (g.n - 1)):
        x1 = (half << 1) | 1
        x2 = full & ~x1
        if x1.bit_count() < 3 or x2.bit_count() < 3:
            continue
        bundles = _bundles_of_partition(g, x1, x2)
        if bundles is None:
            continue
        a1, b1, a2, b2 = bundles
        split = TwoJoinSplit(x1, x2, a1, a2, b1, b2)
        if validate_split(g, split, mode=mode):
            yield split


def all_2joins_brute(g: Graph) -> list[TwoJoinSplit]:
    """Every valid 2-join split, by exhaustive partition enumeration.

    Independent oracle for find_2join; n is capped hard since the sweep
    is exponential.
    """
    if g.n > 16:
        raise ValueError("brute-force 2-join sweep capped at 16 nodes")
    return list(_brute_splits(g, "full"))


def all_almost_2joins_brute(g: Graph) -> list[TwoJoinSplit]:
    """Every valid almost-2-join split, exhaustively (one per partition,
    node 0 in X1)."""
    if g.n > 16:
        raise ValueError("brute-force almost-2-join sweep capped at 16 nodes")
    return list(_brute_splits(g, "almost"))


# -- blocks and composition -------------------------------------------------------

def blocks_of_2join(g: Graph, s: TwoJoinSplit) -> tuple[
        tuple[Graph, tuple[Optional[int], ...]],
        tuple[Graph, tuple[Optional[int], ...]]]:
    """The two blocks of decomposition, each with a map back to g.

    Block i keeps G[X_i] and replaces the far side by a marker path
    a-c-b with a complete to A_i, b complete to B_i and c of degree 2.
    The marker path is the block's last three nodes (n-3, n-2, n-1) in
    that order, and those nodes map to None.
    """
    rep = validate_split(g, s, mode="full")
    if not rep:
        raise ValueError(f"not a 2-join: {rep.violation}")
    g1 = _one_block(g, s.X1, s.A1, s.B1)
    g2 = _one_block(g, s.X2, s.A2, s.B2)
    return g1, g2


def _renumbered(mask: int, origin: tuple[int, ...], start: int = 0) -> int:
    """The nodes of mask under the ids start + i of an induced subgraph
    whose node i is origin[i]."""
    return sum(1 << start + i for i, old in enumerate(origin) if mask >> old & 1)


def _one_block(g: Graph, x: int, a: int, b: int) -> tuple[Graph, tuple[Optional[int], ...]]:
    side, origin = induced_subgraph(g, bits(x))
    a, b = _renumbered(a, origin), _renumbered(b, origin)
    ma, mc, mb = side.n, side.n + 1, side.n + 2
    rows = list(side._adj) + [1 << mc | a, (1 << ma) | (1 << mb), 1 << mc | b]
    for special, marker in ((a, ma), (b, mb)):
        for v in bits(special):
            rows[v] |= 1 << marker
    block = Graph.derived(side.n + 3, rows)
    return block, origin + (None, None, None)


def check_marker_precondition(g: Graph, marker: tuple[int, int, int]) -> TwoJoinSplit:
    """Validate that marker = (a, c, b) is a marker path of g and that
    (V minus the marker, marker) is a consistent almost 2-join; returns
    the split or raises ValueError naming the failure."""
    a, c, b = marker
    for v in marker:
        if not 0 <= v < g.n:
            raise ValueError(f"marker node {v} not in graph")
    if len({a, c, b}) != 3:
        raise ValueError("marker nodes must be distinct")
    if not (g.has_edge(a, c) and g.has_edge(c, b)):
        raise ValueError("marker nodes do not form a path")
    if g.has_edge(a, b):
        raise ValueError("marker path ends are adjacent")
    if g.degree(c) != 2:
        raise ValueError("marker middle node must have degree 2")
    markers = (1 << a) | (1 << c) | (1 << b)
    split = TwoJoinSplit(g.full_mask() & ~markers, markers,
                         g.adj_mask(a) & ~(1 << c), 1 << a,
                         g.adj_mask(b) & ~(1 << c), 1 << b)
    rep = validate_split(g, split, mode="almost")
    if not rep:
        raise ValueError(f"marker side is not an almost 2-join: {rep.violation}")
    ok, idx = is_consistent(g, split)
    if not ok:
        raise ValueError(
            f"marker-side split fails consistency condition {idx}: "
            f"{CONSISTENCY_CONDITIONS[idx - 1]}")
    return split


def compose_2join_with_split(g1: Graph, m1: tuple[int, int, int], g2: Graph,
                             m2: tuple[int, int, int]) -> tuple[Graph, TwoJoinSplit]:
    """Consistent 2-join composition of g1 and g2 along their marker
    paths m1 and m2, each an (a, c, b) triple of node ids.

    Removes both marker paths and joins the neighborhoods of the a-ends
    and of the b-ends by complete bundles.  Also returns the induced
    split of the composed graph (side 1 holds the g1 part).
    """
    s1 = check_marker_precondition(g1, m1)
    s2 = check_marker_precondition(g2, m2)
    h1, part1 = induced_subgraph(g1, bits(s1.X1))
    h2, part2 = induced_subgraph(g2, bits(s2.X1))
    off = h1.n
    a1, b1 = _renumbered(s1.A1, part1), _renumbered(s1.B1, part1)
    a2, b2 = _renumbered(s2.A1, part2, off), _renumbered(s2.B1, part2, off)
    rows = list(h1._adj) + [row << off for row in h2._adj]
    for near, far in ((a1, a2), (a2, a1), (b1, b2), (b2, b1)):
        for v in bits(near):
            rows[v] |= far
    composed = Graph.derived(off + h2.n, rows)
    x1 = (1 << off) - 1
    split = TwoJoinSplit(x1, composed.full_mask() & ~x1, a1, a2, b1, b2)
    # the partition is always an almost 2-join; it is a full 2-join
    # unless a factor's side is a chordless path with singleton specials
    # (e.g. a hole factor), in which case blocks_of_2join refuses it
    assert validate_split(composed, split, mode="almost").ok
    return composed, split


def compose_2join(g1: Graph, m1: tuple[int, int, int], g2: Graph,
                  m2: tuple[int, int, int]) -> Graph:
    """Consistent 2-join composition (see compose_2join_with_split)."""
    return compose_2join_with_split(g1, m1, g2, m2)[0]


# -- decomposition tree ------------------------------------------------------------

LEAF_NO_2JOIN = "no-2join"
LEAF_NON_CONSISTENT = "non-consistent-2join"


def _dot_label(node: DecompNode) -> str:
    return f"n={node.graph.n} {node.kind}"


def _twojoin_step(graph: Graph) -> StepResult:
    split = find_2join(graph)
    if split is None:
        return DecompNode(graph, LEAF_NO_2JOIN), None
    ok, idx = is_consistent(graph, split)
    if not ok:
        return DecompNode(graph, LEAF_NON_CONSISTENT, split,
                          failed_condition=idx), None
    return DecompNode(graph, INTERNAL, split), blocks_of_2join(graph, split)


def two_join_decomposition_tree(g: Graph) -> DecompTree:
    """Decompose along consistent 2-joins; leaves either have no 2-join
    or carry a non-consistent one (flagged as such).

    Each recursive call makes one node of a full binary tree, so the
    tree makes 2 * leaves - 1 calls; that stays within 2n - 13 for inputs
    with at least 7 nodes because consistent 2-joins have both sides of
    size at least 4.
    """
    root, leaves = decompose(g, _twojoin_step, None)
    head = {"tree": "consistent-2join", "calls": 2 * len(leaves) - 1}
    return DecompTree(root, leaves, head, "twojoin_decomposition", _dot_label)
