"""Exhaustive ground-truth detectors for Truemper configurations.

A Truemper configuration is a theta, wheel, prism or pyramid.  The is_*
checks decide whether a WHOLE graph is one of these, by structural
analysis (degree filter, then explicit path verification).  The
contains_config oracle enumerates induced subgraphs up to a hard node
cap, so it is sound and complete at desk scale and never silently wrong
above it.

Thetas, pyramids and prisms are the three-path configurations: two ends,
each a node or a triangle, joined by three chordless paths.  One reader,
_three_path_mask, serves all three: the degree-3 nodes are the ends,
three walks from the near end must stop in the far end and cover the
rest, and the shape of the ends names the kind.  The wheel check reads
its rim with graph's hole reader.

The sweep visits node subsets by size, then lexicographically, and the
first witness of a kind is the first subset in that order that induces
one.  Each size is one depth-first walk that extends a prefix by
ascending nodes, so it keeps that order while it skips every prefix
with no live extension.  Induced degrees only grow as a prefix grows,
every configuration has minimum degree 2, and only a wheel's centre
exceeds degree 3.  So a prefix dies once it holds two nodes of degree
>= 4 (one, when no wheel is still wanted), or a node that cannot reach
degree 2 from the nodes above its last one.  A full subset goes to the
wheel check only if its count of degree-3 nodes fits a wheel: 4 when no
node exceeds degree 3, else the degree of that centre.

Definitions used throughout:

* theta: two non-adjacent nodes a, b joined by three internally disjoint
  chordless paths, each of length >= 2, with no other edges between the
  paths.
* pyramid: an apex a joined to a triangle b1b2b3 by three chordless
  paths of length >= 1, at least two of them of length >= 2, disjoint
  except at a, with no other edges between the paths.
* prism: two disjoint triangles a1a2a3, b1b2b3 joined by three disjoint
  chordless paths of length >= 1 with no other edges between the paths.
* wheel: a hole (chordless cycle of length >= 4) plus a center with at
  least three neighbors on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import Graph, _hole, bits, mask_of, reach, walk

KINDS = ("theta", "wheel", "prism", "pyramid")

# Smallest instance of each kind: K_{2,3}, the 4-wheel, K3 x K2,
# the (1,2,2)-pyramid.
_MIN_NODES = {"theta": 5, "wheel": 5, "prism": 6, "pyramid": 6}

DEFAULT_CAP = 14


class OracleScaleError(ValueError):
    """Raised when a graph exceeds the exhaustive oracle's node cap."""


@dataclass(frozen=True)
class ConfigWitness:
    """A found configuration with its defining pieces.

    structure is kind specific:
      theta:   {"a": int, "b": int, "paths": [[a, ..., b] x3]}
      wheel:   {"rim": [cycle order], "center": int}
      prism:   {"triangles": [[a1,a2,a3],[b1,b2,b3]], "paths": [[a_i,...,b_j] x3]}
      pyramid: {"apex": int, "triangle": [b1,b2,b3], "paths": [[apex,...,b_i] x3]}
    """

    kind: str
    nodes: frozenset[int]
    structure: dict

    def to_json(self) -> dict:
        return {"kind": self.kind, "nodes": sorted(self.nodes), "structure": self.structure}


# -- whole-graph structural checks (mask core) -------------------------------

def _three_path_mask(g: Graph, sub: int, deg3: int) -> Optional[ConfigWitness]:
    """The theta, pyramid or prism that sub induces, or None.  Every node
    of sub has degree 2 or 3 in G[sub], and deg3 holds those of degree 3.

    The degree-3 nodes are exactly the two ends: the triangles among them
    (a path of length 1 may join the ends, so these are not the
    components of G[deg3]) and the other degree-3 nodes each.  Three
    walks leave the near end (the first triangle, else the lower node),
    one per edge, and each must stop in the far end; their interiors are
    then disjoint, so they cover sub iff they hold its |sub - deg3|
    degree-2 nodes.  Two single nodes make a theta, a node and a triangle
    a pyramid and two triangles a prism, with at most 0, 1 and 3 paths
    of length 1 respectively.
    """
    if deg3.bit_count() not in (2, 4, 6):  # two ends of 1 or 3 nodes
        return None
    adj = g._adj
    tris = []  # lexicographic
    singles = deg3
    for u in bits(deg3):
        for v in bits(adj[u] & deg3 & -2 << u):
            for w in bits(adj[u] & adj[v] & deg3 & -2 << v):
                tris.append(1 << u | 1 << v | 1 << w)
                singles &= ~tris[-1]
    if len(tris) + singles.bit_count() != 2 or len(tris) == 2 and tris[0] & tris[1]:
        return None
    near = tris[0] if tris else singles & -singles
    far = deg3 & ~near
    # a theta's ends are not adjacent; a pyramid's second path of length
    # 1 would close a second triangle on the apex, refused above
    if not tris and adj[near.bit_length() - 1] & far:
        return None
    paths = []
    for x in bits(near):
        for first in bits(adj[x] & sub & ~near):
            path = walk(g, sub, x, first, deg3)
            if path is None or not far >> path[-1] & 1:
                return None
            paths.append(path)
    if sum(map(len, paths)) != (sub & ~deg3).bit_count() + 6:
        return None
    nodes = frozenset(bits(sub))
    if not tris:
        paths.sort(key=lambda p: min(p[1:-1]))
        return ConfigWitness("theta", nodes, {"a": paths[0][0], "b": paths[0][-1],
                                              "paths": paths})
    if len(tris) == 1:
        return ConfigWitness("pyramid", nodes,
                             {"apex": far.bit_length() - 1, "triangle": bits(near),
                              "paths": [p[::-1] for p in paths]})
    return ConfigWitness("prism", nodes, {"triangles": [bits(near), bits(far)],
                                          "paths": paths})


def _wheel_mask(g: Graph, sub: int) -> Optional[ConfigWitness]:
    """The wheel sub induces, by its first center whose removal leaves a hole."""
    adj = g._adj
    for c in bits(sub):
        if (adj[c] & sub).bit_count() < 3:
            continue
        rim = _hole(g, sub & ~(1 << c))
        if rim is not None:
            return ConfigWitness("wheel", frozenset(bits(sub)),
                                 {"rim": rim, "center": c})
    return None


def _three_path(g: Graph, kind: str) -> Optional[ConfigWitness]:
    # on the whole graph the degrees are the row popcounts
    adj = g._adj
    if any(not 2 <= row.bit_count() <= 3 for row in adj):
        return None
    deg3 = mask_of(v for v in range(g.n) if adj[v].bit_count() == 3)
    w = _three_path_mask(g, g.full_mask(), deg3)
    return w if w is not None and w.kind == kind else None


# -- public predicates -------------------------------------------------------

def is_theta(g: Graph) -> Optional[ConfigWitness]:
    """Witness iff the whole graph is a theta."""
    return _three_path(g, "theta")


def is_wheel(g: Graph) -> Optional[ConfigWitness]:
    """Witness iff the whole graph is a wheel (rim plus its center)."""
    return _wheel_mask(g, g.full_mask())


def is_prism(g: Graph) -> Optional[ConfigWitness]:
    """Witness iff the whole graph is a prism."""
    return _three_path(g, "prism")


def is_pyramid(g: Graph) -> Optional[ConfigWitness]:
    """Witness iff the whole graph is a pyramid."""
    return _three_path(g, "pyramid")


def is_long_pyramid(g: Graph) -> bool:
    """True iff g is a pyramid all of whose three paths have length >= 2."""
    w = is_pyramid(g)
    if w is None:
        return False
    return all(len(p) >= 3 for p in w.structure["paths"])


def contains_config(g: Graph, kinds: Sequence[str] = KINDS,
                    cap: int = DEFAULT_CAP) -> Optional[ConfigWitness]:
    """First induced configuration of one of the given kinds (one kind
    name or a sequence of them), or None.

    Enumerates node subsets by size then lexicographically and runs the
    structural checks on each induced subgraph, so the answer is sound
    and complete for graphs within the cap.  The enumeration skips only
    subsets whose induced degrees rule out every kind still wanted (see
    the module docstring), so the first witness is the same as without
    the pruning.  Raises OracleScaleError above the cap rather than ever
    returning a wrong answer.
    """
    wanted = _validate_kinds(kinds)
    if g.n > cap:
        raise OracleScaleError(
            f"oracle scale exceeded: graph has {g.n} nodes, cap is {cap}")
    found = _scan(g, wanted, first_only=True)
    for kind in KINDS:
        if kind in found and found[kind] is not None:
            return found[kind]
    return None


def scan_configs(g: Graph, kinds: Sequence[str] = KINDS,
                 cap: int = DEFAULT_CAP) -> dict[str, Optional[ConfigWitness]]:
    """First witness per kind in one subset sweep (oracle bulk interface)."""
    wanted = _validate_kinds(kinds)
    if g.n > cap:
        raise OracleScaleError(
            f"oracle scale exceeded: graph has {g.n} nodes, cap is {cap}")
    return _scan(g, wanted, first_only=False)


def _validate_kinds(kinds: Sequence[str]) -> tuple[str, ...]:
    # a bare string is one kind name, not a sequence of letters; any
    # other iterable is read once
    given = {kinds} if isinstance(kinds, str) else set(kinds)
    unknown = given - set(KINDS)
    if unknown:
        raise ValueError(f"unknown configuration kinds: {sorted(unknown)}")
    if not given:
        raise ValueError("no configuration kinds requested")
    return tuple(k for k in KINDS if k in given)


# a three-path configuration's kind by its degree-3 nodes, its two ends
_KIND_BY_DEGREE3 = {2: "theta", 4: "pyramid", 6: "prism"}


def _scan(g: Graph, wanted: tuple[str, ...], first_only: bool) -> dict:
    n, adj = g.n, g._adj
    found: dict[str, Optional[ConfigWitness]] = {k: None for k in wanted}
    # has1[v], has2[v]: the nodes with at least one, two neighbours in v..n-1
    has1, has2 = [0] * (n + 1), [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        has2[v] = has2[v + 1] | has1[v + 1] & adj[v]
        has1[v] = has1[v + 1] | adj[v]
    sweep = (g, adj, has1, has2, found, set(wanted), first_only)
    for size in range(min(_MIN_NODES[k] for k in wanted), n + 1):
        if _grow(sweep, 0, 0, 0, 0, 0, size):
            break
    return found


def _grow(sweep: tuple, sub: int, b0: int, b1: int, big: int, start: int,
          left: int) -> bool:
    """Extend sub by `left` more nodes from start on, in ascending order,
    and read each full subset; True once the sweep is over.

    sub's induced degrees come bit-sliced: b0 and b1 hold bits 0 and 1 of
    each count, and big marks counts of 4 or more.
    """
    g, adj, has1, has2, found, remaining, first_only = sweep
    for v in range(start, len(adj) - left + 1):
        new = adj[v] & sub
        d = new.bit_count()
        carry = b0 & new
        c0 = b0 ^ new | (d & 1) << v
        c1 = b1 ^ carry | (d >> 1 & 1) << v
        cbig = big | b1 & carry | (d > 3) << v
        # degrees only grow, and only a wheel's centre exceeds 3
        if cbig & (cbig - 1) or cbig and "wheel" not in remaining:
            continue
        s = sub | 1 << v
        zero = s & ~(c0 | c1 | cbig)
        one = c0 & ~c1 & ~cbig
        if left > 1:
            # every node still needs degree 2 from the nodes above v
            if not (zero & ~has2[v + 1] or one & ~has1[v + 1]) \
                    and _grow(sweep, s, c0, c1, cbig, v + 1, left - 1):
                return True
            continue
        if zero | one:
            continue
        deg3 = c0 & c1 & ~cbig
        k = deg3.bit_count()
        # a pyramid with a path of length 1 is also a wheel, and no other
        # two kinds share a subset: read the wheel first.  A wheel's
        # degree-3 nodes are its centre's rim neighbours and, for a centre
        # of degree 3, the centre.
        hits = []
        if "wheel" in remaining and k == (
                (adj[cbig.bit_length() - 1] & s).bit_count() if cbig else 4):
            hits.append(_wheel_mask(g, s))
        if not cbig and _KIND_BY_DEGREE3.get(k) in remaining:
            hits.append(_three_path_mask(g, s, deg3))
        for w in hits:
            if w is not None:
                found[w.kind] = w
                remaining.discard(w.kind)
                if first_only or not remaining:
                    return True
    return False


# -- star cutsets ------------------------------------------------------------

def has_star_cutset(g: Graph) -> Optional[tuple[int, int]]:
    """A (center, cutset) pair where the cutset, a node bitmask, lies in
    the closed neighborhood of its center, or None.

    Scans centers ascending; for each the candidate cutset is the closed
    neighborhood minus a pair of surviving nodes, then greedily minimized.
    """
    if g.n < 3:
        return None
    full = g.full_mask()
    for x in range(g.n):
        star = (1 << x) | g.adj_mask(x)
        outside = full & ~(1 << x)
        rest = bits(outside)
        for i, u in enumerate(rest):
            for v in rest[i + 1:]:
                s_mask = star & ~(1 << u) & ~(1 << v)
                if reach(g, 1 << u, full & ~s_mask) & (1 << v):
                    continue
                # greedy minimization, keeping the center
                for s in bits(s_mask & ~(1 << x)):
                    trial = s_mask & ~(1 << s)
                    if not reach(g, 1 << u, full & ~trial) & (1 << v):
                        s_mask = trial
                return x, s_mask
    return None
