"""Exhaustive ground-truth detectors for Truemper configurations.

A Truemper configuration is a theta, wheel, prism or pyramid.  The is_*
checks decide whether a WHOLE graph is one of these, by structural
analysis (degree filter, then explicit path verification).  The
contains_config oracle enumerates induced subgraphs up to a hard node
cap, so it is sound and complete at desk scale and never silently wrong
above it.

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
from itertools import combinations
from typing import Optional, Sequence

from .graph import Graph, bits, mask_of, reach, walk

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


# -- mask-level helpers ------------------------------------------------------

def _degree3(g: Graph, sub: int) -> Optional[int]:
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


def _triangles(g: Graph, sub: int) -> list[tuple[int, int, int]]:
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


# -- whole-graph structural checks (mask core) -------------------------------

def _theta_mask(g: Graph, sub: int) -> Optional[ConfigWitness]:
    adj = g._adj
    if sub.bit_count() < _MIN_NODES["theta"]:
        return None
    deg3 = _degree3(g, sub)
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


def _wheel_mask(g: Graph, sub: int) -> Optional[ConfigWitness]:
    adj = g._adj
    if sub.bit_count() < _MIN_NODES["wheel"]:
        return None
    for c in bits(sub):
        if (adj[c] & sub).bit_count() < 3:
            continue
        rim = sub & ~(1 << c)  # at least 4 nodes, as sub has 5
        start = rim & -rim
        v0 = start.bit_length() - 1
        row = adj[v0] & rim
        if not row:
            continue
        order = walk(g, rim, v0, (row & -row).bit_length() - 1, start)
        if order is None or len(order) != rim.bit_count() + 1:
            continue
        return ConfigWitness("wheel", frozenset(bits(sub)),
                             {"rim": order[:-1], "center": c})
    return None


def _prism_mask(g: Graph, sub: int) -> Optional[ConfigWitness]:
    adj = g._adj
    if sub.bit_count() < _MIN_NODES["prism"]:
        return None
    deg3 = _degree3(g, sub)
    if deg3 is None or deg3.bit_count() != 6:
        return None
    tris = _triangles(g, sub)
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


def _pyramid_mask(g: Graph, sub: int) -> Optional[ConfigWitness]:
    adj = g._adj
    if sub.bit_count() < _MIN_NODES["pyramid"]:
        return None
    deg3 = _degree3(g, sub)
    if deg3 is None or deg3.bit_count() != 4:
        return None
    tris = _triangles(g, sub)
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


_CHECKS = {"theta": _theta_mask, "wheel": _wheel_mask,
           "prism": _prism_mask, "pyramid": _pyramid_mask}


# -- public predicates -------------------------------------------------------

def is_theta(g: Graph) -> Optional[ConfigWitness]:
    """Witness iff the whole graph is a theta."""
    return _theta_mask(g, g.full_mask())


def is_wheel(g: Graph) -> Optional[ConfigWitness]:
    """Witness iff the whole graph is a wheel (rim plus its center)."""
    return _wheel_mask(g, g.full_mask())


def is_prism(g: Graph) -> Optional[ConfigWitness]:
    """Witness iff the whole graph is a prism."""
    return _prism_mask(g, g.full_mask())


def is_pyramid(g: Graph) -> Optional[ConfigWitness]:
    """Witness iff the whole graph is a pyramid."""
    return _pyramid_mask(g, g.full_mask())


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
    and complete for graphs within the cap.  Raises OracleScaleError
    above the cap rather than ever returning a wrong answer.
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
    if isinstance(kinds, str):  # one kind name, not a sequence of letters
        kinds = (kinds,)
    wanted = tuple(k for k in KINDS if k in set(kinds))
    unknown = set(kinds) - set(KINDS)
    if unknown:
        raise ValueError(f"unknown configuration kinds: {sorted(unknown)}")
    if not wanted:
        raise ValueError("no configuration kinds requested")
    return wanted


def _scan(g: Graph, wanted: tuple[str, ...], first_only: bool) -> dict:
    adj = g._adj
    found: dict[str, Optional[ConfigWitness]] = {k: None for k in wanted}
    remaining = set(wanted)
    min_size = min(_MIN_NODES[k] for k in wanted)
    nodes = list(range(g.n))
    for size in range(min_size, g.n + 1):
        sizes_ok = [k for k in remaining if _MIN_NODES[k] <= size]
        if not sizes_ok:
            continue
        for combo in combinations(nodes, size):
            sub = mask_of(combo)
            # all four kinds have minimum degree 2 inside the subgraph
            ok = True
            d3 = dhi = 0  # counts of degree-3 and degree->=4 nodes
            for v in combo:
                d = (adj[v] & sub).bit_count()
                if d <= 1:
                    ok = False
                    break
                if d == 3:
                    d3 += 1
                elif d > 3:
                    dhi += 1
            if not ok:
                continue
            for kind in wanted:
                if found[kind] is not None:
                    continue
                if kind == "theta":
                    if d3 != 2 or dhi:
                        continue
                elif kind == "prism":
                    if d3 != 6 or dhi:
                        continue
                elif kind == "pyramid":
                    if d3 != 4 or dhi:
                        continue
                else:  # wheel: at most the center may exceed degree 3
                    if dhi > 1:
                        continue
                w = _CHECKS[kind](g, sub)
                if w is not None:
                    found[kind] = w
                    if first_only:
                        return found
                    remaining.discard(kind)
        if not remaining:
            break
    return found


# -- star cutsets ------------------------------------------------------------

def has_star_cutset(g: Graph) -> Optional[tuple[int, frozenset[int]]]:
    """A (center, cutset) pair where the cutset lies in the closed
    neighborhood of its center, or None.

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
                return x, frozenset(bits(s_mask))
    return None
