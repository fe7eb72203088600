"""The binary decomposition tree shared by the clique-cutset and 2-join
layers.

decompose builds a tree from one step function per layer: a step
decides whether a graph is a leaf or which split to take, and returns
the node plus, for a split, its two blocks with their id maps.  A block
that the step has already proven to be a leaf comes as that leaf's node
in place of its graph, and is not stepped again.  Each layer hands its
output conventions to DecompTree as data: the JSON keys written before
the root, the DOT graph name and a node label function.
Node fields that a layer leaves unset (origin, failed_condition) are
omitted from the JSON.

The builder and the writers are plain module-level functions, not
nested closures: a closure that calls itself is a reference cycle, which
would keep each call's whole tree alive until a cyclic collection.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Iterator, Optional, Union

from .graph import Graph, graph_json

INTERNAL = "internal"

# One block of a split: the block graph, or its finished leaf node, and
# its map block id -> parent id (a 2-join block's marker nodes map to None).
Block = tuple[Union[Graph, "DecompNode"], tuple[Optional[int], ...]]


@dataclass
class DecompNode:
    graph: Graph
    kind: str
    split: Optional[Any] = None  # CliqueSplit or TwoJoinSplit
    children: tuple["DecompNode", ...] = ()
    origin: Optional[tuple[int, ...]] = None  # node id -> root graph id
    failed_condition: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def to_json(self) -> dict:
        out = graph_json(self.graph)
        if self.origin is not None:
            out["origin"] = list(self.origin)
        out["kind"] = self.kind
        if self.split is not None:
            out["split"] = self.split.to_json()
        if self.failed_condition is not None:
            out["failed_condition"] = self.failed_condition
        if self.children:
            out["children"] = [c.to_json() for c in self.children]
        return out


@dataclass
class DecompTree:
    root: DecompNode
    leaves: list[DecompNode]
    head: dict  # JSON keys before "root"
    dot_name: str
    label: Callable[[DecompNode], str]

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    @property
    def calls(self) -> int:
        """Recursive builder calls: one per node of a full binary tree."""
        return 2 * len(self.leaves) - 1

    def to_json(self) -> dict:
        return {**self.head, "root": self.root.to_json()}

    def to_dot(self) -> str:
        lines = [f"graph {self.dot_name} {{", "  node [shape=box];"]
        _dot_lines(self.root, self.label, lines, count())
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_lines(node: DecompNode, label: Callable[[DecompNode], str],
               lines: list[str], ids: Iterator[int]) -> int:
    """Append the DOT lines of node's subtree (preorder ids, each edge
    after its child's subtree); return node's id."""
    idx = next(ids)
    lines.append(f'  v{idx} [label="{label(node)}"];')
    for child in node.children:
        lines.append(f"  v{idx} -- v{_dot_lines(child, label, lines, ids)};")
    return idx


StepResult = tuple[DecompNode, Optional[tuple[Block, Block]]]


def decompose(graph: Graph, step: Callable[[Graph], StepResult],
              origin: Optional[tuple[int, ...]]) -> tuple[DecompNode, list[DecompNode]]:
    """The tree that step grows from graph, and its leaves left to right.

    step(graph) returns a node without children, plus None for a leaf or
    the two blocks of its split, which are decomposed in order; a block
    given as a leaf node is taken as it is.  With an origin map (node id
    -> root id) every node gets one, composed through the blocks' id
    maps; without one no node does.
    """
    leaves: list[DecompNode] = []
    return _grow(graph, step, origin, leaves), leaves


def _grow(item: Union[Graph, DecompNode], step: Callable[[Graph], StepResult],
          origin: Optional[tuple[int, ...]], leaves: list[DecompNode]) -> DecompNode:
    node, blocks = (item, None) if isinstance(item, DecompNode) else step(item)
    node.origin = origin
    if blocks is None:
        leaves.append(node)
        return node
    children = []
    # a loop, not a generator expression, which would add a frame per level
    for block, id_map in blocks:
        children.append(_grow(block, step, None if origin is None else
                               tuple(origin[v] for v in id_map), leaves))
    node.children = tuple(children)
    return node
