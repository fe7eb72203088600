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
omitted from the JSON.  The builder, the JSON builder and the DOT writer
walk the tree with explicit stacks, so a tree may be deeper than
Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Optional, Union

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
        """The subtree as nested dicts, built with an explicit stack, so
        building it takes any depth; json.dumps of the result still
        recurses once per level."""
        result = None
        # (node, the children list of its parent's dict), first child on top
        todo: list = [(self, None)]
        while todo:
            node, siblings = todo.pop()
            out = graph_json(node.graph)
            if node.origin is not None:
                out["origin"] = list(node.origin)
            out["kind"] = node.kind
            if node.split is not None:
                out["split"] = node.split.to_json()
            if node.failed_condition is not None:
                out["failed_condition"] = node.failed_condition
            if node.children:
                out["children"] = kids = []
                todo.extend((child, kids) for child in reversed(node.children))
            if siblings is None:
                result = out
            else:
                siblings.append(out)
        return result


@dataclass(frozen=True)
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
        """One line per node, with preorder ids, and one per edge, written
        after its child's subtree."""
        lines = [f"graph {self.dot_name} {{", "  node [shape=box];"]
        ids = count()
        # (node, parent id) to visit, or a finished edge's line
        todo: list = [(self.root, None)]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                lines.append(item)
                continue
            node, parent = item
            idx = next(ids)
            lines.append(f'  v{idx} [label="{self.label(node)}"];')
            if parent is not None:
                todo.append(f"  v{parent} -- v{idx};")
            todo.extend((child, idx) for child in reversed(node.children))
        lines.append("}")
        return "\n".join(lines) + "\n"


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
    root = None
    # (graph or leaf node, its origin, its parent node), first block on top
    todo: list = [(graph, origin, None)]
    while todo:
        item, origin, parent = todo.pop()
        node, blocks = (item, None) if isinstance(item, DecompNode) else step(item)
        node.origin = origin
        if parent is None:
            root = node
        else:
            parent.children += (node,)
        if blocks is None:
            leaves.append(node)
            continue
        for block, id_map in reversed(blocks):
            todo.append((block, None if origin is None else
                         tuple(origin[v] for v in id_map), node))
    return root, leaves
