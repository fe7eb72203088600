"""The binary decomposition tree shared by the clique-cutset and 2-join
layers.

Each layer decides the recursion (which split to take, when a node is
a leaf) and its output conventions; it hands the conventions to
DecompTree as data: the JSON keys written before the root, the DOT graph
name and a node label function.  Node fields that a layer leaves unset
(origin, failed_condition) are omitted from the JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Optional

from .graph import Graph, graph_json

INTERNAL = "internal"


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
        ids = count()

        def walk(node: DecompNode) -> int:
            idx = next(ids)
            lines.append(f'  v{idx} [label="{self.label(node)}"];')
            for child in node.children:
                lines.append(f"  v{idx} -- v{walk(child)};")
            return idx

        walk(self.root)
        lines.append("}")
        return "\n".join(lines) + "\n"
