"""Hash every seeded corpus over every output that a
behaviour-preserving change must keep byte for byte, and check each hash
against its pin in tests/digests.json.

Usage: PYTHONPATH=src python3 tests/digest.py [CORPUS ...]

With no names every corpus is hashed, in the order listed below; with
names only those are, in that order (a 2-join change, for example, needs
only ``twojoin gen synth small gnp``).  Each line reads
``<corpus> <graphs> <sha256>`` followed by ``ok`` when it equals the
pin, or by ``differs (pinned <graphs> <sha256>)``.  The exit status is
0 when every line is ok, 1 when any differs and 2 for an unknown name.
A change that alters outputs on purpose updates the pins of the corpora
it names, and only those.

The library is imported from whatever ``truemper`` is on the path, so an
exported copy of another commit is checked the same way:

    PYTHONPATH=/path/to/other/src python3 tests/digest.py

Corpora (fixed seeds, so the same library gives the same lines):

* small:  every labeled graph with n <= 6 (33868 graphs);
* gnp:    3000 seeded G(n, p) with n = 7..12;
* synth:  synthesized only-prism and only-pyramid members, line graphs of
          random triangle-free chordless graphs, and planted
          configurations of every kind (300 graphs);
* gen:    synthesized only-prism and only-pyramid members and planted
          configurations of every kind (150 graphs);
* roots:  line graphs of seeded G(n, p) with n = 4..9, node ids shuffled,
          so that diamonds make the Krausz search backtrack, and seeded
          claw-free G(n, p) with n = 6..11, mostly not line graphs (2000
          graphs).
* twojoin: planted configurations of every kind in 12- to 16-node
          hosts and seeded sparse planted 2-joins with n = 11..16 (1800
          graphs); on 111 of them the split comes from a stalled
          seed's retry with an extra node.
* oracle: the small corpus followed by the gnp corpus (36868 graphs).
* paths:  the small corpus again.
* cap:    300 seeded G(n, p) with n = 13..14, the sizes up to the
          oracle's default cap that the oracle corpus does not reach.
* dense:  200 seeded G(n, p) with n = 13..20 and p in {0.7, 0.8, 0.9},
          where most graphs without a clique cutset are proved so by
          the pair lemma rather than by the sweep over every clique.

For the first three corpora the hash covers, per graph, the three
recognizers' ``to_json()`` at witness cap 14, the clique-cutset and
2-join trees' ``to_json()`` and ``to_dot()``, ``root_graph``,
``find_claw``, ``find_diamond`` and ``is_lg_tf_chordless``.  For gen it
covers the generated graph, its recipe JSON and the graph the recipe
replays to, and, at every internal node of the 2-join tree of every
clique-cutset leaf, both ``blocks_of_2join`` blocks with their origin
maps and their recomposition along the blocks' marker paths (the last
three nodes of each).  For roots it covers ``root_graph``, the root edge
map of the Krausz partition, ``is_lg_tf_chordless`` and
``classify_basic``.  For twojoin it covers ``find_2join``'s split JSON,
or null.  For oracle and cap it covers ``scan_configs`` at the default
cap, so every first witness of every kind, not only the witnesses of
rejections.  For paths it covers ``path_order`` of every node mask and
``hole_order`` (or null when ``is_hole_graph`` is false).  For dense it
covers the clique-cutset tree's ``to_json()`` and ``to_dot()``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Iterator

from truemper.basic import (_krausz_partition, _root_with_edge_map,
                            classify_basic, is_lg_tf_chordless, line_graph,
                            root_graph)
from truemper.cutset import clique_decomposition_tree
from truemper.gen import (plant_configuration, random_tf_chordless,
                          replay_recipe, synth_only_prism, synth_only_pyramid)
from truemper.graph import (Graph, find_claw, find_diamond, graph_json,
                            hole_order, is_hole_graph, path_order)
from truemper.oracle import KINDS, scan_configs
from truemper.recognize import (recognize_only_prism, recognize_only_pyramid,
                                recognize_universally_signable)
from truemper.twojoin import (blocks_of_2join, compose_2join_with_split,
                              find_2join, two_join_decomposition_tree)

import util

PINS = json.loads((Path(__file__).resolve().parent / "digests.json").read_text())
WITNESS_CAP = 14
RECOGNIZERS = (recognize_only_prism, recognize_only_pyramid,
               recognize_universally_signable)
GNP_PS = (0.2, 0.35, 0.5, 0.65, 0.8)


def gnp_graphs() -> Iterator[Graph]:
    return util.gnp_graphs("digest:gnp", 3000, 7, 12, GNP_PS)


def cap_graphs() -> Iterator[Graph]:
    return util.gnp_graphs("digest:cap", 300, 13, 14, GNP_PS)


def dense_graphs() -> Iterator[Graph]:
    return util.gnp_graphs("digest:dense", 200, 13, 20, (0.7, 0.8, 0.9))


def synth_graphs() -> Iterator[Graph]:
    for i in range(80):
        yield synth_only_prism(i, 10 + i % 31)[0]
    for i in range(60):
        yield synth_only_pyramid(i, 10 + i % 21)[0]
    for i in range(60):
        yield line_graph(random_tf_chordless(i, 6 + i % 25))
    for i in range(100):
        yield plant_configuration(i, KINDS[i % len(KINDS)], 10 + i % 11)


def root_cases() -> Iterator[Graph]:
    rng = random.Random("digest:roots")
    for _ in range(1500):
        base = util.random_graph(rng, rng.randint(4, 9), rng.choice((0.4, 0.6, 0.8)))
        yield util.relabeled(line_graph(base), rng)
    kept = 0
    while kept < 500:
        g = util.random_graph(rng, rng.randint(6, 11), rng.choice((0.6, 0.75, 0.9)))
        if find_claw(g) is None:
            kept += 1
            yield g


def gen_cases() -> Iterator[tuple[Graph, object]]:
    """(graph, recipe or None) pairs."""
    for i in range(50):
        yield synth_only_prism(i, 10 + i % 21)
    for i in range(50):
        yield synth_only_pyramid(i, 10 + i % 21)
    for i in range(50):
        yield plant_configuration(i, KINDS[i % len(KINDS)], 10 + i % 21), None


def twojoin_graphs() -> Iterator[Graph]:
    for i in range(200):
        yield plant_configuration(i, KINDS[i % len(KINDS)], 12 + i % 5)
    rng = random.Random("digest:twojoin")
    for _ in range(1600):
        yield util.planted_2join(rng, rng.randint(11, 16))


def oracle_graphs() -> Iterator[Graph]:
    yield from util.small_graphs()
    yield from gnp_graphs()


def oracle_outputs(g: Graph) -> str:
    """scan_configs of one graph, as one JSON text."""
    return json.dumps({kind: None if w is None else w.to_json()
                       for kind, w in scan_configs(g).items()})


def path_outputs(g: Graph) -> str:
    """path_order of every node mask and hole_order of one graph, as one
    JSON text."""
    return json.dumps([[path_order(g, part) for part in range(1 << g.n)],
                       hole_order(g) if is_hole_graph(g) else None])


def clique_tree_outputs(g: Graph) -> str:
    """The clique-cutset tree of one graph, as its JSON and DOT texts."""
    tree = clique_decomposition_tree(g)
    return json.dumps([tree.to_json(), tree.to_dot()])


def twojoin_outputs(g: Graph) -> str:
    """find_2join's split of one graph, as one JSON text."""
    split = find_2join(g)
    return json.dumps(None if split is None else split.to_json())


def _graph_or_none(g) -> object:
    return None if g is None else graph_json(g)


def _nodes_or_none(nodes) -> object:
    return None if nodes is None else sorted(nodes)


def outputs(g: Graph) -> str:
    """Every checked output of one graph, as one JSON text."""
    clique_tree = clique_decomposition_tree(g)
    twojoin_tree = two_join_decomposition_tree(g)
    return json.dumps([
        [rec(g, witness_cap=WITNESS_CAP).to_json() for rec in RECOGNIZERS],
        clique_tree.to_json(), clique_tree.to_dot(),
        twojoin_tree.to_json(), twojoin_tree.to_dot(),
        _graph_or_none(root_graph(g)),
        _nodes_or_none(find_claw(g)),
        _nodes_or_none(find_diamond(g)),
        _graph_or_none(is_lg_tf_chordless(g)),
    ])


def root_outputs(g: Graph) -> str:
    """root_graph, the Krausz partition's root edge map,
    is_lg_tf_chordless and classify_basic of one graph, as one JSON
    text."""
    part = _krausz_partition(g)
    return json.dumps([
        _graph_or_none(root_graph(g)),
        None if part is None else _root_with_edge_map(g, part)[1],
        _graph_or_none(is_lg_tf_chordless(g)),
        classify_basic(g).to_json(),
    ])


def gen_outputs(case: tuple[Graph, object]) -> str:
    """The generated graph, its recipe and replay, and every 2-join
    block and recomposition, as one JSON text."""
    g, recipe = case
    out = [graph_json(g)]
    if recipe is not None:
        out += [recipe.to_json(), graph_json(replay_recipe(recipe))]
    for leaf in clique_decomposition_tree(g).leaves:
        todo = [two_join_decomposition_tree(leaf.graph).root]
        while todo:
            node = todo.pop()
            todo.extend(node.children)
            if node.is_leaf:
                continue
            (b1, map1), (b2, map2) = blocks_of_2join(node.graph, node.split)
            composed, split = compose_2join_with_split(
                b1, (b1.n - 3, b1.n - 2, b1.n - 1),
                b2, (b2.n - 3, b2.n - 2, b2.n - 1))
            out += [graph_json(b1), map1, graph_json(b2), map2,
                    graph_json(composed), split.to_json()]
    return json.dumps(out)


CORPORA = (("small", util.small_graphs, outputs), ("gnp", gnp_graphs, outputs),
           ("synth", synth_graphs, outputs), ("gen", gen_cases, gen_outputs),
           ("roots", root_cases, root_outputs),
           ("twojoin", twojoin_graphs, twojoin_outputs),
           ("oracle", oracle_graphs, oracle_outputs),
           ("paths", util.small_graphs, path_outputs),
           ("cap", cap_graphs, oracle_outputs),
           ("dense", dense_graphs, clique_tree_outputs))


def main(argv: list[str]) -> int:
    known = {name: (cases, output) for name, cases, output in CORPORA}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"unknown corpus {', '.join(unknown)}; valid names: "
              f"{' '.join(known)}", file=sys.stderr)
        return 2
    status = 0
    for name in argv or known:
        cases, output = known[name]
        h = hashlib.sha256()
        count = 0
        for case in cases():
            h.update(output(case).encode())
            h.update(b"\n")
            count += 1
        line = f"{count} {h.hexdigest()}"
        pinned = PINS.get(name, "nothing")
        if line == pinned:
            print(f"{name} {line} ok", flush=True)
        else:
            print(f"{name} {line} differs (pinned {pinned})", flush=True)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
