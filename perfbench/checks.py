"""Correctness gate for one operation, run outside the timed region.

An operation fails when a verdict differs from the known answer (members
accept, planted instances reject, cross-check verdicts equal the
oracle's), when a returned witness does not induce a configuration of an
excluded kind in the rejected leaf, when a decomposition tree breaks its
bound (at most n clique-tree leaves; at most 2n - 13 calls in a 2-join
tree over n >= 7 nodes), or when the report does not validate against
the recognition-report schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SCHEMA_NAME = "recognition-report.schema.json"


def report_validator(schema_dir: Path):
    """Validator for recognition reports, resolving references between the
    repository's schema files."""
    import jsonschema
    from referencing import Registry, Resource
    resources = []
    for path in sorted(schema_dir.glob("*.schema.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        resource = Resource.from_contents(doc)
        resources += [(doc["$id"], resource), (path.name, resource)]
    schema = json.loads((schema_dir / SCHEMA_NAME).read_text(encoding="utf-8"))
    return jsonschema.Draft202012Validator(
        schema, registry=Registry().with_resources(resources))


@dataclass
class OpFacts:
    """What one operation produced, for the gate and the per-layer counts."""

    verdicts: tuple
    clique_leaves: int = 0
    tree_calls: int = 0
    report_bytes: int = 0
    rejections: int = 0
    witnesses: int = 0


def check(case, outcome, validator, expected_flip: bool = False) -> tuple[list[str], OpFacts]:
    """Failures of one operation (empty when correct) and its facts."""
    from truemper.graph import induced_subgraph
    from truemper.oracle import is_prism, is_pyramid, is_theta, is_wheel
    from truemper.recognize import EXCLUDED_SETS
    whole = {"theta": is_theta, "wheel": is_wheel,
             "prism": is_prism, "pyramid": is_pyramid}

    failures = []
    facts = OpFacts(tuple((cls, rep.verdict) for cls, rep, _ in outcome.reports))
    expected = case.expected
    if expected is None:
        expected = {cls: all(outcome.scan[k] is None for k in EXCLUDED_SETS[cls])
                    for cls, _cap in case.runs}
    for position, (cls, report, text) in enumerate(outcome.reports):
        want = expected[cls]
        if expected_flip and position == 0:
            want = not want
        if report.verdict != want:
            failures.append(f"{cls}: verdict {report.verdict}, expected {want}")
        facts.report_bytes += len(text)
        facts.clique_leaves += report.clique_tree.leaf_count
        if report.clique_tree.leaf_count > max(1, case.n):
            failures.append(f"{cls}: {report.clique_tree.leaf_count} clique-tree "
                            f"leaves for n={case.n}")
        for leaf in report.leaves:
            tree = leaf.twojoin_tree
            if tree is None:
                continue
            facts.tree_calls += tree.calls
            n = tree.root.graph.n
            if n >= 7 and tree.calls > 2 * n - 13:
                failures.append(f"{cls}: 2-join tree made {tree.calls} calls "
                                f"for n={n}")
        if not report.verdict:
            facts.rejections += 1
            rejection = report.rejection
            witness = None if rejection is None else rejection.witness
            if witness is not None:
                facts.witnesses += 1
                leaf = rejection.graph
                if witness.kind not in EXCLUDED_SETS[cls]:
                    failures.append(f"{cls}: witness kind {witness.kind} "
                                    "is not excluded")
                elif not all(0 <= v < leaf.n for v in witness.nodes):
                    failures.append(f"{cls}: witness nodes outside the leaf")
                elif whole[witness.kind](induced_subgraph(leaf, witness.nodes)[0]) is None:
                    failures.append(f"{cls}: witness does not induce a "
                                    f"{witness.kind}")
    if outcome.reports:
        errors = list(validator.iter_errors(json.loads(outcome.reports[0][2])))
        if errors:
            failures.append(f"report fails the schema: {errors[0].message}")
    return failures, facts
