"""The seeded workloads: how each case is generated, what one operation
runs, and what its correct outcome is.

The corpus is a function of the run seed alone, so the same seed gives
the same inputs; a graph drawn twice is skipped.  Sizes, kinds and densities follow fixed
schedules over the case index (every prefix of the corpus covers the
size range evenly); the seed decides the random graphs drawn at those
sizes.  Library functions are looked up in their modules at call time,
so re-imports and the tracer's rebinding both take effect.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

GOLDEN = 0.6180339887498949


@dataclass
class Case:
    """One input of a workload and the answer it must get."""

    text: str                       # edge-list text handed to the parser
    n: int
    runs: list[tuple[str, Optional[int]]]  # (class, witness_cap) per recognizer
    expected: Optional[dict[str, bool]]    # None: the oracle decides
    note: str = ""
    scan: bool = False              # the operation also runs scan_configs


@dataclass
class Workload:
    name: str
    why: str
    make: Callable[[int, int], tuple[object, list, Optional[dict], str]]
    op_limit_s: float               # per-operation time limit
    setup_cases: int                # warm-up operations in one set-up (about 0.6 s)
    scan: bool = False


def scheduled(i: int, lo: int, hi: int) -> int:
    """The i-th value of an evenly spread sequence over lo..hi."""
    return lo + int(((i + 1) * GOLDEN) % 1.0 * (hi - lo + 1))


# -- case makers: (seed, index) -> (graph, runs, expected, note) ---------------

def make_prism_member(seed: int, i: int):
    from truemper.basic import line_graph
    from truemper.gen import random_tf_chordless, synth_only_prism
    if i % 4 == 3:
        k = scheduled(i // 4, 20, 30)
        g = line_graph(random_tf_chordless(seed * 1_000_003 + i, k))
        note = f"L(tf-chordless {k})"
    else:
        size = scheduled(i - i // 4, 30, 64)
        g, _ = synth_only_prism(seed * 1_000_003 + i, size)
        note = f"synth_only_prism size {size}"
    return g, [("only-prism", None)], {"only-prism": True}, note


# Planted pyramids are left out: no recognizer that excludes them runs the
# 2-join layer, so they reject in about 3 ms, and a quarter of the cases in
# that cluster would put the run's median in the sparse tail of the others.
PLANTED_KINDS = ("theta", "wheel", "prism")


def make_planted(seed: int, i: int):
    from truemper.gen import plant_configuration
    from truemper.recognize import CLASS_NAMES, EXCLUDED_SETS
    kind = PLANTED_KINDS[i % len(PLANTED_KINDS)]
    host = scheduled(i // len(PLANTED_KINDS), 12, 16)
    g = plant_configuration(seed * 1_000_003 + i, kind, host)
    classes = [c for c in CLASS_NAMES if kind in EXCLUDED_SETS[c]]
    return (g, [(c, 14) for c in classes], {c: False for c in classes},
            f"planted {kind} host {host}")


def make_desk(seed: int, i: int):
    from truemper.graph import Graph
    from truemper.recognize import CLASS_NAMES
    n = scheduled(i, 9, 13)
    p = (0.2, 0.5, 0.8)[i % 3]
    rng = random.Random(f"desk:{seed}:{i}")
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return (Graph(n, rows), [(c, None) for c in CLASS_NAMES], None,
            f"G({n}, {p})")


WORKLOADS = {
    w.name: w for w in (
        Workload("prism-members",
                 "only-prism members; the clique-cutset search does most "
                 "of the work and no 2-join code runs",
                 make_prism_member, op_limit_s=30.0, setup_cases=12),
        Workload("planted-rejects",
                 "planted configurations that every excluding recognizer must "
                 "reject; find_2join has to prove no 2-join exists",
                 make_planted, op_limit_s=30.0, setup_cases=12),
        Workload("desk-crosscheck",
                 "G(n, p) with n 9-13: all three recognizers against the "
                 "exhaustive oracle; per-call constants and the oracle sweep",
                 make_desk, op_limit_s=10.0, setup_cases=40,
                 scan=True),
    )
}


class Corpus:
    """The cases of one run, generated on demand, none repeated."""

    def __init__(self, workload: Workload, seed: int, first_draw: int = 0):
        self.workload = workload
        self.seed = seed
        self.cases: list[Case] = []
        self.gen_s = 0.0
        self._seen: set = set()
        self._draw = first_draw

    def _next_case(self) -> Case:
        from time import perf_counter

        from truemper.graph import format_edge_list
        while True:
            start = perf_counter()
            g, runs, expected, note = self.workload.make(self.seed, self._draw)
            self.gen_s += perf_counter() - start
            self._draw += 1
            if g not in self._seen:
                self._seen.add(g)
                return Case(format_edge_list(g), g.n, runs, expected,
                            note, self.workload.scan)

    def get(self, index: int) -> Case:
        while len(self.cases) <= index:
            self.cases.append(self._next_case())
        return self.cases[index]


# -- one operation ------------------------------------------------------------

@dataclass
class Outcome:
    reports: list = field(default_factory=list)   # (class, report, json text)
    scan: Optional[dict] = None


def run_op(case: Case, span=None) -> Outcome:
    """Parse, recognize and serialize, as `truemper recognize --json` does
    without file I/O.  `span` names a timed sub-step when tracing."""
    import json

    import truemper.graph
    import truemper.oracle
    import truemper.recognize
    out = Outcome()
    g = truemper.graph.parse_edge_list(case.text)
    for cls, cap in case.runs:
        # by name, so that the tracer's rebinding of the module applies
        name = truemper.recognize.RECOGNIZERS[cls].__name__
        recognizer = getattr(truemper.recognize, name)
        report = recognizer(g, witness_cap=cap)
        if span is None:
            text = json.dumps(report.to_json())
        else:
            with span("recognize.to_json"):
                text = json.dumps(report.to_json())
        out.reports.append((cls, report, text))
    if case.scan:
        out.scan = truemper.oracle.scan_configs(g)
    return out
