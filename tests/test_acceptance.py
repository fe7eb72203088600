"""Acceptance suite: eight criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  The corpora (all labeled graphs on up to 6 nodes,
plus 500 seeded random graphs per size 7..12 and density 0.2/0.5/0.8)
are built once and shared; oracle verdicts and decomposition statistics
are cached so later criteria can re-examine earlier instances.
"""

import random
import time

from truemper.cutset import find_clique_cutset
from truemper.gen import (_marker_candidates, _random_safe_labeled_tree,
                          make_pyramid, plant_configuration, synth_only_prism,
                          synth_only_pyramid)
from truemper.basic import build_pyramid_basic, is_lg_tf_chordless, root_graph
from truemper.graph import find_claw, find_diamond, induced_subgraph
from truemper.oracle import has_star_cutset, scan_configs
from truemper.recognize import (recognize_only_prism, recognize_only_pyramid)
from truemper.twojoin import (all_2joins_brute, blocks_of_2join,
                              compose_2join_with_split, find_2join,
                              is_consistent, validate_split)

from util import all_graphs, is_isomorphic, random_graph, small_graphs

ONLY_PRISM_EXCLUDES = ("theta", "wheel", "pyramid")
ONLY_PYRAMID_EXCLUDES = ("theta", "wheel", "prism")

RANDOM_SIZES = range(7, 13)
RANDOM_DENSITIES = (0.2, 0.5, 0.8)
RANDOM_PER_CELL = 500


class _Cache:
    exhaustive = None
    random_corpus = None
    oracle = {}
    clique_leaf_stats = []
    twojoin_call_stats = []
    exhaustive_failures = None
    random_failures = None


def _report(index, title, ok):
    print(f"ACCEPTANCE {index} [{title}]: {'PASS' if ok else 'FAIL'}")


def exhaustive_graphs():
    if _Cache.exhaustive is None:
        _Cache.exhaustive = [g for g in small_graphs() if g.n]
    return _Cache.exhaustive


def random_corpus():
    if _Cache.random_corpus is None:
        graphs = []
        for n in RANDOM_SIZES:
            for density in RANDOM_DENSITIES:
                rng = random.Random(f"acceptance:{n}:{density}")
                for _ in range(RANDOM_PER_CELL):
                    graphs.append(random_graph(rng, n, density))
        _Cache.random_corpus = graphs
    return _Cache.random_corpus


def oracle_bools(g):
    cached = _Cache.oracle.get(g)
    if cached is None:
        cached = {k: w is not None for k, w in scan_configs(g).items()}
        _Cache.oracle[g] = cached
    return cached


def _record(g, prism_report, pyramid_report):
    _Cache.clique_leaf_stats.append((g.n, prism_report.clique_tree.leaf_count))
    _Cache.clique_leaf_stats.append((g.n, pyramid_report.clique_tree.leaf_count))
    for leaf in pyramid_report.leaves:
        tree = leaf.twojoin_tree
        _Cache.twojoin_call_stats.append((tree.root.graph.n, tree.calls))


def _check_agreement(graphs):
    failures = []
    for g in graphs:
        found = oracle_bools(g)
        want_prism = not any(found[k] for k in ONLY_PRISM_EXCLUDES)
        want_pyramid = not any(found[k] for k in ONLY_PYRAMID_EXCLUDES)
        rp = recognize_only_prism(g)
        ry = recognize_only_pyramid(g)
        _record(g, rp, ry)
        if rp.verdict != want_prism:
            failures.append(("only-prism", g.n, g.edges()))
        if ry.verdict != want_pyramid:
            failures.append(("only-pyramid", g.n, g.edges()))
    return failures


def ensure_exhaustive_agreement():
    if _Cache.exhaustive_failures is None:
        _Cache.exhaustive_failures = _check_agreement(exhaustive_graphs())
    return _Cache.exhaustive_failures


def ensure_random_agreement():
    if _Cache.random_failures is None:
        _Cache.random_failures = _check_agreement(random_corpus())
    return _Cache.random_failures


def test_criterion_1_exhaustive_oracle_agreement():
    start = time.time()
    failures = ensure_exhaustive_agreement()
    elapsed = time.time() - start
    ok = not failures and elapsed <= 600
    _report(1, f"exhaustive oracle agreement, n<=6, "
               f"{len(exhaustive_graphs())} graphs, {elapsed:.0f}s", ok)
    assert not failures, failures[:5]
    assert elapsed <= 600


def test_criterion_2_sampled_oracle_agreement():
    failures = ensure_random_agreement()
    ok = not failures
    _report(2, f"sampled oracle agreement, {len(random_corpus())} random "
               "graphs, n=7..12, densities 0.2/0.5/0.8", ok)
    assert not failures, failures[:5]


def test_criterion_3_line_graph_equivalence():
    failures = []
    total = 0
    for n in range(1, 8):
        for g in all_graphs(n):
            total += 1
            claw_free = find_claw(g) is None
            diamond_free = find_diamond(g) is None
            cond2 = is_lg_tf_chordless(g) is not None
            wheel_free = None
            if diamond_free:
                wheel_free = scan_configs(g, ("wheel",))["wheel"] is None
            cond1 = bool(diamond_free and wheel_free
                         and root_graph(g) is not None)
            cond3 = bool(claw_free and diamond_free and wheel_free)
            if not (cond1 == cond2 == cond3):
                failures.append((n, g.edges(), cond1, cond2, cond3))
    ok = not failures
    _report(3, f"line-graph equivalence, all {total} graphs with n<=7", ok)
    assert not failures, failures[:5]


def _spot_check(g, excluded, rng):
    for _ in range(50):
        size = rng.randint(5, min(12, g.n))
        sub, _ = induced_subgraph(g, rng.sample(range(g.n), size))
        found = scan_configs(sub, excluded)
        if any(w is not None for w in found.values()):
            return False
    return True


def test_criterion_4_generator_soundness():
    failures = []
    spot_rng = random.Random("acceptance:spot")
    for i in range(500):
        size = 10 + (i % 31)
        g, _ = synth_only_prism(i, size)
        report = recognize_only_prism(g)
        _Cache.clique_leaf_stats.append((g.n, report.clique_tree.leaf_count))
        if not report.verdict:
            failures.append(("synth-only-prism", i))
        elif not _spot_check(g, ONLY_PRISM_EXCLUDES, spot_rng):
            failures.append(("spot-only-prism", i))
    for i in range(500):
        size = 10 + (i % 31)
        g, _ = synth_only_pyramid(i, size)
        report = recognize_only_pyramid(g)
        _Cache.clique_leaf_stats.append((g.n, report.clique_tree.leaf_count))
        for leaf in report.leaves:
            tree = leaf.twojoin_tree
            _Cache.twojoin_call_stats.append((tree.root.graph.n, tree.calls))
        if not report.verdict:
            failures.append(("synth-only-pyramid", i))
        elif not _spot_check(g, ONLY_PYRAMID_EXCLUDES, spot_rng):
            failures.append(("spot-only-pyramid", i))
    for kind in ("theta", "wheel", "prism", "pyramid"):
        for i in range(500):
            g = plant_configuration(i, kind, 12)
            if kind in ONLY_PRISM_EXCLUDES:
                report = recognize_only_prism(g)
                _Cache.clique_leaf_stats.append(
                    (g.n, report.clique_tree.leaf_count))
                if report.verdict:
                    failures.append(("planted-accepted-prism", kind, i))
            if kind in ONLY_PYRAMID_EXCLUDES:
                report = recognize_only_pyramid(g)
                _Cache.clique_leaf_stats.append(
                    (g.n, report.clique_tree.leaf_count))
                for leaf in report.leaves:
                    tree = leaf.twojoin_tree
                    _Cache.twojoin_call_stats.append(
                        (tree.root.graph.n, tree.calls))
                if report.verdict:
                    failures.append(("planted-accepted-pyramid", kind, i))
    ok = not failures
    _report(4, "generator soundness: 1000 synthesized members accepted, "
               "2000 planted instances rejected, 50 oracle spot-checks each", ok)
    assert not failures, failures[:5]


def test_criterion_5_proof_bounds():
    # make sure the criteria 1-2 statistics exist even in isolated runs
    ensure_exhaustive_agreement()
    ensure_random_agreement()
    leaf_violations = [(n, leaves) for n, leaves in _Cache.clique_leaf_stats
                       if leaves > max(1, n)]
    call_violations = [(n, calls) for n, calls in _Cache.twojoin_call_stats
                       if n >= 7 and calls > 2 * n - 13]
    ok = not leaf_violations and not call_violations
    _report(5, f"proof bounds: {len(_Cache.clique_leaf_stats)} clique trees "
               f"within n leaves, {len(_Cache.twojoin_call_stats)} 2-join "
               "trees within 2n-13 calls", ok)
    assert not leaf_violations, leaf_violations[:5]
    assert not call_violations, call_violations[:5]


def test_criterion_6_twojoin_oracle():
    failures = []
    checked = 0
    consistent_seen = 0
    corpus = [g for g in exhaustive_graphs() if g.n <= 10]
    corpus += [g for g in random_corpus() if g.n <= 10]
    for g in corpus:
        checked += 1
        brute = all_2joins_brute(g)
        mine = find_2join(g)
        if (mine is None) != (not brute):
            failures.append(("existence", g.edges()))
            continue
        if mine is not None and not validate_split(g, mine, "full").ok:
            failures.append(("invalid-split", g.edges()))
        for split in brute:
            ok, _ = is_consistent(g, split)
            if ok:
                consistent_seen += 1
                if split.X1.bit_count() < 4 or split.X2.bit_count() < 4:
                    failures.append(("size-lemma", g.edges()))
    ok = not failures
    _report(6, f"2-join detection vs exhaustive enumeration on {checked} "
               f"graphs with n<=10 ({consistent_seen} consistent splits "
               "checked for the size bound)", ok)
    assert not failures, failures[:5]


def _random_compose_factor(rng):
    while True:
        if rng.random() < 0.6:
            g = make_pyramid(tuple(sorted(rng.randint(2, 3) for _ in range(3))))
        else:
            t = _random_safe_labeled_tree(rng)
            if t is None:
                continue
            g = build_pyramid_basic(t)
        if g.n <= 9 and _marker_candidates(g):
            return g


def test_criterion_7_preservation_lemmas():
    rng = random.Random("acceptance:compose")
    failures = []
    produced = 0
    while produced < 200:
        g1 = _random_compose_factor(rng)
        g2 = _random_compose_factor(rng)
        m1 = rng.choice(_marker_candidates(g1))
        m2 = rng.choice(_marker_candidates(g2))
        try:
            comp, split = compose_2join_with_split(g1, m1, g2, m2)
        except ValueError:
            continue
        if comp.n > 14 or not validate_split(comp, split, "full").ok:
            continue
        if not is_consistent(comp, split)[0]:
            continue
        produced += 1
        (b1, _), (b2, _) = blocks_of_2join(comp, split)
        if not (is_isomorphic(b1, g1) and is_isomorphic(b2, g2)):
            failures.append(("round-trip", produced))
            continue
        free_g = find_clique_cutset(comp) is None
        free_b = (find_clique_cutset(b1) is None
                  and find_clique_cutset(b2) is None)
        if free_g != free_b:
            failures.append(("keep-clique-free", produced))
        fg, f1, f2 = scan_configs(comp), scan_configs(b1), scan_configs(b2)
        if (fg["prism"] is None) != (f1["prism"] is None and f2["prism"] is None):
            failures.append(("keep-prism", produced))
        tw = lambda f: f["theta"] is None and f["wheel"] is None
        if tw(fg) != (tw(f1) and tw(f2)):
            failures.append(("keep-theta-wheel", produced))
    ok = not failures
    _report(7, "preservation lemmas and block round-trips on 200 composed "
               "instances", ok)
    assert not failures, failures[:5]


def test_criterion_8_cutset_lemmas():
    failures = []
    diamond_cases = 0
    star_cases = 0
    for g in exhaustive_graphs() + random_corpus():
        found = oracle_bools(g)
        if not found["wheel"] and find_diamond(g) is not None:
            diamond_cases += 1
            if find_clique_cutset(g) is None:
                failures.append(("diamond-lemma", g.edges()))
        if not found["wheel"] and not found["theta"]:
            if has_star_cutset(g) is not None:
                star_cases += 1
                if find_clique_cutset(g) is None:
                    failures.append(("star-lemma", g.edges()))
    ok = not failures
    _report(8, f"cutset lemmas: {diamond_cases} wheel-free diamond graphs, "
               f"{star_cases} star-cutset graphs, all with clique cutsets", ok)
    assert not failures, failures[:5]
