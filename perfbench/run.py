"""Recognition benchmark for truemper.

One client in a closed loop: each operation parses an edge-list text,
runs the recognizers of the workload and serializes every report with
``json.dumps(report.to_json())``, the steps of ``truemper recognize
--json`` without file I/O.  The next operation starts when the previous
one returns.  Inputs come from ``truemper.gen`` and the workload seed;
no graph repeats within a run.

    python3 perfbench/run.py --workload planted-rejects --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the operations untraced, then installs the tracer and runs the same
cases again, and reports the per-layer metrics (per operation) with the
tracing overhead; spans go to ``perfbench/out/``.  Every operation is
checked (see checks.py); a failed check is counted, never fatal.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

START = perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schemas"

SETUP_REPEATS = 7       # cold set-ups per run: this process's own, then 3
                        # children before and 3 after the measured sweep, so
                        # that the samples span the run as the operations do
WARMUP_DRAW = 10**9     # warm-up cases: seed 0 from this draw on, never measured
MIN_OPS = 100           # so that ten samples lie above the 90th percentile
MAX_WALL_S = 120.0      # stop starting operations after this long; with the
                        # per-operation limits a run ends well within 180 s

END_TO_END = (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics: (name, unit, how to read it).  Span and counter
# figures are per operation of the traced pass.
PER_LAYER = (
    ("graph.parse_edge_list.self_s", "s/op", ("self_s", "graph.parse_edge_list")),
    ("graph.induced_subgraph.calls", "calls/op", ("calls", "graph.induced_subgraph")),
    ("graph.induced_subgraph.self_s", "s/op", ("self_s", "graph.induced_subgraph")),
    ("cutset.clique_decomposition_tree.total_s", "s/op",
     ("total_s", "cutset.clique_decomposition_tree")),
    ("cutset.find_clique_cutset.calls", "calls/op", ("calls", "cutset.find_clique_cutset")),
    ("cutset.find_clique_cutset.self_s", "s/op", ("self_s", "cutset.find_clique_cutset")),
    ("cutset.components_masks.calls", "calls/op", ("calls", "cutset.components_masks")),
    ("cutset.components_masks.self_s", "s/op", ("self_s", "cutset.components_masks")),
    ("cutset.blocks_of_clique_split.self_s", "s/op",
     ("self_s", "cutset.blocks_of_clique_split")),
    ("cutset.split_ratio", "ratio", ("hit_ratio", "cutset.find_clique_cutset")),
    ("cutset.leaves", "leaves/op", ("fact", "clique_leaves")),
    ("twojoin.two_join_decomposition_tree.total_s", "s/op",
     ("total_s", "twojoin.two_join_decomposition_tree")),
    ("twojoin.tree_calls", "calls/op", ("fact", "tree_calls")),
    ("twojoin.find_2join.calls", "calls/op", ("calls", "twojoin.find_2join")),
    ("twojoin.find_2join.self_s", "s/op", ("self_s", "twojoin.find_2join")),
    ("twojoin.find_2join.hit_ratio", "ratio", ("hit_ratio", "twojoin.find_2join")),
    ("twojoin.validate_split.calls", "calls/op", ("calls", "twojoin.validate_split")),
    ("twojoin.is_consistent.self_s", "s/op", ("self_s", "twojoin.is_consistent")),
    ("twojoin.blocks_of_2join.self_s", "s/op", ("self_s", "twojoin.blocks_of_2join")),
    ("basic.classify_basic.calls", "calls/op", ("calls", "basic.classify_basic")),
    ("basic.classify_basic.self_s", "s/op", ("self_s", "basic.classify_basic")),
    ("basic.is_lg_tf_chordless.calls", "calls/op", ("calls", "basic.is_lg_tf_chordless")),
    ("basic.is_lg_tf_chordless.self_s", "s/op", ("self_s", "basic.is_lg_tf_chordless")),
    ("basic.is_pyramid_basic.self_s", "s/op", ("self_s", "basic.is_pyramid_basic")),
    ("oracle.scan_configs.calls", "calls/op", ("calls", "oracle.scan_configs")),
    ("oracle.scan_configs.self_s", "s/op", ("self_s", "oracle.scan_configs")),
    ("oracle.contains_config.calls", "calls/op", ("calls", "oracle.contains_config")),
    ("oracle.contains_config.self_s", "s/op", ("self_s", "oracle.contains_config")),
    ("oracle.witness_ratio", "ratio", ("witness_ratio", None)),
    ("recognize.self_s", "s/op", ("recognize_self", None)),
    ("recognize.to_json.self_s", "s/op", ("self_s", "recognize.to_json")),
    ("recognize.report_bytes", "B/op", ("fact", "report_bytes")),
    ("gen.corpus_s", "s/case", ("corpus", None)),
    ("trace.op_s", "s/op", ("total_s", "op")),
    ("trace.overhead_ratio", "ratio", ("overhead", None)),
)


class OpTimeout(Exception):
    """An operation ran past its workload's time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def set_up(workload) -> float:
    """Import the library, generate the workload's warm-up cases and run
    each once; returns the seconds taken.  The warm-up cases come from a fixed
    seed, so set-up does the same work whatever the run seed."""
    start = perf_counter()
    import truemper  # noqa: F401  (timed: import is part of set-up)

    from workloads import Corpus, run_op
    warm = Corpus(workload, 0, first_draw=WARMUP_DRAW)
    for i in range(workload.setup_cases):
        run_op(warm.get(i))
    return perf_counter() - start


def cold_set_ups(workload_name: str, count: int) -> list[float]:
    """Set-up times of `count` fresh processes, started one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload_name, "--setup-only"],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


class Pass:
    """One sweep of operations over the corpus, with its checks."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.failures: list[tuple[int, str]] = []
        self.facts: list = []
        self.not_started = 0    # operations owed when the wall-time cap hit

    @property
    def attempted(self) -> int:
        return len(self.times) + self.not_started

    @property
    def failed(self) -> int:
        return len({index for index, _ in self.failures}) + self.not_started


def sweep(corpus, validator, limit_s: float, seconds: float = 0.0,
          min_ops: int = 0, count: int | None = None, tracer=None,
          reference: Pass | None = None, flip: int | None = None) -> Pass:
    """Run operations until `count` are done, or until `seconds` of
    operation time and `min_ops` operations are reached.  Operations still
    owed when the wall-time cap stops the sweep count as failed."""
    from checks import check
    from workloads import run_op
    done = Pass()
    busy = 0.0
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif busy >= seconds and i >= min_ops:
            break
        if perf_counter() - START > MAX_WALL_S:
            done.not_started = max(0, (min_ops if count is None else count) - i)
            print(f"note: stopped after {i} operations at the wall-time cap; "
                  f"{done.not_started} owed operations count as failed",
                  file=sys.stderr)
            break
        case = corpus.get(i)
        outcome = error = None
        start = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                if tracer is None:
                    outcome = run_op(case)
                else:
                    with tracer.operation(i):
                        outcome = run_op(case, tracer.span)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            error = f"exceeded the {limit_s} s limit"
        except Exception as exc:  # counted as a failed operation
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        busy += elapsed
        done.times.append(elapsed)
        if error is None:
            try:
                problems, facts = check(case, outcome, validator, flip == i)
            except Exception as exc:  # a check that crashes is a failure too
                problems, facts = [f"check raised {type(exc).__name__}: {exc}"], None
            done.facts.append(facts)
            if facts is not None and reference is not None and i < len(reference.facts):
                earlier = reference.facts[i]
                if earlier is not None and earlier.verdicts != facts.verdicts:
                    problems.append("verdicts differ from the untraced pass")
        else:
            problems = [error]
            done.facts.append(None)
        for problem in problems:
            done.failures.append((i, f"{case.note}: {problem}"))
        i += 1
    return done


def rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(measured: Pass, setup_times: list[float]) -> dict:
    ms = sorted(t * 1000.0 for t in measured.times)
    deciles = statistics.quantiles(ms, n=10)
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1000.0),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": deciles[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb(),
    }


def per_layer(traced: Pass, untraced: Pass, tracer, corpus) -> dict:
    from tracer import Stat
    ops = len(traced.times)
    facts = [f for f in traced.facts if f is not None]

    def stat(name):
        return tracer.stats.get(name) or Stat()

    out = {}
    for name, _unit, (kind, key) in PER_LAYER:
        if kind in ("calls", "self_s", "total_s"):
            value = getattr(stat(key), kind) / ops
        elif kind == "hit_ratio":
            s = stat(key)
            value = s.hits / s.calls if s.calls else 0.0
        elif kind == "fact":
            value = sum(getattr(f, key) for f in facts) / ops
        elif kind == "witness_ratio":
            rejections = sum(f.rejections for f in facts)
            value = sum(f.witnesses for f in facts) / rejections if rejections else 0.0
        elif kind == "recognize_self":
            value = sum(stat(f"recognize.{fn}").self_s for fn in
                        ("recognize_only_prism", "recognize_only_pyramid",
                         "recognize_universally_signable")) / ops
        elif kind == "corpus":
            value = corpus.gen_s / len(corpus.cases)
        else:  # overhead: both passes ran the same cases
            value = sum(traced.times) / sum(untraced.times)
        out[name] = value
    return out


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Corpus
    workload = WORKLOADS[args.workload]
    setup_times = [set_up(workload)]
    if args.setup_only:
        print(setup_times[0])
        return 0
    setup_rss = rss_mb()

    from checks import report_validator
    validator = report_validator(SCHEMAS)
    signal.signal(signal.SIGALRM, _on_alarm)
    corpus = Corpus(workload, args.seed)

    limit = workload.op_limit_s
    if not args.trace:
        setup_times += cold_set_ups(args.workload, SETUP_REPEATS // 2)
        measured = sweep(corpus, validator, limit, seconds=args.seconds,
                         min_ops=args.min_ops, flip=args.inject_wrong)
        setup_times += cold_set_ups(args.workload, SETUP_REPEATS // 2)
        passes = [measured]
        metrics = end_to_end(measured, setup_times)
        units = dict(END_TO_END)
    else:
        from tracer import Tracer
        untraced = sweep(corpus, validator, limit, seconds=args.seconds / 2,
                         min_ops=args.min_ops, flip=args.inject_wrong)
        tracer = Tracer()
        tracer.install()
        try:
            traced = sweep(corpus, validator, limit, count=len(untraced.times),
                           tracer=tracer, reference=untraced,
                           flip=args.inject_wrong)
        finally:
            tracer.uninstall()
        passes = [untraced, traced]
        metrics = per_layer(traced, untraced, tracer, corpus)
        units = {name: unit for name, unit, _ in PER_LAYER}
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(str(spans))
        print(f"spans: {len(tracer.spans)} written to {spans}")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for index, problem in p.failures[:20]:
            print(f"FAILED op {index}: {problem}", file=sys.stderr)
    ops = passes[0].attempted
    print(f"workload {args.workload}  seed {args.seed}  operations {ops}  "
          f"busy {sum(passes[0].times):.2f} s")
    for name, value in metrics.items():
        print(f"  {name:46s} {value:14.6g} {units[name]}")
    if not args.trace:
        above = sum(t * 1000.0 > metrics["op_p90_ms"] for t in measured.times)
        print(f"  {'op_p90_ms samples':46s} {len(measured.times):14d} count "
              f"({above} above)")
        print(f"  {'rss after set-up (in peak_rss_mb)':46s} {setup_rss:14.6g} MB")
    print(f"  {'failed_share':46s} {failed / attempted:14.6g} ratio")
    # imported only now: hashlib maps libcrypto, which would count in peak_rss_mb
    import hashlib
    verdicts = repr([f.verdicts if f else None for f in passes[0].facts])
    print(f"  verdict digest {hashlib.sha256(verdicts.encode()).hexdigest()[:16]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int,
              min_ops: int = MIN_OPS) -> tuple[dict, list[str], str]:
    """Run one workload in a fresh process; returns its result, the lines
    it printed before the result, and its standard error."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--min-ops", str(min_ops)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} exited with {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1], proc.stderr


def run_all(args) -> int:
    """Every workload, each in a fresh process, one after the other."""
    from workloads import WORKLOADS
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        try:
            result, lines, stderr = run_child(name, args.seed, args.seconds,
                                              args.trace, args.min_ops)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        sys.stderr.write(stderr)
        print("\n".join(lines))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="operation time to measure (untraced)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=MIN_OPS,
                        help="operations to run at least")
    parser.add_argument("--inject-wrong", type=int, metavar="INDEX",
                        help="expect the wrong verdict for this operation "
                             "(self-test of the correctness gate)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print the seconds and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (SRC / "truemper" / "__init__.py",
                           SCHEMAS / "recognition-report.schema.json")
               if not p.is_file()]
    if missing:
        print(f"error: run from a truemper checkout; missing {missing[0]}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
