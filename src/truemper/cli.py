"""Command-line front end: recognize, decompose, generate, oracle.

Exit codes: 0 means in class (or, for oracle runs, configuration-free),
1 means not in class (configuration found), 2 means input error: a bad
argument, a malformed, missing or unreadable input, or an unwritable
output, and 3 means an internal error (the traceback goes to stderr).
Every file-writing command emits a run manifest next to its outputs;
replaying a generate manifest reproduces the files byte for byte.  The
environment variable TRUEMPER_ORACLE_CAP overrides the default oracle
cap, oracle.DEFAULT_CAP, and --cap overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import Optional, Sequence

from . import __version__
from .gen import plant_configuration, synth_only_prism, synth_only_pyramid
from .graph import Graph, from_graph6, parse_edge_list, write_graph_file
from .oracle import DEFAULT_CAP, KINDS, OracleScaleError, scan_configs
from .cutset import clique_decomposition_tree
from .recognize import CLASS_NAMES, RECOGNIZERS
from .twojoin import two_join_decomposition_tree

GENERATE_KINDS = ("only-prism", "only-pyramid") + tuple(f"planted:{k}" for k in KINDS)


def _oracle_cap(flag: Optional[str]) -> int:
    """--cap if given, else TRUEMPER_ORACLE_CAP, else oracle.DEFAULT_CAP."""
    raw, name = flag, "--cap"
    if raw is None:
        raw, name = os.environ.get("TRUEMPER_ORACLE_CAP"), "TRUEMPER_ORACLE_CAP"
    if raw is None:
        return DEFAULT_CAP
    # plain ASCII digits only: int() would also take "1_5", "+15" and "-1"
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"{name} must be a nonnegative integer, got {raw!r}")
    return int(raw)


def _load_graph(path: str, fmt: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "graph6":
        return from_graph6(text)
    return parse_edge_list(text)


def _dump_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _write_manifest(command: str, inputs: list[str], outputs: list[str],
                    seed: Optional[int], cap: Optional[int],
                    manifest_path: str, extra: Optional[dict] = None) -> None:
    payload = {
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "oracle_cap": cap,
        "outputs": outputs,
        "version": __version__,
    }
    if extra:
        payload.update(extra)
    _dump_json(manifest_path, payload)


def cmd_recognize(args: argparse.Namespace) -> int:
    try:
        g = _load_graph(args.input, args.format)
        cap = _oracle_cap(args.cap)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    recognizer = RECOGNIZERS[args.cls]
    report = recognizer(g, witness_cap=cap if args.witness else None)
    verdict = "in class" if report.verdict else "not in class"
    print(f"{args.cls}: {verdict} (n={g.n}, m={g.m}, "
          f"{report.clique_tree.leaf_count} clique-tree leaves)")
    if not report.verdict and report.rejection is not None:
        rej = report.rejection
        print(f"  reason: {rej.reason}")
        if args.witness and rej.witness is not None:
            print(f"  witness: {json.dumps(rej.witness.to_json())}")
        elif args.witness and rej.graph.n > cap:
            print(f"  witness: none (offending graph has {rej.graph.n} nodes, "
                  f"above the oracle cap {cap})")
    outputs = []
    if args.json:
        _dump_json(args.json, report.to_json())
        outputs.append(args.json)
    if outputs:
        _write_manifest(f"recognize {args.cls}", [args.input], outputs,
                        None, cap, outputs[0] + ".manifest.json")
    return 0 if report.verdict else 1


def cmd_decompose(args: argparse.Namespace) -> int:
    try:
        g = _load_graph(args.input, args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.mode == "clique":
        tree = clique_decomposition_tree(g)
        print(f"clique cutset tree: {tree.leaf_count} leaves")
    else:
        tree = two_join_decomposition_tree(g)
        kinds = [leaf.kind for leaf in tree.leaves]
        print(f"2-join tree: {tree.calls} calls, leaves: {', '.join(kinds)}")
    outputs = []
    if args.json:
        _dump_json(args.json, tree.to_json())
        outputs.append(args.json)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(tree.to_dot())
        outputs.append(args.dot)
    if outputs:
        _write_manifest(f"decompose {args.mode}", [args.input], outputs,
                        None, None, outputs[0] + ".manifest.json")
    return 0


def _generate_batch(kind: str, seed: int, size: int, count: int,
                    outdir: str) -> list[str]:
    os.makedirs(outdir, exist_ok=True)
    outputs = []
    for i in range(count):
        stem = f"{kind.replace(':', '-')}-s{seed}-n{size}-{i:03d}"
        path = os.path.join(outdir, stem + ".graph")
        if kind == "only-prism":
            g, recipe = synth_only_prism(seed + i, size)
        elif kind == "only-pyramid":
            g, recipe = synth_only_pyramid(seed + i, size)
        else:
            config = kind.split(":", 1)[1]
            g = plant_configuration(seed + i, config, size)
            recipe = None
        write_graph_file(path, g)
        outputs.append(path)
        if recipe is not None:
            rpath = os.path.join(outdir, stem + ".recipe.json")
            _dump_json(rpath, recipe.to_json())
            outputs.append(rpath)
    return outputs


def cmd_generate(args: argparse.Namespace) -> int:
    if args.replay:
        try:
            with open(args.replay, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for key in ("kind", "seed", "size", "count"):
            if not isinstance(manifest, dict) or key not in manifest:
                print(f"error: manifest is missing {key!r}", file=sys.stderr)
                return 2
        kind, seed = manifest["kind"], manifest["seed"]
        size, count = manifest["size"], manifest["count"]
    else:
        if args.kind is None or args.seed is None or args.size is None:
            print("error: generate needs KIND, --seed and --size "
                  "(or --replay MANIFEST)", file=sys.stderr)
            return 2
        kind, seed, size, count = args.kind, args.seed, args.size, args.count
    if kind not in GENERATE_KINDS:
        print(f"error: unknown generate kind {kind!r}", file=sys.stderr)
        return 2
    for key, value, low in (("seed", seed, None), ("size", size, 1),
                            ("count", count, 0)):
        if type(value) is not int or (low is not None and value < low):
            bound = "" if low is None else f" of at least {low}"
            print(f"error: {key} must be an integer{bound}, got {value!r}",
                  file=sys.stderr)
            return 2
    outputs = _generate_batch(kind, seed, size, count, args.out)
    _write_manifest(f"generate {kind}", [], outputs, seed, None,
                    os.path.join(args.out, "manifest.json"),
                    extra={"kind": kind, "seed": seed, "size": size,
                           "count": count})
    print(f"wrote {len(outputs)} files to {args.out}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        g = _load_graph(args.input, args.format)
        cap = _oracle_cap(args.cap)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # an empty --kinds names the unknown kind "" rather than all of them;
    # a kind named twice is scanned and printed once
    kinds = KINDS if args.kinds is None else tuple(dict.fromkeys(args.kinds.split(",")))
    try:
        found = scan_configs(g, kinds, cap=cap)
    except (OracleScaleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    hits = {k: w for k, w in found.items() if w is not None}
    for kind in kinds:
        w = found.get(kind)
        if w is not None:
            print(f"{kind}: {json.dumps(w.to_json())}")
        else:
            print(f"{kind}: none")
    outputs = []
    if args.json:
        _dump_json(args.json, {k: (w.to_json() if w else None)
                               for k, w in found.items()})
        outputs.append(args.json)
        _write_manifest("oracle", [args.input], outputs, None, cap,
                        outputs[0] + ".manifest.json")
    return 1 if hits else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truemper",
        description="Recognition, decomposition and synthesis of graph "
                    "classes defined by excluding Truemper configurations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_rec = sub.add_parser("recognize", help="decide class membership")
    p_rec.add_argument("cls", choices=CLASS_NAMES, metavar="CLASS",
                       help=f"one of {', '.join(CLASS_NAMES)}")
    p_rec.add_argument("input", help="edge-list file ('n m' then 'u v' lines)")
    p_rec.add_argument("--json", help="write the recognition report here")
    p_rec.add_argument("--witness", action="store_true",
                       help="extract an oracle witness on rejection (within cap)")
    p_rec.add_argument("--cap", help=f"oracle node cap (default {DEFAULT_CAP})")
    p_rec.add_argument("--format", choices=("edgelist", "graph6"),
                       default="edgelist")
    p_rec.set_defaults(func=cmd_recognize)

    p_dec = sub.add_parser("decompose", help="build a decomposition tree")
    p_dec.add_argument("mode", choices=("clique", "2join"))
    p_dec.add_argument("input")
    p_dec.add_argument("--json", help="write the tree as JSON here")
    p_dec.add_argument("--dot", help="write a DOT rendering here")
    p_dec.add_argument("--format", choices=("edgelist", "graph6"),
                       default="edgelist")
    p_dec.set_defaults(func=cmd_decompose)

    p_gen = sub.add_parser("generate", help="synthesize instances")
    p_gen.add_argument("kind", nargs="?", metavar="KIND",
                       help=f"one of {', '.join(GENERATE_KINDS)}")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--size", type=int)
    p_gen.add_argument("--count", type=int, default=1)
    p_gen.add_argument("--out", default=".", help="output directory")
    p_gen.add_argument("--replay", help="replay a generate manifest")
    p_gen.set_defaults(func=cmd_generate)

    p_or = sub.add_parser("oracle", help="exhaustive configuration search")
    p_or.add_argument("input")
    p_or.add_argument("--kinds", help="comma-separated subset of "
                                      f"{','.join(KINDS)} (default all)")
    p_or.add_argument("--cap", help=f"oracle node cap (default {DEFAULT_CAP})")
    p_or.add_argument("--json", help="write witnesses as JSON here")
    p_or.add_argument("--format", choices=("edgelist", "graph6"),
                      default="edgelist")
    p_or.set_defaults(func=cmd_oracle)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # an unreadable input or an unwritable output is an input error,
        # not a verdict
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # a crash must not read as a verdict: 1 means "not in class"
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
