"""Command-line front end: enumeration dumps, coefficient tables, cumulant
conversions over JSON files, and the verification harness.

Every subcommand is a thin adapter over the library modules; no arithmetic
or combinatorics lives here.  Output is JSON with "p/q" rational strings,
never floats.  Exit codes: 0 success (or all checks passing), 1 failed
verification, 2 usage or input errors.
"""

import argparse
import json
import sys

from . import cumulants, oracle, partitions, trees
from .cumulants import CumulantFamily


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nccum",
        description=(
            "Exact non-crossing partition combinatorics and conversions among"
            " moments and free, Boolean and monotone cumulants."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser(
        "enumerate", help="list non-crossing or monotone partitions"
    )
    p_enum.add_argument(
        "kind", choices=("nc", "nc-irr", "monotone-irr"), help="family to enumerate"
    )
    p_enum.add_argument("--n", type=int, required=True, help="ground-set size")
    p_enum.add_argument(
        "--k", type=int, help="block count (required for monotone-irr)"
    )
    p_enum.add_argument(
        "--count", action="store_true", help="print only the cardinality"
    )
    p_enum.add_argument(
        "--json", action="store_true", help="newline-delimited JSON instead of text"
    )

    p_omega = sub.add_parser(
        "omega", help="coefficient table rows for trees or partitions"
    )
    group = p_omega.add_mutually_exclusive_group(required=True)
    group.add_argument("--tree", help='bracket encoding, e.g. "[[][]]"')
    group.add_argument(
        "--max-size", type=int, help="tabulate every tree with at most this many vertices"
    )
    group.add_argument("--partition", help='partition text, e.g. "{{1,3},{2}}"')

    p_tree = sub.add_parser(
        "tree", help="tree factorial and order-count utilities"
    )
    tgroup = p_tree.add_mutually_exclusive_group(required=True)
    tgroup.add_argument("--tree", help="bracket encoding")
    tgroup.add_argument("--partition", help="partition text")

    p_conv = sub.add_parser(
        "convert", help="convert a functional between families"
    )
    p_conv.add_argument(
        "--from", dest="from_kind", required=True, choices=cumulants.KINDS
    )
    p_conv.add_argument("--to", dest="to_kind", required=True, choices=cumulants.KINDS)
    p_conv.add_argument("--input", required=True, help="input envelope JSON file")
    p_conv.add_argument("--output", required=True, help="output envelope JSON file")
    p_conv.add_argument(
        "--show-order",
        type=int,
        metavar="M",
        help="also print the order-M expansion with its block structure",
    )

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument(
        "--suite",
        required=True,
        choices=sorted(oracle.SUITES) + ["all"],
    )
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--max-order", type=int, default=6)
    return parser


def _cmd_enumerate(args, out):
    if args.kind == "monotone-irr":
        if args.k is None:
            raise ValueError("--k is required for monotone-irr")
        items = partitions.enumerate_monotone_irr(args.n, args.k)
    elif args.kind == "nc":
        items = partitions.enumerate_nc(args.n)
    else:
        items = partitions.enumerate_nc_irr(args.n)
    if args.count:
        print(len(items), file=out)
        return 0
    for item in items:
        if args.json:
            print(json.dumps(item.to_json()), file=out)
        else:
            print(item.text(), file=out)
    return 0


def _tree_row(t):
    return {
        "tree": t.encoding,
        "factorial": trees.tree_factorial(t),
        "monotone_count": trees.monotone_count(t),
        "omega": str(trees.omega(t)),
    }


def _cmd_omega(args, out):
    if args.tree is not None:
        rows = [_tree_row(trees.parse_tree(args.tree))]
    elif args.max_size is not None:
        if args.max_size < 1 or args.max_size > 10:
            raise ValueError("--max-size must be between 1 and 10")
        rows = [_tree_row(t) for t in trees.trees_up_to(args.max_size)]
    else:
        p = partitions.NCPartition.from_text(args.partition)
        forest = partitions.nesting_forest(p)
        rows = [
            {
                "partition": p.text(),
                "forest": forest.encoding,
                "factorial": trees.forest_factorial(forest),
                "monotone_count": partitions.monotone_count_partition(p),
                "omega": str(trees.omega_forest(forest)),
            }
        ]
    for row in rows:
        print(json.dumps(row), file=out)
    return 0


def _cmd_tree(args, out):
    if args.tree is not None:
        t = trees.parse_tree(args.tree)
        row = {
            "tree": t.encoding,
            "size": t.size,
            "factorial": trees.tree_factorial(t),
            "monotone_count": trees.monotone_count(t),
        }
    else:
        p = partitions.NCPartition.from_text(args.partition)
        forest = partitions.nesting_forest(p)
        row = {
            "partition": p.text(),
            "blocks": p.num_blocks,
            "irreducible": p.is_irreducible(),
            "forest": forest.encoding,
            "components": [c.text() for c in partitions.irreducible_components(p)],
            "factorial": trees.forest_factorial(forest),
            "monotone_count": partitions.monotone_count_partition(p),
        }
    print(json.dumps(row), file=out)
    return 0


def _cmd_convert(args, out):
    with open(args.input, encoding="utf-8") as fh:
        envelope = json.load(fh)
    family = CumulantFamily.from_json(envelope)
    if family.kind != args.from_kind:
        raise ValueError(
            f"input envelope is tagged {family.kind!r}, not {args.from_kind!r}"
        )
    rows = []
    if args.show_order is not None:
        # checked before anything is written, so a refused request leaves
        # no output file behind
        m = args.show_order
        if m < 1 or m > family.data.max_order:
            raise ValueError("--show-order must be between 1 and max_order")
        rows = cumulants.expansion_terms(args.from_kind, args.to_kind, m)
    result = cumulants.convert(family, args.to_kind)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(result.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    for p, coeff in rows:
        print(
            json.dumps({"partition": p.text(), "coefficient": str(coeff)}),
            file=out,
        )
    return 0


def _cmd_verify(args, out):
    reports = oracle.run_suite(args.suite, seed=args.seed, max_order=args.max_order)
    ok = all(r["status"] == "pass" for r in reports)
    print(
        json.dumps(
            {
                "suite": args.suite,
                "seed": args.seed,
                "max_order": args.max_order,
                "checks": reports,
                "status": "pass" if ok else "fail",
            },
            indent=2,
        ),
        file=out,
    )
    return 0 if ok else 1


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "omega": _cmd_omega,
    "tree": _cmd_tree,
    "convert": _cmd_convert,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, sys.stdout)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # a JSON envelope nested deeper than the decoder's recursion limit
        print("error: input is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
