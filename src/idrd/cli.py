"""Command-line front end.

Commands: solve, family, classify, realize, bounds, fuzz.  One pipeline:
solve, bounds and classify read their edge list through `_read_graph`
(read, parse, the command's pre-build check, build, digest); every command
returns (exit code, digest, payload, text); and `main` alone writes the
output, the JSON envelope with --json, else the lines of `text()`, which
runs only then.  JSON output is the stable machine contract: a single
envelope object {schema_version, command, input_digest, payload}
serialized with sorted keys and no whitespace, so identical inputs give
byte-identical output.  The digest is the SHA-256 of the canonical
edge-list text (graph commands) or of the canonical parameter text
(family/realize/fuzz).  Table output is human-oriented and may change.

Exit codes: 0 success; 1 fuzz found violations; 2 input error (unparsable
or undecodable edge list, unparsable spec text, unknown invariant name, bad
flags, a fuzz p range that cannot produce a connected sample, a non-integer
or negative IDRD_SIZE_LIMIT, `--input -` with stdin closed, an output write
that fails, e.g. to a full device or a closed stdout, --help text
included); 3 exact-solver size limit exceeded (IDRD_SIZE_LIMIT overrides
the default of 24; `family` checks the spec's order, and `solve` and
`bounds` the header's order, before they build the graph); 4 domain error
(no closed form, non-tree classify, inadmissible pair).  classify and
realize read the linear-time tree DPs, so they never exit 3; classify
rejects a header with fewer than n - 1 edges before it builds the graph.

The exit code follows the type of the exception a command raises
(SizeLimitError 3, families.DomainError 4, other ValueError or OSError 2),
and it stands when standard error is closed and the message is lost.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import sys

from .bounds import GRAPH_CLASSES, check_bounds, fuzz
from .families import (
    DomainError,
    classify_tree,
    formula_idrdn,
    generate,
    parse_family_spec,
    realize,
)
from .graph import _from_parsed, parse_edges, serialize_edge_list
from .labelings import DRLabeling, RainbowLabeling
from .solvers import (
    SizeLimitError,
    admit,
    compute_invariants,
    resolve_limit,
    tree_idn,
    tree_idrdn,
    tree_ir2dn,
)

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_SIZE = 3
EXIT_DOMAIN = 4

# A command's exception type -> exit code; the nearest class in the MRO wins.
_EXIT_CODES = {
    SizeLimitError: EXIT_SIZE,
    DomainError: EXIT_DOMAIN,
    ValueError: EXIT_INPUT,
    OSError: EXIT_INPUT,
}


def _error(code: int, message: str) -> int:
    with contextlib.suppress(OSError):  # a closed stderr loses only the message
        print(f"error: {message}", file=sys.stderr)
    return code


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_default(value):
    """JSON form of a labeling (its values) and of a 2-rainbow label (sorted)."""
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (DRLabeling, RainbowLabeling)):
        return value.values
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _read_graph(path: str, check) -> tuple:
    """The graph on `path` (- for stdin) and its digest.  `check(n, edges)`
    runs on the parsed text before the graph is built."""
    if path == "-":
        if sys.stdin is None:  # the process was started with stdin closed
            raise ValueError("standard input is closed")
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    n, edges = parse_edges(text)
    check(n, edges)
    g = _from_parsed(n, edges)
    return g, _digest(serialize_edge_list(g))


def _not_a_tree(n: int, edges: list) -> None:
    # Duplicate edge lines only lower the count, so fewer than n - 1 lines
    # rule out a tree before the graph is built.
    if n and len(edges) < n - 1:
        raise DomainError("input is not a tree")


def _witness_lines(name, witness):
    if isinstance(witness, (DRLabeling, RainbowLabeling)):
        return ["  " + line for line in witness.witness_text().splitlines()]
    if name in ("max_matching", "min_edge_cover"):
        return ["  edges: " + " ".join(f"{u}-{v}" for u, v in witness)]
    return ["  members: " + " ".join(str(v) for v in witness)]


def _cmd_solve(args) -> tuple:
    which = None if args.invariants is None else args.invariants.split(",")
    g, digest = _read_graph(args.input, lambda n, edges: admit(n, which))
    table = compute_invariants(g, which, witnesses=args.witness)
    payload = {"invariants": table.entries, "not_applicable": table.not_applicable}
    if args.witness:
        payload["witnesses"] = table.witnesses

    def text():
        for name, value in table.entries.items():
            yield f"{name} = {value}"
            if name in table.witnesses:  # empty without --witness
                yield from _witness_lines(name, table.witnesses[name])
        for name, reason in table.not_applicable.items():
            yield f"{name} skipped ({reason})"

    return EXIT_OK, digest, payload, text


def _cmd_family(args) -> tuple:
    spec = parse_family_spec(args.spec)
    payload = {"kind": spec.kind, "params": list(spec.params)}
    if args.mode in ("formula", "both"):
        payload["formula"] = formula_idrdn(spec)
    if args.mode in ("solve", "both"):
        admit(spec.order, ["idrdn"])  # before the graph is built
        table = compute_invariants(generate(spec), ["idrdn"], witnesses=False)
        payload["solver"] = table.entries["idrdn"]
    if args.mode == "both":
        payload["agree"] = payload["formula"] == payload["solver"]

    def text():
        yield f"family {spec.text()}"
        for key in ("formula", "solver", "agree"):
            if key in payload:
                yield f"{key} = {str(payload[key]).lower() if key == 'agree' else payload[key]}"

    return EXIT_OK, _digest(spec.text()), payload, text


def _cmd_classify(args) -> tuple:
    g, digest = _read_graph(args.input, _not_a_tree)
    result = classify_tree(g)
    diff = tree_ir2dn(g) - tree_idn(g)
    payload = {
        "membership": result.membership,
        "parameters": list(result.parameters) if result.parameters else None,
        "ir2dn_minus_idn": diff,
    }

    def text():
        yield f"membership = {result.membership}"
        if result.parameters is not None:
            names = ("k", "j") if result.membership == "T_family" else ("r", "s")
            for name, value in zip(names, result.parameters):
                yield f"{name} = {value}"
        yield f"ir2dn - idn = {diff}"

    return EXIT_OK, digest, payload, text


def _cmd_realize(args) -> tuple:
    t = realize(args.a, args.b)
    got_a, got_b = tree_idn(t), tree_idrdn(t)
    edge_list = serialize_edge_list(t)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(edge_list)
    verified = got_a == args.a and got_b == args.b
    payload = {"a": args.a, "b": args.b, "order": t.n, "edge_list": edge_list,
               "idn": got_a, "idrdn": got_b, "verified": verified}

    def text():
        yield from [f"written {args.out}"] if args.out else edge_list.splitlines()
        yield f"idn = {got_a}"
        yield f"idrdn = {got_b}"
        yield f"verified = {str(verified).lower()}"

    return EXIT_OK, _digest(f"{args.a} {args.b}"), payload, text


def _cmd_bounds(args) -> tuple:
    # check_bounds reads exponential invariants
    g, digest = _read_graph(args.input, lambda n, edges: admit(n))
    records = check_bounds(g)

    def text():
        for r in records:
            if r.skipped:
                yield f"{r.name:9} skipped ({r.skip_reason})"
            else:
                status = "holds" if r.holds else "VIOLATED"
                extra = ", tight" if r.tight else ""
                yield f"{r.name:9} {r.anchor}: {r.lhs} {r.relation} {r.rhs} [{status}{extra}]"

    return EXIT_OK, digest, {"bounds": [r.to_dict() for r in records]}, text


def _cmd_fuzz(args) -> tuple:
    report = fuzz(args.graph_class, args.max_n, args.trials, (args.p_min, args.p_max),
                  args.seed)
    digest = _digest(f"{args.graph_class} {args.max_n} {args.trials} {args.seed}"
                     f" {args.p_min} {args.p_max}")

    def text():
        yield f"class = {report.graph_class}"
        yield f"trials = {report.trials}"
        yield f"seed = {report.seed}"
        yield f"violations = {len(report.violations)}"
        for edge_list, bound in report.violations:
            yield f"  {bound} violated on: {edge_list.splitlines()[0]} ..."
        for name, count in report.tight_counts.items():
            yield f"tight {name} = {count}"

    return (EXIT_VIOLATIONS if report.violations else EXIT_OK), digest, report.to_dict(), text


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared; do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="idrd",
        description=(
            "Exact independent double Roman domination toolkit: solvers,"
            " family formulas, tree classification, pair realization,"
            " bound checks, and fuzzing."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute invariants of an edge-list graph")
    p_solve.add_argument("--input", required=True, help="edge-list file path, or - for stdin")
    p_solve.add_argument(
        "--invariants",
        help="comma-separated invariant names (default: all)",
    )
    p_solve.add_argument("--witness", action="store_true", help="include witnesses")
    p_solve.set_defaults(func=_cmd_solve)

    p_family = sub.add_parser("family", help="closed-form and solver values for a family")
    p_family.add_argument("spec", help="family text, e.g. path:7 or kpartite:2,2,5")
    p_family.add_argument(
        "mode",
        nargs="?",
        default="both",
        choices=("formula", "solve", "both"),
        help="what to compute (default: both)",
    )
    p_family.set_defaults(func=_cmd_family)

    p_classify = sub.add_parser("classify", help="classify a tree against the two families")
    p_classify.add_argument("--input", required=True, help="edge-list file path, or - for stdin")
    p_classify.set_defaults(func=_cmd_classify)

    p_realize = sub.add_parser(
        "realize", help="build a tree with the given (idn, idrdn) pair"
    )
    p_realize.add_argument("a", type=int, help="target independent domination number")
    p_realize.add_argument(
        "b", type=int, help="target independent double Roman domination number"
    )
    p_realize.add_argument("--out", help="write the edge list to this path")
    p_realize.set_defaults(func=_cmd_realize)

    p_bounds = sub.add_parser("bounds", help="evaluate every bound record on a graph")
    p_bounds.add_argument("--input", required=True, help="edge-list file path, or - for stdin")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_fuzz = sub.add_parser("fuzz", help="fuzz the bound records over random graphs")
    p_fuzz.add_argument("graph_class", choices=GRAPH_CLASSES, metavar="class")
    p_fuzz.add_argument("max_n", type=int, help="largest vertex count to sample")
    p_fuzz.add_argument("trials", type=int, help="number of sampled graphs")
    p_fuzz.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p_fuzz.add_argument(
        "--p-min", type=float, default=0.2, help="lower edge probability (default 0.2)"
    )
    p_fuzz.add_argument(
        "--p-max", type=float, default=0.8, help="upper edge probability (default 0.8)"
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    for command in sub.choices.values():  # each command's last option
        command.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.  main alone writes command
    output: the JSON envelope with --json, else the lines of the command's
    `text()`, which runs only then.  The output goes to a buffer, written
    once the command has finished (so an OSError it raises concerns its
    input) and dropped when it raises one of `_EXIT_CODES`.  argparse's
    SystemExit (usage errors, --help) is raised again once its text is out."""
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            args = build_parser().parse_args(argv)
            resolve_limit()  # a bad IDRD_SIZE_LIMIT fails every command
            code, digest, payload, text = args.func(args)
            if args.json:
                envelope = {"schema_version": SCHEMA_VERSION, "command": args.command,
                            "input_digest": digest, "payload": payload}
                print(json.dumps(envelope, sort_keys=True, separators=(",", ":"),
                                 default=_json_default))
            else:
                for line in text():
                    print(line)
    except SystemExit as exc:
        code = exc
    except tuple(_EXIT_CODES) as exc:
        kind = next(k for k in type(exc).__mro__ if k in _EXIT_CODES)
        return _error(_EXIT_CODES[kind], str(exc))
    out = buffer.getvalue()
    if out:  # empty after an argparse usage error
        try:
            if sys.stdout is None:  # the process was started with stdout closed
                raise OSError("standard output is closed")
            sys.stdout.write(out)
            sys.stdout.flush()  # buffered output fails here, not at interpreter exit
        except OSError as exc:
            return _error(EXIT_INPUT, f"cannot write output: {exc}")
    if isinstance(code, SystemExit):
        raise code
    return code


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
