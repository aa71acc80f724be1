"""Command-line front end.

Subcommands: eval, recognize, polarity, profile, mine, verify, census.
Exit codes: 0 success/pass, 1 verification failure, 2 parse error or a path
that cannot be read or written (a graph argument, --out, a catalog file),
3 not a cograph, 4 bound exceeded, 5 unknown claim.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__, catalog, cotrees, expressions, graphs, obstructions, polarity
from .cotrees import NotCographError
from .expressions import ExprError
from .obstructions import BoundExceededError
from .polarity import INF

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_PARSE = 2
EXIT_NOT_COGRAPH = 3
EXIT_BOUND = 4
EXIT_UNKNOWN_CLAIM = 5


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _parse_param(text, name):
    if text is None:
        return None
    if text.lower() in ("inf", "infinity"):
        return INF
    try:
        value = int(text)
    except ValueError:
        raise CliError(f"--{name} must be a non-negative integer or 'inf'", EXIT_PARSE)
    if value < 0:
        raise CliError(f"--{name} must be non-negative", EXIT_PARSE)
    return value


def _check_bound(n):
    if n < 1:
        raise CliError("--n-max must be at least 1", EXIT_PARSE)


def _read_input(text, force_graph6=False):
    """Resolve a graph argument: '-' (stdin), a file path, graph6, or an expression."""
    if text == "-":
        text = sys.stdin.read().strip()
    elif os.path.exists(text):
        with open(text) as fh:
            text = fh.read().strip()
    if force_graph6:
        try:
            return graphs.graph6_decode(text)
        except graphs.GraphError as exc:
            raise CliError(f"invalid graph6: {exc}", EXIT_PARSE)
    try:
        return expressions.evaluate(expressions.parse(text))
    except ExprError as expr_exc:
        try:
            return graphs.graph6_decode(text)
        except graphs.GraphError:
            raise CliError(f"parse error: {expr_exc}", EXIT_PARSE)


def _emit(text, out_path):
    """Write text and a final newline to out_path, or to stdout; empty text writes nothing."""
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if not text or text.endswith("\n") else text + "\n")
    elif text:
        print(text)


def _graph_payload(g):
    c, i = obstructions.cotree_type(cotrees.cotree_of(g))
    return {
        "graph6": graphs.graph6_encode(g),
        "order": g.n,
        "edges": g.edge_count(),
        "components": c,
        "trivial_components": i,
        "type": [c, i],
        "version": __version__,
    }


def _p4_json(certificate):
    """The JSON line that reports a graph as not a cograph, with its induced P4."""
    payload = {"cograph": False, "p4": list(certificate.vertices), "version": __version__}
    return json.dumps(payload, sort_keys=True)


def _format_graph(g, fmt):
    if fmt == "graph6":
        return graphs.graph6_encode(g)
    if fmt == "dot":
        return graphs.to_dot(g)
    payload = _graph_payload(g)
    if fmt == "table":
        return "\n".join(f"{key}\t{payload[key]}" for key in sorted(payload))
    return json.dumps(payload, sort_keys=True)


# -- subcommands -----------------------------------------------------------------


def cmd_eval(args):
    try:
        e = expressions.parse(args.expression)
        g = expressions.evaluate(e)
    except (ExprError, ValueError) as exc:
        raise CliError(f"parse error: {exc}", EXIT_PARSE)
    _emit(_format_graph(cotrees.canonical_relabel(g), args.format), args.out)
    return EXIT_OK


def cmd_recognize(args):
    g = _read_input(args.input, force_graph6=args.graph6)
    try:
        result = cotrees.recognize(g)
    except graphs.GraphError as exc:  # the order-0 graph has no cotree
        raise CliError(str(exc), EXIT_PARSE)
    if isinstance(result, cotrees.P4Certificate):
        _emit(_p4_json(result), args.out)
        return EXIT_NOT_COGRAPH
    payload = {
        "cograph": True,
        "cotree": cotrees.render(result),
        "canonical_code": cotrees.code_hex(result),
        "expression": expressions.unparse(obstructions.cotree_to_expr(result)),
        "version": __version__,
    }
    _emit(json.dumps(payload, sort_keys=True), args.out)
    return EXIT_OK


def _require_profile(g):
    """Profile of a cograph, {(0,0)} at order 0; a P4 goes to stderr and exits 3."""
    try:
        return polarity.profile_of_graph(g)
    except NotCographError as exc:
        print(_p4_json(exc.certificate), file=sys.stderr)
        raise CliError(str(exc), EXIT_NOT_COGRAPH)


def _oracle_disagrees(args, g, prof, payload):
    """With --oracle, record in payload whether the brute-force profile agrees
    with ``prof``; on a disagreement write the payload and return True.  A
    graph above the oracle's order limit exits 4."""
    if not args.oracle:
        return False
    if g.n > polarity.BRUTE_FORCE_MAX_ORDER:
        raise CliError("graph too large for the brute-force oracle", EXIT_BOUND)
    payload["oracle_agrees"] = polarity.profile_bruteforce(g).closure() == prof.closure()
    if payload["oracle_agrees"]:
        return False
    _emit(json.dumps(payload, sort_keys=True), args.out)
    return True


def cmd_polarity(args):
    s = _parse_param(args.s, "s")
    k = _parse_param(args.k, "k")
    g = _read_input(args.input, force_graph6=args.graph6)
    prof = _require_profile(g)
    verdict, witness = polarity.is_polar(g, s, k)
    payload = {
        "polar": verdict,
        "s": obstructions.encode_param(s),
        "k": obstructions.encode_param(k),
        "n": prof.n,
        "signatures": [list(sig) for sig in prof.sorted_signatures()],
        "version": __version__,
    }
    if witness is not None:  # is_polar has re-validated it against g
        payload["witness"] = {
            "A": sorted(graphs.bits(witness.a_mask)),
            "B": sorted(graphs.bits(witness.b_mask)),
            "signature": list(witness.signature),
        }
    if _oracle_disagrees(args, g, prof, payload):
        return EXIT_VERIFY_FAIL
    verdict_line = "POLAR" if verdict else "NOT-POLAR"
    _emit(verdict_line + "\n" + json.dumps(payload, sort_keys=True), args.out)
    return EXIT_OK


def cmd_profile(args):
    g = _read_input(args.input, force_graph6=args.graph6)
    prof = _require_profile(g)
    payload = {
        "n": prof.n,
        "signatures": [list(sig) for sig in prof.sorted_signatures()],
        "version": __version__,
    }
    if _oracle_disagrees(args, g, prof, payload):
        return EXIT_VERIFY_FAIL
    _emit(json.dumps(payload, sort_keys=True), args.out)
    return EXIT_OK


def cmd_mine(args):
    s = _parse_param(args.s, "s")
    k = _parse_param(args.k, "k")
    n_max = args.n_max if args.n_max is not None else catalog.conjectured_order(k)
    _check_bound(n_max)
    records = obstructions.mine_obstructions(s, k, n_max)
    _emit(obstructions.records_to_jsonl(records), args.out)
    return EXIT_OK


def _verdict_table(reports):
    """Text table of verdicts, one line each; the status column fits the widest status."""
    width = max(len(r.status) for r in reports)
    lines = []
    for r in reports:
        detail = f"{r.actual}/{r.expected}"
        lines.append(f"{r.status:{width}s} {r.claim:16s} k={r.k} {detail:9s} {r.notes}")
    return "\n".join(lines)


def cmd_verify(args):
    k = _parse_param(args.k, "k")
    if k == INF:
        raise CliError("--k must be finite for verify", EXIT_PARSE)
    if args.claim == "all" and args.n_max is not None:
        raise CliError("--n-max applies to one claim, not to verify all", EXIT_PARSE)
    if args.n_max is not None:
        _check_bound(args.n_max)
    cache = catalog.MiningCache()
    try:
        if args.claim == "all":
            if k is None:
                raise CliError("verify all requires --k", EXIT_PARSE)
            reports = catalog.verify_all(k, cache=cache, catalog_dir=args.catalog_dir)
        else:
            reports = [
                catalog.verify_claim(
                    args.claim,
                    k,
                    cache=cache,
                    n_max=args.n_max,
                    catalog_dir=args.catalog_dir,
                )
            ]
    except catalog.UnknownClaimError as exc:
        raise CliError(f"unknown claim: {exc}", EXIT_UNKNOWN_CLAIM)
    except catalog.ClaimParameterError as exc:
        raise CliError(str(exc), EXIT_PARSE)
    if args.format == "json":
        body = "\n".join(r.to_json() for r in reports)
    else:
        body = _verdict_table(reports)
    _emit(body, args.out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


def cmd_census(args):
    n_max = args.n_max if args.n_max is not None else 10
    _check_bound(n_max)
    counts = obstructions.cograph_counts(n_max)
    payload = {
        "n_max": n_max,
        "counts": counts,
        "version": __version__,
    }
    if args.format == "table":
        body = "\n".join(f"{n}\t{c}" for n, c in enumerate(counts, start=1))
    else:
        body = json.dumps(payload, sort_keys=True)
    _emit(body, args.out)
    return EXIT_OK


# -- argument wiring ---------------------------------------------------------------


def _add_io_flags(sub, formats=("json", "graph6", "dot", "table")):
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("--out", default=None, help="write output to a file")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polarcographs",
        description="Cograph construction, (s,k)-polarity, and obstruction mining",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="evaluate a cograph expression")
    p.add_argument("expression")
    _add_io_flags(p)
    p.set_defaults(func=cmd_eval)

    p = subs.add_parser("recognize", help="cotree or P4 certificate of a graph")
    p.add_argument("input", help="expression, graph6, a file, or '-' for stdin")
    p.add_argument("--graph6", action="store_true", help="treat input as graph6 only")
    _add_io_flags(p, formats=("json",))
    p.set_defaults(func=cmd_recognize)

    p = subs.add_parser("polarity", help="(s,k)-polarity verdict with witness")
    p.add_argument("input")
    p.add_argument("--graph6", action="store_true")
    p.add_argument("--s", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--oracle", action="store_true", help="cross-check with brute force")
    _add_io_flags(p, formats=("json",))
    p.set_defaults(func=cmd_polarity)

    p = subs.add_parser("profile", help="antichain of exact polarity signatures")
    p.add_argument("input")
    p.add_argument("--graph6", action="store_true")
    p.add_argument("--oracle", action="store_true")
    _add_io_flags(p, formats=("json",))
    p.set_defaults(func=cmd_profile)

    p = subs.add_parser("mine", help="all minimal (s,k)-polar obstructions up to --n-max")
    p.add_argument("--s", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mine)

    p = subs.add_parser("verify", help="check a published claim against mining")
    p.add_argument("claim", help="a claim id or 'all'")
    p.add_argument("--k", default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--catalog-dir", default=None)
    _add_io_flags(p, formats=("table", "json"))
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("census", help="unlabeled cograph counts per order")
    p.add_argument("--n-max", type=int, default=None)
    _add_io_flags(p, formats=("json", "table"))
    p.set_defaults(func=cmd_census)

    return parser


# the errors main reports on stderr, with their exit codes; a CliError carries its own
_EXIT_CODES = {
    BoundExceededError: EXIT_BOUND,
    NotCographError: EXIT_NOT_COGRAPH,
    ExprError: EXIT_PARSE,
    OSError: EXIT_PARSE,  # a path that is a directory, unreadable or unwritable
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, *_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CliError):
            return exc.code
        return next(code for error, code in _EXIT_CODES.items() if isinstance(exc, error))


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
