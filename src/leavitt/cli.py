"""Command line driver.

Exit codes: 0 for a decided result, 1 for usage or input errors and for a
certificate that fails its own claims (``CertificateError``), 2 when a
decision is honestly unknown (properness over a cyclic graph and a field
that is proper but not positive definite). Every exit 1 writes one line to
stderr.

``main(argv)`` may be called any number of times in one process. It parses
with one parser, built by ``build_parser`` on the first call and shared by
every later one: argparse gives each parse a fresh namespace and copies
``append`` defaults, so no state carries over from call to call. Each
command renders only the output form asked for, JSON under ``--json`` and
text otherwise.

``construct`` refuses, before building anything, an output larger than
``MAX_CONSTRUCT_SIZE`` (see that constant for how size is counted).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .algebra import AlgebraError, format_element
from .decide import UNKNOWN, full_report
from .fields import FieldError, parse_field_spec
from .graphs import (
    GraphError,
    classify_vertex,
    e_f_edge_count,
    e_f_graph,
    is_acyclic,
    m_n_graph,
    mu_table,
    sigma,
    sinks,
    standard_graph,
)
from .io import (
    ParseError,
    claims_to_json,
    format_graph,
    format_matrix_image,
    format_report,
    graph_to_json,
    matrix_image_to_json,
    parse_element,
    parse_graph_any,
    report_to_json,
)
from .linalg import ShapeError
from .omega import extnat_to_json
from .semisimple import phi
from .witness import (
    CertificateError,
    NotStarRegularError,
    improper_claims,
    improper_element,
    inner_inverse_claims,
    projection_claims,
    projection_generator,
    regular_witness,
    unit_regular_claims,
    unit_regular_witness,
)


# Largest output graph ``construct`` builds: n for line, rose and toeplitz,
# N times the base graph's vertex count for mn, the edge count for ef.
MAX_CONSTRUCT_SIZE = 100_000


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2, and one line
    # like every other error
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", dest="as_json",
                        help="emit structured JSON instead of text")

    parser = _Parser(prog="leavitt",
                     description="exact computation in path algebras with "
                                 "Cuntz-Krieger relations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="structural facts about a graph")
    p.add_argument("graph", help="graph file, or - for stdin")

    p = sub.add_parser("decide", parents=[common],
                       help="regularity, *-regularity, and properness verdicts")
    p.add_argument("graph")
    p.add_argument("--field", required=True, metavar="SPEC",
                   help="Q, Q[i]/id, Q[i]/conj, GF(p), GF(p,2)")

    for name, help_text in (("nf", "normal form of an expression"),
                            ("star", "adjoint of an expression")):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("graph")
        p.add_argument("--field", required=True)
        p.add_argument("-e", "--expr", required=True)

    p = sub.add_parser("mul", parents=[common], help="product of two expressions")
    p.add_argument("graph")
    p.add_argument("--field", required=True)
    p.add_argument("-e", "--expr", action="append", required=True,
                   help="give twice, left factor first")

    p = sub.add_parser("phi", parents=[common],
                       help="matrix image over the sinks (acyclic graphs)")
    p.add_argument("graph")
    p.add_argument("--field", required=True)
    p.add_argument("-e", "--expr", required=True)

    p = sub.add_parser("witness", parents=[common],
                       help="constructive certificates")
    p.add_argument("kind", choices=["regular", "projection", "improper", "unit"])
    p.add_argument("graph")
    p.add_argument("--field", required=True)
    p.add_argument("-e", "--expr")

    p = sub.add_parser("construct", parents=[common],
                       help="build standard and derived graphs")
    p.add_argument("kind", choices=["line", "rose", "toeplitz", "mn", "ef"])
    p.add_argument("params", nargs="*",
                   help="line/rose/toeplitz: [n]; mn: GRAPH N; ef: GRAPH EDGE...")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on first use. Sharing it is safe
    because ``parse_args`` does not mutate the parser."""
    return build_parser()


def _load_graph(source: str):
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    return parse_graph_any(text)


def _emit(as_json: bool, obj, to_json, to_text) -> None:
    """Print ``to_json(obj)`` as JSON under ``--json``, else ``to_text(obj)``;
    only the renderer asked for runs."""
    if as_json:
        print(json.dumps(to_json(obj), indent=2, sort_keys=False))
    else:
        print(to_text(obj))


def _analyze_json(g) -> dict:
    table = mu_table(g)
    acyclic = is_acyclic(g)
    return {
        **graph_to_json(g),
        "acyclic": acyclic,
        "sinks": list(sinks(g)),
        # in vertex order already, and all ints when acyclic
        "mu": table if acyclic else {v: extnat_to_json(table[v]) for v in g.vertices},
        "sigma": extnat_to_json(sigma(g)),
    }


def _analyze_text(g) -> str:
    table = mu_table(g)
    lines = [f"vertices: {len(g.vertices)}", f"edges: {len(g.edges)}"]
    for v in g.vertices:
        c = classify_vertex(g, v)
        tags = [t for t, on in (("sink", c.sink), ("source", c.source)) if on]
        tag = " ".join(tags) if tags else "internal"
        lines.append(f"  {v}: {tag}, out-degree {c.out_degree}, mu {extnat_to_json(table[v])}")
    lines.append(f"acyclic: {'true' if is_acyclic(g) else 'false'}")
    lines.append(f"sigma: {extnat_to_json(sigma(g))}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    _emit(args.as_json, _load_graph(args.graph), _analyze_json, _analyze_text)
    return 0


def _cmd_decide(args) -> int:
    g = _load_graph(args.graph)
    k = parse_field_spec(args.field)
    report = full_report(g, k)
    _emit(args.as_json, report, report_to_json, format_report)
    return 2 if report.proper_algebra == UNKNOWN else 0


def _cmd_expr(args) -> int:
    g = _load_graph(args.graph)
    k = parse_field_spec(args.field)
    if args.command == "mul":
        if len(args.expr) != 2:
            raise ParseError("mul needs exactly two -e expressions")
        x = parse_element(args.expr[0], g, k)
        y = parse_element(args.expr[1], g, k)
        result = x * y
    else:
        x = parse_element(args.expr, g, k)
        result = x.star() if args.command == "star" else x
    _emit(args.as_json, format_element(result), lambda text: {"element": text}, str)
    return 0


def _cmd_phi(args) -> int:
    g = _load_graph(args.graph)
    k = parse_field_spec(args.field)
    x = parse_element(args.expr, g, k)
    _emit(args.as_json, phi(x), matrix_image_to_json, format_matrix_image)
    return 0


def _cmd_witness(args) -> int:
    g = _load_graph(args.graph)
    k = parse_field_spec(args.field)
    payload, claims, text = _witness(args, g, k)
    # The builders check their own claims and raise CertificateError when one
    # fails, so whatever reaches this line is verified.
    _emit(args.as_json, payload,
          lambda head: {**head, "claims": claims_to_json(claims), "verified": True},
          lambda head: text)
    return 0


def _witness(args, g, k):
    """The payload head, the claims and the text for one witness kind. Each
    element keeps the text ``format_element`` gives it, so the claims reuse
    the payload's strings."""
    if args.kind == "improper":
        cert = improper_element(g, k)
        payload = {"kind": "improper", "certificate": None}
        claims, text = [], "none"
        if cert is not None:
            payload["certificate"] = format_element(cert)
            claims = improper_claims(cert)
            text = f"{payload['certificate']}\nverified: a != 0 and star(a).a = 0"
        return payload, claims, text

    if not args.expr:
        raise ParseError(f"witness {args.kind} needs -e EXPR")
    a = parse_element(args.expr, g, k)
    payload = {"kind": args.kind, "input": format_element(a)}

    if args.kind == "regular":
        b = regular_witness(g, k, a)
        payload["inverse"] = format_element(b)
        claims = inner_inverse_claims(a, b)
        text = f"inverse: {payload['inverse']}\nverified: a.b.a = a"
    elif args.kind == "projection":
        try:
            cert = projection_generator(g, k, a)
        except NotStarRegularError as exc:
            c = exc.certificate
            payload["kind"] = "not_star_regular"
            payload["certificate"] = format_element(c)
            claims = improper_claims(c)
            text = (f"not *-regular; certificate: {payload['certificate']}\n"
                    f"verified: c != 0 and star(c).c = 0")
        else:
            payload["projection"] = format_element(cert.p)
            payload["factor"] = format_element(cert.factor)
            claims = projection_claims(a, cert)
            text = (f"projection: {payload['projection']}\n"
                    f"factor: {payload['factor']}\n"
                    f"verified: p* = p = p.p, p.a = a, a.factor = p")
    else:
        cert = unit_regular_witness(g, k, a)
        payload["u"] = format_element(cert.u)
        payload["u_prime"] = format_element(cert.u_prime)
        payload["v"] = format_element(cert.v)
        claims = unit_regular_claims(a, cert)
        text = (f"u: {payload['u']}\n"
                f"u_prime: {payload['u_prime']}\n"
                f"v: {payload['v']}\n"
                f"verified: u.u' = v = u'.u, v.a = a.v = a, a.u.a = a")
    return payload, claims, text


def _cmd_construct(args) -> int:
    kind = args.kind
    params = args.params
    if kind in ("line", "rose", "toeplitz"):
        if len(params) > 1:
            raise ParseError(f"construct {kind} takes at most one size")
        n = _positive_int(params[0], "size") if params else 1
        _check_construct_size(kind, n)
        g = standard_graph(kind, n)
    elif kind == "mn":
        if len(params) != 2:
            raise ParseError("construct mn needs GRAPH N")
        base = _load_graph(params[0])
        n = _positive_int(params[1], "N")
        _check_construct_size(kind, n * len(base.vertices))
        g = m_n_graph(base, n)
    else:
        if len(params) < 2:
            raise ParseError("construct ef needs GRAPH EDGE[,EDGE...]")
        base = _load_graph(params[0])
        f_ids = [e for chunk in params[1:] for e in chunk.split(",") if e]
        _check_construct_size(kind, e_f_edge_count(base, f_ids))
        g = e_f_graph(base, f_ids)
    _emit(args.as_json, g, graph_to_json, lambda g: format_graph(g).rstrip("\n"))
    return 0


def _positive_int(text: str, name: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise ParseError(f"{name} must be a positive integer, got {text!r}")
    return n


def _check_construct_size(kind: str, size: int) -> None:
    if size > MAX_CONSTRUCT_SIZE:
        raise ParseError(f"construct {kind}: output size {size} exceeds "
                         f"MAX_CONSTRUCT_SIZE = {MAX_CONSTRUCT_SIZE}")


_DISPATCH = {
    "analyze": _cmd_analyze,
    "decide": _cmd_decide,
    "nf": _cmd_expr,
    "mul": _cmd_expr,
    "star": _cmd_expr,
    "phi": _cmd_phi,
    "witness": _cmd_witness,
    "construct": _cmd_construct,
}


def _bind_expressions(argv: list) -> list:
    """Join each -e/--expr to its value as --expr=VALUE, so that an expression
    starting with '-' (such as -v1) is not taken for an option."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token in ("-e", "--expr"):
            value = next(tokens, None)
            if value is not None:
                token = f"--expr={value}"
        out.append(token)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(_bind_expressions(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return _DISPATCH[args.command](args)
    except (ParseError, GraphError, FieldError, AlgebraError, ShapeError,
            CertificateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
