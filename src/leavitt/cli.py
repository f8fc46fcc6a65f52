"""Command line driver.

Exit codes: 0 for a decided result, 1 for usage or input errors and for a
failed self-check (any ``AssertionError``) and when stdout's reader went
away, 2 when a decision is honestly unknown (properness over a cyclic graph
and a field that is proper but not positive definite). Every exit 1 writes
one line to stderr, ``error: `` and the message.

Every command takes one path through ``main``: read the arguments, check
the number of ``-e`` expressions against ``_EXPR_COUNTS`` (one for ``nf``,
``star``, ``phi`` and ``witness regular|projection|unit``, two for ``mul``,
none for ``witness improper``), load the graph and the field the command
names, parse the expressions, compute, and print only the output form asked
for, JSON under ``--json`` and text otherwise.

``_read_args`` reads the arguments by one table, ``_COMMANDS``: the first
positional names the command, and the command's row gives the positionals
and options that may follow, in any order. An option is accepted as
``--opt VALUE``, ``--opt=VALUE`` or by any unique prefix of its long name
(``--fi Q``), and ``-e`` also as ``-eVALUE``; the last ``--field`` wins.
A ``-e``/``--expr`` value is always an expression, also when it starts with
``-``. Any other token that starts with ``-`` is an option, except ``-``
itself (the graph from stdin) and a negative number. ``--`` ends the
options: every later token is a positional. ``-h`` or ``--help`` prints the
usage of the command, or of ``leavitt``, to stdout and exits 0. A usage
error gets the message argparse gives for it. ``main(argv)`` may be called
any number of times in one process; no state carries over between calls.

``construct`` refuses, before building anything, an output larger than
``MAX_CONSTRUCT_SIZE`` (see that constant for how size is counted).
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from collections import Counter
from itertools import compress, count, islice, repeat
from json.encoder import c_make_encoder, encode_basestring_ascii

from .algebra import AlgebraError, format_element
from .decide import UNKNOWN, full_report
from .fields import FieldError, parse_field_spec
from .graphs import (
    GraphError,
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
from .omega import extnat_to_json, is_finite
from .semisimple import phi
from .witness import (
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

# Most decimal digits of a path count ``decide`` and ``analyze`` print. It is
# CPython's default limit on writing an int as text, so every count that
# CPython prints by default is printed, and a larger one is refused here.
MAX_MU_DIGITS = 4300


# How many -e expressions each command takes, keyed by its name as typed.
_EXPR_COUNTS = {"nf": 1, "star": 1, "phi": 1, "mul": 2, "witness regular": 1,
                "witness projection": 1, "witness unit": 1, "witness improper": 0}


# Each command: its positionals, the options it takes besides --json and
# -h/--help, and its help line. ``params`` takes every positional left over.
_COMMANDS = {
    "analyze": (("graph",), (), "structural facts about a graph"),
    "decide": (("graph",), ("--field",), "regularity, *-regularity, and properness verdicts"),
    "nf": (("graph",), ("--field", "-e/--expr"), "normal form of an expression"),
    "star": (("graph",), ("--field", "-e/--expr"), "adjoint of an expression"),
    "mul": (("graph",), ("--field", "-e/--expr"), "product of two expressions"),
    "phi": (("graph",), ("--field", "-e/--expr"),
            "matrix image over the sinks (acyclic graphs)"),
    "witness": (("kind", "graph"), ("--field", "-e/--expr"), "constructive certificates"),
    "construct": (("kind", "params"), (), "build standard and derived graphs"),
}
_KINDS = {"witness": ("regular", "projection", "improper", "unit"),
          "construct": ("line", "rose", "toeplitz", "mn", "ef")}
# Each argument in the help text: its synopsis, its name in the list and
# its help line.
_ARG_HELP = {
    "kind": ("KIND", "KIND", "one of "),
    "graph": ("GRAPH", "GRAPH", "graph file, or - for stdin"),
    "params": ("[PARAMS ...]", "PARAMS", "line/rose/toeplitz: [n]; mn: GRAPH N; ef: GRAPH EDGE..."),
    "--field": ("--field SPEC", "--field SPEC", "Q, Q[i]/id, Q[i]/conj, GF(p), GF(p,2)"),
    "-e/--expr": ("[-e EXPR]", "-e, --expr EXPR", "element expression; mul takes two, left "
                                                  "factor first, and witness improper none"),
    "--json": ("[--json]", "--json", "emit structured JSON instead of text"),
    "-h/--help": ("[-h]", "-h, --help", "show this help and exit"),
}
# argparse's test for a negative number, which is a value, not an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$").match


def _spellings(options) -> dict:
    """Every way to type each option: its short form, its long form, and
    every prefix of the long form. The long forms begin with different
    letters, so every prefix is unique."""
    spellings = {}
    for option in options:
        for form in option.split("/"):
            for end in range(3 if form[1] == "-" else 2, len(form) + 1):
                spellings[form[:end]] = option
    return spellings


# keyed by command; None before the command, where only -h/--help is known
_SPELLINGS = {command: _spellings(("-h/--help", "--json") + row[1])
              for command, row in _COMMANDS.items()}
_SPELLINGS[None] = _spellings(("-h/--help",))


class _Args:
    """What ``_read_args`` read; what argv did not give keeps its default."""
    command = kind = graph = field = help = None
    as_json = False
    params = expr = ()


def _is_option(token: str) -> bool:
    """Whether ``token``, matching no option, still reads as one: it starts
    with ``-`` and is not ``-``, a negative number, or a token with a
    space."""
    return (token[:1] == "-" and token != "-" and " " not in token
            and _NEGATIVE(token) is None)


def _invalid_choice(name: str, token: str, choices) -> ParseError:
    return ParseError(f"argument {name}: invalid choice: {token!r} "
                      f"(choose from {', '.join(map(repr, choices))})")


def _read_args(argv: list) -> _Args:
    """The command and its arguments, read from ``argv`` in one pass. An
    error in a token is raised when it is met, then a missing argument, then
    the unrecognized ones; ``-h`` or ``--help`` ends the reading with the
    usage text in ``help``."""
    args = _Args()
    command, positionals, spellings = None, (), _SPELLINGS[None]
    taken, exprs, params, extras = 0, [], [], []
    options, i, n = True, 0, len(argv)
    while i < n:
        token = argv[i]
        i += 1
        if options and token[:1] == "-" and token != "-":
            if token == "--":
                options = False
                continue
            name, eq, value = token.partition("=")
            option = spellings.get(name)
            if option is None and token[1] != "-":  # -eVALUE
                option, value = spellings.get(token[:2]), token[2:]
            elif not eq:
                value = None
            if option == "--field" or option == "-e/--expr":
                if value is None:
                    # an expression is taken as typed, a field spec only
                    # from a token that does not read as an option
                    if i == n or option == "--field" and _is_option(argv[i]):
                        raise ParseError(f"argument {option}: expected one argument")
                    value = argv[i]
                    i += 1
                if option == "--field":
                    args.field = value
                else:
                    exprs.append(value)
                continue
            if option is not None:
                if value is not None:
                    raise ParseError(f"argument {option}: ignored explicit argument {value!r}")
                if option == "--json":
                    args.as_json = True
                    continue
                args.help = _usage(command)
                return args
            if _is_option(token):
                extras.append(token)
                continue
        if command is None:
            if token not in _COMMANDS:
                raise _invalid_choice("command", token, _COMMANDS)
            command = args.command = token
            positionals, spellings = _COMMANDS[command][0], _SPELLINGS[command]
        elif taken == len(positionals):
            extras.append(token)
        elif positionals[taken] == "params":
            params.append(token)
        else:
            if positionals[taken] == "kind" and token not in _KINDS[command]:
                raise _invalid_choice("kind", token, _KINDS[command])
            setattr(args, positionals[taken], token)
            taken += 1
    if command is None:
        raise ParseError("the following arguments are required: command")
    missing = [name for name in positionals[taken:] if name != "params"]
    if args.field is None and "--field" in _COMMANDS[command][1]:
        missing.insert(0, "--field")
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ParseError(f"unrecognized arguments: {' '.join(extras)}")
    args.expr, args.params = exprs, params
    return args


def _usage(command) -> str:
    """The help text of ``command``, or of ``leavitt`` when it is None."""
    if command is None:
        return "\n".join(
            ["usage: leavitt [-h] COMMAND ...", "",
             "exact computation in path algebras with Cuntz-Krieger relations", "",
             "commands:"]
            + [f"  {name:<11}{row[2]}" for name, row in _COMMANDS.items()]
            + ["", "'leavitt COMMAND -h' lists the arguments of a command."])
    positionals, options, text = _COMMANDS[command]
    rows = [_ARG_HELP[name] for name in positionals + options + ("--json", "-h/--help")]
    lines = [f"  {name:<17}{line}" for _, name, line in rows]
    if command in _KINDS:
        lines[0] += ", ".join(_KINDS[command])
    return "\n".join([f"usage: leavitt {command} " + " ".join(row[0] for row in rows),
                      "", text, ""] + lines)


def _load_graph(source: str):
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    return parse_graph_any(text)


def _expressions(args) -> list:
    """The -e values, refused unless there are as many as the command takes."""
    name = f"witness {args.kind}" if args.command == "witness" else args.command
    want = _EXPR_COUNTS.get(name, 0)
    if len(args.expr) != want:
        raise ParseError(f"{name} takes exactly {want} -e expression"
                         f"{'' if want == 1 else 's'}, got {len(args.expr)}")
    return args.expr


class _EdgeColumns:
    """The edge list of ``graph`` as ``io.graph_to_json`` gives it, one
    {"id", "src", "dst"} object per edge in edge order; ``_pieces`` writes
    it from the graph's columns, with no dict per edge."""

    __slots__ = ("graph",)

    def __init__(self, graph):
        self.graph = graph


def _graph_json(g) -> dict:
    """``io.graph_to_json(g)`` as ``_json_text`` writes it: the vertex
    tuple and the edge list as an ``_EdgeColumns``."""
    return {"vertices": g.vertices, "edges": _EdgeColumns(g)}


def _analyze_json(g) -> dict:
    table = mu_table(g)
    acyclic = is_acyclic(g)
    return {
        **_graph_json(g),
        "acyclic": acyclic,
        "sinks": list(sinks(g)),
        # in vertex order already, and all ints when acyclic
        "mu": table if acyclic else {v: extnat_to_json(table[v]) for v in g.vertices},
        "sigma": extnat_to_json(sigma(g)),
    }


# a vertex's tag in ``analyze``, by 2 * (is a sink) + (is a source)
_TAGS = ("internal", "source", "sink", "sink source")


def _analyze_text(g) -> str:
    """One line per vertex: its tag, out-degree and path count. The
    out-degrees come from one counting pass over the source positions and
    the source flags from one set of the range positions."""
    index = g.index
    n = len(index.order)
    degrees = Counter(index.src)
    entered = set(index.dst)
    lines = [f"vertices: {n}", f"edges: {len(g.ids)}"]
    lines += [f"  {v}: {_TAGS[(not d) * 2 + (i not in entered)]}, out-degree {d}, "
              f"mu {extnat_to_json(m)}"
              for i, v, d, m in zip(count(), index.order, map(degrees.get, range(n), repeat(0)),
                                    mu_table(g).values())]
    lines.append(f"acyclic: {'true' if is_acyclic(g) else 'false'}")
    lines.append(f"sigma: {extnat_to_json(sigma(g))}")
    return "\n".join(lines)


def _run(args, g, k, xs):
    """The command's result with its JSON and its text renderer; ``main``
    calls only the one asked for."""
    command = args.command
    if command in ("analyze", "decide"):
        _check_mu_digits(g)
    if command == "analyze":
        return g, _analyze_json, _analyze_text
    if command == "decide":
        return full_report(g, k), report_to_json, format_report
    if command == "phi":
        return phi(xs[0]), matrix_image_to_json, format_matrix_image
    if command == "witness":
        head, claims, text = _witness(args.kind, g, k, xs)
        # The builders check their own claims and raise CertificateError when
        # one fails, so whatever reaches this line is verified.
        return (head,
                lambda head: {**head, "claims": claims_to_json(claims), "verified": True},
                lambda head: text)
    if command == "construct":
        return (_construct(args.kind, args.params), _graph_json,
                lambda g: format_graph(g).rstrip("\n"))
    x = xs[0] * xs[1] if command == "mul" else xs[0].star() if command == "star" else xs[0]
    return format_element(x), lambda text: {"element": text}, str


def _witness(kind, g, k, xs):
    """The payload head, the claims and the text for one witness kind. The
    text lists the head's certificate elements as ``key: element`` lines in
    the head's order, then the identities the claims verify. Each element
    keeps the text ``format_element`` gives it, so the claims reuse the
    head's strings."""
    if kind == "improper":
        c = improper_element(g, k)
        if c is None:
            return {"kind": kind, "certificate": None}, [], "none"
        text = format_element(c)
        return ({"kind": kind, "certificate": text}, improper_claims(c),
                f"{text}\nverified: a != 0 and star(a).a = 0")

    a = xs[0]
    lead = ""
    if kind == "regular":
        b = regular_witness(g, k, a)
        pairs, claims = [("inverse", b)], inner_inverse_claims(a, b)
        verified = "a.b.a = a"
    elif kind == "projection":
        try:
            cert = projection_generator(g, k, a)
        except NotStarRegularError as exc:
            kind, lead = "not_star_regular", "not *-regular; "
            pairs = [("certificate", exc.certificate)]
            claims = improper_claims(exc.certificate)
            verified = "c != 0 and star(c).c = 0"
        else:
            pairs = [("projection", cert.p), ("factor", cert.factor)]
            claims = projection_claims(a, cert)
            verified = "p* = p = p.p, p.a = a, a.factor = p"
    else:
        cert = unit_regular_witness(g, k, a)
        pairs = [("u", cert.u), ("u_prime", cert.u_prime), ("v", cert.v)]
        claims = unit_regular_claims(a, cert)
        verified = "u.u' = v = u'.u, v.a = a.v = a, a.u.a = a"
    head = {"kind": kind, "input": format_element(a)}
    head.update((key, format_element(x)) for key, x in pairs)
    lines = [f"{key}: {head[key]}" for key, _ in pairs]
    return head, claims, lead + "\n".join(lines + [f"verified: {verified}"])


def _check_mu_digits(g) -> None:
    """Refuse a graph with a finite path count of more than
    ``MAX_MU_DIGITS`` digits, before anything is printed. A count below
    2 ** (3 * MAX_MU_DIGITS) is below 10 ** MAX_MU_DIGITS, so only a larger
    one is compared in full."""
    index = g.index
    mu = index.mu
    if index.acyclic:
        top = index.sigma
    else:
        counts = mu.values()
        top = max(compress(counts, map(isinstance, counts, repeat(int))), default=0)
    if top.bit_length() <= 3 * MAX_MU_DIGITS:
        return
    bound = 10 ** MAX_MU_DIGITS
    if top < bound:
        return
    v = next(v for v in g.vertices if is_finite(mu[v]) and mu[v] >= bound)
    raise GraphError(f"mu({v}) has more than MAX_MU_DIGITS = {MAX_MU_DIGITS} digits")


def _construct(kind: str, params: list):
    if kind in ("line", "rose", "toeplitz"):
        if len(params) > 1:
            raise ParseError(f"construct {kind} takes at most one size")
        n = _positive_int(params[0], "size") if params else 1
        _check_construct_size(kind, n)
        return standard_graph(kind, n)
    if kind == "mn":
        if len(params) != 2:
            raise ParseError("construct mn needs GRAPH N")
        base = _load_graph(params[0])
        n = _positive_int(params[1], "N")
        _check_construct_size(kind, n * len(base.vertices))
        return m_n_graph(base, n)
    if len(params) < 2:
        raise ParseError("construct ef needs GRAPH EDGE[,EDGE...]")
    base = _load_graph(params[0])
    f_ids = [e for chunk in params[1:] for e in chunk.split(",") if e]
    _check_construct_size(kind, e_f_edge_count(base, f_ids))
    return e_f_graph(base, f_ids)


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


_CONTAINERS = (dict, list, tuple)
# the exact types the C encoder writes as one JSON scalar; a container that
# holds a value of any other type, a subclass of one of these included, is
# walked
_SCALARS = frozenset({str, int, float, bool, type(None)})
_STR = frozenset({str})
# most items (or edges) written by one encoder call or one join, so neither
# holds a list of pieces for more than one batch
_BATCH = 4096


@functools.cache
def _indent(level: int) -> tuple:
    """The C encoder, the item pad, the item separator and the closing pad
    of a container at indent ``level``. The encoder writes a container that
    holds no other container in one call, its items joined by the
    separator (a comma, a newline and the next level's indent)."""
    inner = "\n" + "  " * (level + 1)
    return (c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                           None, ": ", "," + inner, False, False, True),
            inner, "," + inner, "\n" + "  " * level)


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, as one ``"".join`` over
    the flat list of pieces that ``_pieces`` gives, where an
    ``_EdgeColumns`` is written as its list of edge dicts. With an indent
    the stdlib encodes in pure Python, one generator per value; here the
    work is done by C-level calls and passes."""
    if c_make_encoder is None:  # no _json accelerator
        return json.dumps(obj, indent=2,
                          default=lambda edges: graph_to_json(edges.graph)["edges"])
    return "".join(_pieces(obj, 0))


def _pieces(obj, level: int) -> list:
    """The text of ``obj`` at indent ``level``, as a list of strings.

    An ``_EdgeColumns`` is written from its columns by ``_edge_pieces``. A
    scalar or an empty container is one call of the C encoder. A container
    whose values all have an exact type in ``_SCALARS`` (one C-level test)
    is one encoder call per batch of ``_BATCH`` items, each text cut once
    to drop its brackets; the batches are joined by the item separator
    between the item pad after the opening bracket and the closing pad
    before the closing one. Any other container (one that holds a
    container, or a subclass such as an ``IntEnum``, a ``NamedTuple`` or an
    ``OrderedDict``) is walked: its brackets, pads, keys and separators and
    the pieces of each value go into one flat list, so the document's text
    is copied once, by the final join."""
    if type(obj) is _EdgeColumns:
        return _edge_pieces(obj, level)
    encode, inner, sep, outer = _indent(level)
    if not isinstance(obj, _CONTAINERS) or not obj:
        return encode(obj, 0)
    is_dict = isinstance(obj, dict)
    values = obj.values() if is_dict else obj
    parts = ["{" if is_dict else "[", inner]
    if _SCALARS.issuperset(map(type, values)):
        if len(obj) <= _BATCH:
            batches = (obj,)
        else:
            make, items = (dict, iter(obj.items())) if is_dict else (list, iter(obj))
            batches = iter(lambda: make(islice(items, _BATCH)), make())
        for batch in batches:
            parts += "".join(encode(batch, 0))[1:-1], sep
    else:
        for key, value in zip(_key_texts(obj, encode) if is_dict else repeat(None), values):
            if key is not None:
                parts += key, ": "
            # a scalar of an exact type is written in place, anything else
            # at the next level
            if type(value) is str:
                parts.append(encode_basestring_ascii(value))
            elif type(value) in _SCALARS:
                parts += encode(value, 0)
            else:
                parts += _pieces(value, level + 1)
            parts.append(sep)
    parts[-1] = outer  # in place of the last separator
    parts.append("}" if is_dict else "]")
    return parts


def _edge_pieces(edges: _EdgeColumns, level: int) -> list:
    """The text of ``edges`` at indent ``level``: per batch of ``_BATCH``
    edges, one join over a list that holds, per edge, the text that opens
    its object, its id, the text before its source, its source, the text
    before its range and its range. The list starts as the opening text
    repeated and five slice assignments fill in the rest, the three columns
    through the C string encoder."""
    g = edges.graph
    ids, srcs, dsts = g.ids, g.srcs, g.dsts
    n = len(ids)
    if not n:
        return ["[]"]
    _, inner, sep, outer = _indent(level)
    _, pad, item_sep, close = _indent(level + 1)
    head = "{" + pad + '"id": '
    src, dst, between = item_sep + '"src": ', item_sep + '"dst": ', close + "}" + sep + head
    parts = []
    for lo in range(0, n, _BATCH):
        hi = min(lo + _BATCH, n)
        k = hi - lo
        batch = [between] * (6 * k)
        batch[1::6] = map(encode_basestring_ascii, ids[lo:hi])
        batch[2::6] = [src] * k
        batch[3::6] = map(encode_basestring_ascii, srcs[lo:hi])
        batch[4::6] = [dst] * k
        batch[5::6] = map(encode_basestring_ascii, dsts[lo:hi])
        if not lo:
            batch[0] = "[" + inner + head
        parts.append("".join(batch))
    parts.append(close + "}" + outer + "]")
    return parts


def _key_texts(keys, encode):
    """The JSON text of each of ``keys``; a key that is not a string is
    spelled as the C encoder spells it."""
    if _STR.issuperset(map(type, keys)):
        return map(encode_basestring_ascii, keys)
    return ["".join(encode({key: 0}, 0))[1:-4] for key in keys]


def main(argv=None) -> int:
    try:
        args = _read_args(sys.argv[1:] if argv is None else list(argv))
        if args.help is not None:
            print(args.help, flush=True)
            return 0
        exprs = _expressions(args)
        g = _load_graph(args.graph) if args.graph is not None else None
        k = parse_field_spec(args.field) if args.field is not None else None
        result, to_json, to_text = _run(args, g, k, [parse_element(e, g, k) for e in exprs])
        # flushed here, so that a reader that went away is reported below
        # and not at interpreter exit
        print(_json_text(to_json(result)) if args.as_json else to_text(result), flush=True)
    except (ParseError, GraphError, FieldError, AlgebraError, ShapeError,
            AssertionError, ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # what stdout still buffers goes to devnull at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if args.command == "decide" and result.proper_algebra == UNKNOWN else 0


if __name__ == "__main__":
    sys.exit(main())
