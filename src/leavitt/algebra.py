"""Path algebra elements subject to the Cuntz-Krieger relations.

An element is a finite linear combination of monomials p.q* where p and q
are paths with a common range. Equality is decidable because every element
is kept in a canonical normal form: at each non-sink vertex the
lexicographically greatest outgoing edge is *special*, and a monomial whose
two paths end in the same special edge f is rewritten with the vertex
relation solved for f,

    f f*  ->  s(f) - sum of e e* over the other edges e leaving s(f).

The rewrite only ever fires at the last edge pair, the replacement monomials
either shrink by two or end in a non-special edge, so normalization
terminates; the surviving monomials form the standard linear basis, which is
what makes structural equality sound. At a vertex with one out-edge f the
sum is empty and f f* -> s(f), so a run of such single-exit edges common to
the ends of both paths is stripped in one step.

Coefficients are stored as raw field payloads (``Field._add`` and friends
act on them), never as an exact zero, so the arithmetic below builds no
``FieldValue``. Values of the field appear only at the public views:
``from_terms`` accepts ints and ``FieldValue``s and unwraps them once, and
``items``, ``coefficient`` and ``format_element`` wrap payloads on the way
out.

Normalization is one filing step (``_file``): a term whose two paths do
not end in the same special edge is already normal and goes straight into
the result; only the others go through the CK2 worklist. Every payload it
is given is nonzero, and only a sum can vanish. Outside coefficients enter
through two doors, ``from_terms`` and the expression parser of
``leavitt.io``, and each drops its zero coefficients itself; products
(nonzero payloads multiply to nonzero ones in a field) and payload rows
never hold a zero. The product rule is stated once, in the kernel
``_product``, which files each term as it forms it; its two callers are
``Element.__mul__`` and the expression parser; a zero operand returns at
once. Every element is built through one door, ``_make``. Operands that
share their graph and field objects are not compared; others go through
``_check_operands``, which compares by equality.
"""

from __future__ import annotations

import functools
from collections import deque
from itertools import chain

from .fields import Field, FieldError, FieldMismatchError, FieldValue
from .graphs import Graph, GraphError, Path, is_path, path_range


# Path(base, edges) without the Python-level NamedTuple.__new__ frame
_path = functools.partial(tuple.__new__, Path)
_new = object.__new__


class AlgebraError(ValueError):
    """Monomial/graph mismatch or incompatible operands."""


def special_edges(g: Graph) -> dict:
    """The designated (greatest-id outgoing) edge at each non-sink vertex."""
    index = g.index
    return {v: index.ids[js[-1]] for v, js in zip(index.order, index.outs) if js}


def _term_key(term):
    """The canonical order of (monomial p q*, payload) terms: total length,
    then p's edges and base, then q's edges and base. One flat tuple per
    term; ``Element.items`` and the printer sort by it."""
    ((p_base, p_edges), (q_base, q_edges)), _ = term
    return (len(p_edges) + len(q_edges), p_edges, p_base, q_edges, q_base)


def _normalize_terms(g: Graph, field: Field, raw, schedule: str = "lifo") -> dict:
    """File a raw (payload, p, q) stream into normal-form monomial -> payload.

    Every payload passed in is nonzero (the rewrite's negation keeps it so);
    no returned payload is zero, which is the rule every ``Element._terms``
    keeps. ``schedule`` picks the worklist order (lifo or fifo); both reach
    the same normal form, which the test suite checks as a confluence
    surrogate.
    """
    return _file(g.index, field, raw, {}, False, deque(), schedule)


def _file(index, field: Field, raw, acc: dict, summed: bool, work: deque,
          schedule: str = "lifo") -> dict:
    """The filing step, shared by ``_normalize_terms`` and ``_product``:
    sum each term of ``raw``, then each CK2 rewrite of ``work``, into
    ``acc``, and return it without its zero sums.

    A term whose p and q do not end in the same special edge is filed
    straight into ``acc``; the others join ``work``, whose rewrites are
    filed the same way. Only a sum can vanish, so the sums are tested for
    zero only when two terms met on one monomial: here, or before the call
    when ``summed`` is true.
    """
    special = None  # read only if some p and q end in the same edge
    add = field._add
    get = acc.get
    for t in chain(raw, _ck2_rewrites(index, field, work, schedule)):
        c, p, q = t
        pe, qe = p.edges, q.edges
        if pe and qe and pe[-1] == qe[-1]:
            if special is None:
                special = index.special_ids
            if pe[-1] in special:
                work.append(t)
                continue
        key = (p, q)
        prev = get(key)
        if prev is None:
            acc[key] = c
        else:
            acc[key] = add(prev, c)
            summed = True
    return _nonzero(field, acc) if summed else acc


def _nonzero(field: Field, acc: dict) -> dict:
    """``acc`` without its zero sums."""
    is_zero = field._is_zero
    return {m: c for m, c in acc.items() if not is_zero(c)}


def _product(g: Graph, field: Field, left: dict, right: dict) -> dict:
    """The normal form of (sum of c1 p1 q1*)(sum of c2 p2 q2*) for two
    monomial -> payload maps, each term filed as it is formed.

    The one statement of the product rule: by CK1, (p1 q1*)(p2 q2*) is
    p1.gamma q2* when p2 = q1.gamma, p1 (q2.gamma)* when q1 = p2.gamma, and
    0 otherwise. Only the right monomials whose p2 starts at the base of q1
    can survive, so the right operand is grouped by that vertex.

    Whether a term needs the CK2 rewrite depends only on its last two
    edges, and a proper extension keeps those of one operand monomial:
    p1.gamma q2* ends like p2 and q2, and p1 (q2.gamma)* ends like p1 and
    q1. So each monomial is flagged once, when its p and q end in the same
    special edge, and an extension term of a flagged monomial goes to the
    CK2 worklist; only an exact match q1 = p2 makes a new pair of last
    edges, p1's and q2's, which is tested. Everything else is summed here,
    as ``_file`` sums, since this loop is the hot path; the worklist goes
    to ``_file``. The flags hold for any map, normal or not: a normal
    operand has no flagged monomial, but ``semisimple.sink_normal_form``
    returns one that may.

    Nothing is set up before a term can pair: an empty operand returns at
    once, and the index and the worklist are read only when a term needs them.
    """
    if not left or not right:
        return {}
    special = None  # read only if some p and q end in the same edge
    by_base: dict = {}
    for (p2, q2), c2 in right.items():
        pe, qe = p2.edges, q2.edges
        last2 = qe[-1] if qe else None
        flag2 = False
        if pe and pe[-1] == last2:
            if special is None:
                special = g.index.special_ids
            flag2 = last2 in special
        entry = (pe, len(pe), q2, c2, flag2, last2)
        group = by_base.get(p2.base)
        if group is None:
            by_base[p2.base] = [entry]
        else:
            group.append(entry)
    mul, add = field._mul, field._add
    acc: dict = {}
    get = acc.get
    work = None
    summed = False
    for (p1, q1), c1 in left.items():
        group = by_base.get(q1.base)
        if group is None:
            continue
        pe1, qe = p1.edges, q1.edges
        n = len(qe)
        last1 = pe1[-1] if pe1 else None
        flag1 = False
        if qe and qe[-1] == last1:
            if special is None:
                special = g.index.special_ids
            flag1 = last1 in special
        for pe, m, q2, c2, flag2, last2 in group:
            if m > n:
                if pe[:n] != qe:
                    continue
                # p2 = q1.gamma: p1.gamma q2*, which ends like p2 and q2
                p, q, ck2 = _path((p1.base, pe1 + pe[n:])), q2, flag2
            elif m == n:
                if pe != qe:
                    continue
                # q1 = p2: p1 q2*, a new pair of last edges
                p, q, ck2 = p1, q2, False
                if last1 is not None and last1 == last2:
                    if special is None:
                        special = g.index.special_ids
                    ck2 = last1 in special
            else:
                if qe[:m] != pe:
                    continue
                # q1 = p2.gamma: p1 (q2.gamma)*, which ends like p1 and q1
                p, q, ck2 = p1, _path((q2.base, q2.edges + qe[m:])), flag1
            c = mul(c1, c2)
            if ck2:
                if work is None:
                    work = deque()
                work.append((c, p, q))
                continue
            key = (p, q)
            prev = get(key)
            if prev is None:
                acc[key] = c
            else:
                acc[key] = add(prev, c)
                summed = True
    if work is not None:
        return _file(g.index, field, (), acc, summed, work)
    return _nonzero(field, acc) if summed else acc


def _ck2_rewrites(index, field: Field, work: deque, schedule: str):
    """Rewrite the terms of ``work``, each p.q* with p and q ending in the
    same special edge f, by f f* -> s(f) - (the other e e* leaving s(f)),
    and yield the results for filing; the filer pushes back any that still
    end in a special edge. Starts once the raw stream is filed, and reads
    no table when there is nothing to rewrite.

    A single-exit f (the only edge leaving s(f)) has no other e, so f f*
    is s(f): such a term loses f and every further common last edge that
    is single-exit too, one slice per path, and yields one term."""
    if not work:
        return
    ids, edge_pos, src, outs = index.ids, index.edge_pos, index.src, index.outs
    neg = field._neg
    pop = work.pop if schedule == "lifo" else work.popleft
    while work:
        c, p, q = pop()
        pe, qe = p.edges, q.edges
        exits = outs[src[edge_pos[pe[-1]]]]
        if len(exits) == 1:
            k, n = 2, min(len(pe), len(qe))
            while k <= n and pe[-k] == qe[-k] and len(outs[src[edge_pos[pe[-k]]]]) == 1:
                k += 1
            yield (c, _path((p.base, pe[:1 - k])), _path((q.base, qe[:1 - k])))
            continue
        f = pe[-1]
        p0, q0 = _path((p.base, pe[:-1])), _path((q.base, qe[:-1]))
        minus = neg(c)
        for j in exits:
            e = ids[j]
            if e != f:
                yield (minus, _path((p0.base, p0.edges + (e,))),
                       _path((q0.base, q0.edges + (e,))))
        yield (c, p0, q0)


def _check_monomial(g: Graph, p: Path, q: Path):
    if not (is_path(g, p) and is_path(g, q)):
        raise AlgebraError(f"monomial/graph mismatch: {p}, {q}")
    if path_range(g, p) != path_range(g, q):
        raise AlgebraError(f"paths have different ranges: {p}, {q}")


def _check_operands(graph: Graph, field: Field, other_graph: Graph, other_field: Field,
                    what: str):
    """The one operand rule: the same graph and the same field, each tested
    by identity first, then by equality; ``what`` names the operands."""
    if graph is not other_graph and graph != other_graph:
        raise AlgebraError(f"{what} live over different graphs")
    if field is not other_field and field != other_field:
        raise FieldMismatchError(f"{what} live over different fields")


def _edge_monomial(g: Graph, eid: str) -> tuple[Path, Path]:
    """(e, r(e)), the monomial of edge e, read off the columns."""
    j = g.index.edge_pos.get(eid)
    if j is None:
        raise GraphError(f"unknown edge {eid}")
    return Path(g.srcs[j], (eid,)), Path(g.dsts[j], ())


class Element:
    """An immutable element of the algebra of a fixed graph over a field.

    Supports +, -, * (both by elements and by coefficients), ``star`` for
    the involution, and structural equality of normal forms. ``_text``, the
    printed form, is set by the first ``format_element`` call and is not
    part of equality or the hash. Calling ``Element`` raises: build one with
    the static constructors, or inside the package with ``_make``.
    """

    __slots__ = ("graph", "field", "_terms", "_text")

    def __init__(self, *args, **kwargs):
        raise TypeError("use the Element constructors (zero, vertex, from_terms, ...)")

    # --- constructors ---------------------------------------------------

    @staticmethod
    def from_terms(graph, field, raw, schedule: str = "lifo") -> "Element":
        """Normalize a raw combination of (coeff, p, q) triples.

        Coefficients may be ints or FieldValues of the right field.
        """
        cooked = []
        is_zero = field._is_zero
        for c, p, q in raw:
            x = field._payload(c)
            if x is None:
                raise FieldMismatchError(f"coefficient {c!r} is not in {field.spec_string()}")
            _check_monomial(graph, p, q)
            if not is_zero(x):
                cooked.append((x, p, q))
        return _make(graph, field, _normalize_terms(graph, field, cooked, schedule))

    @staticmethod
    def zero(graph, field) -> "Element":
        return _make(graph, field, {})

    @staticmethod
    def vertex(graph, field, v: str) -> "Element":
        if v not in graph.index.pos:
            raise GraphError(f"unknown vertex {v}")
        t = Path(v, ())
        return _make(graph, field, {(t, t): field._from_int(1)})

    @staticmethod
    def edge(graph, field, eid: str) -> "Element":
        p, q = _edge_monomial(graph, eid)
        return _make(graph, field, {(p, q): field._from_int(1)})

    @staticmethod
    def ghost(graph, field, eid: str) -> "Element":
        p, q = _edge_monomial(graph, eid)
        return _make(graph, field, {(q, p): field._from_int(1)})

    @staticmethod
    def one(graph, field) -> "Element":
        """The identity of a finite graph algebra: the sum of all vertices."""
        one = field._from_int(1)
        terms = {(Path(v, ()), Path(v, ())): one for v in graph.index.order}
        return _make(graph, field, terms)

    # --- views -----------------------------------------------------------

    def items(self):
        """(monomial, FieldValue) pairs in the canonical order: total
        length, then both paths."""
        field = self.field
        return [(m, FieldValue(field, c)) for m, c in self._sorted_terms()]

    def _sorted_terms(self):
        return sorted(self._terms.items(), key=_term_key)

    def coefficient(self, p: Path, q: Path):
        c = self._terms.get((p, q))
        return self.field.zero if c is None else FieldValue(self.field, c)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    # --- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        g, field = self.graph, self.field
        if other.graph is not g or other.field is not field:
            _check_operands(g, field, other.graph, other.field, "elements")
        add, is_zero = field._add, field._is_zero
        terms = dict(self._terms)
        for m, c in other._terms.items():
            prev = terms.get(m)
            if prev is None:
                terms[m] = c
                continue
            total = add(prev, c)
            if is_zero(total):
                del terms[m]
            else:
                terms[m] = total
        return _make(g, field, terms)

    def __neg__(self):
        neg = self.field._neg
        return _make(self.graph, self.field, {m: neg(c) for m, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "Element":
        field = self.field
        c = field._scalar(c, "an element")
        if field._is_zero(c):
            return Element.zero(self.graph, field)
        mul = field._mul
        return _make(self.graph, field, {m: mul(c, v) for m, v in self._terms.items()})

    def __mul__(self, other):
        if type(other) is not Element:
            if isinstance(other, (FieldValue, int)):
                return self.scale(other)
            if not isinstance(other, Element):
                return NotImplemented
        g, field = self.graph, self.field
        if other.graph is not g or other.field is not field:
            _check_operands(g, field, other.graph, other.field, "elements")
        return _make(g, field, _product(g, field, self._terms, other._terms))

    def __rmul__(self, other):
        if isinstance(other, (FieldValue, int)):
            return self.scale(other)
        return NotImplemented

    def star(self) -> "Element":
        """The induced involution: sum of k p q* goes to conj(k) q p*."""
        conj = self.field._conj
        terms = {(q, p): conj(c) for (p, q), c in self._terms.items()}
        return _make(self.graph, self.field, terms)

    # --- comparison -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return ((self.graph is other.graph or self.graph == other.graph)
                and (self.field is other.field or self.field == other.field)
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.graph, self.field, frozenset(self._terms.items())))

    def __repr__(self):
        return format_element(self)

    __str__ = __repr__


def _make(graph: Graph, field: Field, terms: dict) -> Element:
    """The one door: an element holding ``terms``, a normal form, as given."""
    x = _new(Element)
    x.graph, x.field, x._terms = graph, field, terms
    return x


def normalize(graph, field, raw, schedule: str = "lifo") -> Element:
    """Public face of the rewriting pass; see Element.from_terms."""
    return Element.from_terms(graph, field, raw, schedule)


def mul(x: Element, y: Element) -> Element:
    return x * y


def star(x: Element) -> Element:
    return x.star()


def eq(x: Element, y: Element) -> bool:
    _check_operands(x.graph, x.field, y.graph, y.field, "elements")
    return x == y


def linear_combine(terms) -> Element:
    """Sum of coefficient * element pairs; the list must be non-empty."""
    terms = list(terms)
    if not terms:
        raise AlgebraError("linear_combine needs at least one term")
    total = None
    for c, x in terms:
        part = x.scale(c)
        total = part if total is None else total + part
    return total


def local_unit(x: Element) -> Element:
    """The sum of the distinct vertices supporting x; acts as identity on x."""
    support = {p.base for (p, q) in x._terms} | {q.base for (p, q) in x._terms}
    one = x.field._from_int(1)
    terms = {}
    for v in x.graph.vertices:
        if v in support:
            t = Path(v, ())
            terms[(t, t)] = one
    return _make(x.graph, x.field, terms)


# ---------------------------------------------------------------------------
# printing (the expression grammar; parsing lives in leavitt.io)


def _float_sign(literal: str) -> bool:
    # Safe to move a leading '-' out of the coefficient only if the rest of
    # the literal has no further additive structure.
    return literal.startswith("-") and not any(ch in "+-" for ch in literal[1:])


def _reads_as_coefficient(field: Field, mono: str) -> bool:
    """True when the parser would read mono alone, or mono followed by "*",
    as a coefficient: a whole field literal such as vertex "1" over Q or
    edge "i" over Q[i]. Such a monomial needs an explicit "1*" before it."""
    try:
        scanned = field.scan_literal(mono, 0)
    except FieldError:
        return False
    return scanned is not None and mono[scanned[1]:scanned[1] + 1] in ("", "*")


def format_element(x: Element) -> str:
    """x in the expression grammar.

    Terms print in ``_term_key``'s order, each in one pass. A coefficient
    of 1 is found by a payload compare (payloads are canonical) and left
    out unless the monomial would then read as a coefficient; a later
    term's leading '-' becomes the joiner when the rest has no sign.

    The text is formatted once per element and kept on it, so printing the
    same object again (a certificate in its payload and in its claims) costs
    an attribute read. It cannot go stale: only ``_make`` assigns
    ``_terms``. Two threads that race both store the same string.
    """
    try:
        return x._text
    except AttributeError:
        pass
    x._text = text = _format_terms(x)
    return text


def _format_terms(x: Element) -> str:
    field = x.field
    one = field._from_int(1)
    out = []
    for idx, (((base, p_edges), (_, q_edges)), c) in enumerate(x._sorted_terms()):
        # p's edges, then q's reversed as ghosts: e1.e2.e3*.e2*
        mono = ".".join(p_edges) or base
        if q_edges:
            ghosts = "*.".join(q_edges[::-1]) + "*"
            mono = mono + "." + ghosts if p_edges else ghosts
        lit = "1" if c == one else field.literal(c)
        joiner = " + " if idx else ""
        if idx and lit[0] == "-" and _float_sign(lit):
            lit = lit[1:]
            joiner = " - "
        if lit == "1" and not _reads_as_coefficient(field, mono):
            out.append(joiner + mono)
        else:
            out.append(f"{joiner}{lit}*{mono}")
    return "".join(out) or "0"
