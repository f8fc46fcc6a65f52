"""Per-layer tracing by rebinding names in the ``leavitt`` modules.

Nothing in the library is edited. ``Tracer.install`` replaces each traced
function in every ``leavitt`` module that binds it (the defining module too,
so calls through module globals are seen) and each traced method on its
class, and ``uninstall`` puts every original object back. Spans are kept in
memory as ``(name, start, end, parent)`` and written out at the end of the
run; counters are bumped at the same boundaries. A run that measures
end-to-end numbers never imports this module.
"""

from __future__ import annotations

import json
import sys
import time

from leavitt import algebra, fields, graphs, io, linalg, semisimple, witness
from leavitt import cli, decide

MARK = "__bench_wrapper__"


def _zero_factor_products(a, b) -> int:
    """Scalar products of a dense a*b with at least one zero factor."""
    m, n = len(a), len(b[0]) if b else 0
    total = 0
    for t, row in enumerate(b):
        zero_a = sum(1 for r in a if not r[t])
        zero_b = sum(1 for x in row if not x)
        total += zero_a * n + m * zero_b - zero_a * zero_b
    return total


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.stack = []          # indices of open spans
        self.counts = {}
        self.active = False      # spans and counts only while an op runs
        self.patched = []        # (owner, attr, original object)

    # --- recording -------------------------------------------------------

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def parent_name(self):
        """Name of the span that opened the innermost open span."""
        parent = self.spans[self.stack[-1]][3] if self.stack else -1
        return self.spans[parent][0] if parent >= 0 else None

    def span(self, name, fn, before=None, after=None):
        tracer = self

        # Hooks run inside the span, so what counting costs is billed to
        # the layer whose work is counted, not to its caller's self time.
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            record = [name, start, start, parent]
            tracer.spans.append(record)
            tracer.stack.append(index)
            try:
                if before is not None:
                    before(tracer, *args)
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, result, *args)
            finally:
                tracer.stack.pop()
                record[2] = time.perf_counter()
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def counter(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[key] = tracer.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        return wrapper

    # --- installing --------------------------------------------------------

    def _set(self, owner, attr, new):
        self.patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def rebind(self, fn, wrapper, modules=None):
        """Point every leavitt module name bound to ``fn`` at ``wrapper``."""
        for mod in modules or _leavitt_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def install(self):
        span, rebind = self.span, self.rebind

        rebind(cli.main, span("cli.main", cli.main))
        rebind(io.parse_graph_any, span("io.parse_graph", io.parse_graph_any))
        rebind(io.parse_element, span("io.parse_element", io.parse_element))
        rebind(io.verify_claims, span(
            "io.verify_claims", io.verify_claims,
            before=lambda t, g, k, claims: t.count("io.claims_checked", len(claims))))
        for fn in (algebra.format_element, io.report_to_json, io.matrix_image_to_json,
                   io.graph_to_json, io.claim_product_equals, io.claim_star_fixed,
                   io.claim_star_product_zero, io.claim_nonzero):
            rebind(fn, span("io.format", fn))

        rebind(decide.full_report, span("decide.full_report", decide.full_report))

        for name, fn in (("regular", witness.regular_witness),
                         ("unit", witness.unit_regular_witness),
                         ("projection", witness.projection_generator),
                         ("improper", witness.improper_element)):
            rebind(fn, span(f"witness.{name}", fn))
        for fn in (witness.verify_inner_inverse, witness.verify_projection,
                   witness.verify_improper, witness.verify_unit_regular):
            rebind(fn, span("witness.verify", fn))

        rebind(semisimple.phi, span(
            "semisimple.phi", semisimple.phi,
            after=lambda t, image, x: t.count(
                "semisimple.block_entries", sum(len(b) ** 2 for b in image.blocks.values()))))
        rebind(semisimple.phi_inv, span("semisimple.phi_inv", semisimple.phi_inv))
        rebind(semisimple.sink_basis, span("semisimple.sink_basis", semisimple.sink_basis))

        def factorization(t, field, a, *rest):
            t.count("linalg.rank_factorization_calls")
            t.count("linalg.factorized_entries", len(a) * (len(a[0]) if a else 0))

        def mat_mul(t, a, b):
            t.count("linalg.mat_mul_mults", len(a) * len(b) * (len(b[0]) if b else 0))
            t.count("linalg.mat_mul_zero_mults", _zero_factor_products(a, b))

        rebind(linalg.rank_factorization, span(
            "linalg.rank_factorization", linalg.rank_factorization, before=factorization))
        rebind(linalg.mat_mul, span("linalg.mat_mul", linalg.mat_mul, before=mat_mul))
        rebind(linalg.solve_linear, span("linalg.solve_linear", linalg.solve_linear))

        def mul_before(t, x, y):
            if isinstance(y, algebra.Element):
                t.count("algebra.mul_calls")
                t.count("algebra.monomial_pairs", len(x) * len(y))

        def mul_after(t, result, x, y):
            if isinstance(y, algebra.Element):
                t.count("algebra.mul_terms_out", len(result))

        Element = algebra.Element
        self._set(Element, "__mul__", span("algebra.mul", Element.__mul__,
                                           before=mul_before, after=mul_after))
        from_terms = Element.__dict__["from_terms"].__func__
        self._set(Element, "from_terms", staticmethod(span("algebra.from_terms", from_terms)))
        for fn in (graphs.edge_by_id, graphs.vertex_set, algebra.special_edges):
            rebind(fn, span("graphs.lookup", fn,
                            before=lambda t, *a: t.count("graphs.lookup_calls")),
                   modules=[algebra])

        rebind(graphs.mu_table, span("graphs.mu_table", graphs.mu_table))
        rebind(graphs.is_acyclic, span("graphs.is_acyclic", graphs.is_acyclic))

        def paths_after(t, paths, g, v):
            t.count("graphs.paths_enumerated", len(paths))
            if t.parent_name() == "witness.improper":
                t.count("witness.improper_paths_returned", len(paths))

        rebind(graphs.enumerate_paths_to, span(
            "graphs.enumerate_paths", graphs.enumerate_paths_to, after=paths_after))

        def tuple_before(t, field, n):
            if t.parent_name() == "witness.improper":
                t.count("witness.improper_paths_used", n)

        for cls in (fields.Rationals, fields.GaussianRationals, fields.PrimeField,
                    fields.QuadraticExtField):
            self._set(cls, "improper_tuple", span(
                "fields.improper_tuple", cls.__dict__["improper_tuple"], before=tuple_before))
        for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__neg__", "inv", "conj"):
            self._set(fields.FieldValue, attr,
                      self.counter("fields.value_ops", fields.FieldValue.__dict__[attr]))
        self._set(fields.Field, "__eq__",
                  self.counter("fields.field_eq_calls", fields.Field.__dict__["__eq__"]))

    def uninstall(self) -> bool:
        """Put every original object back. True when each patched name is
        bound to its original again and no wrapper is left anywhere."""
        patched, self.patched = self.patched, []
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        return (all(owner.__dict__[attr] is original for owner, attr, original in patched)
                and not leftover_wrappers())

    # --- reading -----------------------------------------------------------

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")

    def layer_metrics(self) -> dict:
        """Inclusive time per span name (nested same-name spans counted
        once), self time (duration minus the time child spans cover), and
        the counters, named as in BENCHMARK.json."""
        inclusive, own = {}, {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            own[name] = own.get(name, 0.0) + (end - start) - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] = inclusive.get(name, 0.0) + end - start
        c = self.counts.get

        def ratio(num, den):
            return c(num, 0) / c(den) if c(den) else 0.0

        seconds = {
            "cli.main_s": inclusive.get("cli.main", 0.0),
            "io.parse_graph_s": inclusive.get("io.parse_graph", 0.0),
            "io.parse_element_s": inclusive.get("io.parse_element", 0.0),
            "io.verify_claims_s": inclusive.get("io.verify_claims", 0.0),
            "io.format_s": inclusive.get("io.format", 0.0),
            "decide.full_report_s": own.get("decide.full_report", 0.0),
            "witness.regular_s": own.get("witness.regular", 0.0),
            "witness.unit_s": own.get("witness.unit", 0.0),
            "witness.projection_s": own.get("witness.projection", 0.0),
            "witness.improper_s": own.get("witness.improper", 0.0),
            "witness.verify_s": inclusive.get("witness.verify", 0.0),
            "semisimple.phi_s": inclusive.get("semisimple.phi", 0.0),
            "semisimple.phi_inv_s": inclusive.get("semisimple.phi_inv", 0.0),
            "semisimple.sink_basis_s": inclusive.get("semisimple.sink_basis", 0.0),
            "linalg.rank_factorization_s": inclusive.get("linalg.rank_factorization", 0.0),
            "linalg.mat_mul_s": inclusive.get("linalg.mat_mul", 0.0),
            "linalg.solve_linear_s": inclusive.get("linalg.solve_linear", 0.0),
            "algebra.mul_s": own.get("algebra.mul", 0.0),
            "algebra.from_terms_s": inclusive.get("algebra.from_terms", 0.0),
            "graphs.lookup_s": inclusive.get("graphs.lookup", 0.0),
            "graphs.mu_table_s": inclusive.get("graphs.mu_table", 0.0),
            "graphs.is_acyclic_s": inclusive.get("graphs.is_acyclic", 0.0),
            "graphs.enumerate_paths_s": inclusive.get("graphs.enumerate_paths", 0.0),
            "fields.improper_tuple_s": inclusive.get("fields.improper_tuple", 0.0),
        }
        metrics = {name: (value, "s") for name, value in seconds.items()}
        for name in ("io.claims_checked", "semisimple.block_entries",
                     "linalg.rank_factorization_calls", "linalg.factorized_entries",
                     "linalg.mat_mul_mults", "algebra.mul_calls", "algebra.monomial_pairs",
                     "graphs.lookup_calls", "graphs.paths_enumerated",
                     "fields.value_ops", "fields.field_eq_calls"):
            metrics[name] = (c(name, 0), "count")
        metrics["witness.improper_paths_used_ratio"] = (
            ratio("witness.improper_paths_used", "witness.improper_paths_returned"), "1")
        metrics["linalg.mat_mul_zero_share"] = (
            ratio("linalg.mat_mul_zero_mults", "linalg.mat_mul_mults"), "1")
        metrics["algebra.mul_yield"] = (
            ratio("algebra.mul_terms_out", "algebra.monomial_pairs"), "1")
        return metrics


def _leavitt_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "leavitt" or name.startswith("leavitt."))]


def leftover_wrappers() -> list:
    """Names in leavitt modules and classes still bound to a wrapper."""
    found = []
    for mod in _leavitt_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    inner = getattr(cvalue, "__func__", cvalue)
                    if getattr(inner, MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found
