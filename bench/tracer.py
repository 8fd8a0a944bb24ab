"""Span recorder for the traced benchmark run.

The tracer wraps public functions and the scalar and ``Element``
operators of every ``qheis`` layer at runtime, from outside the
package.  Each wrapper records one span per call.  Spans are aggregated
in memory per span name: call count, total time, and self time (total
time minus the time covered by child spans).  Aggregating instead of
keeping every span keeps memory flat, because the scalar layer makes
millions of calls per round.

``verify``, ``torsion``, ``liepoly``, ``exprparse`` and ``cli`` import
with ``from .x import y``, so a function lives under several module
bindings.  :func:`install` replaces every binding that holds a wrapped
function, in every loaded ``qheis`` module, and :func:`Tracer.restore`
puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from collections import defaultdict

# Span name -> (module, function) pairs wrapped under that name.
FUNCTION_SPANS = {
    "qscalar.qbinomial": [("qscalar", "q_binomial"), ("qscalar", "q_binomial_lucas")],
    "heisenberg.multiply": [("heisenberg", "multiply")],
    "heisenberg.commutator": [("heisenberg", "commutator")],
    "heisenberg.word_oracle": [
        ("heisenberg", "reduce_word"), ("heisenberg", "reduce_word_rewriting"),
        ("heisenberg", "normal_word_product"), ("heisenberg", "ba_to_cbasis"),
        ("heisenberg", "cbasis_to_free"), ("heisenberg", "free_to_element"),
    ],
    "torsion.fastpath": [("torsion", "multiply_fastpath")],
    "torsion.simplified": [
        ("torsion", "mixed_product_simplified"), ("torsion", "pow_product_identity"),
        ("torsion", "power_product_exact"),
    ],
    "liepoly.closure": [("liepoly", "lie_closure"), ("liepoly", "closure_rows")],
    "liepoly.witness": [("liepoly", "construct_basis_element")],
    "verify.lemma2": [("verify", "verify_no_N_leakage")],
    "verify.lemma3": [("verify", "verify_lemma3")],
    "verify.lemma4": [("verify", "verify_derived_algebra")],
    "verify.torsion-paths": [("verify", "verify_torsion_paths")],
    "verify.oracle": [("verify", "verify_oracle")],
    "exprparse.parse": [("exprparse", "parse_expression")],
    "exprparse.elaborate": [("exprparse", "elaborate")],
    "cli.main": [("cli", "main")],
}

# Span name -> (module, class, method) triples wrapped under that name.
METHOD_SPANS = {
    "qscalar.cyclo_mul": [("qscalar", "CycloScalar", "__mul__")],
    "qscalar.cyclo_inverse": [("qscalar", "CycloScalar", "inverse")],
    "qscalar.cyclo_add": [("qscalar", "CycloScalar", m) for m in ("__add__", "__sub__", "__neg__")],
    "qscalar.generic_mul": [("qscalar", "GenericScalar", "__mul__")],
    "qscalar.generic_add": [("qscalar", "GenericScalar", m) for m in ("__add__", "__sub__", "__neg__")],
    "heisenberg.linear": [("heisenberg", "Element", m) for m in ("__add__", "__sub__", "__neg__", "scale")],
    "heisenberg.word_oracle": [("heisenberg", "FreePoly", m)
                               for m in ("__add__", "__sub__", "__neg__", "__mul__", "scale")],
    "liepoly.rowreduce": [("liepoly", "RowReducer", m) for m in ("reduce", "contains", "rref_rows")],
    "liepoly.contains": [("liepoly", "SubspaceBasis", "contains")],
}

STRUCT_FUNCTIONS = ("struct_c", "struct_d", "scaled_struct_c", "scaled_struct_d")
# The context memo tables that the structure-scalar functions fill.
STRUCT_TABLES = ("_c", "_d", "_scaled_c", "_scaled_d")

VERIFY_SUITES = ("lemma2", "lemma3", "lemma4", "torsion-paths", "oracle")


def _table_entries(ctx, names=None) -> int:
    """Entries in a context's memo tables (all dict-valued slots by default)."""
    total = 0
    for cls in type(ctx).__mro__:
        for slot in getattr(cls, "__slots__", ()):
            if names is not None and slot not in names:
                continue
            table = getattr(ctx, slot, None)
            if isinstance(table, dict):
                total += len(table)
    return total


class Tracer:
    """In-memory span aggregation plus the counters derived at layer boundaries."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.contexts = []
        self._stack = []
        self._struct_depth = 0
        self._restore = []

    def span(self, name, fn, after=None):
        """Wrap fn so each call records a span; after(args, kwargs, result) adds counters."""
        calls, total_s, self_s, stack = self.calls, self.total_s, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- counters read at the boundaries -------------------------------

    def _count_term_pairs(self, args, kwargs, result):
        self.counts["heisenberg.multiply.term_pairs"] += len(args[0].terms) * len(args[1].terms)

    def _count_checks(self, args, kwargs, result):
        reports = result if isinstance(result, list) else [result]
        self.counts["verify.checks"] += sum(r.pairs_checked for r in reports)

    def _count_insert(self, args, kwargs, result):
        self.counts["liepoly.rowreduce.inserts"] += 1
        if result is None:
            self.counts["liepoly.rowreduce.dependent"] += 1

    def _struct_span(self, fn):
        """Structure-scalar span that also counts memo-table growth per outermost call."""
        inner = self.span("qscalar.struct", fn)
        tracer = self

        @functools.wraps(fn)
        def traced(ctx, *args, **kwargs):
            if tracer._struct_depth:
                return inner(ctx, *args, **kwargs)
            before = _table_entries(ctx, STRUCT_TABLES)
            tracer._struct_depth = 1
            try:
                return inner(ctx, *args, **kwargs)
            finally:
                tracer._struct_depth = 0
                tracer.counts["qscalar.struct.entries_added"] += (
                    _table_entries(ctx, STRUCT_TABLES) - before)

        return traced

    def _canon_span(self, init):
        """GenericScalar construction; only non-canonical inputs run the gcd."""
        traced = self.span("qscalar.generic_canon", init)

        @functools.wraps(init)
        def dispatch(self_, num, den, _canonical=False):
            if _canonical:
                return init(self_, num, den, _canonical=True)
            return traced(self_, num, den)

        return dispatch

    def _context_init(self, init):
        contexts = self.contexts

        @functools.wraps(init)
        def registered(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            contexts.append(ctx)

        return registered

    # -- patching -------------------------------------------------------

    def install(self):
        """Wrap every listed function binding and method in the loaded qheis modules."""
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("qheis.")}
        wrappers = {}
        for name, targets in FUNCTION_SPANS.items():
            if name == "heisenberg.multiply":
                after = self._count_term_pairs
            elif name.startswith("verify."):
                after = self._count_checks
            else:
                after = None
            for mod, attr in targets:
                fn = getattr(mods[mod], attr)
                wrappers[id(fn)] = self.span(name, fn, after)
        for attr in STRUCT_FUNCTIONS:
            fn = getattr(mods["qscalar"], attr)
            wrappers[id(fn)] = self._struct_span(fn)
        for mod in [sys.modules["qheis"], *mods.values()]:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

        for name, targets in METHOD_SPANS.items():
            for mod, cls_name, attr in targets:
                cls = getattr(mods[mod], cls_name)
                self._patch(cls, attr, self.span(name, cls.__dict__[attr]))
        reducer = mods["liepoly"].RowReducer
        self._patch(reducer, "insert",
                    self.span("liepoly.rowreduce", reducer.__dict__["insert"], self._count_insert))
        generic = mods["qscalar"].GenericScalar
        self._patch(generic, "__init__", self._canon_span(generic.__dict__["__init__"]))
        context = mods["qscalar"].ScalarContext
        self._patch(context, "__init__", self._context_init(context.__dict__["__init__"]))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metric values, named as in BENCHMARK.json."""
        c, s, t, n = self.calls, self.self_s, self.total_s, self.counts
        struct_calls = c["qscalar.struct"]
        inserts = n["liepoly.rowreduce.inserts"]
        out = {
            "qscalar.cyclo_mul.calls": (c["qscalar.cyclo_mul"], "count"),
            "qscalar.cyclo_mul.self_s": (s["qscalar.cyclo_mul"], "s"),
            "qscalar.cyclo_inverse.calls": (c["qscalar.cyclo_inverse"], "count"),
            "qscalar.cyclo_inverse.self_s": (s["qscalar.cyclo_inverse"], "s"),
            "qscalar.cyclo_add.calls": (c["qscalar.cyclo_add"], "count"),
            "qscalar.cyclo_add.self_s": (s["qscalar.cyclo_add"], "s"),
            "qscalar.generic_canon.calls": (c["qscalar.generic_canon"], "count"),
            "qscalar.generic_canon.self_s": (s["qscalar.generic_canon"], "s"),
            "qscalar.generic_mul.self_s": (s["qscalar.generic_mul"], "s"),
            "qscalar.generic_add.self_s": (s["qscalar.generic_add"], "s"),
            "qscalar.qbinomial.calls": (c["qscalar.qbinomial"], "count"),
            "qscalar.struct.calls": (struct_calls, "count"),
            "qscalar.struct.hit_ratio": (
                1 - n["qscalar.struct.entries_added"] / struct_calls if struct_calls else 0.0,
                "ratio"),
            "qscalar.memo_entries": (sum(_table_entries(ctx) for ctx in self.contexts), "count"),
            "heisenberg.multiply.calls": (c["heisenberg.multiply"], "count"),
            "heisenberg.multiply.term_pairs": (n["heisenberg.multiply.term_pairs"], "count"),
            "heisenberg.multiply.self_s": (s["heisenberg.multiply"], "s"),
            "heisenberg.commutator.calls": (c["heisenberg.commutator"], "count"),
            "heisenberg.linear.self_s": (s["heisenberg.linear"], "s"),
            "heisenberg.word_oracle.self_s": (s["heisenberg.word_oracle"], "s"),
            "torsion.fastpath.self_s": (s["torsion.fastpath"], "s"),
            "torsion.simplified.self_s": (s["torsion.simplified"], "s"),
            "liepoly.rowreduce.inserts": (inserts, "count"),
            "liepoly.rowreduce.dependent_ratio": (
                n["liepoly.rowreduce.dependent"] / inserts if inserts else 0.0, "ratio"),
            "liepoly.rowreduce.self_s": (s["liepoly.rowreduce"], "s"),
            "liepoly.closure.self_s": (s["liepoly.closure"], "s"),
            "liepoly.witness.calls": (c["liepoly.witness"], "count"),
            "liepoly.witness.self_s": (s["liepoly.witness"], "s"),
            "liepoly.contains.self_s": (s["liepoly.contains"], "s"),
            "verify.checks": (n["verify.checks"], "count"),
            "exprparse.parse.self_s": (s["exprparse.parse"], "s"),
            "exprparse.elaborate.self_s": (s["exprparse.elaborate"], "s"),
            "cli.main.self_s": (s["cli.main"], "s"),
        }
        for suite in VERIFY_SUITES:
            out[f"verify.{suite}.wall_s"] = (t[f"verify.{suite}"], "s")
        return out

    def exact_counts(self) -> dict:
        """Every count the trace made; these repeat exactly for the same inputs."""
        out = {f"{name}.calls": v for name, v in self.calls.items()}
        out.update(self.counts)
        out["qscalar.memo_entries"] = sum(_table_entries(ctx) for ctx in self.contexts)
        return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# Self-check: the wrappers reach calls made through every imported binding
# ---------------------------------------------------------------------------

def _selfcheck_phases():
    """(name, job, expected counts) for a tiny fixed job with known span counts.

    Each job builds its own context, so a traced and an untraced run start
    from the same empty memo tables.
    """
    import qheis
    from qheis import cli, heisenberg, qscalar, torsion, verify

    def grid():
        ctx = qscalar.ScalarContext.torsion(3)
        gens = [heisenberg.Element.monomial(ctx, heisenberg.Monomial(0, d)) for d in (-1, 1)]
        return [(x, y) for x in gens for y in gens]

    def products():
        return [qheis.multiply(x, y).to_json_obj() for x, y in grid()]

    def fastpath():
        return [torsion.multiply_fastpath(x, y).to_json_obj() for x, y in grid()]

    def lemma2():
        rep = verify.verify_no_N_leakage(qscalar.ScalarContext.torsion(3), 0, 1)
        return [rep.pairs_checked, rep.violations_total]

    def command():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["--p", "3", "--format", "json", "comm", "--", "A", "B"])
        return [code, out.getvalue()]

    return [
        ("2x2 grid via the package binding", products,
         {"heisenberg.multiply.calls": 4, "heisenberg.multiply.term_pairs": 4}),
        ("2x2 grid via torsion.multiply_fastpath", fastpath,
         {"torsion.fastpath.calls": 4, "heisenberg.multiply.calls": 4}),
        ("lemma2 on k = 0, |d| <= 1", lemma2,
         {"verify.lemma2.calls": 1, "verify.checks": 9, "heisenberg.commutator.calls": 9}),
        ("cli comm A B", command,
         {"cli.main.calls": 1, "exprparse.parse.calls": 2, "heisenberg.commutator.calls": 1}),
    ]


def selfcheck() -> list[str]:
    """Problems found with the tracer; an empty list means it is sound."""
    problems = []
    for name, job, expected in _selfcheck_phases():
        plain = json.dumps(job(), sort_keys=True)
        counts = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                traced = json.dumps(job(), sort_keys=True)
            finally:
                tracer.restore()
            if traced != plain:
                problems.append(f"{name}: traced output differs from untraced output")
            counts.append(tracer.exact_counts())
        if counts[0] != counts[1]:
            problems.append(f"{name}: exact counts differ between two traced runs")
        for key, want in expected.items():
            got = counts[0].get(key, 0)
            if got != want:
                problems.append(f"{name}: {key} = {got}, expected {want}")
    return problems
