"""The three benchmark workloads.

Each workload has a fixed *pool* of operations, generated from a fixed
pool seed, whose exact outputs were recorded once in ``reference.json``
(see ``record.py``).  The run's ``--seed`` only chooses which pool
operations make up each round and in which order, so every output a run
produces has a recorded reference, whatever the seed.

A round is the unit of closed-loop work: its composition is fixed and
only its random draws change, so rounds of different seeds cost about
the same.  The pools are small and a round draws most of each, so that
different seeds share most of their work.  Each operation is timed
around the library call alone; the output digest is computed outside
the timed region.

Library functions are always looked up through their module at call
time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

from qheis import cli, heisenberg, liepoly, qscalar, verify

POOL_SEED = 20190507


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _report_objs(reports) -> list:
    """Canonical report JSON without the wall-clock field."""
    out = []
    for r in reports:
        obj = r.to_json_obj()
        obj.pop("elapsed", None)
        out.append(obj)
    return out


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""

    def pool(self) -> list:
        """Every operation the workload can run, as JSON-able items."""
        raise NotImplementedError

    def new_state(self, pool: list):
        """Fresh contexts and prebuilt inputs for the pool."""
        raise NotImplementedError

    def contexts(self, state) -> list:
        """Contexts the workload keeps across rounds, whose memo tables stay warm."""
        return []

    def round(self, pool: list, rng: random.Random) -> list[int]:
        """Pool indexes of the operations in one round, in run order."""
        raise NotImplementedError

    def call(self, state, index: int, item):
        """Run pool operation `index`; the only code inside the timed region."""
        raise NotImplementedError

    def outcome(self, item, result) -> tuple[str, int, dict]:
        """(output digest, operations it counts as, violation totals)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# torsion-grid: exhaustive verify suites on warm torsion contexts
# ---------------------------------------------------------------------------

class TorsionGrid(Workload):
    """lemma2/3/4, torsion-paths and oracle at p = 3 and p = 5.

    One context per p lives for the whole run, so the memo tables are
    warm after set-up.  The grid suites are seed-independent; each
    round adds oracle runs whose seeds are drawn from a recorded pool.
    Pool items carry their window and oracle arguments, so resizing
    them changes the pool digest and calls for a fresh recording.
    """

    name = "torsion-grid"
    PRIMES = (3, 5)
    WINDOW = 3                     # kmax = dmax of the grids; mmax = nmax of lemma3
    ORACLE_SEEDS = 4               # oracle seeds recorded per p
    ORACLE_PER_ROUND = 3           # oracle runs per p and round
    ORACLE_ARGS = {"pairs": 2, "expmax": 4, "terms": 3}
    GRID_SUITES = ("lemma2", "lemma3", "lemma4", "torsion-paths")

    def pool(self):
        items = [[suite, p, self.WINDOW] for p in self.PRIMES for suite in self.GRID_SUITES]
        items += [["oracle", p, {"seed": s, **self.ORACLE_ARGS}]
                  for p in self.PRIMES for s in range(self.ORACLE_SEEDS)]
        return items

    def new_state(self, pool):
        return {p: qscalar.ScalarContext.torsion(p) for p in self.PRIMES}

    def contexts(self, state):
        return list(state.values())

    def round(self, pool, rng):
        picks = [i for i, it in enumerate(pool) if it[0] != "oracle"]
        for p in self.PRIMES:
            oracle = [i for i, it in enumerate(pool) if it[0] == "oracle" and it[1] == p]
            picks += rng.sample(oracle, self.ORACLE_PER_ROUND)
        rng.shuffle(picks)
        return picks

    def call(self, state, index, item):
        suite, p, arg = item
        ctx = state[p]
        if suite == "lemma2":
            return [verify.verify_no_N_leakage(ctx, arg, arg)]
        if suite == "lemma3":
            return [verify.verify_lemma3(ctx, arg, arg)]
        if suite == "lemma4":
            return [verify.verify_derived_algebra(ctx, arg, arg)]
        if suite == "torsion-paths":
            return verify.verify_torsion_paths(ctx, arg, arg)
        return [verify.verify_oracle(ctx, **arg)]

    def outcome(self, item, result):
        violations = {r.claim: r.violations_total for r in result}
        return digest(_report_objs(result)), sum(r.pairs_checked for r in result), violations


# ---------------------------------------------------------------------------
# generic-queries: one-shot CLI calls in generic mode
# ---------------------------------------------------------------------------

class GenericQueries(Workload):
    """Cold one-shot ``qheis.cli.main`` calls with q an indeterminate.

    Every call builds its own context, so memo tables start empty.
    ``A^n*B^n`` is capped at POWER_CAP because generic products of that
    shape grow fast (n = 20 takes about 0.17 s, n = 40 about 7 s) and no
    work budget bounds them yet.
    """

    name = "generic-queries"
    POOL_SIZE = 100                # pool entries per kind of random query
    POWER_CAP = 16
    PER_ROUND = 80                 # random normalize and comm queries per round

    @staticmethod
    def _random_sum(rng) -> str:
        text = ""
        for j in range(rng.randint(1, 3)):
            num, den = rng.randint(1, 4), rng.choice((1, 1, 2, 3))
            factors = [str(num) if den == 1 else f"{num}/{den}"]
            e = rng.randint(0, 3)
            if e:
                factors.append("q" if e == 1 else f"q^{e}")
            shape = rng.choice(("CA", "BC", "C", "A", "B", "AB", "BA"))
            k, l1, l2 = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            if shape == "CA":
                factors += [f"C^{k}", f"A^{l1}"]
            elif shape == "BC":
                factors += [f"B^{l1}", f"C^{k}"]
            elif shape == "AB":
                factors += [f"A^{l1}", f"B^{l2}"]
            elif shape == "BA":
                factors += [f"B^{l1}", f"A^{l2}"]
            else:
                factors.append(f"{shape}^{l1}")
            sign = rng.choice(("+", "-"))
            term = "*".join(factors)
            text += (f"-{term}" if sign == "-" else term) if j == 0 else f" {sign} {term}"
        return text

    def pool(self):
        rng = random.Random(POOL_SEED)
        items = [["normalize", f"({self._random_sum(rng)})*({self._random_sum(rng)})"]
                 for _ in range(self.POOL_SIZE)]
        items += [["comm", self._random_sum(rng), self._random_sum(rng)]
                  for _ in range(self.POOL_SIZE)]
        items += [["normalize", f"A^{n}*B^{n}"] for n in range(1, self.POWER_CAP + 1)]
        return items

    def new_state(self, pool):
        return None

    def round(self, pool, rng):
        normalize = list(range(self.POOL_SIZE))
        comm = list(range(self.POOL_SIZE, 2 * self.POOL_SIZE))
        powers = list(range(2 * self.POOL_SIZE, len(pool)))
        picks = rng.sample(normalize, self.PER_ROUND) + rng.sample(comm, self.PER_ROUND) + powers
        rng.shuffle(picks)
        return picks

    def call(self, state, index, item):
        # "--" ends the options, so an expression with a leading "-" stays positional
        argv = ["--format", "json", item[0], "--", *item[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def outcome(self, item, result):
        code, text = result
        return digest([code, text]), 1, {}


# ---------------------------------------------------------------------------
# lie-closure: closure writes, witnesses, membership reads
# ---------------------------------------------------------------------------

class LieClosure(Workload):
    """Row-reduction write path, witness construction and membership reads.

    A round computes ``lie_closure`` at p = 3 and p = 5, builds a
    witness for every member monomial of a p = 5 window, then reads
    membership (``is_lie_polynomial`` and ``SubspaceBasis.contains``
    against that round's p = 5 closure) for a seeded sample of elements.
    Reads stay at one p so that the ``contains`` latencies form one
    cluster above the median: the median then falls inside the smooth
    spread of witness latencies rather than on the edge between two
    clusters, where it would jump with small speed changes.
    """

    name = "lie-closure"
    CLOSURE = {3: (16, 8), 5: (16, 8)}    # p -> (bracket depth, window kmax = dmax)
    WITNESS_WINDOW = 6                    # p = 5 monomials with k, |d| <= this
    READ_P = 5
    READ_POOL = 80                        # recorded read elements
    READS_PER_ROUND = 64                  # sampled read elements per round

    def pool(self):
        items = [["closure", p, *self.CLOSURE[p]] for p in self.CLOSURE]
        ctx = qscalar.ScalarContext.torsion(5)
        w = self.WITNESS_WINDOW
        items += [["witness", 5, k, d] for k in range(w + 1) for d in range(-w, w + 1)
                  if liepoly.classify_monomial(ctx, heisenberg.Monomial(k, d)).is_lie]
        rng = random.Random(POOL_SEED)
        p, window = self.READ_P, self.CLOSURE[self.READ_P][1]
        for _ in range(self.READ_POOL):
            terms = [[rng.randint(0, window), rng.randint(-window, window),
                      rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3), rng.randint(0, p - 1)]
                     for _ in range(rng.randint(1, 3))]
            items.append(["member", p, terms])
            items.append(["contains", p, terms])
        return items

    def new_state(self, pool):
        contexts = {p: qscalar.ScalarContext.torsion(p) for p in self.CLOSURE}
        elements = {}
        for i, item in enumerate(pool):
            if item[0] in ("member", "contains"):
                ctx = contexts[item[1]]
                x = heisenberg.Element.zero(ctx)
                for k, d, num, den, e in item[2]:
                    coeff = ctx.from_fraction(Fraction(num, den)) * ctx.q_power(e)
                    x = x + heisenberg.Element.monomial(ctx, heisenberg.Monomial(k, d), coeff)
                elements[i] = x
        return {"contexts": contexts, "elements": elements, "bases": {}}

    def contexts(self, state):
        return list(state["contexts"].values())

    def round(self, pool, rng):
        closures = [i for i, it in enumerate(pool) if it[0] == "closure"]
        witnesses = [i for i, it in enumerate(pool) if it[0] == "witness"]
        rng.shuffle(witnesses)
        members = [i for i, it in enumerate(pool) if it[0] == "member"]
        reads = []
        for i in rng.sample(members, self.READS_PER_ROUND):
            reads += [i, i + 1]            # the matching "contains" item follows its "member"
        return closures + witnesses + reads

    def call(self, state, index, item):
        kind, p = item[0], item[1]
        ctx = state["contexts"][p]
        if kind == "closure":
            depth, window = item[2], item[3]
            basis = liepoly.lie_closure(ctx, depth, window, window)
            state["bases"][p] = basis
            return basis
        if kind == "witness":
            return liepoly.construct_basis_element(ctx, heisenberg.Monomial(item[2], item[3]))
        x = state["elements"][index]
        if kind == "member":
            return liepoly.is_lie_polynomial(x)
        return state["bases"][p].contains(x)

    def outcome(self, item, result):
        kind = item[0]
        if kind == "closure":
            obj = [result.dimension, [row.to_json_obj() for row in result.rows]]
        elif kind == "witness":
            obj = [result.expr.text(), result.value.to_json_obj()]
        elif kind == "member":
            obj = [result[0], result[1].to_json_obj()]
        else:
            obj = result
        return digest(obj), 1, {}


WORKLOADS = {w.name: w for w in (TorsionGrid(), GenericQueries(), LieClosure())}
