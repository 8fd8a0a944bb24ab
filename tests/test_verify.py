"""The claim suites' reports: pinned JSON and self-timing."""

import hashlib
import json
import time

import pytest

from qheis import verify
from qheis.qscalar import ScalarContext
from qheis.verify import run_suites, verify_derived_algebra, verify_theorem1

# sha256 of the theorem1 reports (depth 6, reachability window 4 x 4) and the
# derived-algebra report (window 2p+2 x 2p+2), without "elapsed".  The literal
# spanning-set reading records violation entries, so both readings are pinned.
THEOREM1_LEMMA4_DIGESTS = {
    (2, False): "7334ad22d4244ddbfed31db515cdcee55a2b2b5c75f9fc2cebca756606f7774c",
    (2, True): "ad9de69e8a32d955881e38dacaaef16fc86852ff304d7cb04bdf0ed8a1d41cea",
    (3, False): "b15cd38bed8a8de533d710f12f1cfc1fdd7f18a246c4c4dab724982e554c9b82",
    (3, True): "e99363c469fb6bcd722e9ba55bbe2ad17648a83ef07207adf5b91ae1c798c67e",
}


@pytest.mark.parametrize("p, literal", sorted(THEOREM1_LEMMA4_DIGESTS))
def test_theorem1_and_lemma4_reports_are_pinned(p, literal):
    ctx = ScalarContext.torsion(p)
    reports = verify_theorem1(ctx, depth=6, kmax=4, dmax=4, defn2_literal=literal)
    reports.append(verify_derived_algebra(ctx, 2 * p + 2, 2 * p + 2, defn2_literal=literal))
    objs = [r.to_json_obj() for r in reports]
    for obj in objs:
        del obj["elapsed"]
    text = json.dumps(objs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == THEOREM1_LEMMA4_DIGESTS[p, literal]


def test_every_report_times_its_own_block():
    t0 = time.perf_counter()
    reports = run_suites(ScalarContext.torsion(2), ["all"], kmax=3, dmax=3, depth=6,
                         reach_kmax=2, reach_dmax=2, defn2_literal=False, seed=0, pairs=5)
    wall = time.perf_counter() - t0
    assert len(reports) == 12
    for rep in reports:
        assert 0 <= rep.elapsed <= wall, rep.claim


def test_theorem1_refuses_a_window_over_the_witness_budget(monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "closure_rows", lambda *a: calls.append(a) or [])
    with pytest.raises(ValueError, match="MAX_WITNESS_DEGREE = 256"):
        verify_theorem1(ScalarContext.torsion(3), depth=1, kmax=257, dmax=0)
    with pytest.raises(ValueError, match="MAX_WITNESS_DEGREE"):
        verify_theorem1(ScalarContext.torsion(3), depth=1, kmax=200, dmax=57)
    assert len(calls) == 0
