"""The claim suites' reports: pinned JSON and self-timing."""

import hashlib
import json
import time

import pytest

from qheis import verify
from qheis.cli import main
from qheis.qscalar import ScalarContext
from qheis.verify import run_suites, verify_derived_algebra, verify_oracle, verify_theorem1

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


# sha256 of the `--p N --format json verify oracle --seed S` payload and of the
# generic oracle report (20 pairs, seed 0), without "elapsed", computed with
# the word route straightening and multiplying whole elements
ORACLE_DIGESTS = {
    ("2", 0): "db1acc379954465bc8a975fb7cb7eea5736bda57b00c14d48735fb00ac5c75ec",
    ("2", 1): "7233ed38035b05fe95531eadde3649c988f90df46e7a4cf176bfc0b38b5561b4",
    ("3", 0): "fa0c722bfc4c2fb621d6a5b7bb26d1ccdfb4b3f8088ae24c3bc75d43987988dc",
    ("3", 7): "7bf7167d12eb6ac36f77294bc029253362b156b5916bce32101a7d59a77122c6",
    ("5", 0): "8f59bd3aafc83f1ddd4562de8acf1ad97c464d321fe824f4154f99397742d5d0",
    ("5", 3): "e8aa3390c2abd8a75d0c9d7a4acba3345b4f0b33a3acf4ebfaf3c22b1719d2dc",
    ("7", 0): "f4b04926dbc62a7a4623a3ccf6ff0d5b13518482af3379766e3fc5e161ab1b46",
    ("7", 11): "952ca1eb6dfc8dcc6813bc7430042742e6c13c36e4736af6991ca44010a2aceb",
    ("generic", 0): "27ff38c38a2603915b904f62dc33d93b9c4d933ae90edd1d86756cc3db9ae185",
}


@pytest.mark.parametrize("p, seed", sorted(ORACLE_DIGESTS))
def test_oracle_reports_are_pinned(capsys, p, seed):
    if p == "generic":
        # the CLI verifies torsion contexts only
        obj = verify_oracle(ScalarContext.generic(), pairs=20, seed=seed).to_json_obj()
        del obj["elapsed"]
    else:
        assert main(["--p", p, "--format", "json", "verify", "oracle", "--seed", str(seed)]) == 0
        obj = json.loads(capsys.readouterr().out)
        for rep in obj["reports"]:
            del rep["elapsed"]
    text = json.dumps(obj, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == ORACLE_DIGESTS[p, seed]


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
