"""The traced benchmark wraps library functions by name; keep those names.

``bench/tracer.py`` patches ``multiply_fastpath``, ``q_binomial_lucas``,
the ``struct_*``/``scaled_struct_*`` functions, ``GenericScalar.__init__``
and more, then runs a tiny job with known span counts.  A rename in the library fails here rather than in a traced
benchmark run.
"""

import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_tracer_selfcheck_passes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    assert tracer.selfcheck() == []
