"""The benchmark's per-layer tracer can wrap and restore every traced operator.

perfbench/tracing.py reads each traced method from its class's own
__dict__, so the Laurent classes must define or bind those operators in
their own bodies; this runs its install/uninstall round trip.
"""

import importlib
from pathlib import Path

import qcluster
from qcluster import CommLaurent, TorusElement

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_install_and_uninstall_round_trip(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    saved = tracing.install(qcluster, tracer)
    try:
        owners = {owner for owner, _, _ in saved}
        assert {CommLaurent, TorusElement} <= owners
        assert all(vars(owner)[attr] is not original for owner, attr, original in saved)
        tracer.active = True
        x = CommLaurent.generator(2, 0)
        assert (x * x) ** 2 == CommLaurent.monomial(2, (4, 0))
        tracer.active = False
        assert tracer.calls["torus.mul"] == 3 and tracer.calls["torus.pow"] == 1
    finally:
        tracing.uninstall(saved)
    for owner, attr, original in saved:
        assert vars(owner)[attr] is original
    for cls in (CommLaurent, TorusElement):
        assert cls.__hash__ is not None
