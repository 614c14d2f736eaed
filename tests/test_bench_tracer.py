"""The benchmark's per-layer tracer can wrap and restore every traced operator.

perfbench/tracing.py reads each traced method from its class's own
__dict__, so the Laurent classes must define or bind those operators in
their own bodies; this runs its install/uninstall round trip.
"""

import importlib
from pathlib import Path

import qcluster
from qcluster import (
    ClassicalSeed,
    CommLaurent,
    ExchangeMatrix,
    QuantumSeed,
    SkewMatrix,
    TorusElement,
    mutate,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def installed_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    return tracing, tracer, tracing.install(qcluster, tracer)


def test_tracer_install_and_uninstall_round_trip(monkeypatch):
    tracing, tracer, saved = installed_tracer(monkeypatch)
    try:
        owners = {owner for owner, _, _ in saved}
        assert {CommLaurent, TorusElement} <= owners
        assert all(vars(owner)[attr] is not original for owner, attr, original in saved)
        tracer.active = True
        x = CommLaurent.generator(2, 0)
        assert (x * x) ** 2 == CommLaurent.monomial(2, (4, 0))
        tracer.active = False
        # x * x, then one squaring inside ** 2 (powers go by repeated squaring)
        assert tracer.calls["torus.mul"] == 2 and tracer.calls["torus.pow"] == 1
    finally:
        tracing.uninstall(saved)
    for owner, attr, original in saved:
        assert vars(owner)[attr] is original
    for cls in (CommLaurent, TorusElement):
        assert cls.__hash__ is not None


def test_tracer_sees_each_mutation_division(monkeypatch):
    # the exchange step looks the ring's division up on its class at call
    # time, so the tracer's wrapper books it; a division bound at import
    # would book none
    b = ExchangeMatrix([[0, 1], [-1, 0]])
    seeds = (ClassicalSeed.initial(b), QuantumSeed.initial(b, SkewMatrix([[0, 1], [-1, 0]])))
    tracing, tracer, saved = installed_tracer(monkeypatch)
    try:
        for seed in seeds:
            tracer.calls.clear()
            tracer.active = True
            mutate(seed, 0)
            tracer.active = False
            assert tracer.calls.get("torus.div") == 1, type(seed).__name__
            assert tracer.calls.get("torus.mul", 0) >= 1, type(seed).__name__
    finally:
        tracer.active = False
        tracing.uninstall(saved)
