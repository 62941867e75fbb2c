"""Round-trip gate for every ``to_x``/``from_x`` serializer pair.

``to_x(from_x(to_x(obj))) == to_x(obj)`` for an object whose optional
fields all sit away from their defaults: a field the writer emits but
the reader drops (or defaults) changes the second serialisation and
fails here.  The session checkpoint is not listed -- its record
dataclasses in :mod:`repro.receiver.session` are the schema, and the
reader refuses anything else.

The objects come from the builders the per-module tests already use.
"""

import pytest

from repro.bench.runner import BenchReport, OpResult
from repro.faults.plan import FaultPlan
from repro.gateway.soak import GatewayFaultPlan
from repro.macro.linkmodel import FerSurface
from repro.obs import ExperimentResult, RunProfile
from repro.sim.trace import ChannelTrace
from tests.bench.test_runner import _op
from tests.faults.test_plan import TestSerialization as _FaultPlanCases
from tests.gateway.test_soak import harsh_plan
from tests.macro.test_linkmodel import make_surface
from tests.obs.test_profile import _traced_run
from tests.obs.test_result import _result


def _bench_report():
    return BenchReport(
        ops=[_op("x", 0.5, {"n": 4}), _op("y", 0.25, group="e2e")],
        derived={"speedup": 2.0},
        quick=True,
        seed=3,
        bench_id="BENCH_TEST",
        env={"python": "3.x"},
    )


def _experiment_result():
    result = _result()
    result.profile = _traced_run().profile(wall_time_s=1.5)
    result.artifacts = {"grid": [[1.0, 0.0], [0.0, 1.0]]}
    return result


def _channel_trace():
    trace = ChannelTrace(n_tags=2, description="roundtrip")
    trace.append([1 + 2j, -0.5 + 0.25j], [0.0, 3.7])
    trace.append([0.1 + 0j, 0.2 + 0j], [1.0, 2.0])
    return trace


_PAIRS = {
    "OpResult": (OpResult, "dict", lambda: _op("x", 0.5, {"n": 4}, group="e2e")),
    "BenchReport": (BenchReport, "dict", _bench_report),
    "FaultPlan": (FaultPlan, "dict", lambda: _FaultPlanCases()._plan()),
    "GatewayFaultPlan": (GatewayFaultPlan, "dict", lambda: harsh_plan(seed=13)),
    "FerSurface": (FerSurface, "dict", make_surface),
    "RunProfile-dict": (RunProfile, "dict", lambda: _traced_run().profile(wall_time_s=1.5)),
    "RunProfile-json": (RunProfile, "json", lambda: _traced_run().profile(wall_time_s=1.5)),
    "ExperimentResult-dict": (ExperimentResult, "dict", _experiment_result),
    "ExperimentResult-json": (ExperimentResult, "json", _experiment_result),
    "ChannelTrace": (ChannelTrace, "dict", _channel_trace),
}


@pytest.mark.parametrize("name", sorted(_PAIRS))
def test_round_trip_is_a_fixed_point(name):
    cls, form, build = _PAIRS[name]
    wire = getattr(build(), f"to_{form}")()
    back = getattr(cls, f"from_{form}")(wire)
    assert getattr(back, f"to_{form}")() == wire
