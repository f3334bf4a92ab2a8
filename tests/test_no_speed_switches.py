"""The engines take no switch that changes only speed.

The fluid engine's pattern and compile caches, its warm starts and its
incidence backend, and the optical ring's RWA cache, pattern memo and
delta RWA path never change a result, so they are always on and none
of them is a constructor argument (bounds are module constants; the
backend follows ``SPARSE_FLOW_THRESHOLD``).  A switch like that costs a
branch in the library for every caller and doubles what the tests must
pin.  This pins each constructor's parameter list with
:func:`inspect.signature`, so one cannot come back unnoticed: a new
parameter must change what is simulated, and belongs in this list
with that reason.  Tests and benchmarks that need the path a shortcut
replaces build it outside the library (a subclass or a patched
constant).
"""

import inspect

import pytest

from repro.core.substrates.hier_rack import HierarchicalRackSubstrate
from repro.core.substrates.optical_ring import OpticalRingSubstrate
from repro.simulation.flows import (FlowBatchStructure, compile_flows,
                                    compile_paths, resolve_backend)
from repro.simulation.fluid import FluidNetworkSimulator

#: Constructor parameters, each of which changes a result.
CONSTRUCTORS = {
    # keep_trace records per-link utilization (and times traced steps
    # through the raw engine, which the trace needs).
    FluidNetworkSimulator: ("topology", "keep_trace"),
    OpticalRingSubstrate: ("system", "policy", "striping"),
    HierarchicalRackSubstrate: ("system", "policy", "striping"),
}


@pytest.mark.parametrize("cls", list(CONSTRUCTORS),
                         ids=lambda cls: cls.__name__)
def test_constructor_parameters_are_pinned(cls):
    assert tuple(inspect.signature(cls).parameters) == CONSTRUCTORS[cls]


@pytest.mark.parametrize("fn", [resolve_backend, compile_paths,
                                compile_flows, FlowBatchStructure.bind],
                         ids=lambda fn: fn.__qualname__)
def test_flow_compilation_takes_no_backend(fn):
    assert "backend" not in inspect.signature(fn).parameters
