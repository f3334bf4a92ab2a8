"""Tests for validated system configuration dataclasses."""

import math

import numpy as np
import pytest

from repro import units
from repro.config import (ElectricalSystem, HierarchicalSystem,
                          OpticalRingSystem, OpticalTorusSystem,
                          ReconfigurableOCSSystem, Workload,
                          default_electrical, default_optical)
from repro.errors import ConfigurationError


class TestOpticalRingSystem:
    def test_defaults_are_terarack(self):
        s = OpticalRingSystem(num_nodes=128)
        assert s.num_wavelengths == 64
        assert s.wavelength_rate == pytest.approx(25 * units.GBPS)
        assert s.bidirectional
        assert s.allow_striping

    def test_node_injection_rate(self):
        s = OpticalRingSystem(num_nodes=8, num_wavelengths=64,
                              wavelength_rate=25 * units.GBPS)
        assert s.node_injection_rate == pytest.approx(1.6 * units.TBPS)

    def test_propagation(self):
        s = OpticalRingSystem(num_nodes=8, node_spacing=0.5,
                              propagation_delay_per_meter=5 * units.NSEC)
        assert s.hop_propagation_delay == pytest.approx(2.5 * units.NSEC)
        assert s.propagation_delay(4) == pytest.approx(10 * units.NSEC)

    def test_propagation_negative_hops_rejected(self):
        s = OpticalRingSystem(num_nodes=8)
        with pytest.raises(ConfigurationError):
            s.propagation_delay(-1)

    @pytest.mark.parametrize("kwargs", [
        dict(num_nodes=1),
        dict(num_nodes=8, num_wavelengths=0),
        dict(num_nodes=8, wavelength_rate=0),
        dict(num_nodes=8, tuning_time=-1e-6),
        dict(num_nodes=8, node_spacing=-1.0),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            OpticalRingSystem(**kwargs)

    def test_with_override(self):
        s = OpticalRingSystem(num_nodes=8)
        s2 = s.with_(num_wavelengths=16)
        assert s2.num_wavelengths == 16
        assert s2.num_nodes == 8
        assert s.num_wavelengths == 64  # original untouched


class TestElectricalSystem:
    def test_defaults(self):
        s = ElectricalSystem(num_nodes=128)
        assert s.link_rate == pytest.approx(100 * units.GBPS)
        assert s.topology == "switch"
        assert s.effective_port_rate == s.link_rate

    def test_port_rate_override(self):
        s = ElectricalSystem(num_nodes=4, switch_ports_rate=40 * units.GBPS)
        assert s.effective_port_rate == pytest.approx(40 * units.GBPS)

    @pytest.mark.parametrize("kwargs", [
        dict(num_nodes=1),
        dict(num_nodes=4, link_rate=0),
        dict(num_nodes=4, step_latency=-1),
        dict(num_nodes=4, topology="mesh"),
        dict(num_nodes=4, switch_ports_rate=0),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ElectricalSystem(**kwargs)


class TestWorkload:
    def test_from_parameters_fp32(self):
        w = Workload.from_parameters(138_357_544, name="vgg16")
        assert w.data_bytes == pytest.approx(138_357_544 * 4)
        assert w.name == "vgg16"

    def test_num_elements_rounds_up(self):
        w = Workload(data_bytes=10, dtype_bytes=4)
        assert w.num_elements == 3

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            Workload(data_bytes=0)
        with pytest.raises(ConfigurationError):
            Workload.from_parameters(0)

    def test_infinite_payload_rejected(self):
        with pytest.raises(ConfigurationError, match="finite"):
            Workload(data_bytes=float("inf"))
        with pytest.raises(ConfigurationError, match="finite"):
            Workload.from_parameters(float("inf"))


class TestFactories:
    def test_default_optical(self):
        assert default_optical(256).num_nodes == 256

    def test_default_electrical_override(self):
        s = default_electrical(256, topology="ring")
        assert s.topology == "ring"


#: (system class, valid keyword arguments, integer fields).
_INTEGER_FIELDS = [
    (OpticalRingSystem, dict(num_nodes=8, num_wavelengths=4),
     ("num_nodes", "num_wavelengths")),
    (ElectricalSystem, dict(num_nodes=8), ("num_nodes",)),
    (OpticalTorusSystem, dict(num_nodes=8, rows=2, cols=4,
                              num_wavelengths=4),
     ("num_nodes", "rows", "cols", "num_wavelengths")),
    (ReconfigurableOCSSystem, dict(num_nodes=8, ports_per_node=2),
     ("num_nodes", "ports_per_node")),
    (HierarchicalSystem, dict(num_nodes=8, group_size=2, leader_index=1,
                              num_wavelengths=4),
     ("num_nodes", "group_size", "leader_index", "num_wavelengths")),
]


#: (system class, valid keyword arguments, the field the hop delay
#: multiplies by ``propagation_delay_per_meter``).
_SPACED = [
    (OpticalRingSystem, dict(num_nodes=8), "node_spacing"),
    (OpticalTorusSystem, dict(num_nodes=8), "node_spacing"),
    (HierarchicalSystem, dict(num_nodes=8, group_size=2), "rack_spacing"),
]


class TestHopDelay:
    """An infinite spacing paired with a zero per-metre delay, or the
    reverse, leaves the hop delay ``inf * 0`` undefined."""

    @pytest.mark.parametrize("distance,per_meter", [(math.inf, 0.0),
                                                    (0.0, math.inf)])
    @pytest.mark.parametrize("cls,kwargs,spacing", _SPACED,
                             ids=["ring", "torus", "hierarchy"])
    def test_undefined_hop_delay_rejected(self, cls, kwargs, spacing,
                                          distance, per_meter):
        with pytest.raises(ConfigurationError,
                           match=f"{spacing}=.* propagation_delay_per_meter="):
            cls(**kwargs, **{spacing: distance},
                propagation_delay_per_meter=per_meter)

    @pytest.mark.parametrize("cls,kwargs,spacing", _SPACED,
                             ids=["ring", "torus", "hierarchy"])
    def test_infinite_or_zero_alone_is_accepted(self, cls, kwargs, spacing):
        for distance, per_meter in ((math.inf, 5e-9), (0.0, 0.0),
                                    (math.inf, math.inf), (2.0, math.inf)):
            cls(**kwargs, **{spacing: distance},
                propagation_delay_per_meter=per_meter)


class TestIntegerCounts:
    """Counts are Python or numpy integers, never floats or bools."""

    @pytest.mark.parametrize("bad", [2.5, 8.0, float("inf"), float("nan"),
                                     True])
    @pytest.mark.parametrize("cls,kwargs,field", [
        (cls, kwargs, field) for cls, kwargs, fields in _INTEGER_FIELDS
        for field in fields])
    def test_non_integer_rejected_at_construction(self, cls, kwargs, field,
                                                  bad):
        with pytest.raises(ConfigurationError,
                           match=f"{field} must be an integer"):
            cls(**{**kwargs, field: bad})

    @pytest.mark.parametrize("cls,kwargs,fields", _INTEGER_FIELDS)
    def test_numpy_integers_accepted(self, cls, kwargs, fields):
        system = cls(**{k: np.int64(v) if k in fields else v
                        for k, v in kwargs.items()})
        assert all(getattr(system, f) == kwargs[f] for f in fields)

    def test_optional_fields_accept_none(self):
        assert OpticalTorusSystem(num_nodes=8).grid_shape == (2, 4)
        assert HierarchicalSystem(num_nodes=8, group_size=2)\
            .resolved_leader_index == 1
