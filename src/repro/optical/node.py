"""Optical node: a GPU endpoint with MRR banks per ring direction.

A TeraRack node can concurrently transmit and receive on every wavelength
of each waveguide direction — it owns a modulator (add) bank and a filter
(drop) bank per direction.  The banks hold the tuning state (driven per
step by :meth:`~repro.optical.ring_network.OpticalRingNetwork.retune`),
and the node exposes injection/ejection capacity for sanity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..errors import ConfigurationError
from .mrr import MicroRingBank


@dataclass
class OpticalNode:
    """Node ``node_id`` with add/drop MRR banks for each direction."""

    node_id: int
    num_wavelengths: int
    wavelength_rate: float
    tuning_time: float
    directions: tuple = ("cw", "ccw")
    add_banks: Dict[str, MicroRingBank] = field(init=False, repr=False)
    drop_banks: Dict[str, MicroRingBank] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ConfigurationError(f"node_id must be >= 0, {self.node_id}")
        self.add_banks = {
            d: MicroRingBank(self.num_wavelengths, self.num_wavelengths,
                             self.tuning_time)
            for d in self.directions}
        self.drop_banks = {
            d: MicroRingBank(self.num_wavelengths, self.num_wavelengths,
                             self.tuning_time)
            for d in self.directions}

    @property
    def injection_rate(self) -> float:
        """Peak transmit bytes/s per direction."""
        return self.num_wavelengths * self.wavelength_rate

    def reset(self) -> None:
        """Detune all banks (between schedules)."""
        for bank in self.add_banks.values():
            bank.reset()
        for bank in self.drop_banks.values():
            bank.reset()
