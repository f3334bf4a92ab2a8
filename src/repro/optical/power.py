"""Energy accounting for optical transfers (extension).

The paper motivates optical interconnects partly by power; this module
provides a simple but explicit energy model so ablation benches can report
joules per all-reduce alongside time:

* laser wall-plug energy — ``laser_power_per_wavelength_w`` per *lit*
  wavelength for the duration it is held;
* modulator/receiver energy — ``driver_energy_j_per_bit`` per transmitted
  bit;
* MRR heater energy — ``heater_power_w`` per tuned ring for the step
  duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .transfer import OpticalTransfer

#: Typical thermal tuning power per micro-ring resonator, watts.
DEFAULT_HEATER_POWER_W = 0.02
#: Typical comb-laser wall-plug power attributable to one 25 Gb/s channel.
DEFAULT_LASER_POWER_W = 0.15
#: Typical silicon-photonic link energy, joules per bit (1 pJ/bit).
DEFAULT_DRIVER_ENERGY_J_PER_BIT = 1e-12


@dataclass(frozen=True)
class EnergyModel:
    """Tunable optical energy parameters."""

    laser_power_per_wavelength_w: float = DEFAULT_LASER_POWER_W
    driver_energy_j_per_bit: float = DEFAULT_DRIVER_ENERGY_J_PER_BIT
    heater_power_w: float = DEFAULT_HEATER_POWER_W

    def step_energy(self, transfers: Sequence[OpticalTransfer],
                    step_duration: float) -> float:
        """Energy (J) of one synchronous step.

        Every held wavelength keeps its laser share and heater lit for the
        whole step; payload bits pay the driver energy once.
        """
        if step_duration < 0:
            raise ValueError("step_duration must be >= 0")
        lit = sum(t.striping for t in transfers)
        static = lit * (self.laser_power_per_wavelength_w
                        + self.heater_power_w) * step_duration
        dynamic = sum(t.size * 8 for t in transfers) \
            * self.driver_energy_j_per_bit
        return static + dynamic

    def schedule_energy(self, per_step: Sequence[tuple[Sequence[
            OpticalTransfer], float]]) -> float:
        """Total energy over (transfers, duration) pairs."""
        return sum(self.step_energy(ts, d) for ts, d in per_step)


def energy_of_execution(schedule, report, workload,
                        model: EnergyModel | None = None) -> float:
    """Energy (J) of an optical :class:`ExecutionReport`.

    Works from the per-step summaries the executor recorded: each step
    lights ``num_transfers × striping`` wavelengths for its duration and
    pays driver energy for the bytes it moved.  ``schedule`` supplies
    per-step byte counts, ``report`` durations/striping.
    """
    from ..collectives.primitives import step_bytes

    m = model if model is not None else EnergyModel()
    if len(report.steps) != len(schedule.steps):
        raise ValueError(
            f"report has {len(report.steps)} steps, schedule "
            f"{len(schedule.steps)}")
    total = 0.0
    for step, srep in zip(schedule.steps, report.steps):
        lit = srep.num_transfers * srep.striping
        static = lit * (m.laser_power_per_wavelength_w
                        + m.heater_power_w) * srep.duration
        moved = step_bytes(step, workload.data_bytes, schedule.num_chunks)
        total += static + moved * 8 * m.driver_energy_j_per_bit
    return total
