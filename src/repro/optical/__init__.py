"""TeraRack-style optical ring interconnect substrate.

The paper evaluates Wrht on TeraRack [Khani et al. 2020]: GPUs on a
silicon-photonic ring, each node able to add/drop any of ``w`` DWDM
wavelengths per waveguide direction via micro-ring resonators (MRRs).

This package provides the pieces the schedules interact with:

* :mod:`~repro.optical.link` — per-(link, wavelength) occupancy;
* :mod:`~repro.optical.ring_network` — the assembled ring network and
  its one MRR tuning state (the step's sparse channel selection);
* :mod:`~repro.optical.rwa` — routing & wavelength assignment
  (First-Fit / Best-Fit) with optional striping;
* :mod:`~repro.optical.transfer` — transfer descriptors and timing;
* :mod:`~repro.optical.power` — energy accounting, MRR heater power
  included (extension).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".link": ("WaveguideLink",),
    ".ring_network": ("OpticalRingNetwork",),
    ".rwa": ("TransferRequest", "RwaResult", "AssignmentPolicy",
             "assign_wavelengths", "compute_striping_factor",
             "max_link_demand"),
    ".transfer": ("OpticalTransfer", "transfer_time"),
})
