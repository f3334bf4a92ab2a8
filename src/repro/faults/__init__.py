"""Deterministic fault injection and degraded operation.

The fault subsystem threads one idea through the whole stack: hardware
failures are *data* — a seeded, typed, time-sorted event plan — and
every layer (topology, RWA, substrates, serving) consumes the same plan
deterministically, so a degraded run is exactly as reproducible as a
healthy one.

* :class:`FaultEvent` / :class:`FaultKind` — one typed event: a link
  dying or repairing, a transceiver losing/regaining a wavelength, a
  node failing, or an OCS reconfiguration stall;
* :class:`FaultState` — the folded set of what is down *right now*,
  with :meth:`~FaultState.apply` as the single transition function;
* :class:`FaultPlan` — a sorted event sequence with seeded generators
  (:meth:`~FaultPlan.poisson`, rng-wins like ``poisson_traffic``) and
  an incremental :class:`FaultTimeline` cursor for event loops;
* :class:`FaultOutcome` / :class:`FaultyRun` — what a substrate reports
  back from :meth:`~repro.core.substrates.base.Substrate.
  execute_with_faults`.

The keystone guarantee, pinned by tests: a plan with **zero events** is
a no-op passthrough — every substrate reproduces its fault-free results
bit for bit — and a fault followed by repair converges back to the
fault-free steady state.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".events": ("CLEAN_STATE", "FaultEvent", "FaultKind", "FaultState",
                "FaultOutcome", "FaultyRun"),
    ".plan": ("FaultPlan", "FaultTimeline"),
})
