"""Waveguide link with per-wavelength occupancy.

The unit of contention in a WDM ring is a *(directed link, wavelength)*
slot: two transfers conflict iff they want the same wavelength on the same
directed waveguide segment.  :class:`WaveguideLink` tracks slot ownership
so the RWA layer can detect conflicts exactly rather than by formula.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import WavelengthAllocationError


class WaveguideLink:
    """One directed waveguide segment carrying ``num_wavelengths`` channels."""

    def __init__(self, src: int, dst: int, direction: str,
                 num_wavelengths: int) -> None:
        self.src = src
        self.dst = dst
        self.direction = direction
        self.num_wavelengths = num_wavelengths
        #: wavelength index -> owner id (an opaque transfer identifier)
        self._owners: Dict[int, object] = {}

    @property
    def ident(self):
        """Hashable identity matching :class:`repro.topology.base.Link`."""
        return (self.src, self.dst, self.direction)

    def is_free(self, wavelength: int) -> bool:
        """Whether ``wavelength`` is unoccupied on this segment."""
        self._check(wavelength)
        return wavelength not in self._owners

    def free_wavelengths(self) -> List[int]:
        """Sorted list of free wavelength indices."""
        return [w for w in range(self.num_wavelengths)
                if w not in self._owners]

    def occupied_count(self) -> int:
        """Number of occupied wavelengths."""
        return len(self._owners)

    def occupy(self, wavelength: int, owner: object) -> None:
        """Claim ``wavelength`` for ``owner``; raises if taken."""
        self._check(wavelength)
        current = self._owners.get(wavelength)
        if current is not None and current != owner:
            raise WavelengthAllocationError(
                f"wavelength {wavelength} on link "
                f"{self.src}->{self.dst}/{self.direction} already owned "
                f"by {current!r}")
        self._owners[wavelength] = owner

    def release(self, wavelength: int, owner: Optional[object] = None) -> None:
        """Release ``wavelength``; ``owner`` (if given) must match."""
        self._check(wavelength)
        current = self._owners.get(wavelength)
        if current is None:
            return
        if owner is not None and current != owner:
            raise WavelengthAllocationError(
                f"wavelength {wavelength} on link "
                f"{self.src}->{self.dst}/{self.direction} owned by "
                f"{current!r}, not {owner!r}")
        del self._owners[wavelength]

    def release_owner(self, owner: object) -> None:
        """Release every wavelength held by ``owner``."""
        for w in [w for w, o in self._owners.items() if o == owner]:
            del self._owners[w]

    def clear(self) -> None:
        """Release all wavelengths (between schedule steps)."""
        self._owners.clear()

    def owners(self) -> Dict[int, object]:
        """Snapshot of wavelength -> owner."""
        return dict(self._owners)

    def _check(self, wavelength: int) -> None:
        if not (0 <= wavelength < self.num_wavelengths):
            raise WavelengthAllocationError(
                f"wavelength {wavelength} out of range "
                f"[0, {self.num_wavelengths})")
