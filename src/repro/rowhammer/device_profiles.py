"""Measured DRAM device fault statistics (Table I of the paper).

Each profile records the average number of Rowhammer bit flips per 4 KB
memory page observed on that device -- the single parameter that drives the
target-page probability analysis (Eq. 1/2) and our DRAM fault simulation.
DDR3 numbers come from double-sided profiles [Tatar et al. 2018]; DDR4
numbers from the authors' n-sided profiling with TRR-protected chips.
"""

from __future__ import annotations

import dataclasses
from typing import Dict


@dataclasses.dataclass(frozen=True)
class DeviceProfile:
    """Fault statistics and mitigation posture of one DRAM device."""

    name: str
    ddr_version: int
    flips_per_page: float
    trr_protected: bool

    def __post_init__(self) -> None:
        if self.ddr_version not in (3, 4):
            raise ValueError(f"ddr_version must be 3 or 4, got {self.ddr_version}")
        if self.flips_per_page < 0:
            raise ValueError(f"flips_per_page must be non-negative, got {self.flips_per_page}")


def _ddr3(name: str, flips: float) -> DeviceProfile:
    return DeviceProfile(name=name, ddr_version=3, flips_per_page=flips, trr_protected=False)


def _ddr4(name: str, flips: float) -> DeviceProfile:
    return DeviceProfile(name=name, ddr_version=4, flips_per_page=flips, trr_protected=True)


# Table I, left/right columns.
DDR3_PROFILES: Dict[str, DeviceProfile] = {
    p.name: p
    for p in (
        _ddr3("A1", 12.48),
        _ddr3("A2", 1.92),
        _ddr3("A3", 1.11),
        _ddr3("A4", 15.85),
        _ddr3("B1", 1.05),
        _ddr3("C1", 1.60),
        _ddr3("D1", 1.08),
        _ddr3("E1", 12.46),
        _ddr3("E2", 2.02),
        _ddr3("F1", 28.77),
        _ddr3("G1", 1.62),
        _ddr3("H1", 1.66),
        _ddr3("I1", 8.28),
        _ddr3("J1", 1.25),
    )
}

DDR4_PROFILES: Dict[str, DeviceProfile] = {
    p.name: p
    for p in (
        _ddr4("K1", 100.68),
        _ddr4("K2", 109.48),
        _ddr4("L1", 3.12),
        _ddr4("L2", 13.98),
        _ddr4("M1", 2.04),
        _ddr4("N1", 2.72),
    )
}

DEVICE_PROFILES: Dict[str, DeviceProfile] = {**DDR3_PROFILES, **DDR4_PROFILES}

# The chip the paper's main experiments profile: 381,962 flips across the
# 32,768 pages of a 128 MB buffer (Section IV-A2, Fig. 2).
PAPER_DDR3_REFERENCE = _ddr3("paper-ddr3", 381_962 / 32_768)

# Custom (user-measured) profiles registered at runtime.  This is the one
# piece of process-global mutable state in the module, and it lives in this
# process only: a spawned sweep worker starts with the Table I set, so
# ``run_sweep`` refuses a custom device when it would spawn workers.
_CUSTOM_PROFILES: Dict[str, DeviceProfile] = {}


def register_profile(profile: DeviceProfile, overwrite: bool = False) -> DeviceProfile:
    """Register a custom device profile for lookup by :func:`get_profile`.

    The built-in Table I tags cannot be shadowed; a duplicate custom tag
    requires ``overwrite=True``.
    """
    if profile.name in DEVICE_PROFILES:
        raise ValueError(f"cannot shadow built-in Table I profile {profile.name!r}")
    if profile.name in _CUSTOM_PROFILES and not overwrite:
        raise ValueError(
            f"custom profile {profile.name!r} already registered (overwrite=True to replace)"
        )
    _CUSTOM_PROFILES[profile.name] = profile
    return profile


def reset_profiles() -> None:
    """Drop every custom profile, restoring the built-in Table I set."""
    _CUSTOM_PROFILES.clear()


def available_profiles() -> Dict[str, DeviceProfile]:
    """All resolvable profiles: the Table I set plus custom registrations."""
    return {**DEVICE_PROFILES, **_CUSTOM_PROFILES}


def get_profile(name: str) -> DeviceProfile:
    """Look up a device profile by tag (Table I, e.g. ``"K1"``, or custom)."""
    try:
        return _CUSTOM_PROFILES.get(name) or DEVICE_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown DRAM device {name!r}; available: {sorted(available_profiles())}"
        ) from None
