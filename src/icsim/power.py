"""Operating-mode power model, per-unit static budget and energy accounting.

The controller's mode currents and wake latencies come from the measured
mode-comparison table; the four functional units (carrier, signal
processing, power conversion, master) carry independently gateable static
currents whose default sum is the 660 uA standby budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

UNIT_NAMES = ("carrier", "signal_processing", "power_conversion", "master")


class FractionSumInvalid(ValueError):
    pass


@dataclass(frozen=True)
class PowerMode:
    name: str
    mcu_current_ua: float
    wakeup_time_s: float

    def __post_init__(self):
        if self.mcu_current_ua < 0 or self.wakeup_time_s < 0:
            raise ValueError("currents and wake times must be nonnegative")


# Measured mode table: RUN has no wake latency by definition; Sleep wakes in
# 6 CPU cycles, converted at the 80 MHz maximum clock.
MODE_TABLE: dict[str, PowerMode] = {
    "RUN": PowerMode("RUN", 12000.0, 0.0),
    "LPRUN": PowerMode("LPRUN", 3350.0, 64e-6),
    "SLEEP": PowerMode("SLEEP", 1200.0, 6 / 80e6),
    "STOP1": PowerMode("STOP1", 566.0, 7.8e-6),
    "SHUTDOWN": PowerMode("SHUTDOWN", 0.23, 306e-6),
}

# Accounting table for the 660 uA standby budget: there the controller's
# share is the 50 uA master-unit line, so STOP1 contributes no separate MCU
# current.  The measured STOP1 figure above stays available for traces that
# count the MCU explicitly.
STANDBY_BUDGET_MODES: dict[str, PowerMode] = {
    **MODE_TABLE,
    "STOP1": PowerMode("STOP1", 0.0, MODE_TABLE["STOP1"].wakeup_time_s),
}


@dataclass(frozen=True)
class UnitBudget:
    """Static current per functional unit plus on/off gating flags."""

    carrier_ua: float = 130.0
    signal_processing_ua: float = 300.0
    power_conversion_ua: float = 180.0
    master_ua: float = 50.0
    gating: frozenset[str] = frozenset(UNIT_NAMES)  # names of enabled units

    def __post_init__(self):
        if min(self.carrier_ua, self.signal_processing_ua, self.power_conversion_ua, self.master_ua) < 0:
            raise ValueError("unit currents must be nonnegative")
        unknown = set(self.gating) - set(UNIT_NAMES)
        if unknown:
            raise ValueError(f"unknown units in gating: {sorted(unknown)}")

    def current_ua(self, unit: str) -> float:
        return getattr(self, f"{unit}_ua")

    def with_gating(self, enabled) -> "UnitBudget":
        return replace(self, gating=frozenset(enabled))


@dataclass(frozen=True)
class TraceRecord:
    mode: str
    gating: frozenset
    duration_s: float

    def __post_init__(self):
        if self.mode not in MODE_TABLE:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.duration_s < 0:
            raise ValueError("duration must be nonnegative")


@dataclass
class EnergyTrace:
    records: list = field(default_factory=list)
    supply_v: float = 3.7

    def append(self, mode: str, gating, duration_s: float) -> None:
        self.records.append(TraceRecord(mode, frozenset(gating), duration_s))


def standby_current(budget: UnitBudget) -> float:
    """Total static current in uA of the enabled units."""
    return sum(budget.current_ua(u) for u in UNIT_NAMES if u in budget.gating)


def transition(current: str, target: str) -> tuple[float, bool]:
    """Wake latency in seconds and whether the mode change is allowed.

    Low-power modes can only be entered from and left to RUN; waking costs
    the source mode's measured latency.
    """
    if current not in MODE_TABLE or target not in MODE_TABLE:
        raise ValueError("unknown power mode name")
    if current == target:
        return (0.0, True) if current == "RUN" else (0.0, False)
    if current == "RUN":
        return 0.0, True
    if target == "RUN":
        return MODE_TABLE[current].wakeup_time_s, True
    return 0.0, False


def charge_consumed(trace: EnergyTrace, budget: UnitBudget, modes=MODE_TABLE) -> tuple[float, float]:
    """Accumulated (microamp-hours, joules) over a trace."""
    uah = 0.0
    for rec in trace.records:
        current = modes[rec.mode].mcu_current_ua
        current += sum(budget.current_ua(u) for u in UNIT_NAMES if u in rec.gating)
        uah += current * rec.duration_s / 3600.0
    joules = uah * 3600.0 * trace.supply_v * 1e-6
    return uah, joules


def battery_life(capacity_mah: float, duty, budget: UnitBudget | None = None,
                 modes=MODE_TABLE) -> float:
    """Runtime in hours for a duty cycle of (mode, gating, fraction) entries."""
    budget = budget or UnitBudget()
    fractions = sum(frac for _, _, frac in duty)
    if abs(fractions - 1.0) > 1e-9:
        raise FractionSumInvalid(f"duty fractions sum to {fractions}, expected 1")
    avg_ua = 0.0
    for mode, gating, frac in duty:
        current = modes[mode].mcu_current_ua
        current += sum(budget.current_ua(u) for u in UNIT_NAMES if u in frozenset(gating))
        avg_ua += frac * current
    if avg_ua == 0:
        return math.inf
    return capacity_mah / (avg_ua * 1e-3)
