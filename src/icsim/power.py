"""Operating-mode power model, per-unit static budget and energy accounting.

The controller's mode currents and wake latencies come from the measured
mode-comparison table; the four functional units (carrier, signal
processing, power conversion, master) carry independently gateable static
currents whose default sum is the 660 uA standby budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

UNIT_NAMES = ("carrier", "signal_processing", "power_conversion", "master")
SUPPLY_V = 3.7


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
    """A stretch of time a node spent in one power mode."""

    mode: str
    duration_s: float

    def __post_init__(self):
        if self.mode not in MODE_TABLE:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.duration_s < 0:
            raise ValueError("duration must be nonnegative")


def standby_current(budget: UnitBudget) -> float:
    """Total static current in uA of the enabled units."""
    return sum(budget.current_ua(u) for u in UNIT_NAMES if u in budget.gating)


def charge_consumed(trace: list[TraceRecord], budget: UnitBudget,
                    modes=MODE_TABLE) -> tuple[float, float]:
    """Accumulated (microamp-hours, joules) over a trace at SUPPLY_V.

    In each record the node draws its mode's MCU current plus the static
    current of the budget's enabled units, which hold for the whole trace.
    """
    units = standby_current(budget)
    uah = 0.0
    for rec in trace:
        uah += (modes[rec.mode].mcu_current_ua + units) * rec.duration_s / 3600.0
    joules = uah * 3600.0 * SUPPLY_V * 1e-6
    return uah, joules
