"""Operating-mode power model, per-unit static budget and energy accounting.

The controller's mode currents and wake latencies come from the measured
mode-comparison table; the four functional units (carrier, signal
processing, power conversion, master) carry independently gateable static
currents whose default sum is the 660 uA standby budget.

A mode is named by its key in ``MODE_TABLE``, and a stretch is time a node
spends in one mode.  ``charge_consumed`` gives a stretch's charge in
microamp-hours, and ``uah_to_joules`` turns a charge into energy.

STOP1 has two figures, and a run uses one.  A run charges each stretch as it
closes, through ``charge_consumed`` with ``STANDBY_BUDGET_MODES``, in which
the controller's STOP1 share is the 50 uA master unit of the standby budget,
so STOP1 adds no controller current of its own.  ``MODE_TABLE``'s 566 uA is
the STOP1 controller measured alone; it is the default of
``charge_consumed`` for stretches that count the controller explicitly, as
acceptance criterion 9 does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

UNIT_NAMES = ("carrier", "signal_processing", "power_conversion", "master")
SUPPLY_V = 3.7


@dataclass(frozen=True)
class PowerMode:
    mcu_current_ua: float
    wakeup_time_s: float

    def __post_init__(self):
        if self.mcu_current_ua < 0 or self.wakeup_time_s < 0:
            raise ValueError("currents and wake times must be nonnegative")


# Measured mode table: RUN has no wake latency by definition; Sleep wakes in
# 6 CPU cycles, converted at the 80 MHz maximum clock.
MODE_TABLE: dict[str, PowerMode] = {
    "RUN": PowerMode(12000.0, 0.0),
    "LPRUN": PowerMode(3350.0, 64e-6),
    "SLEEP": PowerMode(1200.0, 6 / 80e6),
    "STOP1": PowerMode(566.0, 7.8e-6),
    "SHUTDOWN": PowerMode(0.23, 306e-6),
}

# The table a run charges (see the module docstring).
STANDBY_BUDGET_MODES: dict[str, PowerMode] = {
    **MODE_TABLE,
    "STOP1": PowerMode(0.0, MODE_TABLE["STOP1"].wakeup_time_s),
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
        if not all(getattr(self, f"{u}_ua") >= 0 for u in UNIT_NAMES):  # false for NaN too
            raise ValueError("unit currents must be nonnegative")
        unknown = set(self.gating) - set(UNIT_NAMES)
        if unknown:
            raise ValueError(f"unknown units in gating: {sorted(unknown)}")

    def with_gating(self, enabled) -> "UnitBudget":
        return replace(self, gating=frozenset(enabled))


def standby_current(budget: UnitBudget) -> float:
    """Total static current in uA of the enabled units."""
    return sum(getattr(budget, f"{u}_ua") for u in UNIT_NAMES if u in budget.gating)


def uah_to_joules(uah: float) -> float:
    """Energy of a charge in microamp-hours drawn at SUPPLY_V."""
    return uah * 3600.0 * SUPPLY_V * 1e-6


def charge_consumed(mode: str, duration_s: float, budget: UnitBudget,
                    modes=MODE_TABLE) -> float:
    """Charge in microamp-hours of duration_s spent in mode.

    The node draws the mode's MCU current plus the static current of the
    budget's enabled units.
    """
    if mode not in modes:
        raise ValueError(f"unknown mode {mode!r}")
    if duration_s < 0:
        raise ValueError("duration must be nonnegative")
    return (modes[mode].mcu_current_ua + standby_current(budget)) * duration_s / 3600.0
