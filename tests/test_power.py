import itertools
import math

import pytest

from icsim import power as pw


class TestStandbyCurrent:
    def test_all_units_on_is_660(self):
        assert pw.standby_current(pw.UnitBudget()) == 660.0

    def test_carrier_gated_off_is_530(self):
        budget = pw.UnitBudget().with_gating(set(pw.UNIT_NAMES) - {"carrier"})
        assert pw.standby_current(budget) == 530.0

    def test_all_gated_off_is_zero(self):
        assert pw.standby_current(pw.UnitBudget(gating=frozenset())) == 0.0

    def test_rejects_unknown_unit(self):
        with pytest.raises(ValueError):
            pw.UnitBudget(gating=frozenset({"flux_capacitor"}))


class TestTransition:
    def test_table_latencies(self):
        assert pw.transition("STOP1", "RUN") == (7.8e-6, True)
        assert pw.transition("LPRUN", "RUN") == (64e-6, True)
        assert pw.transition("SHUTDOWN", "RUN") == (306e-6, True)

    def test_run_to_run_is_free(self):
        assert pw.transition("RUN", "RUN") == (0.0, True)

    def test_run_reaches_every_low_power_mode(self):
        for mode in set(pw.MODE_TABLE) - {"RUN"}:
            latency, allowed = pw.transition("RUN", mode)
            assert allowed and latency == 0.0

    def test_low_power_to_low_power_disallowed(self):
        for a, b in itertools.permutations(set(pw.MODE_TABLE) - {"RUN"}, 2):
            _, allowed = pw.transition(a, b)
            assert not allowed

    def test_every_mode_can_wake_into_run(self):
        for mode in pw.MODE_TABLE:
            latency, allowed = pw.transition(mode, "RUN")
            assert allowed
            assert latency == pw.MODE_TABLE[mode].wakeup_time_s

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            pw.transition("RUN", "HIBERNATE")


class TestChargeConsumed:
    def test_stop1_hour_mcu_only(self):
        trace = pw.EnergyTrace()
        trace.append("STOP1", set(), 3600.0)
        uah, joules = pw.charge_consumed(trace, pw.UnitBudget())
        assert uah == pytest.approx(566.0, rel=1e-9)
        assert joules == pytest.approx(566.0 * 3600 * 3.7 * 1e-6, rel=1e-9)

    def test_empty_trace(self):
        assert pw.charge_consumed(pw.EnergyTrace(), pw.UnitBudget()) == (0.0, 0.0)

    def test_additive_over_concatenation(self):
        budget = pw.UnitBudget()
        split = pw.EnergyTrace()
        split.append("RUN", set(), 3600.0)
        split.append("RUN", set(), 3600.0)
        joined = pw.EnergyTrace()
        joined.append("RUN", set(), 7200.0)
        assert pw.charge_consumed(split, budget)[0] == pytest.approx(24_000.0, rel=1e-9)
        assert pw.charge_consumed(split, budget) == pw.charge_consumed(joined, budget)

    def test_order_independent(self):
        budget = pw.UnitBudget()
        a = pw.EnergyTrace()
        a.append("RUN", set(pw.UNIT_NAMES), 10.0)
        a.append("STOP1", set(), 20.0)
        b = pw.EnergyTrace()
        b.append("STOP1", set(), 20.0)
        b.append("RUN", set(pw.UNIT_NAMES), 10.0)
        assert pw.charge_consumed(a, budget) == pytest.approx(pw.charge_consumed(b, budget))

    def test_gated_units_counted_per_record(self):
        trace = pw.EnergyTrace()
        trace.append("STOP1", set(pw.UNIT_NAMES), 3600.0)
        uah, _ = pw.charge_consumed(trace, pw.UnitBudget())
        assert uah == pytest.approx(566.0 + 660.0, rel=1e-9)

    def test_standby_budget_modes_exclude_stop1_mcu(self):
        trace = pw.EnergyTrace()
        trace.append("STOP1", set(pw.UNIT_NAMES), 3600.0)
        uah, _ = pw.charge_consumed(trace, pw.UnitBudget(), pw.STANDBY_BUDGET_MODES)
        assert uah == pytest.approx(660.0, rel=1e-9)


class TestBatteryLife:
    def test_full_standby_at_660(self):
        duty = [("STOP1", pw.UNIT_NAMES, 1.0)]
        hours = pw.battery_life(1000.0, duty, modes=pw.STANDBY_BUDGET_MODES)
        assert hours == pytest.approx(1000.0 / 0.660, rel=1e-6)

    def test_full_run_at_12ma(self):
        hours = pw.battery_life(1000.0, [("RUN", (), 1.0)])
        assert hours == pytest.approx(1000.0 / 12.0, rel=1e-6)

    def test_no_current_lasts_forever(self):
        hours = pw.battery_life(1000.0, [("STOP1", (), 1.0)], modes=pw.STANDBY_BUDGET_MODES)
        assert hours == math.inf

    def test_fraction_sum_enforced(self):
        with pytest.raises(pw.FractionSumInvalid):
            pw.battery_life(1000.0, [("RUN", (), 0.9)])

    def test_monotone_decreasing_in_currents(self):
        duty = [("STOP1", pw.UNIT_NAMES, 1.0)]
        base = pw.battery_life(1000.0, duty, pw.UnitBudget())
        hungrier = pw.battery_life(1000.0, duty, pw.UnitBudget(carrier_ua=200.0))
        assert hungrier < base


def test_mode_table_values():
    assert pw.MODE_TABLE["RUN"].mcu_current_ua == 12_000.0
    assert pw.MODE_TABLE["LPRUN"].mcu_current_ua == 3350.0
    assert pw.MODE_TABLE["SLEEP"].mcu_current_ua == 1200.0
    assert pw.MODE_TABLE["STOP1"].mcu_current_ua == 566.0
    assert pw.MODE_TABLE["SHUTDOWN"].mcu_current_ua == 0.23
    assert pw.MODE_TABLE["RUN"].wakeup_time_s == 0.0
