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


MCU_ONLY = pw.UnitBudget(gating=frozenset())


class TestChargeConsumed:
    def test_stop1_hour_mcu_only(self):
        uah = pw.charge_consumed("STOP1", 3600.0, MCU_ONLY)
        assert uah == pytest.approx(566.0, rel=1e-9)
        assert pw.uah_to_joules(uah) == pytest.approx(566.0 * 3600 * 3.7 * 1e-6, rel=1e-9)

    def test_zero_length_stretch_charges_nothing(self):
        assert pw.charge_consumed("RUN", 0.0, pw.UnitBudget()) == 0.0

    def test_additive_over_concatenation(self):
        hour = pw.charge_consumed("RUN", 3600.0, MCU_ONLY)
        split = hour + hour
        assert split == pytest.approx(24_000.0, rel=1e-9)
        assert split == pw.charge_consumed("RUN", 7200.0, MCU_ONLY)

    def test_gated_units_counted_per_record(self):
        uah = pw.charge_consumed("STOP1", 3600.0, pw.UnitBudget())
        assert uah == pytest.approx(566.0 + 660.0, rel=1e-9)

    def test_standby_budget_modes_exclude_stop1_mcu(self):
        uah = pw.charge_consumed("STOP1", 3600.0, pw.UnitBudget(), pw.STANDBY_BUDGET_MODES)
        assert uah == pytest.approx(660.0, rel=1e-9)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode 'STOP2'"):
            pw.charge_consumed("STOP2", 1.0, MCU_ONLY)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="duration must be nonnegative"):
            pw.charge_consumed("RUN", -1e-9, MCU_ONLY)


def test_mode_table_values():
    assert pw.MODE_TABLE["RUN"].mcu_current_ua == 12_000.0
    assert pw.MODE_TABLE["LPRUN"].mcu_current_ua == 3350.0
    assert pw.MODE_TABLE["SLEEP"].mcu_current_ua == 1200.0
    assert pw.MODE_TABLE["STOP1"].mcu_current_ua == 566.0
    assert pw.MODE_TABLE["SHUTDOWN"].mcu_current_ua == 0.23
    assert pw.MODE_TABLE["RUN"].wakeup_time_s == 0.0
