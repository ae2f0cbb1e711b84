"""Scenario file loading and canned laboratory-test scenario builders."""

from __future__ import annotations

import json

from . import channel as ch
from . import frame_codec as fc
from . import modem as md
from . import power as pw
from .harness import ConfigInvalid, Scenario, SlaveSpec


def _address(value, path: str) -> fc.Address:
    try:
        if isinstance(value, str):
            return fc.Address(bytes.fromhex(value.replace(" ", "")))
        return fc.Address(bytes(value))
    except (ValueError, TypeError) as err:
        raise ConfigInvalid(f"{path}: {err}") from err


def _budget(d: dict, path: str) -> pw.UnitBudget:
    try:
        gating = frozenset(d.get("gating", pw.UNIT_NAMES))
        return pw.UnitBudget(
            carrier_ua=d.get("carrier_ua", 130.0),
            signal_processing_ua=d.get("signal_processing_ua", 300.0),
            power_conversion_ua=d.get("power_conversion_ua", 180.0),
            master_ua=d.get("master_ua", 50.0),
            gating=gating,
        )
    except ValueError as err:
        raise ConfigInvalid(f"{path}: {err}") from err


def scenario_from_dict(d: dict) -> Scenario:
    try:
        modem = md.ModemConfig(**d.get("modem", {}))
    except (TypeError, ValueError) as err:
        raise ConfigInvalid(f"modem: {err}") from err
    try:
        chd = dict(d.get("channel", {}))
        if "interference" in chd:
            chd["interference"] = tuple(tuple(tone) for tone in chd["interference"])
        channel = ch.ChannelConfig(**chd)
    except (TypeError, ValueError) as err:
        raise ConfigInvalid(f"channel: {err}") from err
    try:
        front_end = ch.FrontEndConfig(**d.get("front_end", {}))
    except (TypeError, ValueError) as err:
        raise ConfigInvalid(f"front_end: {err}") from err

    slaves = []
    for i, s in enumerate(d.get("slaves", [])):
        slaves.append(SlaveSpec(
            address=_address(s.get("address"), f"slaves[{i}].address"),
            mode=s.get("mode", "function_test"),
            temperature_c=s.get("temperature_c", 20.0),
            budget=_budget(s.get("budget", {}), f"slaves[{i}].budget"),
        ))
    schedule = tuple(
        (float(t), _address(a, f"poll_schedule[{i}]"))
        for i, (t, a) in enumerate(d.get("poll_schedule", []))
    )
    injections = tuple((float(t), str(n)) for t, n in d.get("collision_injections", []))

    if "duration_s" not in d:
        raise ConfigInvalid("duration_s: missing")
    sc = Scenario(
        duration_s=float(d["duration_s"]),
        seed=int(d.get("seed", 0)),
        modem=modem,
        channel=channel,
        front_end=front_end,
        slaves=tuple(slaves),
        poll_schedule=schedule,
        collision_injections=injections,
        ebn0_db=d.get("ebn0_db", 20.0),
        master_budget=_budget(d.get("master_budget", {}), "master_budget"),
    )
    sc.validate()
    return sc


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


# --- canned laboratory setups ------------------------------------------------

SINGLE_POINT_ADDRESS = fc.Address(bytes([0x64, 0x49, 0x46, 0x68, 0x00, 0x53]))

MULTI_POINT_ADDRESSES = (
    fc.Address(bytes([0x89, 0x47, 0x46, 0x68, 0x00, 0x53])),
    fc.Address(bytes([0x03, 0x03, 0x46, 0x68, 0x00, 0x53])),
    fc.Address(bytes([0x11, 0x01, 0x46, 0x68, 0x00, 0x53])),
    fc.Address(bytes([0x39, 0x41, 0x46, 0x68, 0x00, 0x53])),
    fc.Address(bytes([0x55, 0x21, 0x46, 0x68, 0x00, 0x53])),
)


def poll_spacing_s(modem: md.ModemConfig) -> float:
    """Conservative gap between consecutive polls: one full exchange, doubled."""
    frame_len = fc.HEADER_LEN + 2 + fc.TRAILER_LEN
    exchange = 2 * md.frame_airtime_s(frame_len, modem) + pw.MODE_TABLE["STOP1"].wakeup_time_s
    return 4.0 * exchange + 1e-4


def single_point_scenario(bit_rate_bps: int = 115200, seed: int = 1,
                          ebn0_db: float | None = 20.0) -> Scenario:
    """One master, one slave in function-test mode, short equivalent channel."""
    modem = md.ModemConfig(bit_rate_bps=bit_rate_bps)
    spacing = poll_spacing_s(modem)
    return Scenario(
        duration_s=10 * spacing,
        seed=seed,
        modem=modem,
        channel=ch.ChannelConfig(cable_length_m=2.0),
        slaves=(SlaveSpec(address=SINGLE_POINT_ADDRESS, mode="function_test"),),
        poll_schedule=((spacing, SINGLE_POINT_ADDRESS),),
        ebn0_db=ebn0_db,
    )


def multi_point_scenario(polls_per_slave: int = 100, bit_rate_bps: int = 115200,
                         seed: int = 2, ebn0_db: float | None = 20.0,
                         temperatures=(19.7, 24.8, 21.0, 22.5, 18.3)) -> Scenario:
    """One master and five sensor-mode slaves on the 700 m configuration."""
    modem = md.ModemConfig(bit_rate_bps=bit_rate_bps)
    spacing = poll_spacing_s(modem)
    slaves = tuple(
        SlaveSpec(address=addr, mode="sensor", temperature_c=temp)
        for addr, temp in zip(MULTI_POINT_ADDRESSES, temperatures)
    )
    schedule = []
    t = spacing
    for _ in range(polls_per_slave):
        for spec in slaves:
            schedule.append((t, spec.address))
            t += spacing
    return Scenario(
        duration_s=t + spacing,
        seed=seed,
        modem=modem,
        channel=ch.ChannelConfig(cable_length_m=700.0),
        slaves=slaves,
        poll_schedule=tuple(schedule),
        ebn0_db=ebn0_db,
    )
