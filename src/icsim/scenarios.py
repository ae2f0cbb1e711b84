"""Scenario file loading and canned laboratory-test scenario builders."""

from __future__ import annotations

import dataclasses
import json
import math
import types
import typing

from . import channel as ch
from . import frame_codec as fc
from . import modem as md
from . import power as pw
from .harness import FRAME_LEN, ConfigInvalid, Scenario, SlaveSpec


def _load(tp, value, path: str):
    """Build a ``tp`` from decoded JSON; the dataclass annotations are the schema.

    ``path`` names ``value`` in the ConfigInvalid raised for anything malformed.
    """
    try:
        return _convert(tp, value, path)
    except ConfigInvalid:
        raise
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigInvalid(f"{path or 'scenario'}: {err}") from err


def _convert(tp, value, path: str):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _convert(tp, value, path)
    if tp is fc.Address:
        if isinstance(value, str):
            return fc.Address(bytes.fromhex(value.replace(" ", "")))
        return fc.Address(bytes(_load(tuple[int, ...], value, path)))
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise TypeError(f"expected an object, got {type(value).__name__}")
        prefix = f"{path}." if path else ""
        hints = typing.get_type_hints(tp)
        for f in dataclasses.fields(tp):
            if f.name not in value and f.default is dataclasses.MISSING:
                raise ConfigInvalid(f"{prefix}{f.name}: missing")
        for key in value:
            if key not in hints:
                name = key if str(key).isidentifier() else repr(key)
                raise ConfigInvalid(f"{prefix}{name}: unknown key")
        return tp(**{k: _load(hints[k], v, prefix + k) for k, v in value.items()})
    if origin in (tuple, frozenset):
        if not isinstance(value, list):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        if origin is frozenset or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ValueError(f"expected {len(args)} items, got {len(value)}")
        return origin(_load(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if tp is float:
        if type(value) not in (int, float):
            raise TypeError(f"expected a number, got {type(value).__name__}")
        if not math.isfinite(value := float(value)):
            raise ValueError("must be finite")
        return value
    if tp in (int, str):
        if type(value) is not tp:
            raise TypeError(f"expected {tp.__name__}, got {type(value).__name__}")
        return value
    raise NotImplementedError(f"{path}: no loader for {tp!r}")


def scenario_from_dict(d: dict) -> Scenario:
    """Build a Scenario, which checks itself; ConfigInvalid names the field at fault."""
    return _load(Scenario, d, "")


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
            raise ConfigInvalid(f"{path}: unreadable JSON: {err}") from err
    return scenario_from_dict(d)


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
    """Conservative gap between consecutive polls: four exchanges, each two frame
    airtimes and a STOP1 wake, plus 0.1 ms."""
    exchange = 2 * md.frame_airtime_s(FRAME_LEN, modem) + pw.MODE_TABLE["STOP1"].wakeup_time_s
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
