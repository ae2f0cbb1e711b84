"""Pinned sha256 digests of ``report.json`` for canned scenarios.

A report is a pure function of its scenario, seed included, so any change
that alters simulated behaviour moves one of these digests.  A speed or
refactor change must keep them; a change that rightly alters behaviour
updates them and says why in CHANGES.md.

The digests were recorded with numpy 2.4.6 and scipy 1.17.1.  Another
numpy or scipy may round the noise draw or the biquad differently and move
them without any change to icsim.
"""

import hashlib
from dataclasses import replace

import pytest

from icsim import frame_codec as fc
from icsim import harness as hs
from icsim import modem as md
from icsim import nodes as nd
from icsim import power as pw
from icsim import scenarios as scn


def collided_multi_point_scenario() -> hs.Scenario:
    """Ten polls per slave; three commands are hit halfway by another slave."""
    base = scn.multi_point_scenario(polls_per_slave=10)
    cmd_len = fc.HEADER_LEN + len(nd.COMMAND_PAYLOAD) + fc.TRAILER_LEN
    half_command = md.frame_airtime_s(cmd_len, base.modem) / 2
    injections = tuple(
        (base.poll_schedule[poll][0] + half_command, injector)
        for poll, injector in ((3, "slave1"), (17, "slave5"), (31, "slave3"))
    )
    return replace(base, collision_injections=injections)


def gated_multi_point_scenario() -> hs.Scenario:
    """Ten polls per slave on the paper's 530 uA budget: every slave's carrier
    is gated off, and the master counts only its own unit."""
    base = scn.multi_point_scenario(polls_per_slave=10)
    slave_budget = pw.UnitBudget().with_gating(
        {"signal_processing", "power_conversion", "master"})
    slaves = tuple(replace(spec, budget=slave_budget) for spec in base.slaves)
    return replace(base, slaves=slaves,
                   master_budget=pw.UnitBudget().with_gating({"master"}))


SCENARIOS = {
    "single_point_9600": lambda: scn.single_point_scenario(bit_rate_bps=9600),
    "single_point_115200": lambda: scn.single_point_scenario(bit_rate_bps=115200),
    "multi_point": scn.multi_point_scenario,
    "multi_point_collided": collided_multi_point_scenario,
    "multi_point_gated": gated_multi_point_scenario,
}

DIGESTS = {
    "single_point_9600":
        "8a61abcdb6e2b13c07afcabc08c38cbea8dd39a35136ecf4e3421c86710ab7e7",
    "single_point_115200":
        "e52890a053a61d0f146b1fa808796be3b210f31ac00496e609460ffa539245b2",
    "multi_point":
        "a0e645ebbeecd934b2be8f78c44b97ce168697b5854ae6a81de71cb55845e5a8",
    "multi_point_collided":
        "602b3bfd1c499d2e73ef66b4afc7e177399ba36b5b8531be25f636b2e6e53f01",
    "multi_point_gated":
        "fa9acb34a19dc14f8f9729e9e952162da9c57ca6f77521ea3f0df7f7c9194c2a",
}


def report_digest(sc: hs.Scenario, path) -> str:
    hs.emit_report(hs.run_scenario(sc), "json", path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_digest(name, tmp_path):
    assert report_digest(SCENARIOS[name](), tmp_path / "report.json") == DIGESTS[name]


def test_collided_scenario_exercises_the_error_path():
    report = hs.run_scenario(collided_multi_point_scenario())
    assert report.nodes["master"].timeouts >= 3
    assert sum(s.decode_errors for s in report.nodes.values()) > 0
