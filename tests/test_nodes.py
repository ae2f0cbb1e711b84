import pytest

from icsim import frame_codec as fc
from icsim import nodes as nd

SLAVE_ADDR = fc.Address(bytes([0x64, 0x49, 0x46, 0x68, 0x00, 0x53]))
OTHER_ADDR = fc.Address(bytes([0x89, 0x47, 0x46, 0x68, 0x00, 0x53]))


class TestTemperatureCodec:
    def test_lab_readings(self):
        assert nd.encode_temperature(19.7) == (0x13, 0x07)
        assert nd.encode_temperature(24.8) == (0x18, 0x08)
        assert nd.encode_temperature(0.0) == (0x00, 0x00)

    def test_encode_rejects_out_of_range(self):
        for bad in (-0.1, 100.0, 250.0):
            with pytest.raises(nd.OutOfRange):
                nd.encode_temperature(bad)

    def test_exhaustive_round_trip(self):
        # all 1000 representable readings
        for tenths in range(1000):
            assert nd.encode_temperature(tenths / 10) == (tenths // 10, tenths % 10)


def command_frame(target=SLAVE_ADDR):
    return fc.Frame(1, target, nd.COMMAND_PAYLOAD)


class TestSlave:
    def test_matching_command_wakes_and_replies(self):
        state = nd.SlaveState(address=SLAVE_ADDR)
        after, actions = nd.slave_step(state, nd.FrameReceived(command_frame()))
        assert after.phase == "TRANSMIT"
        kinds = [type(a) for a in actions]
        assert kinds == [nd.SetPowerMode, nd.TransmitFrame]
        assert actions[0] == nd.SetPowerMode("RUN", 7.8e-6)
        reply = actions[1].frame
        assert reply.relay_depth == 1
        assert reply.address == SLAVE_ADDR
        assert reply.payload == bytes([0x00, 0xFF])

    def test_sensor_mode_replies_with_temperature(self):
        state = nd.SlaveState(address=SLAVE_ADDR, mode="sensor", temperature_c=19.7)
        _, actions = nd.slave_step(state, nd.FrameReceived(command_frame()))
        reply = next(a for a in actions if isinstance(a, nd.TransmitFrame)).frame
        assert reply.payload == bytes([0x13, 0x07])
        assert reply.length == 2

    def test_non_matching_frame_is_ignored(self):
        state = nd.SlaveState(address=SLAVE_ADDR)
        after, actions = nd.slave_step(state, nd.FrameReceived(command_frame(OTHER_ADDR)))
        assert after == state
        assert actions == []

    def test_full_cycle_returns_to_initial_state(self):
        state = nd.SlaveState(address=SLAVE_ADDR, mode="sensor", temperature_c=21.5)
        mid, _ = nd.slave_step(state, nd.FrameReceived(command_frame()))
        final, actions = nd.slave_step(mid, nd.TxDone())
        assert final == state
        assert nd.SetPowerMode("STOP1", 0.0) in actions

    def test_unexpected_event_logged_not_crashed(self):
        state = nd.SlaveState(address=SLAVE_ADDR)
        after, actions = nd.slave_step(state, nd.TxDone())
        assert after == state
        assert len(actions) == 1 and isinstance(actions[0], nd.Log)

    def test_an_injected_frame_ending_leaves_the_slave_in_transmit(self):
        state = nd.SlaveState(address=SLAVE_ADDR, phase="TRANSMIT")
        after, actions = nd.slave_step(state, nd.TxDone(injected=True))
        assert after == state
        assert actions == [nd.Log("slave ignored TxDone in TRANSMIT")]

    @pytest.mark.parametrize("injection_ends_first", [True, False])
    def test_the_reply_ending_ends_transmit_whichever_frame_ends_first(self, injection_ends_first):
        standby = nd.SlaveState(address=SLAVE_ADDR)
        transmit, _ = nd.slave_step(standby, nd.FrameReceived(command_frame()))
        state = transmit
        if injection_ends_first:
            state, actions = nd.slave_step(state, nd.TxDone(injected=True))
            assert state == transmit
            assert actions == [nd.Log("slave ignored TxDone in TRANSMIT")]
        state, actions = nd.slave_step(state, nd.TxDone())
        assert state == standby
        assert actions == [nd.SetPowerMode("STOP1", 0.0)]
        if not injection_ends_first:
            state, actions = nd.slave_step(state, nd.TxDone(injected=True))
            assert state == standby
            assert actions == [nd.Log("slave ignored TxDone in STANDBY")]


class TestMaster:
    def test_poll_emits_command_and_timer(self):
        state = nd.MasterState(timeout_s=0.01)
        after, actions = nd.master_step(state, nd.PollRequest(SLAVE_ADDR))
        assert after.phase == "AWAIT_REPLY"
        assert after.pending_target == SLAVE_ADDR
        tx = next(a for a in actions if isinstance(a, nd.TransmitFrame))
        assert fc.encode_frame(tx.frame).hex(" ") == "01 64 49 46 68 00 53 02 12 34 f7 75"
        assert after.polls == 1
        assert nd.StartTimer(0.01, 1) in actions

    def test_matching_reply_reports_payload(self):
        state = nd.MasterState(phase="AWAIT_REPLY", pending_target=SLAVE_ADDR)
        reply = fc.Frame(1, SLAVE_ADDR, bytes([0x00, 0xFF]))
        after, actions = nd.master_step(state, nd.FrameReceived(reply))
        assert after.phase == "IDLE"
        assert actions == [nd.Report(SLAVE_ADDR, bytes([0x00, 0xFF]))]

    def test_reply_from_wrong_address_ignored(self):
        state = nd.MasterState(phase="AWAIT_REPLY", pending_target=SLAVE_ADDR)
        reply = fc.Frame(1, OTHER_ADDR, bytes([0x00, 0xFF]))
        after, actions = nd.master_step(state, nd.FrameReceived(reply))
        assert after == state
        assert actions == []

    def test_timeout_reports_marker(self):
        state = nd.MasterState(phase="AWAIT_REPLY", pending_target=SLAVE_ADDR, polls=1)
        after, actions = nd.master_step(state, nd.Timeout(1))
        assert after.phase == "IDLE"
        assert actions == [nd.Report(SLAVE_ADDR, None)]

    @pytest.mark.parametrize("next_poll", [False, True])
    def test_a_stale_timeout_leaves_the_master_unchanged(self, next_poll):
        """The timer of an answered poll does nothing, in IDLE or awaiting the next poll."""
        state, (_, timer) = nd.master_step(nd.MasterState(), nd.PollRequest(SLAVE_ADDR))
        state, _ = nd.master_step(state, nd.FrameReceived(fc.Frame(1, SLAVE_ADDR, bytes(2))))
        if next_poll:
            state, _ = nd.master_step(state, nd.PollRequest(OTHER_ADDR))
        assert state.phase == ("AWAIT_REPLY" if next_poll else "IDLE")
        after, actions = nd.master_step(state, nd.Timeout(timer.poll))
        assert after == state
        assert actions == []

    def test_at_most_one_outstanding_command(self):
        state = nd.MasterState(phase="AWAIT_REPLY", pending_target=SLAVE_ADDR)
        after, actions = nd.master_step(state, nd.PollRequest(OTHER_ADDR))
        assert after == state
        assert len(actions) == 1 and isinstance(actions[0], nd.Log)

    def test_await_reply_requires_target(self):
        with pytest.raises(ValueError):
            nd.MasterState(phase="AWAIT_REPLY", pending_target=None)


def test_default_timeout_covers_round_trip():
    from icsim.modem import ModemConfig
    cfg = ModemConfig()
    prop_delay_s = 3.5e-6  # 700 m at 2e8 m/s
    timeout = nd.master_timeout_s(cfg, prop_delay_s)
    airtime = (8 * nd.FRAME_LEN + 1) * cfg.cycles_per_bit / cfg.carrier_hz
    assert timeout == pytest.approx(2 * (2 * airtime + 7.8e-6) + 2 * prop_delay_s)
    assert timeout - nd.master_timeout_s(cfg, 0.0) == pytest.approx(2 * prop_delay_s)


class TestAccepts:
    REPLY = fc.Frame(1, SLAVE_ADDR, bytes([0x00, 0xFF]))

    @pytest.mark.parametrize("state, frame, taken", [
        (nd.MasterState(), REPLY, False),  # no command outstanding
        (nd.MasterState(phase="AWAIT_REPLY", pending_target=SLAVE_ADDR), REPLY, True),
        (nd.MasterState(phase="AWAIT_REPLY", pending_target=OTHER_ADDR), REPLY, False),
        (nd.SlaveState(address=SLAVE_ADDR), command_frame(), True),
        (nd.SlaveState(address=SLAVE_ADDR), command_frame(OTHER_ADDR), False),
        (nd.SlaveState(address=SLAVE_ADDR, phase="TRANSMIT"), command_frame(), True),
        (nd.SlaveState(address=SLAVE_ADDR, phase="TRANSMIT"), command_frame(OTHER_ADDR), False),
    ])
    def test_truth_table(self, state, frame, taken):
        assert nd.accepts(state, frame) is taken


class TestInject:
    """An injected node sends its own frame and stays as it was."""

    @pytest.mark.parametrize("state, frame_hex", [
        # The master sends a command to the all-zero address,
        (nd.MasterState(), "01 00 00 00 00 00 00 02 12 34 49 25"),
        (nd.MasterState(phase="AWAIT_REPLY", pending_target=SLAVE_ADDR),
         "01 00 00 00 00 00 00 02 12 34 49 25"),
        # and a slave its reply to a command.
        (nd.SlaveState(address=SLAVE_ADDR), "01 64 49 46 68 00 53 02 00 ff b0 ac"),
        (nd.SlaveState(address=SLAVE_ADDR, phase="TRANSMIT"),
         "01 64 49 46 68 00 53 02 00 ff b0 ac"),
        (nd.SlaveState(address=SLAVE_ADDR, mode="sensor", temperature_c=19.7),
         "01 64 49 46 68 00 53 02 13 07 cb 47"),
        (nd.SlaveState(address=SLAVE_ADDR, phase="TRANSMIT", mode="sensor", temperature_c=19.7),
         "01 64 49 46 68 00 53 02 13 07 cb 47"),
    ])
    def test_sends_its_own_frame_and_keeps_its_state(self, state, frame_hex):
        step = nd.master_step if isinstance(state, nd.MasterState) else nd.slave_step
        after, actions = step(state, nd.Inject())
        assert after == state
        assert [type(a) for a in actions] == [nd.TransmitFrame]
        assert fc.encode_frame(actions[0].frame).hex(" ") == frame_hex

    def test_a_slave_injects_the_frame_it_replies_with(self):
        state = nd.SlaveState(address=SLAVE_ADDR, mode="sensor", temperature_c=24.8)
        _, injected = nd.slave_step(state, nd.Inject())
        _, replied = nd.slave_step(state, nd.FrameReceived(command_frame()))
        assert injected[0] == nd.TransmitFrame(nd.slave_reply_frame(state), injected=True)
        assert replied[1] == nd.TransmitFrame(nd.slave_reply_frame(state), injected=False)
