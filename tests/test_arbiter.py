import pytest
from hypothesis import given, settings, strategies as st

from coexsim.arbiter import DENY, GRANT, RX, S, TX, RadioArbiter, schedule_aware_check
from coexsim.wimax import DL, UL

# (current state, requested state) -> (decision, next state)
TRANSITION_TABLE = {
    (S, S): (GRANT, S), (S, RX): (GRANT, RX), (S, TX): (GRANT, TX),
    (RX, S): (GRANT, S), (RX, RX): (GRANT, RX), (RX, TX): (DENY, RX),
    (TX, S): (GRANT, S), (TX, RX): (DENY, TX), (TX, TX): (GRANT, TX),
}


def arbiter_in_state(state: str) -> RadioArbiter:
    a = RadioArbiter(["radio-a", "radio-b"])
    if state is not S:
        assert a.request("radio-a", state) == GRANT
    return a


class TestTransitionTable:
    @pytest.mark.parametrize("state,req", sorted(TRANSITION_TABLE, key=str))
    def test_single_interface_conformance(self, state, req):
        expected_decision, expected_state = TRANSITION_TABLE[(state, req)]
        a = arbiter_in_state(state)
        assert a.request("radio-a", req) == expected_decision
        assert a.state is expected_state

    def test_persisting_request_from_second_interface_accepted(self):
        a = arbiter_in_state(TX)
        assert a.request("radio-b", TX) == GRANT
        assert a.state is TX
        a = arbiter_in_state(RX)
        assert a.request("radio-b", RX) == GRANT
        assert a.state is RX

    def test_unregistered_interface_rejected(self):
        a = RadioArbiter(["radio-a"])
        with pytest.raises(LookupError):
            a.request("ghost", TX)

    def test_denial_leaves_ledger_untouched(self):
        a = arbiter_in_state(RX)
        assert a.request("radio-b", TX) == DENY
        assert a.held == {"radio-a": 1}
        assert a.state is RX


class TestReleaseSemantics:
    def test_empty_ledger_sleeps(self):
        a = RadioArbiter(["radio-a"])
        assert a.held == {}
        assert a.state is S

    def test_last_release_turns_the_light_off(self):
        a = arbiter_in_state(RX)
        a.release("radio-a")
        assert a.state is S

    def test_reference_counted_release(self):
        a = arbiter_in_state(TX)
        assert a.request("radio-b", TX) == GRANT
        a.release("radio-a")
        assert a.state is TX
        a.release("radio-b")
        assert a.state is S

    def test_release_of_unregistered_interface_rejected(self):
        a = RadioArbiter(["radio-a"])
        with pytest.raises(LookupError):
            a.release("ghost")

    def test_release_of_non_holder_changes_nothing(self):
        a = arbiter_in_state(TX)
        a.release("radio-b")
        assert a.state is TX

    def test_second_grant_outlives_the_first_release(self):
        """A radio granted TX for two frames keeps TX until both end, so its
        mate cannot start receiving under the second."""
        a = arbiter_in_state(TX)
        assert a.request("radio-a", TX) == GRANT
        a.release("radio-a")
        assert a.state is TX
        assert a.request("radio-b", RX) == DENY
        a.release("radio-a")
        assert a.state is S
        assert a.request("radio-b", RX) == GRANT


@st.composite
def request_stream(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    return [(draw(st.sampled_from(["radio-a", "radio-b", "radio-c"])),
             draw(st.sampled_from([S, RX, TX]))) for _ in range(n)]


class TestProperties:
    # no wall-clock deadline: a host that pauses the process mid-example
    # (400 ms) turned Hypothesis's default 200 ms into a flaky failure
    @settings(deadline=None)
    @given(request_stream())
    def test_never_tx_and_rx_simultaneously(self, stream):
        """A ledger kept from the decisions alone (the modes of each
        interface's unreturned grants) never holds a transmit beside a
        receive, and agrees with the arbiter's grant counts and state."""
        a = RadioArbiter(["radio-a", "radio-b", "radio-c"])
        ledger: dict[str, list] = {"radio-a": [], "radio-b": [], "radio-c": []}
        for iface, desired in stream:
            if a.request(iface, desired) == DENY:
                continue
            if desired is not S:
                ledger[iface].append(desired)
            elif ledger[iface]:
                ledger[iface].pop()
            modes = {m for grants in ledger.values() for m in grants}
            assert not {TX, RX} <= modes
            assert a.held == {i: len(g) for i, g in ledger.items() if g}
            assert a.state is max(modes, default=S)

    @settings(deadline=None)
    @given(request_stream())
    def test_release_all_returns_to_sleep(self, stream):
        """Returning every grant the stream took (a sleep returns one) sleeps."""
        a = RadioArbiter(["radio-a", "radio-b", "radio-c"])
        taken = dict.fromkeys(("radio-a", "radio-b", "radio-c"), 0)
        for iface, desired in stream:
            if a.request(iface, desired) == GRANT:
                taken[iface] = max(0, taken[iface] + (-1 if desired is S else 1))
        for iface, n in taken.items():
            for _ in range(n):
                assert a.state is not S
                a.release(iface)
        assert a.state is S

    @settings(deadline=None)
    @given(request_stream())
    def test_decisions_deterministic(self, stream):
        def run():
            a = RadioArbiter(["radio-a", "radio-b", "radio-c"])
            return [a.request(i, d) for i, d in stream]
        assert run() == run()


class TestScheduleAware:
    # a frame starting at 10,000 us: downlink, then uplink after the turnaround gap
    SLOTS = ((DL, 10_200, 13_000), (UL, 13_100, 15_000))

    def test_wifi_tx_over_scheduled_reception_denied(self):
        assert schedule_aware_check(TX, (10_500, 12_500), self.SLOTS) == DENY

    def test_wifi_tx_over_scheduled_transmission_allowed(self):
        assert schedule_aware_check(TX, (13_200, 14_900), self.SLOTS) == GRANT

    def test_wifi_rx_over_scheduled_transmission_denied(self):
        assert schedule_aware_check(RX, (13_200, 14_900), self.SLOTS) == DENY

    def test_wifi_rx_over_scheduled_reception_allowed(self):
        assert schedule_aware_check(RX, (10_500, 12_500), self.SLOTS) == GRANT

    def test_unscheduled_airtime_allowed(self):
        assert schedule_aware_check(TX, (10_000, 10_150), self.SLOTS) == GRANT

    def test_slots_are_half_open(self):
        """A span that ends where a conflicting slot starts, or starts where
        one ends, does not overlap it."""
        assert schedule_aware_check(TX, (10_000, 10_200), self.SLOTS) == GRANT
        assert schedule_aware_check(RX, (15_000, 15_300), self.SLOTS) == GRANT
        assert schedule_aware_check(TX, (10_000, 10_201), self.SLOTS) == DENY
