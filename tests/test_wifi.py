import random

from hypothesis import example, given, strategies as st

from coexsim.medium import CTS, DATA, Position, RadioInterface, Transmission
from coexsim.wifi import (OUTCOME_DONE, OUTCOME_DROP, OUTCOME_RETRY, DcfParams,
                          WifiStation, data_airtime_us, sense)

PARAMS = DcfParams()


def make_station(seed=1):
    iface = RadioInterface("sta", Position(0, 0), 2412.0, 20.0,
                           -85.0, -82.0)
    return WifiStation(iface, PARAMS, random.Random(seed))


def cts(duration, start=0, power=-53.0):
    return Transmission("coord", CTS, start, 44, power, nav_duration_us=duration)


def test_data_airtime():
    assert data_airtime_us(1500, 6.0) == 2000


class TestNav:
    def test_cts_sets_nav_past_frame_end(self):
        st_ = make_station()
        st_.on_overheard(cts(10000), now_us=44)
        assert st_.nav_expiry_us == 10044

    def test_shorter_cts_never_shrinks_nav(self):
        st_ = make_station()
        st_.on_overheard(cts(10000), now_us=44)
        st_.on_overheard(cts(100, start=2000), now_us=2044)
        assert st_.nav_expiry_us == 10044


class TestTryAccess:
    def test_uncontended_access_after_difs(self):
        st_ = make_station()
        st_.enqueue(0, 1500)
        token, start = st_.arm_attempt(100)
        assert start == 100 + PARAMS.difs_us
        assert st_.take_attempt(token) is True
        assert st_.take_attempt(token) is False  # taken once

    def test_arming_while_pending_returns_none_and_takes_no_token(self):
        st_ = make_station()
        st_.enqueue(0, 1500)
        token, start = st_.arm_attempt(0)
        assert st_.arm_attempt(0) is None
        assert st_.arm_attempt(start + 500) is None
        assert st_.take_attempt(token) is True
        # the next attempt takes the next token: the refused arms took none
        assert st_.arm_attempt(start)[0] == token + 1

    def test_stale_token_leaves_the_live_attempt_armed(self):
        st_ = make_station()
        st_.enqueue(0, 1500)
        stale, _ = st_.arm_attempt(0)
        assert st_.on_medium_busy(10, 300) is True
        live, start = st_.arm_attempt(300)
        assert live != stale
        assert st_.take_attempt(stale) is False
        assert st_.arm_attempt(300) is None  # still pending
        assert st_.take_attempt(live) is True

    def test_nav_defers_at_least_to_expiry(self):
        st_ = make_station()
        st_.enqueue(0, 1500)
        # nothing armed yet, so the NAV voids no attempt
        assert st_.on_overheard(cts(10000), now_us=44) is False
        assert st_.arm_attempt(100)[1] >= 10044

    def test_nothing_queued(self):
        st_ = make_station()
        assert st_.arm_attempt(0) is None
        st_.enqueue(0, 1500)
        assert st_.arm_attempt(0)[0] == 1  # the empty queue took no token

    def test_busy_mid_backoff_freezes_remaining_slots(self):
        st_ = make_station()
        st_.enqueue(0, 1500)
        st_.pending_slots = 5
        token, start = st_.arm_attempt(0)
        assert start == PARAMS.difs_us + 5 * PARAMS.slot_us  # 150
        # busy starts two whole slots into the countdown
        assert st_.on_medium_busy(PARAMS.difs_us + 2 * PARAMS.slot_us, 5000) is True
        assert st_.take_attempt(token) is False
        assert st_.pending_slots == 3
        # a second busy period finds nothing left to void
        assert st_.on_medium_busy(200, 5000) is False
        # resume: remaining slots follow a fresh DIFS after the busy period
        assert st_.arm_attempt(5000)[1] == 5000 + PARAMS.difs_us + 3 * PARAMS.slot_us

    def test_busy_during_difs_consumes_no_slots(self):
        st_ = make_station()
        st_.enqueue(0, 1500)
        st_.pending_slots = 4
        token, _ = st_.arm_attempt(0)
        assert st_.on_medium_busy(10, 300) is True  # inside the DIFS wait
        assert st_.take_attempt(token) is False
        assert st_.pending_slots == 4

    def test_same_microsecond_data_start_collides(self):
        # a peer committing to the same slot does not void the attempt
        st_ = make_station()
        st_.enqueue(0, 1500)
        token, start = st_.arm_attempt(0)
        assert st_.on_medium_busy(start, start + 2000, DATA) is False
        assert st_.take_attempt(token) is True

    def test_same_microsecond_scheduled_emission_wins(self):
        st_ = make_station()
        st_.enqueue(0, 1500)
        st_.pending_slots = 2
        token, start = st_.arm_attempt(0)
        assert st_.on_medium_busy(start, start + 44, CTS) is True
        assert st_.take_attempt(token) is False
        assert st_.pending_slots == 0  # every slot was counted down

    def test_busy_after_the_planned_start_voids_nothing(self):
        st_ = make_station()
        st_.enqueue(0, 1500)
        token, start = st_.arm_attempt(0)
        assert st_.on_medium_busy(start + 1, start + 100, CTS) is False
        assert st_.take_attempt(token) is True

    def test_own_train_voids_a_later_attempt_and_defers_the_next(self):
        st_ = make_station()
        st_.enqueue(0, 1500)
        st_.pending_slots = 3
        token, start = st_.arm_attempt(0)
        # a train starting after the attempt leaves it standing
        assert st_.on_own_train(start + 1, start + 500) is False
        assert st_.take_attempt(token) is True
        st_ = make_station()
        st_.enqueue(0, 1500)
        st_.pending_slots = 3
        token, start = st_.arm_attempt(0)
        # one starting one slot into the countdown voids it, crediting one slot
        assert st_.on_own_train(PARAMS.difs_us + PARAMS.slot_us, 9000) is True
        assert st_.take_attempt(token) is False
        assert st_.pending_slots == 2
        assert st_.arm_attempt(100)[1] == 9000 + PARAMS.difs_us + 2 * PARAMS.slot_us

    def test_overheard_cts_voids_the_attempt_once(self):
        st_ = make_station()
        st_.enqueue(0, 1500)
        token, _ = st_.arm_attempt(0)
        assert st_.arm_attempt(44) is None  # still pending
        assert st_.on_overheard(cts(10000), now_us=44) is True
        assert st_.take_attempt(token) is False
        token, start = st_.arm_attempt(44)
        assert start >= 10044
        # a shorter CTS leaves the NAV, and so the new attempt, alone
        assert st_.on_overheard(cts(100, start=2000), now_us=2044) is False
        assert st_.take_attempt(token) is True


# (busy until, NAV expiry, arm time, pending slots, armed) of one station;
# times on a 100 us step, so they often tie
TIMES = st.integers(0, 4).map(lambda k: 100 * k)
STATION = st.tuples(TIMES, TIMES, TIMES, st.integers(0, 6), st.booleans())


def station_in(busy, nav, now, slots, armed):
    st_ = make_station()
    st_.busy_until_us, st_.nav_expiry_us, st_.pending_slots = busy, nav, slots
    st_.enqueue(0, 1500)
    if armed:
        st_.arm_attempt(now)
    return st_


def dcf_state(st_):
    return st_.busy_until_us, st_.pending_slots, st_._attempt


class TestSense:
    @given(st.lists(STATION, min_size=1, max_size=6), st.sampled_from([DATA, CTS]),
           st.data())
    def test_one_call_equals_one_call_per_station(self, specs, kind, data):
        """One ``sense`` over several stations leaves each in the state one
        ``on_medium_busy`` call of its own leaves it in, and voids the same
        attempts; busy starts at each planned start, a slot either side
        and anywhere else."""
        fanned = [station_in(*spec) for spec in specs]
        single = [station_in(*spec) for spec in specs]
        planned = [s._attempt[2] + d for s in fanned if s._attempt is not None
                   for d in (-PARAMS.slot_us, 0, PARAMS.slot_us)]
        start = data.draw(st.sampled_from(planned) | st.integers(0, 1000) if planned
                          else st.integers(0, 1000))
        until = start + data.draw(st.integers(1, 3000))
        voided: dict = {}
        sense(fanned, start, until, kind, voided)
        for a, b in zip(fanned, single):
            assert b.on_medium_busy(start, until, kind) is (a in voided)
            assert dcf_state(a) == dcf_state(b)

    @given(TIMES, TIMES, TIMES, st.integers(0, 6))
    @example(200, 200, 200, 3)  # all three tie
    @example(100, 300, 300, 0)  # busy and NAV tie past now
    @example(300, 300, 100, 1)  # now and busy tie past the NAV
    def test_arming_starts_after_the_latest_of_now_busy_and_nav(self, now, busy, nav, slots):
        st_ = station_in(busy, nav, now, slots, armed=False)
        token, start = st_.arm_attempt(now)
        assert start == (max(now, busy, nav) + PARAMS.difs_us
                         + slots * PARAMS.slot_us)
        assert st_._attempt == (token, max(now, busy, nav), start)


class TestTxOutcome:
    def test_ack_resets_backoff_state(self):
        st_ = make_station()
        st_.enqueue(0, 1500)
        st_.contention_window = 255
        st_.retry_count = 3
        assert st_.on_tx_outcome(True, 2000) == OUTCOME_DONE
        assert st_.retry_count == 0
        assert st_.contention_window == PARAMS.cw_min
        assert not st_.queued

    def test_no_ack_doubles_window(self):
        st_ = make_station()
        st_.enqueue(0, 1500)
        assert st_.on_tx_outcome(False, 2000) == OUTCOME_RETRY
        assert st_.contention_window == 31
        assert st_.retry_count == 1
        assert st_.queued == 1  # frame stays queued for retry

    def test_drop_past_retry_limit(self):
        st_ = make_station()
        st_.enqueue(0, 1500)
        results = [st_.on_tx_outcome(False, 0) for _ in range(PARAMS.retry_limit + 1)]
        assert results[:-1] == [OUTCOME_RETRY] * PARAMS.retry_limit
        assert results[-1] == OUTCOME_DROP
        assert not st_.queued
        assert st_.retry_count == 0
        assert st_.contention_window == PARAMS.cw_min

    @given(st.lists(st.booleans(), min_size=1, max_size=64))
    def test_contention_window_stays_bounded(self, outcomes):
        st_ = make_station()
        for acked in outcomes:
            st_.enqueue(0, 1500)
            st_.on_tx_outcome(acked, 0)
            assert PARAMS.cw_min <= st_.contention_window <= PARAMS.cw_max
            assert 0 <= st_.pending_slots <= st_.contention_window

    def test_backoff_draws_reproducible_per_seed(self):
        draws = []
        for _ in range(2):
            st_ = make_station(seed=42)
            seq = []
            for _ in range(16):
                st_.enqueue(0, 1500)
                st_.on_tx_outcome(False, 0)
                seq.append(st_.pending_slots)
            draws.append(seq)
        assert draws[0] == draws[1]
