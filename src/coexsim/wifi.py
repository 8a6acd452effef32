"""Simplified 802.11 DCF station.

Carrier sense with binary exponential backoff, NAV maintenance from
overheard CTS frames, and bounded retransmission.  Acknowledgment is
modeled as an instantaneous success notification when the data frame
decodes at its addressee; no ACK frame goes on air.

The station is a passive state machine: the simulation engine feeds it
medium-busy intervals and overheard frames and asks when it may transmit.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .medium import CTS, DATA, Bounded, RadioInterface, Transmission


@dataclass(frozen=True)
class DcfParams(Bounded):
    """DCF constants; the scenario's ``wifi`` section."""

    slot_us: int = field(default=20, metadata={"lo": 1})
    difs_us: int = field(default=50, metadata={"lo": 1})
    cw_min: int = field(default=15, metadata={"lo": 1})
    cw_max: int = field(default=1023, metadata={"lo": 1})
    retry_limit: int = field(default=7, metadata={"lo": 0})
    phy_rate_mbps: float = field(default=6.0, metadata={"lo": 0.1})
    cts_airtime_us: int = field(default=44, metadata={"lo": 1})

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.cw_max < self.cw_min:
            raise ValueError("cw_max: must be >= cw_min")


def data_airtime_us(frame_bytes: int, phy_rate_mbps: float) -> int:
    return max(1, math.ceil(frame_bytes * 8 / phy_rate_mbps))


def sense(stations, start_us: int, until_us: int, kind: str, voided: dict) -> None:
    """Carrier sense: each of ``stations`` finds the medium occupied over
    [start, until).

    A station's busy-until grows to ``until_us``.  Its armed attempt
    freezes: the slots counted down while the medium was idle are credited,
    the attempt is void, and the station is added to ``voided``.  Busy from
    after the planned start voids nothing, and neither does a data frame
    starting exactly then: both stations committed to the same slot and
    collide.  Scheduled emissions (CTS, WiMAX bursts) win such ties instead.
    """
    data = kind is DATA
    for st in stations:
        if until_us > st.busy_until_us:
            st.busy_until_us = until_us
        attempt = st._attempt
        if attempt is None:  # most stations: nothing armed to void
            continue
        _, contend, start = attempt
        if start_us > start or (data and start_us == start):
            continue
        params = st.params
        # at most the pending slots, as start_us is not past the planned start
        elapsed = (start_us - contend - params.difs_us) // params.slot_us
        if elapsed > 0:
            st.pending_slots -= elapsed
        st._attempt = None
        voided[st] = None


OUTCOME_DONE = "done"
OUTCOME_RETRY = "retry"
OUTCOME_DROP = "drop"


class WifiStation:
    """One DCF transmitter/receiver tied to a radio interface."""

    def __init__(self, iface: RadioInterface, params: DcfParams, rng: random.Random):
        self.iface = iface
        self.params = params
        self.rng = rng
        self.nav_expiry_us = 0
        self.busy_until_us = 0  # end of the air it senses, its own CTS trains included
        self.train_until_us = 0  # end of the last chunk of its last granted CTS train
        self.contention_window = params.cw_min
        self.pending_slots = 0
        self.retry_count = 0
        # its queue: how many frames wait (the head too), their one size, and when the head came
        self.queued = self.frame_bytes = self.head_us = 0
        # current access attempt: (token, contend_begin, planned_start)
        self._attempt: tuple[int, int, int] | None = None
        self._token = 0
        self.transmitting = False

    # -- queue ---------------------------------------------------------

    def enqueue(self, now_us: int, frame_bytes: int) -> None:
        if not self.queued:
            self.head_us = now_us
        self.queued += 1
        self.frame_bytes = frame_bytes

    @property
    def queued_bytes(self) -> int:
        return self.queued * self.frame_bytes

    # -- medium observations --------------------------------------------

    def on_medium_busy(self, start_us: int, until_us: int,
                       kind: str = DATA) -> bool:
        """Carrier sense of [start, until) at this station alone: ``sense``
        over one station.  Returns whether this voided the access attempt."""
        voided: dict = {}
        sense((self,), start_us, until_us, kind, voided)
        return bool(voided)

    def on_overheard(self, frame: Transmission, now_us: int) -> bool:
        """A CTS from another radio that this station decoded, as it leaves
        the air; other frames carry no virtual-carrier-sense information
        (their airtime was already sensed).  The NAV extends to max(current,
        frame end + duration field), which freezes an armed attempt as
        carrier sense does.  Returns whether this voided the access attempt.
        """
        expiry = frame.end_us + frame.nav_duration_us
        if expiry <= self.nav_expiry_us:
            return False
        self.nav_expiry_us = expiry
        return self.on_medium_busy(now_us, frame.end_us, CTS)

    # -- channel access --------------------------------------------------

    def arm_attempt(self, now_us: int) -> tuple[int, int] | None:
        """Register an access attempt; returns (token, start time), or None
        with nothing to send or an attempt already pending.

        The start accounts for medium busy (the radio's own CTS train
        included), NAV, a DIFS of idle air and the remaining backoff slots.
        """
        if self._attempt is not None or not self.queued or self.transmitting:
            return None
        contend = self.busy_until_us
        if now_us > contend:
            contend = now_us
        if self.nav_expiry_us > contend:
            contend = self.nav_expiry_us
        params = self.params
        start = contend + params.difs_us + self.pending_slots * params.slot_us
        token = self._token = self._token + 1
        self._attempt = (token, contend, start)
        return token, start

    def take_attempt(self, token: int) -> bool:
        """Claim the pending attempt to transmit, if ``token`` is its token.
        A stale token (of an attempt voided since) returns False and leaves
        the pending attempt, if any, armed."""
        attempt = self._attempt
        if attempt is None or attempt[0] != token:
            return False
        self._attempt = None
        return True

    def on_own_train(self, start_us: int, until_us: int) -> bool:
        """The radio was granted a CTS train whose first chunk starts at
        ``start_us`` and whose last ends at ``until_us``.  Its own CTS sets no
        NAV at itself, but the train keeps it busy: it contends only after
        the train, and an armed attempt that would start at or after the
        first chunk is void.  Returns whether this voided the access attempt."""
        self.train_until_us = until_us
        return self.on_medium_busy(start_us, until_us, CTS)

    # -- transmission outcome ---------------------------------------------

    def on_tx_outcome(self, acked: bool) -> str:
        """Apply the ack/no-ack retry rules to the frame just transmitted."""
        self.transmitting = False
        outcome = OUTCOME_DONE
        if not acked:
            self.retry_count += 1
            outcome = OUTCOME_DROP if self.retry_count > self.params.retry_limit else OUTCOME_RETRY
        if outcome == OUTCOME_RETRY:
            self.contention_window = min(self.contention_window * 2 + 1, self.params.cw_max)
        else:  # the frame leaves the queue, acked or out of retries
            self.queued -= 1
            self.contention_window = self.params.cw_min
            self.retry_count = 0
        self.pending_slots = self.rng.randint(0, self.contention_window)
        return outcome
