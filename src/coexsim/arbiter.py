"""Co-located radio arbiter.

All radio interfaces on one platform ask a single controller for
permission before transmitting, receiving, or going idle.  The controller
holds one of three states — Sleep, Receive, Transmit — and only grants
requests that keep every granted interface in a compatible mode:
simultaneous transmits are fine, simultaneous receives are fine, but a
transmit never coexists with a receive on the same board, because the
transmitter's spillage lands straight in the co-located receiver.

Grant bookkeeping is reference counted: an interface holds until it has
returned its last grant, and the controller sleeps only when the last holder
releases, so no frame's end yanks the state from under another on air.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .wimax import DL, UL

# the controller's modes: sleep (nothing going on), receive, transmit
S, RX, TX = "S", "RX", "TX"


GRANT = "grant"
DENY = "deny"


class RadioArbiter:
    """The controller of one platform.

    ``held`` maps each interface holding a grant to the grants it has not
    returned, and ``state`` is the mode they were granted in: the rules
    below never let a transmit and a receive hold at once.
    """

    def __init__(self, interfaces: Sequence[str]):
        self._known = set(interfaces)
        self.state = S
        self.held: dict[str, int] = {}

    def request(self, interface: str, desired: str) -> str:
        """Apply one interface's request for mode ``desired`` against the
        transition rules.

        From S anything is granted.  From RX a transmit is denied; from TX a
        receive is denied.  A request that persists the current state is
        always accepted.  A granted sleep returns one of that interface's
        grants, and the last one returned sleeps.  Denials leave ``held``
        untouched.
        """
        if interface not in self._known:
            raise LookupError(f"interface not registered: {interface!r}")
        held = self.held
        if desired is S:
            left = held.pop(interface, 0) - 1
            if left > 0:
                held[interface] = left
            elif not held:
                self.state = S
            return GRANT
        state = self.state
        if (state is RX and desired is TX) or (state is TX and desired is RX):
            return DENY
        self.state = desired
        held[interface] = held.get(interface, 0) + 1
        return GRANT

    def release(self, interface: str) -> None:
        self.request(interface, S)


def schedule_aware_check(desired: str, span_us: tuple[int, int],
                         slots: Iterable[tuple[str, int, int]]) -> str:
    """Deny a WiFi request for mode ``desired`` over the absolute interval
    ``span_us`` that lands on a conflicting scheduled slot of its platform's
    subscriber station; ``slots`` holds that station's (direction, start,
    end) slots, each over the half-open interval [start, end).

    The co-located WiFi must not transmit over an interval in which the
    subscriber station is scheduled to receive (a DL slot), nor receive
    over a scheduled transmission (a UL slot).  Requests entirely in
    unscheduled airtime are allowed.  ``desired`` is TX or RX, the only
    modes the engine asks for.
    """
    lo, hi = span_us
    conflicting = DL if desired is TX else UL  # the station receiving, or sending
    for direction, start, end in slots:
        if direction == conflicting and start < hi and lo < end:
            return DENY
    return GRANT
