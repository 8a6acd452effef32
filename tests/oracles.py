"""Independent reference implementations the tests check the simulator against.

These deliberately avoid the library's interval logic: outcomes are computed
by walking every microsecond, DCF saturation throughput comes from plain
slot accounting, and co-located conflict time, a radio's overlaps with its
own emissions, DCF rule violations, delivery outcomes, grants over
scheduled WiMAX bursts, WiMAX bursts outside their frame's layout,
emissions above their source's power ceiling, the report's airtimes,
corrupted frames and CTS counters, NAV updates and the trace hash are read
back from a run's trace, through one reader of its behaviour notes
(:func:`notes`, :func:`air`).
"""

from __future__ import annotations

import bisect
import hashlib
import random
from typing import NamedTuple, Optional

from coexsim.medium import (BELOW_SENSITIVITY, CORRUPTED, CTS, DATA, DECODED, WIMAX_BURST,
                            DeliveryOutcome, MediumModel, PathLossModel, Position,
                            RadioInterface, SpillageTable, Transmission,
                            received_power)


# each kind as the note prints it -> the module constant, so readers can test with ``is``
_KINDS = {kind: kind for kind in (DATA, CTS, WIMAX_BURST)}


class Air(NamedTuple):
    """One ``air`` note, ``start|air|kind|source>dest|airtime|power``; dest is
    None for a CTS."""

    start: int
    end: int
    kind: str
    source: str
    dest: Optional[str]
    power: float


def notes(trace: list[str]):
    """The fields of each behaviour note of a trace, in order; per-event
    lines (second field a phase digit) are skipped."""
    for line in trace:
        fields = line.split("|")
        if not fields[1].isdigit():
            yield fields


def air(fields: list[str]) -> Air:
    """The emission an ``air`` note's fields describe."""
    start = int(fields[0])
    source, dest = fields[3].split(">")
    return Air(start, start + int(fields[4]), _KINDS[fields[2]], source,
               None if dest == "None" else dest, float(fields[5]))


def oracle_rx_power(power_dbm: float, src: RadioInterface, dst: RadioInterface,
                    medium: MediumModel) -> float:
    coupling = None
    if src.platform is not None and src.platform == dst.platform:
        coupling = medium.colocated_coupling_db
    return received_power(power_dbm, src.position, dst.position, src.channel_mhz,
                          dst.channel_mhz, medium.path_loss, medium.spillage,
                          coupling_db=coupling)


def brute_force_outcomes(active, interfaces, window, medium) -> list[DeliveryOutcome]:
    """Exhaustive per-microsecond evaluation of every addressed transmission.

    At each instant the strongest single overlapping interferer is compared
    against the signal; a receiver that is itself on air at any overlapping
    instant never decodes.  An interferer's power at the receiver is the
    same at every instant, so it is computed once per frame.
    """
    w0, w1 = window
    ordered = sorted((tx for tx in active if tx.dest is not None and tx.dest in interfaces),
                     key=lambda t: (t.start_us, t.source, t.dest))
    outcomes = []
    for tx in ordered:
        rx_if = interfaces[tx.dest]
        sig = oracle_rx_power(tx.power_dbm, interfaces[tx.source], rx_if, medium)
        if sig < rx_if.decode_sensitivity_dbm:
            outcomes.append(DeliveryOutcome(tx.dest, BELOW_SENSITIVITY, sig))
            continue
        lo, hi = max(tx.start_us, w0), min(tx.end_us, w1)
        # (start, end, power at the receiver) of each emission on air in
        # [lo, hi) but the frame; the receiver's own is infinitely strong
        others = [(u.start_us, u.end_us, float("inf") if u.source == tx.dest
                   else oracle_rx_power(u.power_dbm, interfaces[u.source], rx_if, medium))
                  for u in active if u is not tx and u.start_us < hi and u.end_us > lo]
        corrupted = False
        for t in range(lo, hi):
            strongest = None
            for start, end, p in others:
                if start <= t < end and (strongest is None or p > strongest):
                    strongest = p
            if strongest is not None and sig - strongest < medium.sinr_threshold_db:
                corrupted = True
                break
        outcomes.append(DeliveryOutcome(tx.dest, CORRUPTED if corrupted else DECODED, sig))
    return outcomes


def conflict_time(cfg, trace: list[str]) -> int:
    """Co-located conflict time of a run without the arbiter, from its ``air``
    notes: the overlap, clipped to the measured window, of every pair of
    emissions in which one radio transmits while a platform mate listens to
    the other (an addressee listens if the frame reaches it at or above its
    sensitivity).  A frame addressed to a platform mate pairs with itself.
    """
    interfaces = cfg.interfaces()
    medium = cfg.medium
    talkers = []    # (start, end, radio, platform) of each emission from a platform
    listeners = {}  # platform -> (start, end, radio) of each frame a member hears
    for fields in notes(trace):
        if fields[1] != "air":
            continue
        a = air(fields)
        src = interfaces[a.source]
        if src.platform is not None:
            talkers.append((a.start, a.end, a.source, src.platform))
        dst = interfaces.get(a.dest)
        if dst is None or dst.platform is None:
            continue
        if oracle_rx_power(a.power, src, dst, medium) >= dst.decode_sensitivity_dbm:
            listeners.setdefault(dst.platform, []).append((a.start, a.end, a.dest))
    total = 0
    for plat, heard in listeners.items():
        heard.sort()
        starts = [h[0] for h in heard]
        longest = max(h[1] - h[0] for h in heard)
        for t_start, t_end, radio, t_plat in talkers:
            if t_plat != plat:
                continue
            for h_start, h_end, mate in heard[bisect.bisect_left(starts, t_start - longest):
                                               bisect.bisect_left(starts, t_end)]:
                lo = max(t_start, h_start, cfg.warmup_us)
                hi = min(t_end, h_end, cfg.duration_us)
                if mate != radio and lo < hi:
                    total += hi - lo
    return total


def line_by_line_hash(trace: list[str]) -> str:
    """The trace hash as one SHA-256 update per behaviour line would give it:
    every line of a collected trace whose second field is not a phase digit,
    each ending in a newline."""
    h = hashlib.sha256()
    for fields in notes(trace):
        h.update(("|".join(fields) + "\n").encode())
    return h.hexdigest()


def own_overlaps(trace: list[str]) -> int:
    """How many ``air`` notes of a run start while an earlier emission of
    their source is still on air; a radio that sends one frame at a time has
    none.  A data frame does not count against an earlier data frame of its
    source that starts in the same microsecond."""
    on_air: dict[str, list[Air]] = {}  # source -> its emissions not yet ended
    count = 0
    for fields in notes(trace):
        if fields[1] != "air":
            continue
        a = air(fields)
        # notes come in time order, so an emission ended by now ends before every later one
        earlier = on_air[a.source] = [e for e in on_air.get(a.source, ()) if e.end > a.start]
        if any(not (a.kind is DATA is e.kind and e.start == a.start) for e in earlier):
            count += 1
        earlier.append(a)
    return count


def dcf_violations(cfg, trace: list[str]) -> int:
    """How many DATA starts in a run's ``air`` notes break a DCF rule.

    A station senses an emission if it sent it or receives it at or above
    its CCA threshold.  A DATA start at t from station S is a violation when
    S senses an emission still on air at t (another DATA start in the same
    microsecond excepted: both committed to the slot and collide), when t
    comes before S's last NAV expiry (its ``nav`` notes), or when S sensed
    less than DIFS of idle air before t (the run starts idle at 0).
    """
    interfaces = cfg.interfaces()
    medium, difs = cfg.medium, cfg.wifi.difs_us
    stations = [interfaces[n.id] for n in cfg.nodes if n.kind == "wifi"]
    sensed_by: dict[tuple[str, float], list[str]] = {}
    busy_end = {s.id: 0 for s in stations}  # end of the last emission each sensed
    nav = dict.fromkeys(busy_end, 0)
    same_us: list[tuple[list[str], int]] = []  # DATA starts not yet applied, one instant
    now = count = 0
    for fields in notes(trace):
        if fields[1] == "nav":
            nav[fields[2]] = int(fields[3])
            continue
        if fields[1] != "air":
            continue
        a = air(fields)
        if a.start > now:  # a new instant: the last one's DATA starts are sensed now
            for who, end in same_us:
                for sid in who:
                    busy_end[sid] = max(busy_end[sid], end)
            same_us.clear()
            now = a.start
        if a.kind is DATA and (a.start < busy_end[a.source] + difs or a.start < nav[a.source]):
            count += 1
        key = (a.source, a.power)
        who = sensed_by.get(key)
        if who is None:
            src = interfaces[a.source]
            who = sensed_by[key] = [
                s.id for s in stations if s.id == a.source
                or oracle_rx_power(a.power, src, s, medium) >= s.cca_threshold_dbm]
        if a.kind is DATA:
            same_us.append((who, a.end))
        else:
            for sid in who:
                busy_end[sid] = max(busy_end[sid], a.end)
    return count


def _overlapping(quiet: list[Transmission], starts: list[int], longest: int,
                 index: int) -> list[Transmission]:
    """The emissions of ``quiet`` that overlap ``quiet[index]``, itself
    left out; ``quiet`` is in start order, ``starts`` holds its starts and
    none of it lasts longer than ``longest``."""
    tx = quiet[index]
    lo = bisect.bisect_left(starts, tx.start_us - longest)
    hi = bisect.bisect_left(starts, tx.end_us)
    return [u for i, u in enumerate(quiet[lo:hi], lo) if i != index and u.end_us > tx.start_us]


def outcome_mismatches(cfg, trace: list[str]) -> int:
    """How many ``outcome`` notes of a run disagree with the per-microsecond
    oracle.

    Each emission is rebuilt from its ``air`` note on its source interface's
    channel.  A frame's outcome must be :func:`brute_force_outcomes`' verdict
    over the frame and the emissions that overlap it, except that a frame
    whose addressee was denied receive when it began (an
    ``arb|<dest>|RX|deny`` note at its start) must read ``missed``.  An
    outcome with no unmatched ``air`` note of its pair ending at its time
    counts as one mismatch.
    """
    interfaces = cfg.interfaces()
    medium = cfg.medium
    # every emission without its addressee, in start order as the air notes
    # come: as an interferer it is not rated itself
    quiet, starts, longest = [], [], 0
    # ("source>dest", end) -> (index, frame) of each addressed one, oldest first
    frames = {}
    denied = set()  # (time, interface) of each receive denial
    count = 0
    for fields in notes(trace):
        if fields[1] == "arb" and fields[3:5] == ["RX", "deny"]:
            denied.add((int(fields[0]), fields[2]))
        elif fields[1] == "air":
            a = air(fields)
            tx = Transmission(source=a.source, kind=a.kind, start_us=a.start,
                              airtime_us=a.end - a.start, power_dbm=a.power)
            if a.dest in interfaces:
                frames.setdefault((fields[3], a.end), []).append(
                    (len(quiet), tx._replace(dest=a.dest)))
            quiet.append(tx)
            starts.append(a.start)
            longest = max(longest, a.end - a.start)
        elif fields[1] == "outcome":  # start|outcome|source>dest|result
            pending = frames.get((fields[2], int(fields[0])))
            if not pending:  # no air note of its pair ends at its time
                count += 1
                continue
            index, tx = pending.pop(0)
            if (tx.start_us, tx.dest) in denied:
                want = "missed"
            else:
                others = _overlapping(quiet, starts, longest, index)
                want = brute_force_outcomes([tx] + others, interfaces,
                                            (tx.start_us, tx.end_us), medium)[0].result
            count += fields[3] != want
    return count


def nav_violations(cfg, trace: list[str]) -> int:
    """How many ``nav`` notes of a run break a NAV rule.

    Each station's expiries must strictly increase, since a CTS that does
    not move the NAV leaves no note.  A note at t must sit at the end of a
    CTS from another source, ending at t, that the station decodes by
    :func:`brute_force_outcomes` over the emissions that overlap it.  A note
    counts once, however many rules it breaks.
    """
    interfaces = cfg.interfaces()
    quiet, starts, longest = [], [], 0  # every emission, in start order
    ends: dict[int, list[int]] = {}  # end -> the index of each CTS ending then
    expiry: dict[str, int] = {}  # station -> its last NAV expiry
    count = 0
    for fields in notes(trace):
        if fields[1] == "air":
            a = air(fields)
            if a.kind is CTS:
                ends.setdefault(a.end, []).append(len(quiet))
            quiet.append(Transmission(source=a.source, kind=a.kind, start_us=a.start,
                                      airtime_us=a.end - a.start, power_dbm=a.power))
            starts.append(a.start)
            longest = max(longest, a.end - a.start)
        elif fields[1] == "nav":  # time|nav|station|expiry_us
            sid, until = fields[2], int(fields[3])
            bad = until <= expiry.get(sid, 0)
            expiry[sid] = until
            decoded = False
            for index in ends.get(int(fields[0]), ()):
                cts = quiet[index]
                if cts.source == sid:
                    continue
                others = _overlapping(quiet, starts, longest, index)
                heard = brute_force_outcomes([cts._replace(dest=sid)] + others, interfaces,
                                             (cts.start_us, cts.end_us), cfg.medium)[0]
                decoded = decoded or heard.result == DECODED
            count += bad or not decoded
    return count


def report_mismatches(cfg, trace: list[str], report: dict) -> list[str]:
    """The values of a run's report (``RunResult.to_dict()``) that its
    trace does not give back, each named by its path in the report.

    From the ``air`` notes: each link's ``airtime_us``, its frames clipped
    to the measured window; each system's ``airtime_us``, the union of its
    sources' emissions clipped to the window, and ``fairness_index``, Jain's
    index of the shares these give; ``cts_count`` and ``cts_airtime_us``,
    over the whole run.  From the ``outcome`` notes at or after
    ``warmup_us``: each link's ``corrupted_frames``; a WiFi link's
    ``delivered_bytes``, its decoded frames times the source's
    ``frame_bytes``, and its ``retransmissions`` and ``dropped_frames``,
    each failure a retry until the frame has failed ``retry_limit`` + 1
    times in a row, which drops it (the count of a frame's failures runs
    across the warm-up); a WiMAX link's ``retransmissions``, one per burst
    not decoded, and its ``delivered_bytes``, which may not pass its
    decoded bursts' airtime times ``capacity_bytes_per_us``.  A link that
    the trace names but the report lacks is a mismatch too.
    """
    w0, w1, bytes_per_us = cfg.warmup_us, cfg.duration_us, cfg.wimax.capacity_bytes_per_us
    nodes = {n.id: n for n in cfg.nodes}
    want = {}
    capacity = {}  # WiMAX link -> the bytes its decoded bursts can carry
    for lid in report["links"]:
        keys = ["airtime_us", "corrupted_frames", "retransmissions"]
        if nodes[lid.split("->")[0]].kind == "wifi":
            keys += ["delivered_bytes", "dropped_frames"]
        else:
            capacity[lid] = 0.0
        want.update((f"links.{lid}.{key}", 0) for key in keys)
    spans = {name: [] for name in report["systems"]}  # system -> (start, end) of each emission
    want["cts_count"] = want["cts_airtime_us"] = 0
    airtimes = {}  # ("source>dest", end) -> the airtime of each addressed frame, oldest first
    failures = {}  # WiFi link -> how often its head frame has failed
    for fields in notes(trace):
        if fields[1] == "air":
            a = air(fields)
            spans.setdefault(nodes[a.source].system, []).append((a.start, a.end))
            if a.dest is None:
                want["cts_count"] += 1
                want["cts_airtime_us"] += a.end - a.start
            else:
                key = f"links.{a.source}->{a.dest}.airtime_us"
                want[key] = want.get(key, 0) + max(0, min(a.end, w1) - max(a.start, w0))
                airtimes.setdefault((fields[3], a.end), []).append(a.end - a.start)
        elif fields[1] == "outcome":  # end|outcome|source>dest|result
            lid, result, counted = fields[2].replace(">", "->"), fields[3], int(fields[0]) >= w0
            source = nodes[fields[2].split(">")[0]]
            pending = airtimes.get((fields[2], int(fields[0])))
            airtime = pending.pop(0) if pending else 0
            count = []  # the report values this outcome adds to
            if result == CORRUPTED:
                count.append(("corrupted_frames", 1))
            if source.kind != "wifi":  # a WiMAX burst
                if result != DECODED:
                    count.append(("retransmissions", 1))
                elif counted:
                    capacity[lid] = capacity.get(lid, 0.0) + airtime * bytes_per_us
            elif result == DECODED:
                failures[lid] = 0
                count.append(("delivered_bytes", source.traffic.frame_bytes))
            else:
                failures[lid] = failures.get(lid, 0) + 1
                if failures[lid] > cfg.wifi.retry_limit:
                    failures[lid] = 0
                    count.append(("dropped_frames", 1))
                else:
                    count.append(("retransmissions", 1))
            for name, amount in count if counted else ():
                key = f"links.{lid}.{name}"
                want[key] = want.get(key, 0) + amount
    for name, emitted in spans.items():
        total = reach = 0  # the clipped union so far; the end of the last merged span
        for start, end in sorted(emitted):
            start = max(start, reach, w0)
            reach = max(reach, end)
            total += max(0, min(end, w1) - start)
        want[f"systems.{name}.airtime_us"] = total
    shares = [want[f"systems.{name}.airtime_us"] / (w1 - w0) for name in sorted(spans)]
    total, squares = sum(shares), sum(share * share for share in shares)
    want["fairness_index"] = total * total / (len(shares) * squares) if squares else 0.0
    got = {key: report[key] for key in ("cts_count", "cts_airtime_us", "fairness_index")}
    for section in ("links", "systems"):
        for name, row in report[section].items():
            for key, value in row.items():
                got[f"{section}.{name}.{key}"] = value
    over = [f"links.{lid}.delivered_bytes" for lid, most in capacity.items()
            if got.get(f"links.{lid}.delivered_bytes", 0) > most * (1 + 1e-12)]
    return sorted(over + [key for key, value in want.items() if got.get(key) != value])


def schedule_violations(cfg, trace: list[str]) -> int:
    """How many WiFi emissions of a schedule-aware run were granted over a
    conflicting WiMAX burst that was already scheduled.

    A WiFi radio on a subscriber station's platform must not be granted
    transmit over a downlink burst to that station, nor receive over an
    uplink burst from it, when the burst's frame was mapped before the
    request.  Bursts come from the ``air`` notes.  An uplink burst that
    the arbiter denied, because a mate was receiving, leaves only a
    ``deny|ul|<ss>`` note at its start, so it counts as that one
    microsecond of its slot.  The frame starting at F, a multiple of
    ``wimax.frame_us``, is mapped at F - frame_us.

    A transmission's request time is its source's last ``TX|grant`` note: a
    data frame airs in the microsecond of its grant, and the chunks of a CTS
    train follow the train's one grant with no other grant of the radio in
    between.  A reception is granted when the frame's ``air`` note directly
    follows an ``arb|<dest>|RX|grant`` note of its microsecond, which is
    then its request time.  A map made in the request's own microsecond does
    not count, since a reservation or injection decision in that microsecond
    can run before the boundary that makes it.
    """
    interfaces = cfg.interfaces()
    frame_us = cfg.wimax.frame_us
    ss_plat = {n.id: interfaces[n.id].platform for n in cfg.nodes
               if n.kind == "wimax-ss" and interfaces[n.id].platform is not None}
    plats = set(ss_plat.values())
    bursts: dict[tuple[str, str], list] = {}  # (platform, mode it bars) -> (start, end, mapped at)
    requests = []   # (platform, mode, request time, start, end) of each granted WiFi emission
    last_tx = {}    # WiFi radio -> time of its last transmit grant
    prev = []       # the fields of the behaviour note before this one
    for fields in notes(trace):
        if fields[1] == "arb" and fields[3:5] == ["TX", "grant"]:
            last_tx[fields[2]] = int(fields[0])
        elif fields[1:3] == ["deny", "ul"] and fields[3] in ss_plat:
            start = int(fields[0])
            mapped = start - start % frame_us - frame_us
            bursts.setdefault((ss_plat[fields[3]], "RX"), []).append((start, start + 1, mapped))
        elif fields[1] == "air":
            a = air(fields)
            if a.kind is WIMAX_BURST:
                ss, mode = (a.dest, "TX") if a.dest in ss_plat else (a.source, "RX")
                if ss in ss_plat:
                    mapped = a.start - a.start % frame_us - frame_us
                    bursts.setdefault((ss_plat[ss], mode), []).append((a.start, a.end, mapped))
            else:  # a WiFi data frame or CTS
                plat = interfaces[a.source].platform
                if a.source in last_tx and plat in plats:
                    requests.append((plat, "TX", last_tx[a.source], a.start, a.end))
                plat = interfaces[a.dest].platform if a.dest in interfaces else None
                if prev == [fields[0], "arb", a.dest, "RX", "grant"] and plat in plats:
                    requests.append((plat, "RX", a.start, a.start, a.end))
        prev = fields
    count = 0
    for plat, mode, asked, start, end in requests:
        aired = bursts.get((plat, mode), [])
        lo = bisect.bisect_left(aired, (start - frame_us,))
        hi = bisect.bisect_left(aired, (end,))
        count += any(b_end > start and mapped < asked for _, b_end, mapped in aired[lo:hi])
    return count


def frame_map_violations(cfg, trace: list[str]) -> int:
    """How many WiMAX bursts in a run's ``air`` notes break the frame layout.

    With frame length F, the bursts of frame k (the one a burst starts in)
    must lie in its downlink window [k*F + preamble_us, k*F + int(F *
    dl_ratio)) or its uplink window [that end + ttg_us, (k+1)*F), by
    direction: from the base station is downlink, to it uplink.  Within one
    cell, frame and direction the bursts must not overlap and must come in
    station-id order.  A burst counts once, however many rules it breaks;
    one that overlaps or follows a later station's earlier burst counts
    against the later of the two.
    """
    wx = cfg.wimax
    frame_us = wx.frame_us
    dl_end = int(frame_us * wx.dl_ratio)
    windows = {"DL": (wx.preamble_us, dl_end), "UL": (dl_end + wx.ttg_us, frame_us)}
    bs_of = {n.id: n.bs for n in cfg.nodes if n.kind == "wimax-ss"}
    last = {}  # (cell, frame, direction) -> (station, end) of its latest burst
    count = 0
    for fields in notes(trace):
        if fields[1] != "air" or (a := air(fields)).kind is not WIMAX_BURST:
            continue
        direction, ss = ("UL", a.source) if a.source in bs_of else ("DL", a.dest)
        frame = a.start // frame_us
        lo, hi = windows[direction]
        bad = not frame * frame_us + lo <= a.start < a.end <= frame * frame_us + hi
        group = (bs_of[ss], frame, direction)
        if group in last:
            prev_ss, prev_end = last[group]
            bad = bad or a.start < prev_end or ss <= prev_ss
        last[group] = (ss, a.end)
        count += bad
    return count


def power_ceilings(cfg) -> dict[str, float]:
    """Node id -> the strongest power the config lets any emission of that
    node have: its ``tx_power_dbm``; a CTS injector's ``power_dbm``; and for
    the first WiFi radio (in config order) on a subscriber station's platform
    with the reservation scheme on, its strongest CTS: the sizing cap of
    20 dBm, or ``reservation.cts_power_dbm`` with ``power_sizing`` off."""
    ceiling = {n.id: n.tx_power_dbm for n in cfg.nodes}
    for n in cfg.nodes:
        if n.traffic.kind == "cts-inject" and n.traffic.power_dbm is not None:
            ceiling[n.id] = max(ceiling[n.id], n.traffic.power_dbm)
    if cfg.reservation.enabled:
        cts = 20.0 if cfg.reservation.power_sizing else cfg.reservation.cts_power_dbm
        ifaces = cfg.interfaces()
        for ss in cfg.nodes:
            plat = ifaces[ss.id].platform
            if ss.kind != "wimax-ss" or plat is None:
                continue
            coord = next((n.id for n in cfg.nodes
                          if n.kind == "wifi" and ifaces[n.id].platform == plat), None)
            if coord is not None:
                ceiling[coord] = max(ceiling[coord], cts)
    return ceiling


def over_ceiling(cfg, trace: list[str]) -> int:
    """How many ``air`` notes of a run carry a power above their source's
    :func:`power_ceilings` value."""
    ceiling = power_ceilings(cfg)
    airs = (air(fields) for fields in notes(trace) if fields[1] == "air")
    return sum(a.power > ceiling[a.source] for a in airs)


def dcf_saturation_share(frame_airtime_us: int, difs_us: int = 50, slot_us: int = 20,
                         cw_min: int = 15) -> float:
    """Closed-form airtime share of a lone saturated DCF transmitter.

    Each cycle is DIFS + the mean post-success backoff + the frame itself.
    """
    mean_backoff = cw_min / 2 * slot_us
    return frame_airtime_us / (frame_airtime_us + difs_us + mean_backoff)


_CHANNELS = (2380.0, 2412.0, 2437.0)


def random_micro_instance(rng: random.Random):
    """A small random delivery scene: 4-6 radios, 2-4 overlapping transmissions."""
    medium = MediumModel(path_loss=PathLossModel(kind="log-distance", exponent=3.0),
                         spillage=SpillageTable(), sinr_threshold_db=10.0)
    n_if = rng.randint(4, 6)
    interfaces = {}
    for i in range(n_if):
        iid = f"r{i}"
        interfaces[iid] = RadioInterface(
            id=iid,
            position=Position(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0)),
            channel_mhz=rng.choice(_CHANNELS),
            tx_power_dbm=rng.choice((-10.0, 1.0, 20.0, 23.0)),
            decode_sensitivity_dbm=rng.choice((-85.0, -90.0)),
            cca_threshold_dbm=-82.0)
    ids = sorted(interfaces)
    txs = []
    for _ in range(rng.randint(2, 4)):
        src = rng.choice(ids)
        dest = rng.choice([i for i in ids if i != src] + [None])
        txs.append(Transmission(
            source=src, kind=DATA,
            start_us=rng.randint(0, 60), airtime_us=rng.randint(5, 40),
            power_dbm=interfaces[src].tx_power_dbm, dest=dest))
    return txs, interfaces, (0, 120), medium
