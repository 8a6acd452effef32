"""Scenario files: the canonical YAML schema, strict validation, round-trip emit.

A scenario is one YAML document.  Unknown keys are errors, every reported
problem names the offending path, and parsing an emitted config yields an
equivalent config.  See README.md for the full schema reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

import yaml

from .medium import (FREE_SPACE, LOG_DISTANCE, MediumModel, PathLossModel, Position,
                     RadioInterface, RadioKind, SpillageTable)
from .wifi import DcfParams

TRAFFIC_KINDS = ("none", "saturated", "paced", "cts-inject", "wimax")
NODE_KINDS = ("wifi", "wimax-ss", "wimax-bs")

# (tx power, decode sensitivity, cca threshold, channel) by node kind
_NODE_DEFAULTS = {
    "wifi": (20.0, -85.0, -82.0, 2412.0),
    "wimax-ss": (23.0, -90.0, -82.0, 2380.0),
    "wimax-bs": (30.0, -90.0, -82.0, 2380.0),
}

# victim interference tolerances per calibration preset, dBm
PRESETS = {
    "staccato": {"wimax": -118.0, "wifi": -118.0},
    "intel": {"wimax": -121.0, "wifi": -117.0},
}


class ScenarioError(ValueError):
    """Validation failure; ``errors`` lists 'path: problem' strings."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class TrafficConfig:
    kind: str = "none"
    frame_bytes: int = 1500
    interval_us: int = 10000            # paced
    at_us: int = 0                      # cts-inject
    reservation_us: int = 32767         # cts-inject
    power_dbm: Optional[float] = None   # cts-inject; None -> node tx power
    repeat_us: int = 0                  # cts-inject; 0 = once
    dl_bytes_per_s: int = 0             # wimax
    ul_bytes_per_s: int = 0             # wimax
    dl_saturated: bool = False          # wimax
    ul_saturated: bool = False          # wimax


@dataclass(frozen=True)
class NodeConfig:
    id: str
    kind: str
    position: Position
    channel_mhz: float
    tx_power_dbm: float
    decode_sensitivity_dbm: float
    cca_threshold_dbm: float
    system: str
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    peer: Optional[str] = None
    bs: Optional[str] = None
    collocated_with: Optional[str] = None


@dataclass(frozen=True)
class MediumConfig:
    preset: str = "staccato"
    path_loss: PathLossModel = field(default_factory=PathLossModel)
    spillage: SpillageTable = field(default_factory=SpillageTable)
    sinr_threshold_db: float = 10.0
    colocated_coupling_db: float = 20.0

    def model(self) -> MediumModel:
        return MediumModel(self.path_loss, self.spillage,
                           self.sinr_threshold_db, self.colocated_coupling_db)

    def victim_tolerance_dbm(self, system: str) -> float:
        return PRESETS[self.preset][system]


@dataclass(frozen=True)
class WifiConfig:
    slot_us: int = 20
    difs_us: int = 50
    sifs_us: int = 10
    cw_min: int = 15
    cw_max: int = 1023
    retry_limit: int = 7
    phy_rate_mbps: float = 6.0
    cts_airtime_us: int = 44

    def dcf_params(self) -> DcfParams:
        return DcfParams(self.slot_us, self.difs_us, self.sifs_us, self.cw_min,
                         self.cw_max, self.retry_limit, self.phy_rate_mbps,
                         self.cts_airtime_us)


@dataclass(frozen=True)
class WimaxConfig:
    frame_us: int = 5000
    dl_ratio: float = 0.6
    capacity_bytes_per_us: float = 2.0
    preamble_us: int = 200
    ttg_us: int = 100


@dataclass(frozen=True)
class QosConfig:
    min_throughput_bytes_per_s: float
    max_mean_delay_us: float


@dataclass(frozen=True)
class ReservationConfig:
    enabled: bool = False
    pacing: bool = True
    power_sizing: bool = True
    performance_gating: bool = True
    min_reservation_us: int = 2000
    claim_interval_init_us: int = 8000
    claim_interval_min_us: int = 1000
    claim_interval_max_us: int = 64000
    share_delta: float = 0.02
    share_window_us: int = 2_000_000
    pacing_tick_us: int = 500_000
    eval_tick_us: int = 100_000
    retx_enable_threshold: int = 3
    eval_window_us: int = 1_000_000
    hold_us: int = 2_000_000
    guard_us: int = 200
    lead_us: int = 2500
    assumed_tx_power_dbm: float = 20.0
    monitor_window_us: int = 2_000_000
    cts_power_dbm: float = 20.0
    qos: Optional[QosConfig] = None
    qos_growth_step: float = 0.25
    qos_growth_cap: float = 2.0


@dataclass(frozen=True)
class ArbiterConfig:
    enabled: bool = False
    schedule_aware: bool = False
    priority: bool = False
    retry_us: int = 500


@dataclass(frozen=True)
class ScenarioConfig:
    duration_us: int = 30_000_000
    warmup_us: int = 1_000_000
    seed: int = 1
    medium: MediumConfig = field(default_factory=MediumConfig)
    wifi: WifiConfig = field(default_factory=WifiConfig)
    wimax: WimaxConfig = field(default_factory=WimaxConfig)
    reservation: ReservationConfig = field(default_factory=ReservationConfig)
    arbiter: ArbiterConfig = field(default_factory=ArbiterConfig)
    nodes: tuple[NodeConfig, ...] = ()

    def node(self, node_id: str) -> NodeConfig:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def platforms(self) -> dict[str, Optional[str]]:
        """Node id -> platform id (None for standalone radios)."""
        parent = {n.id: n.id for n in self.nodes}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for n in self.nodes:
            if n.collocated_with:
                parent[find(n.id)] = find(n.collocated_with)
        groups: dict[str, list[str]] = {}
        for n in self.nodes:
            groups.setdefault(find(n.id), []).append(n.id)
        out: dict[str, Optional[str]] = {}
        for members in groups.values():
            plat = "plat:" + min(members) if len(members) > 1 else None
            for m in members:
                out[m] = plat
        return out

    def interfaces(self) -> dict[str, RadioInterface]:
        plats = self.platforms()
        return {
            n.id: RadioInterface(
                id=n.id, kind=RadioKind(n.kind), position=n.position,
                channel_mhz=n.channel_mhz, tx_power_dbm=n.tx_power_dbm,
                decode_sensitivity_dbm=n.decode_sensitivity_dbm,
                cca_threshold_dbm=n.cca_threshold_dbm, platform=plats[n.id])
            for n in self.nodes
        }


# ---------------------------------------------------------------------------
# validation walker


class _Walker:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, path: str, msg: str) -> None:
        self.errors.append(f"{path}: {msg}")

    def mapping(self, raw: Any, path: str, allowed: set[str]) -> dict:
        if raw is None:
            return {}
        if not isinstance(raw, dict):
            self.fail(path, f"expected a mapping, got {type(raw).__name__}")
            return {}
        for key in raw:
            if key not in allowed:
                self.fail(f"{path}.{key}", "unknown key")
        return raw

    def get(self, raw: dict, key: str, path: str, kind: type, default: Any,
            lo: float | None = None, hi: float | None = None) -> Any:
        if key not in raw or raw[key] is None:
            return default
        val = raw[key]
        if kind is float and isinstance(val, int) and not isinstance(val, bool):
            val = float(val)
        if kind is int and isinstance(val, bool):
            self.fail(f"{path}.{key}", "expected an integer, got a boolean")
            return default
        if not isinstance(val, kind):
            self.fail(f"{path}.{key}", f"expected {kind.__name__}, got {type(val).__name__}")
            return default
        if lo is not None and val < lo:
            self.fail(f"{path}.{key}", f"must be >= {lo}")
            return default
        if hi is not None and val > hi:
            self.fail(f"{path}.{key}", f"must be <= {hi}")
            return default
        return val


def _parse_medium(w: _Walker, raw: Any) -> MediumConfig:
    m = w.mapping(raw, "medium", {"preset", "path_loss", "spillage",
                                  "sinr_threshold_db", "colocated_coupling_db"})
    preset = w.get(m, "preset", "medium", str, "staccato")
    if preset not in PRESETS:
        w.fail("medium.preset", f"must be one of {sorted(PRESETS)}")
        preset = "staccato"
    pl_raw = w.mapping(m.get("path_loss"), "medium.path_loss",
                       {"kind", "exponent", "reference_loss_db", "frequency_mhz"})
    kind = w.get(pl_raw, "kind", "medium.path_loss", str, FREE_SPACE)
    if kind not in (FREE_SPACE, LOG_DISTANCE):
        w.fail("medium.path_loss.kind", f"must be {FREE_SPACE!r} or {LOG_DISTANCE!r}")
        kind = FREE_SPACE
    exponent = w.get(pl_raw, "exponent", "medium.path_loss", float,
                     2.0, lo=2.0, hi=6.0)
    if kind == FREE_SPACE and "exponent" in pl_raw and exponent != 2.0:
        w.fail("medium.path_loss.exponent", "free-space pins the exponent to 2.0")
        exponent = 2.0
    try:
        path_loss_model = PathLossModel(
            kind=kind, exponent=exponent,
            reference_loss_db=w.get(pl_raw, "reference_loss_db", "medium.path_loss",
                                    float, 40.05, lo=1.0, hi=200.0),
            frequency_mhz=w.get(pl_raw, "frequency_mhz", "medium.path_loss",
                                float, 2400.0, lo=400.0, hi=7125.0))
    except ValueError as exc:
        w.fail("medium.path_loss", str(exc))
        path_loss_model = PathLossModel()
    spillage = SpillageTable()
    if m.get("spillage") is not None:
        raw_entries = m["spillage"]
        if not isinstance(raw_entries, list):
            w.fail("medium.spillage", "expected a list of entries")
        else:
            entries = []
            for i, e in enumerate(raw_entries):
                em = w.mapping(e, f"medium.spillage[{i}]", {"separation_mhz", "rejection_db"})
                entries.append((
                    w.get(em, "separation_mhz", f"medium.spillage[{i}]", float, 1.0, lo=0.1),
                    w.get(em, "rejection_db", f"medium.spillage[{i}]", float, 0.0, lo=0.0)))
            try:
                spillage = SpillageTable(tuple(entries))
            except ValueError as exc:
                w.fail("medium.spillage", str(exc))
    return MediumConfig(
        preset=preset, path_loss=path_loss_model, spillage=spillage,
        sinr_threshold_db=w.get(m, "sinr_threshold_db", "medium", float, 10.0, lo=0.0, hi=60.0),
        colocated_coupling_db=w.get(m, "colocated_coupling_db", "medium", float,
                                    20.0, lo=0.0, hi=120.0))


def _parse_traffic(w: _Walker, raw: Any, path: str) -> TrafficConfig:
    t = w.mapping(raw, path, {"kind", "frame_bytes", "interval_us", "at_us",
                              "reservation_us", "power_dbm", "repeat_us",
                              "dl_bytes_per_s", "ul_bytes_per_s",
                              "dl_saturated", "ul_saturated"})
    kind = w.get(t, "kind", path, str, "none")
    if kind not in TRAFFIC_KINDS:
        w.fail(f"{path}.kind", f"must be one of {sorted(TRAFFIC_KINDS)}")
        kind = "none"
    power = None
    if t.get("power_dbm") is not None:
        power = w.get(t, "power_dbm", path, float, None, lo=-60.0, hi=36.0)
    return TrafficConfig(
        kind=kind,
        frame_bytes=w.get(t, "frame_bytes", path, int, 1500, lo=1, hi=60_000),
        interval_us=w.get(t, "interval_us", path, int, 10000, lo=1),
        at_us=w.get(t, "at_us", path, int, 0, lo=0),
        reservation_us=w.get(t, "reservation_us", path, int, 32767, lo=1),
        power_dbm=power,
        repeat_us=w.get(t, "repeat_us", path, int, 0, lo=0),
        dl_bytes_per_s=w.get(t, "dl_bytes_per_s", path, int, 0, lo=0),
        ul_bytes_per_s=w.get(t, "ul_bytes_per_s", path, int, 0, lo=0),
        dl_saturated=w.get(t, "dl_saturated", path, bool, False),
        ul_saturated=w.get(t, "ul_saturated", path, bool, False))


def _parse_node(w: _Walker, raw: Any, index: int) -> Optional[NodeConfig]:
    path = f"nodes[{index}]"
    n = w.mapping(raw, path, {"id", "kind", "position", "channel_mhz", "tx_power_dbm",
                              "decode_sensitivity_dbm", "cca_threshold_dbm", "system",
                              "traffic", "peer", "bs", "collocated_with"})
    node_id = w.get(n, "id", path, str, None)
    if not node_id:
        w.fail(f"{path}.id", "required")
        return None
    kind = w.get(n, "kind", path, str, "wifi")
    if kind not in NODE_KINDS:
        w.fail(f"{path}.kind", f"must be one of {sorted(NODE_KINDS)}")
        kind = "wifi"
    pos_raw = n.get("position")
    position = Position(0.0, 0.0)
    if not (isinstance(pos_raw, list) and len(pos_raw) == 2
            and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in pos_raw)):
        w.fail(f"{path}.position", "expected [x_m, y_m]")
    else:
        try:
            position = Position(float(pos_raw[0]), float(pos_raw[1]))
        except ValueError as exc:
            w.fail(f"{path}.position", str(exc))
    d_tx, d_sens, d_cca, d_chan = _NODE_DEFAULTS[kind]
    traffic = _parse_traffic(w, n.get("traffic"), f"{path}.traffic")
    return NodeConfig(
        id=node_id, kind=kind, position=position,
        channel_mhz=w.get(n, "channel_mhz", path, float, d_chan, lo=400.0, hi=7125.0),
        tx_power_dbm=w.get(n, "tx_power_dbm", path, float, d_tx, lo=-60.0, hi=36.0),
        decode_sensitivity_dbm=w.get(n, "decode_sensitivity_dbm", path, float,
                                     d_sens, lo=-150.0, hi=0.0),
        cca_threshold_dbm=w.get(n, "cca_threshold_dbm", path, float,
                                d_cca, lo=-150.0, hi=0.0),
        system=w.get(n, "system", path, str, ""),
        traffic=traffic,
        peer=w.get(n, "peer", path, str, None),
        bs=w.get(n, "bs", path, str, None),
        collocated_with=w.get(n, "collocated_with", path, str, None))


def _resolve_systems(nodes: list[NodeConfig]) -> list[NodeConfig]:
    """Fill defaulted system labels: WiMAX cells group under their base
    station, WiFi stations under their peer (the access point's id)."""
    out = []
    for n in nodes:
        system = n.system
        if not system:
            if n.kind == "wimax-bs":
                system = f"wimax:{n.id}"
            elif n.kind == "wimax-ss":
                system = f"wimax:{n.bs}"
            elif n.peer is not None:
                system = n.peer
            else:
                system = n.id
        out.append(replace(n, system=system))
    return out


def _check_node_relations(w: _Walker, nodes: list[NodeConfig]) -> None:
    ids: dict[str, int] = {}
    for i, n in enumerate(nodes):
        if n.id in ids:
            w.fail(f"nodes[{i}].id", f"duplicate node id {n.id!r}")
        ids[n.id] = i
    by_id = {n.id: n for n in nodes}
    for i, n in enumerate(nodes):
        path = f"nodes[{i}]"
        if n.collocated_with is not None:
            if n.collocated_with not in by_id:
                w.fail(f"{path}.collocated_with", f"unknown node {n.collocated_with!r}")
            elif n.collocated_with == n.id:
                w.fail(f"{path}.collocated_with", "a node cannot be collocated with itself")
        if n.kind == "wimax-ss":
            if n.bs is None:
                w.fail(f"{path}.bs", "a subscriber station must reference a base station")
            elif n.bs not in by_id or by_id[n.bs].kind != "wimax-bs":
                w.fail(f"{path}.bs", f"{n.bs!r} is not a wimax-bs node")
            if n.traffic.kind not in ("none", "wimax"):
                w.fail(f"{path}.traffic.kind", "subscriber stations use 'wimax' or 'none' traffic")
        else:
            if n.bs is not None:
                w.fail(f"{path}.bs", "only wimax-ss nodes reference a base station")
        if n.kind == "wifi":
            if n.traffic.kind in ("saturated", "paced"):
                if n.peer is None:
                    w.fail(f"{path}.peer", f"{n.traffic.kind} traffic needs a peer")
                elif n.peer not in by_id or by_id[n.peer].kind != "wifi":
                    w.fail(f"{path}.peer", f"{n.peer!r} is not a wifi node")
                elif n.peer == n.id:
                    w.fail(f"{path}.peer", "a node cannot peer with itself")
            if n.traffic.kind == "wimax":
                w.fail(f"{path}.traffic.kind", "'wimax' traffic belongs on a wimax-ss node")
        if n.kind == "wimax-bs" and n.traffic.kind != "none":
            w.fail(f"{path}.traffic.kind", "base stations carry no traffic")


_TOP_KEYS = {"duration_us", "warmup_us", "seed", "medium", "wifi", "wimax",
             "reservation", "arbiter", "nodes"}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document; raise ScenarioError on problems."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError([f"(syntax): {exc}"]) from exc
    if raw is None:
        raw = {}
    w = _Walker()
    top = w.mapping(raw, "(top)", _TOP_KEYS)

    duration = w.get(top, "duration_us", "(top)", int, 30_000_000, lo=1)
    warmup = w.get(top, "warmup_us", "(top)", int, 1_000_000, lo=0)
    if warmup >= duration:
        w.fail("warmup_us", "warm-up must be shorter than the run")
    seed = w.get(top, "seed", "(top)", int, 1)

    medium = _parse_medium(w, top.get("medium"))

    wf = w.mapping(top.get("wifi"), "wifi", {"slot_us", "difs_us", "sifs_us", "cw_min",
                                             "cw_max", "retry_limit", "phy_rate_mbps",
                                             "cts_airtime_us"})
    wifi = WifiConfig(
        slot_us=w.get(wf, "slot_us", "wifi", int, 20, lo=1),
        difs_us=w.get(wf, "difs_us", "wifi", int, 50, lo=1),
        sifs_us=w.get(wf, "sifs_us", "wifi", int, 10, lo=1),
        cw_min=w.get(wf, "cw_min", "wifi", int, 15, lo=1),
        cw_max=w.get(wf, "cw_max", "wifi", int, 1023, lo=1),
        retry_limit=w.get(wf, "retry_limit", "wifi", int, 7, lo=0),
        phy_rate_mbps=w.get(wf, "phy_rate_mbps", "wifi", float, 6.0, lo=0.1),
        cts_airtime_us=w.get(wf, "cts_airtime_us", "wifi", int, 44, lo=1))
    if wifi.cw_max < wifi.cw_min:
        w.fail("wifi.cw_max", "must be >= cw_min")

    wm = w.mapping(top.get("wimax"), "wimax", {"frame_us", "dl_ratio",
                                               "capacity_bytes_per_us",
                                               "preamble_us", "ttg_us"})
    wimax = WimaxConfig(
        frame_us=w.get(wm, "frame_us", "wimax", int, 5000, lo=100),
        dl_ratio=w.get(wm, "dl_ratio", "wimax", float, 0.6, lo=0.05, hi=0.95),
        capacity_bytes_per_us=w.get(wm, "capacity_bytes_per_us", "wimax", float, 2.0, lo=0.01),
        preamble_us=w.get(wm, "preamble_us", "wimax", int, 200, lo=0),
        ttg_us=w.get(wm, "ttg_us", "wimax", int, 100, lo=0))

    rv = w.mapping(top.get("reservation"), "reservation",
                   {"enabled", "pacing", "power_sizing", "performance_gating",
                    "min_reservation_us", "claim_interval_init_us",
                    "claim_interval_min_us", "claim_interval_max_us", "share_delta",
                    "share_window_us", "pacing_tick_us", "eval_tick_us",
                    "retx_enable_threshold", "eval_window_us", "hold_us", "guard_us",
                    "lead_us", "assumed_tx_power_dbm", "monitor_window_us",
                    "cts_power_dbm", "qos", "qos_growth_step", "qos_growth_cap"})
    qos = None
    if rv.get("qos") is not None:
        qm = w.mapping(rv["qos"], "reservation.qos",
                       {"min_throughput_bytes_per_s", "max_mean_delay_us"})
        qos = QosConfig(
            min_throughput_bytes_per_s=w.get(qm, "min_throughput_bytes_per_s",
                                             "reservation.qos", float, 0.0, lo=0.0),
            max_mean_delay_us=w.get(qm, "max_mean_delay_us",
                                    "reservation.qos", float, 1e12, lo=0.0))
    reservation = ReservationConfig(
        enabled=w.get(rv, "enabled", "reservation", bool, False),
        pacing=w.get(rv, "pacing", "reservation", bool, True),
        power_sizing=w.get(rv, "power_sizing", "reservation", bool, True),
        performance_gating=w.get(rv, "performance_gating", "reservation", bool, True),
        min_reservation_us=w.get(rv, "min_reservation_us", "reservation", int, 2000, lo=1),
        claim_interval_init_us=w.get(rv, "claim_interval_init_us", "reservation",
                                     int, 8000, lo=1),
        claim_interval_min_us=w.get(rv, "claim_interval_min_us", "reservation",
                                    int, 1000, lo=1),
        claim_interval_max_us=w.get(rv, "claim_interval_max_us", "reservation",
                                    int, 64000, lo=1),
        share_delta=w.get(rv, "share_delta", "reservation", float, 0.02, lo=0.0, hi=0.49),
        share_window_us=w.get(rv, "share_window_us", "reservation", int, 2_000_000, lo=1000),
        pacing_tick_us=w.get(rv, "pacing_tick_us", "reservation", int, 500_000, lo=1000),
        eval_tick_us=w.get(rv, "eval_tick_us", "reservation", int, 100_000, lo=1000),
        retx_enable_threshold=w.get(rv, "retx_enable_threshold", "reservation", int, 3, lo=1),
        eval_window_us=w.get(rv, "eval_window_us", "reservation", int, 1_000_000, lo=1000),
        hold_us=w.get(rv, "hold_us", "reservation", int, 2_000_000, lo=0),
        guard_us=w.get(rv, "guard_us", "reservation", int, 200, lo=0),
        lead_us=w.get(rv, "lead_us", "reservation", int, 2500, lo=100),
        assumed_tx_power_dbm=w.get(rv, "assumed_tx_power_dbm", "reservation",
                                   float, 20.0, lo=-60.0, hi=36.0),
        monitor_window_us=w.get(rv, "monitor_window_us", "reservation",
                                int, 2_000_000, lo=1000),
        cts_power_dbm=w.get(rv, "cts_power_dbm", "reservation", float, 20.0,
                            lo=-60.0, hi=36.0),
        qos=qos,
        qos_growth_step=w.get(rv, "qos_growth_step", "reservation", float, 0.25,
                              lo=0.0, hi=4.0),
        qos_growth_cap=w.get(rv, "qos_growth_cap", "reservation", float, 2.0,
                             lo=1.0, hi=16.0))
    if reservation.claim_interval_max_us < reservation.claim_interval_min_us:
        w.fail("reservation.claim_interval_max_us", "must be >= claim_interval_min_us")

    ab = w.mapping(top.get("arbiter"), "arbiter",
                   {"enabled", "schedule_aware", "priority", "retry_us"})
    arbiter = ArbiterConfig(
        enabled=w.get(ab, "enabled", "arbiter", bool, False),
        schedule_aware=w.get(ab, "schedule_aware", "arbiter", bool, False),
        priority=w.get(ab, "priority", "arbiter", bool, False),
        retry_us=w.get(ab, "retry_us", "arbiter", int, 500, lo=1))

    nodes_raw = top.get("nodes", [])
    if nodes_raw is None:
        nodes_raw = []
    if not isinstance(nodes_raw, list):
        w.fail("nodes", "expected a list")
        nodes_raw = []
    nodes = []
    for i, nr in enumerate(nodes_raw):
        node = _parse_node(w, nr, i)
        if node is not None:
            nodes.append(node)
    if not w.errors:
        _check_node_relations(w, nodes)

    if w.errors:
        raise ScenarioError(w.errors)
    nodes = _resolve_systems(nodes)
    return ScenarioConfig(duration_us=duration, warmup_us=warmup, seed=seed,
                          medium=medium, wifi=wifi, wimax=wimax,
                          reservation=reservation, arbiter=arbiter,
                          nodes=tuple(nodes))


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _traffic_dict(t: TrafficConfig) -> dict:
    out: dict[str, Any] = {"kind": t.kind}
    if t.kind in ("saturated", "paced"):
        out["frame_bytes"] = t.frame_bytes
    if t.kind == "paced":
        out["interval_us"] = t.interval_us
    if t.kind == "cts-inject":
        out["at_us"] = t.at_us
        out["reservation_us"] = t.reservation_us
        if t.power_dbm is not None:
            out["power_dbm"] = t.power_dbm
        if t.repeat_us:
            out["repeat_us"] = t.repeat_us
    if t.kind == "wimax":
        out.update(dl_bytes_per_s=t.dl_bytes_per_s, ul_bytes_per_s=t.ul_bytes_per_s,
                   dl_saturated=t.dl_saturated, ul_saturated=t.ul_saturated)
    return out


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    nodes = []
    for n in cfg.nodes:
        d: dict[str, Any] = {
            "id": n.id, "kind": n.kind, "position": [n.position.x, n.position.y],
            "channel_mhz": n.channel_mhz, "tx_power_dbm": n.tx_power_dbm,
            "decode_sensitivity_dbm": n.decode_sensitivity_dbm,
            "cca_threshold_dbm": n.cca_threshold_dbm, "system": n.system,
            "traffic": _traffic_dict(n.traffic),
        }
        if n.peer is not None:
            d["peer"] = n.peer
        if n.bs is not None:
            d["bs"] = n.bs
        if n.collocated_with is not None:
            d["collocated_with"] = n.collocated_with
        nodes.append(d)
    out = {
        "duration_us": cfg.duration_us,
        "warmup_us": cfg.warmup_us,
        "seed": cfg.seed,
        "medium": {
            "preset": cfg.medium.preset,
            "path_loss": {
                "kind": cfg.medium.path_loss.kind,
                "exponent": cfg.medium.path_loss.exponent,
                "reference_loss_db": cfg.medium.path_loss.reference_loss_db,
                "frequency_mhz": cfg.medium.path_loss.frequency_mhz,
            },
            "spillage": [{"separation_mhz": s, "rejection_db": r}
                         for s, r in cfg.medium.spillage.entries],
            "sinr_threshold_db": cfg.medium.sinr_threshold_db,
            "colocated_coupling_db": cfg.medium.colocated_coupling_db,
        },
        "wifi": {k: getattr(cfg.wifi, k) for k in
                 ("slot_us", "difs_us", "sifs_us", "cw_min", "cw_max",
                  "retry_limit", "phy_rate_mbps", "cts_airtime_us")},
        "wimax": {k: getattr(cfg.wimax, k) for k in
                  ("frame_us", "dl_ratio", "capacity_bytes_per_us",
                   "preamble_us", "ttg_us")},
        "reservation": {k: getattr(cfg.reservation, k) for k in
                        ("enabled", "pacing", "power_sizing", "performance_gating",
                         "min_reservation_us", "claim_interval_init_us",
                         "claim_interval_min_us", "claim_interval_max_us",
                         "share_delta", "share_window_us", "pacing_tick_us",
                         "eval_tick_us", "retx_enable_threshold", "eval_window_us",
                         "hold_us", "guard_us", "lead_us", "assumed_tx_power_dbm",
                         "monitor_window_us", "cts_power_dbm", "qos_growth_step",
                         "qos_growth_cap")},
        "arbiter": {k: getattr(cfg.arbiter, k) for k in
                    ("enabled", "schedule_aware", "priority", "retry_us")},
        "nodes": nodes,
    }
    if cfg.reservation.qos is not None:
        out["reservation"]["qos"] = {
            "min_throughput_bytes_per_s": cfg.reservation.qos.min_throughput_bytes_per_s,
            "max_mean_delay_us": cfg.reservation.qos.max_mean_delay_us,
        }
    return out


def emit_scenario(cfg: ScenarioConfig) -> str:
    """Serialize a config so that parse_scenario(emit_scenario(c)) == c."""
    return yaml.safe_dump(scenario_to_dict(cfg), sort_keys=False)


def toggled(cfg: ScenarioConfig, mechanism: str, enabled: bool) -> ScenarioConfig:
    """Copy of the config with the reservation scheme or arbiter switched."""
    if mechanism == "reservation":
        return replace(cfg, reservation=replace(cfg.reservation, enabled=enabled))
    if mechanism == "arbiter":
        return replace(cfg, arbiter=replace(cfg.arbiter, enabled=enabled))
    raise ValueError(f"unknown mechanism: {mechanism!r}")
