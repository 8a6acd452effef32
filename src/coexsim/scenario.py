"""Scenario files: the canonical YAML schema, strict validation, round-trip emit.

A scenario is one YAML document.  Unknown keys are errors, every reported
problem names the offending path, and parsing an emitted config yields an
equivalent config.  See README.md for the full schema reference.

Each section of the schema is a dataclass: its field names are the allowed
keys, its field defaults are the schema defaults, and each field's metadata
holds the bounds (``lo``, ``hi``) and allowed values (``choices``) that
validation and the constructor (``medium.Bounded``) enforce alike.  One
generic parser and one generic emitter read them, and a constructor judges
only values that passed their own checks.  ``ScenarioConfig``'s constructor
holds the node rules: one built in code or with ``dataclasses.replace``
raises ``ScenarioError`` listing each broken rule with the parser's text and
path, such as ``nodes[1].peer: 'ghost' is not a wifi node``.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from functools import cached_property
from typing import Any, Optional, get_args, get_type_hints

import yaml

from .medium import (Bounded, MediumModel, Memo, PathLossModel, Position, RadioInterface,
                     SpillageEntry, SpillageTable, _bound_problem)
from .reservation import QosTarget
from .wifi import DcfParams
from .wimax import WimaxConfig

TRAFFIC_KINDS = ("none", "saturated", "paced", "cts-inject", "wimax")
NODE_KINDS = ("wifi", "wimax-ss", "wimax-bs")

# radio defaults that depend on the node kind
_NODE_DEFAULTS = {
    "wifi": {"tx_power_dbm": 20.0, "decode_sensitivity_dbm": -85.0, "channel_mhz": 2412.0},
    "wimax-ss": {"tx_power_dbm": 23.0, "decode_sensitivity_dbm": -90.0, "channel_mhz": 2380.0},
    "wimax-bs": {"tx_power_dbm": 30.0, "decode_sensitivity_dbm": -90.0, "channel_mhz": 2380.0},
}


class ScenarioError(ValueError):
    """Validation failure; ``errors`` lists 'path: problem' strings."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class TrafficConfig(Bounded):
    kind: str = field(default="none", metadata={"choices": TRAFFIC_KINDS})
    frame_bytes: int = field(default=1500, metadata={"lo": 1, "hi": 60_000})
    interval_us: int = field(default=10000, metadata={"lo": 1})        # paced
    at_us: int = field(default=0, metadata={"lo": 0})                  # cts-inject
    # cts-inject; 100 s is 3,052 chunks of the 32767 us duration-field cap
    reservation_us: int = field(default=32767, metadata={"lo": 1, "hi": 100_000_000})
    # cts-inject; None -> node tx power
    power_dbm: Optional[float] = field(default=None, metadata={"lo": -60.0, "hi": 36.0})
    repeat_us: int = field(default=0, metadata={"lo": 0})              # cts-inject; 0 = once
    dl_bytes_per_s: int = field(default=0, metadata={"lo": 0})         # wimax
    ul_bytes_per_s: int = field(default=0, metadata={"lo": 0})         # wimax
    dl_saturated: bool = False                                         # wimax
    ul_saturated: bool = False                                         # wimax


@dataclass(frozen=True, kw_only=True)
class NodeConfig(Bounded):
    """One radio.  The radio fields without a default take theirs from
    ``_NODE_DEFAULTS`` by kind; ``system`` defaults as ``_parse_node`` says."""

    id: str
    kind: str = field(default="wifi", metadata={"choices": NODE_KINDS})
    position: Position
    channel_mhz: float = field(metadata={"lo": 400.0, "hi": 7125.0})
    tx_power_dbm: float = field(metadata={"lo": -60.0, "hi": 36.0})
    decode_sensitivity_dbm: float = field(metadata={"lo": -150.0, "hi": 0.0})
    cca_threshold_dbm: float = field(default=-82.0, metadata={"lo": -150.0, "hi": 0.0})
    system: str
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    peer: Optional[str] = None
    bs: Optional[str] = None
    collocated_with: Optional[str] = None


@dataclass(frozen=True)
class ReservationConfig(Bounded):
    enabled: bool = False
    pacing: bool = True
    power_sizing: bool = True
    performance_gating: bool = True
    min_reservation_us: int = field(default=2000, metadata={"lo": 1})
    claim_interval_init_us: int = field(default=8000, metadata={"lo": 1})
    claim_interval_min_us: int = field(default=1000, metadata={"lo": 1})
    claim_interval_max_us: int = field(default=64000, metadata={"lo": 1})
    share_delta: float = field(default=0.02, metadata={"lo": 0.0, "hi": 0.49})
    share_window_us: int = field(default=2_000_000, metadata={"lo": 1000})
    pacing_tick_us: int = field(default=500_000, metadata={"lo": 1000})
    eval_tick_us: int = field(default=100_000, metadata={"lo": 1000})
    retx_enable_threshold: int = field(default=3, metadata={"lo": 1})
    eval_window_us: int = field(default=1_000_000, metadata={"lo": 1000})
    hold_us: int = field(default=2_000_000, metadata={"lo": 0})
    lead_us: int = field(default=2500, metadata={"lo": 100})
    assumed_tx_power_dbm: float = field(default=20.0, metadata={"lo": -60.0, "hi": 36.0})
    monitor_window_us: int = field(default=2_000_000, metadata={"lo": 1000})
    cts_power_dbm: float = field(default=20.0, metadata={"lo": -60.0, "hi": 36.0})
    qos: Optional[QosTarget] = None
    qos_growth_step: float = field(default=0.25, metadata={"lo": 0.0, "hi": 4.0})
    qos_growth_cap: float = field(default=2.0, metadata={"lo": 1.0, "hi": 16.0})

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.claim_interval_max_us < self.claim_interval_min_us:
            raise ValueError("claim_interval_max_us: must be >= claim_interval_min_us")


@dataclass(frozen=True)
class ArbiterConfig(Bounded):
    enabled: bool = False
    schedule_aware: bool = False
    retry_us: int = field(default=500, metadata={"lo": 1})


@dataclass(frozen=True)
class ScenarioConfig(Bounded):
    duration_us: int = field(default=30_000_000, metadata={"lo": 1})
    warmup_us: int = field(default=1_000_000, metadata={"lo": 0})
    seed: int = 1
    medium: MediumModel = field(default_factory=MediumModel)
    wifi: DcfParams = field(default_factory=DcfParams)
    wimax: WimaxConfig = field(default_factory=WimaxConfig)
    reservation: ReservationConfig = field(default_factory=ReservationConfig)
    arbiter: ArbiterConfig = field(default_factory=ArbiterConfig)
    nodes: tuple[NodeConfig, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.warmup_us >= self.duration_us:
            raise ValueError("warm-up must be shorter than the run")
        problems = _node_problems(self.nodes, self.wifi.cts_airtime_us)
        if problems:
            raise ScenarioError(problems)

    @cached_property
    def _by_id(self) -> dict[str, NodeConfig]:
        return {n.id: n for n in self.nodes}

    def node(self, node_id: str) -> NodeConfig:
        """The node with this id; KeyError if there is none."""
        return self._by_id[node_id]

    def interfaces(self) -> dict[str, RadioInterface]:
        plats = _platforms(self.nodes)
        return {
            n.id: RadioInterface(
                id=n.id, position=n.position,
                channel_mhz=n.channel_mhz, tx_power_dbm=n.tx_power_dbm,
                decode_sensitivity_dbm=n.decode_sensitivity_dbm,
                cca_threshold_dbm=n.cca_threshold_dbm, platform=plats[n.id])
            for n in self.nodes
        }


def _platforms(nodes: tuple[NodeConfig, ...]) -> dict[str, Optional[str]]:
    """Node id -> platform id; every ``collocated_with`` must name a node."""
    parent = {n.id: n.id for n in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for n in nodes:
        if n.collocated_with:
            parent[find(n.id)] = find(n.collocated_with)
    groups: dict[str, list[str]] = {}
    for n in nodes:
        groups.setdefault(find(n.id), []).append(n.id)
    out: dict[str, Optional[str]] = {}
    for members in groups.values():
        plat = "plat:" + min(members) if len(members) > 1 else None
        for m in members:
            out[m] = plat
    return out


# ---------------------------------------------------------------------------
# field tables, built on first use

_SCALAR_TYPES = (bool, int, float, str)

# libyaml's parser when PyYAML was built with it: same safe constructors and
# tag resolution as SafeLoader, several times faster on large files
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _scalar_fields(cls: type) -> tuple:
    """(name, type, default, lo, hi, choices) of each scalar field of ``cls``.

    Fields holding a section or a special type (position, spillage, nodes)
    are left to their own parsers.  A field without a default reads as None
    when absent.
    """
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        hint = hints[f.name]
        kind = next((a for a in get_args(hint) if a is not type(None)), hint)  # Optional[T] -> T
        if kind in _SCALAR_TYPES:
            out.append((f.name, kind, None if f.default is MISSING else f.default,
                        f.metadata.get("lo"), f.metadata.get("hi"), f.metadata.get("choices")))
    return tuple(out)


_SCALARS = Memo(_scalar_fields)
_KEYS = Memo(lambda cls: frozenset(f.name for f in fields(cls)))


# ---------------------------------------------------------------------------
# validation walker


class _Walker:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def fail(self, path: str, msg: str) -> None:
        self.errors.append(f"{path}: {msg}")

    def mapping(self, raw: Any, path: str, allowed: frozenset[str]) -> dict:
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
            lo: float | None = None, hi: float | None = None,
            choices: tuple | None = None) -> Any:
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
        problem = _bound_problem(val, lo, hi, choices)
        if problem:
            self.fail(f"{path}.{key}", problem)
            return default
        return val


def _scalars(w: _Walker, m: dict, path: str, cls: type) -> dict:
    """Validated scalar fields of section ``cls`` from the mapping ``m``."""
    return {name: w.get(m, name, path, kind, default, lo, hi, choices)
            for name, kind, default, lo, hi, choices in _SCALARS[cls]}


def _section(w: _Walker, raw: Any, path: str, cls: type, **nested: type) -> Any:
    """A section of scalar fields and of the ``nested`` sections given, each
    a field name and its section type, built only if each scalar field passed
    its own check.  A ValueError from the constructor fails at the field its
    message starts with, as ``name: problem``, or else at the section.  A
    section not built takes its defaults."""
    m = w.mapping(raw, path, _KEYS[cls])
    values = {name: _section(w, m[name], f"{path}.{name}", kind)
              for name, kind in nested.items() if m.get(name) is not None}
    checked = len(w.errors)
    values.update(_scalars(w, m, path, cls))
    try:
        if len(w.errors) == checked:
            return cls(**values)
    except ValueError as exc:
        name, colon, problem = str(exc).partition(": ")
        if colon and name in _KEYS[cls]:
            w.fail(f"{path}.{name}", problem)
        else:
            w.fail(path, str(exc))
    return cls()


def _parse_medium(w: _Walker, raw: Any) -> MediumModel:
    m = w.mapping(raw, "medium", _KEYS[MediumModel])
    path_loss = _section(w, m.get("path_loss"), "medium.path_loss", PathLossModel)
    spillage = {}  # the default table unless the document gives one
    if m.get("spillage") is not None:
        raw_entries = m["spillage"]
        if not isinstance(raw_entries, list):
            w.fail("medium.spillage", "expected a list of entries")
        else:
            entries = []
            for i, e in enumerate(raw_entries):
                path = f"medium.spillage[{i}]"
                given = w.mapping(e, path, _KEYS[SpillageEntry])
                row = _scalars(w, given, path, SpillageEntry)
                for key in row:
                    if given.get(key) is None:
                        w.fail(f"{path}.{key}", "required")
                entries.append(tuple(row.values()))
            if all(None not in e for e in entries):
                try:
                    spillage["spillage"] = SpillageTable(tuple(entries))
                except ValueError as exc:
                    w.fail("medium.spillage", str(exc))
    return MediumModel(path_loss=path_loss, **spillage, **_scalars(w, m, "medium", MediumModel))


def _parse_node(w: _Walker, raw: Any, index: int) -> Optional[NodeConfig]:
    path = f"nodes[{index}]"
    n = w.mapping(raw, path, _KEYS[NodeConfig])
    vals = _scalars(w, n, path, NodeConfig)
    if not vals["id"]:
        if n.get("id") in (None, ""):  # else the id failed its own check
            w.fail(f"{path}.id", "required")
        return None
    kind = vals["kind"]
    for key, default in _NODE_DEFAULTS[kind].items():
        if vals[key] is None:
            vals[key] = default
    if not vals["system"]:
        # WiMAX cells group under their base station, WiFi stations under
        # their peer (the access point's id)
        if kind == "wimax-bs":
            vals["system"] = f"wimax:{vals['id']}"
        elif kind == "wimax-ss":
            vals["system"] = f"wimax:{vals['bs']}"
        elif vals["peer"] is not None:
            vals["system"] = vals["peer"]
        else:
            vals["system"] = vals["id"]
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
    traffic = _section(w, n.get("traffic"), f"{path}.traffic", TrafficConfig)
    return NodeConfig(position=position, traffic=traffic, **vals)


def _node_problems(nodes: tuple[NodeConfig, ...], cts_airtime_us: int) -> list[str]:
    """'path: problem' of each node rule broken; positions only if all others hold."""
    w = _Walker()
    ids: dict[str, int] = {}
    for i, n in enumerate(nodes):
        if n.id in ids:
            w.fail(f"nodes[{i}].id", f"duplicate node id {n.id!r}")
        if "|" in n.id or ">" in n.id:  # the separators of trace lines and link ids
            w.fail(f"nodes[{i}].id", f"node id {n.id!r} contains '|' or '>'")
        if not n.id.isprintable():  # a line break would split a traced line
            w.fail(f"nodes[{i}].id", f"node id {n.id!r} holds a character that is not "
                                      "printable, such as a line break")
        if n.id == "None":  # what a CTS note prints as its missing addressee
            w.fail(f"nodes[{i}].id", "node id 'None' contains the text a CTS note prints "
                                      "as its missing addressee")
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
        if n.peer is not None:
            if n.kind != "wifi":
                w.fail(f"{path}.peer", "only wifi nodes reference a peer")
            elif n.peer not in by_id or by_id[n.peer].kind != "wifi":
                w.fail(f"{path}.peer", f"{n.peer!r} is not a wifi node")
            elif n.peer == n.id:
                w.fail(f"{path}.peer", "a node cannot peer with itself")
        elif n.kind == "wifi" and n.traffic.kind in ("saturated", "paced"):
            w.fail(f"{path}.peer", f"{n.traffic.kind} traffic needs a peer")
        if n.kind == "wifi":
            if n.traffic.kind == "wimax":
                w.fail(f"{path}.traffic.kind", "'wimax' traffic belongs on a wimax-ss node")
            span = n.traffic.reservation_us + cts_airtime_us
            if n.traffic.kind == "cts-inject" and 0 < n.traffic.repeat_us < span:
                w.fail(f"{path}.traffic.repeat_us", f"must be 0 or at least reservation_us + "
                       f"wifi.cts_airtime_us ({span}), so a train ends before the next")
        if n.kind == "wimax-bs" and n.traffic.kind != "none":
            w.fail(f"{path}.traffic.kind", "base stations carry no traffic")
    if w.errors:
        return w.errors  # platforms need every reference resolved
    # path loss has no distance 0; only radios on one platform may coincide
    plats = _platforms(nodes)
    first_at: dict[Position, NodeConfig] = {}
    for i, n in enumerate(nodes):
        other = first_at.setdefault(n.position, n)
        if other is not n and (plats[n.id] is None or plats[n.id] != plats[other.id]):
            w.fail(f"nodes[{i}].position", f"same position as {other.id!r} on another "
                   "platform; radios on one platform set collocated_with")
    return w.errors


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document; raise ScenarioError listing
    every problem.  The config's constructor, which checks the run window
    and the node rules, runs only on an otherwise valid document."""
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError([f"(syntax): {exc}"]) from exc
    w = _Walker()
    top = w.mapping(raw, "(top)", _KEYS[ScenarioConfig])
    scalars = _scalars(w, top, "(top)", ScenarioConfig)

    medium = _parse_medium(w, top.get("medium"))

    wifi = _section(w, top.get("wifi"), "wifi", DcfParams)
    wimax = _section(w, top.get("wimax"), "wimax", WimaxConfig)
    reservation = _section(w, top.get("reservation"), "reservation", ReservationConfig,
                           qos=QosTarget)
    arbiter = _section(w, top.get("arbiter"), "arbiter", ArbiterConfig)

    nodes_raw = top.get("nodes", [])
    if nodes_raw is None:
        nodes_raw = []
    if not isinstance(nodes_raw, list):
        w.fail("nodes", "expected a list")
        nodes_raw = []
    nodes = tuple(filter(None, (_parse_node(w, nr, i) for i, nr in enumerate(nodes_raw))))
    if not w.errors:
        try:
            return ScenarioConfig(medium=medium, wifi=wifi, wimax=wimax, reservation=reservation,
                                  arbiter=arbiter, nodes=nodes, **scalars)
        except ScenarioError as exc:  # the node rules
            w.errors += exc.errors
        except ValueError as exc:  # the run window
            w.fail("(top).warmup_us", str(exc))
    raise ScenarioError(w.errors)


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _plain(value: Any) -> Any:
    """Schema form of a config value: a section becomes a mapping of every
    field in declaration order, leaving out optional fields that are unset."""
    if isinstance(value, Position):
        return [value.x, value.y]
    if isinstance(value, SpillageTable):
        return [_plain(SpillageEntry(*entry)) for entry in value.entries]
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if is_dataclass(value):
        out = {}
        for f in fields(value):
            v = getattr(value, f.name)
            if v is not None:
                out[f.name] = _plain(v)
        return out
    return value


def emit_scenario(cfg: ScenarioConfig) -> str:
    """Serialize a config so that parse_scenario(emit_scenario(c)) == c."""
    return yaml.safe_dump(_plain(cfg), sort_keys=False)


def toggled(cfg: ScenarioConfig, mechanism: str, enabled: bool) -> ScenarioConfig:
    """Copy of the config with the reservation scheme or arbiter switched."""
    if mechanism == "reservation":
        return replace(cfg, reservation=replace(cfg.reservation, enabled=enabled))
    if mechanism == "arbiter":
        return replace(cfg, arbiter=replace(cfg.arbiter, enabled=enabled))
    raise ValueError(f"unknown mechanism: {mechanism!r}")
