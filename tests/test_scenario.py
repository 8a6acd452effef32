import collections
import math
import pathlib
from dataclasses import fields, replace
from typing import Optional, get_type_hints

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from coexsim.medium import (FREE_SPACE, Bounded, MediumModel, PathLossModel, Position,
                            SpillageEntry, SpillageTable)
from coexsim.reservation import QosTarget
from coexsim.scenario import (_SCALARS, ArbiterConfig, NodeConfig, ReservationConfig,
                              ScenarioConfig, ScenarioError, TrafficConfig, WimaxConfig,
                              emit_scenario, load_scenario, parse_scenario, toggled)
from coexsim.wifi import DcfParams
from conftest import scenario_path

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

MINIMAL = """
nodes:
  - {id: a, kind: wifi, position: [0.0, 0.0], traffic: {kind: none}}
"""

# a document whose first node, WiFi station a, has the fields given; more
# nodes may follow
WIFI_A = "nodes:\n  - {id: a, kind: wifi, position: [0.0, 0.0]%s}\n"
# a base station and a subscriber station of it, with the fields given
CELL = ("nodes:\n  - {id: b, kind: wimax-bs, position: [0.0, 0.0]}\n"
        "  - {id: s, kind: wimax-ss, position: [1.0, 0.0], bs: b%s}\n")

# a peer on an idle station that names no node, and peers on WiMAX nodes
GHOST_PEERS = """
nodes:
  - {id: sta, kind: wifi, position: [0.0, 0.0], peer: ap, traffic: {kind: saturated}}
  - {id: ap, kind: wifi, position: [3.0, 0.0], peer: ghost}
  - {id: bs, kind: wimax-bs, position: [50.0, 0.0], peer: nobody}
  - {id: ss, kind: wimax-ss, position: [10.0, 0.0], bs: bs, peer: sta}
"""


def node_changed(cfg: ScenarioConfig, index: int, **changes) -> ScenarioConfig:
    """``cfg`` with the fields given changed on node ``index``."""
    nodes = list(cfg.nodes)
    nodes[index] = replace(nodes[index], **changes)
    return replace(cfg, nodes=tuple(nodes))


# scenarios written inline, round-tripped next to the shipped files
INLINE = {
    # fields the traffic kind does not use are still part of the config
    "unused_traffic_fields": """
nodes:
  - {id: a, kind: wifi, position: [0.0, 0.0], traffic: {kind: none, frame_bytes: 100}}
""",
}


class TestCanonicalFiles:
    def test_emulation_geometry(self, emulation_cfg):
        coord = emulation_cfg.node("coordinator")
        node2 = emulation_cfg.node("node2")
        assert coord.traffic.kind == "cts-inject"
        assert coord.traffic.power_dbm == 1.0
        assert node2.position.distance_to(coord.position) == pytest.approx(3.0)
        assert emulation_cfg.node("node3").position.distance_to(coord.position) == pytest.approx(40.0)
        assert emulation_cfg.medium.path_loss.kind == "log-distance"
        assert emulation_cfg.medium.path_loss.exponent == 3.0
        assert [emulation_cfg.node(n.id) for n in emulation_cfg.nodes] == list(emulation_cfg.nodes)
        with pytest.raises(KeyError):
            emulation_cfg.node("ghost")

    def test_conference_room_shape(self, conference_cfg):
        assert conference_cfg.reservation.enabled
        kinds = sorted(n.kind for n in conference_cfg.nodes)
        assert kinds.count("wimax-ss") == 1
        assert kinds.count("wimax-bs") == 1
        saturated = [n for n in conference_cfg.nodes
                     if n.kind == "wifi" and n.traffic.kind == "saturated"]
        assert len(saturated) == 2
        systems = {n.system for n in saturated}
        assert len(systems) == 2

    def test_colocated_platform(self, colocated_cfg):
        assert colocated_cfg.arbiter.enabled
        ifaces = colocated_cfg.interfaces()
        assert ifaces["ss1"].platform is not None
        assert ifaces["ss1"].platform == ifaces["wifi1"].platform
        assert ifaces["ap"].platform is None

    @pytest.mark.parametrize("name", ["emulation", "conference_room", "colocated",
                                      "unused_traffic_fields"])
    def test_round_trip(self, name):
        if name in INLINE:
            cfg = parse_scenario(INLINE[name])
        else:
            cfg = load_scenario(scenario_path(name))
        assert parse_scenario(emit_scenario(cfg)) == cfg

    def test_readme_schema_block_is_the_defaults(self):
        text = README.read_text(encoding="utf-8").split("## Scenario schema", 1)[1]
        doc = yaml.safe_load(text.split("```yaml\n", 1)[1].split("```", 1)[0])
        del doc["nodes"]
        assert parse_scenario(yaml.safe_dump(doc)) == parse_scenario("")


# section -> (its path, the document that sets the fields given in it, and a
# valid section that document parses to when it sets none)
_SITES = {
    ScenarioConfig: ("(top)", lambda f: f, ScenarioConfig()),
    MediumModel: ("medium", lambda f: {"medium": f}, MediumModel()),
    PathLossModel: ("medium.path_loss", lambda f: {"medium": {"path_loss": f}},
                    PathLossModel()),
    SpillageEntry: ("medium.spillage[0]", lambda f: {"medium": {"spillage": [
        {"separation_mhz": 20.0, "rejection_db": 41.0, **f}]}}, SpillageEntry(20.0, 41.0)),
    DcfParams: ("wifi", lambda f: {"wifi": f}, DcfParams()),
    WimaxConfig: ("wimax", lambda f: {"wimax": f}, WimaxConfig()),
    ReservationConfig: ("reservation", lambda f: {"reservation": f}, ReservationConfig()),
    QosTarget: ("reservation.qos", lambda f: {"reservation": {"qos": f}}, QosTarget()),
    ArbiterConfig: ("arbiter", lambda f: {"arbiter": f}, ArbiterConfig()),
    NodeConfig: ("nodes[0]", lambda f: {"nodes": [{"id": "a", "position": [0.0, 0.0], **f}]},
                 parse_scenario(WIFI_A % "").nodes[0]),
    TrafficConfig: ("nodes[0].traffic", lambda f: {"nodes": [{
        "id": "a", "position": [0.0, 0.0], "traffic": {"kind": "cts-inject", **f}}]},
                    TrafficConfig(kind="cts-inject")),
}
# ``_SCALARS`` fills on first use, so the cases read it through ``_SITES``
_FLOAT_FIELDS = [(cls, name) for cls in _SITES for name, kind, *_ in _SCALARS[cls]
                 if kind is float]


def _out_of_bounds(kind, lo, hi, choices):
    """(case, value) pairs just outside a field's bounds."""
    if lo is not None:
        yield "lo", lo - 1 if kind is int else math.nextafter(lo, -math.inf)
    if hi is not None:
        yield "hi", hi + 1 if kind is int else math.nextafter(hi, math.inf)
    if choices is not None:
        yield "choices", "bogus"
    if kind is float:
        yield "nan", math.nan


_BOUND_CASES = [(cls, name, case, value) for cls in _SITES
                for name, kind, _, lo, hi, choices in _SCALARS[cls]
                for case, value in _out_of_bounds(kind, lo, hi, choices)]


def test_sites_cover_every_section():
    """The bound and finiteness cases reach every section class."""
    assert set(_SITES) == set(Bounded.__subclasses__())


class TestValidation:
    def test_minimal_defaults(self):
        cfg = parse_scenario(MINIMAL)
        node = cfg.nodes[0]
        assert node.tx_power_dbm == 20.0
        assert node.decode_sensitivity_dbm == -85.0
        assert node.cca_threshold_dbm == -82.0
        assert node.channel_mhz == 2412.0
        assert cfg.duration_us == 30_000_000

    def test_empty_document(self):
        cfg = parse_scenario("")
        assert cfg.nodes == ()

    def test_syntax_error(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("nodes: [}")
        assert "(syntax)" in err.value.errors[0]

    def test_duplicate_node_id_names_the_id(self):
        text = """
nodes:
  - {id: a, kind: wifi, position: [0.0, 0.0]}
  - {id: a, kind: wifi, position: [1.0, 0.0]}
"""
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert any("duplicate node id 'a'" in e for e in err.value.errors)

    def test_dangling_collocated_reference(self):
        text = """
nodes:
  - {id: a, kind: wifi, position: [0.0, 0.0], collocated_with: ghost}
"""
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert any("collocated_with" in e and "ghost" in e for e in err.value.errors)

    def test_unknown_key_is_an_error_with_path(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("durationus: 5\n")
        assert any("durationus" in e and "unknown key" in e for e in err.value.errors)

    def test_unknown_nested_key(self):
        text = """
nodes:
  - {id: a, kind: wifi, position: [0.0, 0.0], traffic: {kind: none, typo_key: 1}}
"""
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert any("nodes[0].traffic.typo_key" in e for e in err.value.errors)

    def test_ss_requires_base_station(self):
        text = """
nodes:
  - {id: s, kind: wimax-ss, position: [0.0, 0.0]}
"""
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert any("nodes[0].bs" in e for e in err.value.errors)

    def test_saturated_wifi_requires_peer(self):
        text = """
nodes:
  - {id: a, kind: wifi, position: [0.0, 0.0], traffic: {kind: saturated}}
"""
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert any("nodes[0].peer" in e for e in err.value.errors)

    def test_out_of_range_value(self):
        text = """
nodes:
  - {id: a, kind: wifi, position: [0.0, 0.0], tx_power_dbm: 99.0}
"""
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert any("tx_power_dbm" in e for e in err.value.errors)

    @pytest.mark.parametrize("text", ["wifi: {sifs_us: 10}\n",
                                      "reservation: {guard_us: 200}\n",
                                      "arbiter: {priority: false}\n",
                                      "medium: {preset: intel}\n"])
    def test_removed_keys_are_unknown(self, text):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert any("unknown key" in e for e in err.value.errors)

    def test_subframe_split_must_fit_the_frame(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("wimax: {frame_us: 100, ttg_us: 100}\n")
        assert any(e.startswith("wimax.") and "subframe" in e for e in err.value.errors)
        parse_scenario("wimax: {frame_us: 100, preamble_us: 10, ttg_us: 40}\n")

    @pytest.mark.parametrize("entry, missing", [
        ("{rejection_db: 30.0}", ["separation_mhz"]),
        ("{separation_mhz: 20.0}", ["rejection_db"]),
        ("{}", ["separation_mhz", "rejection_db"]),
    ], ids=["no_separation", "no_rejection", "empty"])
    def test_spillage_entry_keys_are_required(self, entry, missing):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(f"medium: {{spillage: [{entry}]}}\n")
        assert err.value.errors == [f"medium.spillage[0].{k}: required" for k in missing]

    @pytest.mark.parametrize("repeat_us, ok", [(0, True), (143, False), (144, True)])
    def test_injected_trains_may_not_overlap(self, repeat_us, ok):
        text = f"""
nodes:
  - {{id: a, kind: wifi, position: [0.0, 0.0],
     traffic: {{kind: cts-inject, reservation_us: 100, repeat_us: {repeat_us}}}}}
"""
        if ok:
            assert parse_scenario(text).nodes[0].traffic.repeat_us == repeat_us
            return
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert err.value.errors == [
            "nodes[0].traffic.repeat_us: must be 0 or at least reservation_us + "
            "wifi.cts_airtime_us (144), so a train ends before the next"]

    def test_coincident_radios_need_one_platform(self):
        text = """
nodes:
  - {id: a, kind: wifi, position: [0.0, 0.0]}
  - {id: b, kind: wifi, position: [1.0, 0.0]}
  - {id: c, kind: wifi, position: [0.0, 0.0]%s}
"""
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text % "")
        assert err.value.errors == ["nodes[2].position: same position as 'a' on another "
                                    "platform; radios on one platform set collocated_with"]
        assert parse_scenario(text % ", collocated_with: a").nodes[2].position == Position(0, 0)

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize("cls, name", _FLOAT_FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in _FLOAT_FIELDS])
    def test_float_fields_must_be_finite(self, cls, name, value):
        """NaN passes every bound test, and infinity every one-sided one."""
        path, document, _ = _SITES[cls]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(document({name: yaml.safe_load(value)})))
        assert f"{path}.{name}: must be finite" in err.value.errors

    @pytest.mark.parametrize("cls, name, case, value", _BOUND_CASES,
                             ids=[f"{cls.__name__}.{name}-{case}"
                                  for cls, name, case, _ in _BOUND_CASES])
    def test_constructors_keep_the_parser_bounds(self, cls, name, case, value):
        """A section refuses a value just outside a field's bounds with the
        text the parser gives at that field's path.  Earlier versions
        checked the bounds in the parser alone, so a section built in code
        or with replace() could hold any value."""
        path, document, valid = _SITES[cls]
        with pytest.raises(ValueError) as raised:
            replace(valid, **{name: value})
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump(document({name: value})))
        assert err.value.errors == [f"{path}.{raised.value}"]

    @pytest.mark.parametrize("build, message", [
        (lambda cfg: PathLossModel(reference_loss_db=0.5, frequency_mhz=100.0),
         "reference_loss_db: must be >= 1.0"),
        (lambda cfg: WimaxConfig(frame_us=50, dl_ratio=0.99, capacity_bytes_per_us=0.001,
                                 preamble_us=0, ttg_us=0), "frame_us: must be >= 100"),
        (lambda cfg: SpillageTable(((0.05, 1.0),)), "separation_mhz: must be >= 0.1"),
        (lambda cfg: replace(ScenarioConfig().wifi, slot_us=0), "slot_us: must be >= 1"),
        (lambda cfg: node_changed(cfg, 3, peer="ghost"),
         "nodes[3].peer: 'ghost' is not a wifi node"),
        (lambda cfg: node_changed(cfg, 1, bs=None),
         "nodes[1].bs: a subscriber station must reference a base station"),
        (lambda cfg: node_changed(cfg, 2, collocated_with="ghost"),
         "nodes[2].collocated_with: unknown node 'ghost'"),
        (lambda cfg: node_changed(cfg, 4, position=Position(2.0, 0.0)),
         "nodes[4].position: same position as 'sta1' on another platform; radios on one "
         "platform set collocated_with"),
        (lambda cfg: replace(cfg, nodes=cfg.nodes + cfg.nodes[4:5]),
         "nodes[7].id: duplicate node id 'ap1'"),
        (lambda cfg: node_changed(cfg, 2, id="ss1|wifi"),
         "nodes[2].id: node id 'ss1|wifi' contains '|' or '>'"),
        (lambda cfg: node_changed(cfg, 2, id="ss1\u2028wifi"),
         "nodes[2].id: node id 'ss1\\u2028wifi' holds a character that is not printable, "
         "such as a line break"),
        (lambda cfg: node_changed(cfg, 1, traffic=TrafficConfig(kind="saturated")),
         "nodes[1].traffic.kind: subscriber stations use 'wimax' or 'none' traffic"),
        (lambda cfg: node_changed(cfg, 2, id="ss1\x85wifi"),
         "nodes[2].id: node id 'ss1\\x85wifi' holds a character that is not printable, "
         "such as a line break"),
    ], ids=["path_loss", "wimax", "spillage", "slot", "peer", "bs", "collocated_with",
            "position", "duplicate_id", "id_separator", "id_unprintable", "ss_traffic",
            "id_next_line"])
    def test_sections_built_in_code_keep_their_bounds(self, conference_cfg, build, message):
        """Each of these built without error in earlier versions, whose
        constructors restated looser bounds than the parser's or left the
        node rules to the parser alone; the engine divides by slot_us, and
        failed on each node row with a KeyError or a zero distance or ran a
        scene the parser refuses.  The text is the parser's error line."""
        with pytest.raises(ValueError) as raised:
            build(conference_cfg)
        assert getattr(raised.value, "errors", [str(raised.value)]) == [message]

    def test_a_config_built_in_code_lists_every_node_problem(self, conference_cfg):
        """Earlier versions raised a plain ValueError with the first one only."""
        nodes = list(conference_cfg.nodes)
        nodes[1] = replace(nodes[1], bs=None)
        nodes[3] = replace(nodes[3], peer="ghost")
        with pytest.raises(ScenarioError) as raised:
            replace(conference_cfg, nodes=tuple(nodes))
        assert raised.value.errors == [
            "nodes[1].bs: a subscriber station must reference a base station",
            "nodes[3].peer: 'ghost' is not a wifi node"]

    def test_a_parse_builds_each_section_once(self, monkeypatch):
        """Earlier versions built every section three times per document,
        twice from its defaults, and kept one of each."""
        built = collections.Counter()
        check = Bounded.__post_init__

        def counted(section):
            built[type(section)] += 1
            check(section)

        monkeypatch.setattr(Bounded, "__post_init__", counted)
        load_scenario(scenario_path("colocated"))
        once = (ScenarioConfig, MediumModel, PathLossModel, DcfParams, WimaxConfig,
                ReservationConfig, ArbiterConfig)
        assert {cls: built[cls] for cls in once} == dict.fromkeys(once, 1)

    def test_warmup_must_fit_inside_run(self):
        with pytest.raises(ScenarioError):
            parse_scenario("duration_us: 1000\nwarmup_us: 1000\n")

    @pytest.mark.parametrize("duration_us", [1_000_000, 500_000])
    def test_a_copy_keeps_its_window(self, colocated_cfg, duration_us):
        """Earlier versions let a copy end at or before its 1 s warm-up; its
        run then divided by zero or reported a negative throughput."""
        with pytest.raises(ValueError, match="warm-up must be shorter than the run"):
            replace(colocated_cfg, duration_us=duration_us)

    def test_the_model_checks_the_free_space_exponent(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("medium: {path_loss: {kind: free-space, exponent: 3.0}}\n")
        assert err.value.errors == [
            "medium.path_loss: free-space model has a fixed exponent of 2.0"]

    @pytest.mark.parametrize("section, changes, path", [
        ("wifi", {"cw_min": 64, "cw_max": 15}, "wifi.cw_max"),
        ("wimax", {"ttg_us": 4000}, "wimax.dl_ratio"),
        ("reservation", {"claim_interval_min_us": 8000, "claim_interval_max_us": 1000},
         "reservation.claim_interval_max_us"),
    ], ids=["cw", "subframe", "claim_interval"])
    def test_a_section_checks_its_cross_field_rules(self, colocated_cfg, section, changes,
                                                    path):
        """Earlier versions checked these rules in the parser alone, so a
        copy made with replace() ran with a window below cw_min, failed at
        its first frame map, or paced claims with a maximum below the
        minimum.  The parser reports the constructor's own text."""
        with pytest.raises(ValueError) as raised:
            replace(getattr(colocated_cfg, section), **changes)
        name, problem = str(raised.value).split(": ", 1)
        assert f"{section}.{name}" == path
        with pytest.raises(ScenarioError) as err:
            parse_scenario(yaml.safe_dump({section: changes}))
        assert err.value.errors == [f"{path}: {problem}"]

    @pytest.mark.parametrize("text, expected", [
        ("medium: {sinr_threshold_db: 12}\n",
         ScenarioConfig(medium=MediumModel(sinr_threshold_db=12.0))),
        ("nodes: null\n", ScenarioConfig()),
        ("nodes: 5\n", ["nodes: expected a list"]),
        ("medium: {spillage: 5}\n", ["medium.spillage: expected a list of entries"]),
        ("medium: {spillage: []}\n",
         ["medium.spillage: spillage table needs at least one entry"]),
        ("medium: {spillage: [{separation_mhz: 20.0, rejection_db: 30.0},"
         " {separation_mhz: 10.0, rejection_db: 40.0}]}\n",
         ["medium.spillage: entries must be sorted by separation, no duplicates"]),
        (WIFI_A % ", collocated_with: a",
         ["nodes[0].collocated_with: a node cannot be collocated with itself"]),
        (WIFI_A % "" + "  - {id: s, kind: wimax-ss, position: [1.0, 0.0], bs: a}\n",
         ["nodes[1].bs: 'a' is not a wimax-bs node"]),
        (CELL % ", traffic: {kind: paced}",
         ["nodes[1].traffic.kind: subscriber stations use 'wimax' or 'none' traffic"]),
        (WIFI_A % ", bs: b" + "  - {id: b, kind: wimax-bs, position: [1.0, 0.0]}\n",
         ["nodes[0].bs: only wimax-ss nodes reference a base station"]),
        (WIFI_A % ", peer: b, traffic: {kind: saturated}"
         + "  - {id: b, kind: wimax-bs, position: [1.0, 0.0]}\n",
         ["nodes[0].peer: 'b' is not a wifi node"]),
        (WIFI_A % ", peer: a, traffic: {kind: paced}",
         ["nodes[0].peer: a node cannot peer with itself"]),
        (WIFI_A % ", traffic: {kind: wimax}",
         ["nodes[0].traffic.kind: 'wimax' traffic belongs on a wimax-ss node"]),
        ("nodes:\n  - {id: b, kind: wimax-bs, position: [0.0, 0.0], traffic: {kind: paced}}\n",
         ["nodes[0].traffic.kind: base stations carry no traffic"]),
        # earlier versions checked a peer only under saturated or paced
        # traffic: an idle station's dangling peer became a link and a system
        # of its own, and a WiMAX node's peer was ignored
        (GHOST_PEERS, ["nodes[1].peer: 'ghost' is not a wifi node",
                       "nodes[2].peer: only wifi nodes reference a peer",
                       "nodes[3].peer: only wifi nodes reference a peer"]),
        # earlier versions ran this scene, and its trace broke the id across
        # two lines
        ('nodes:\n  - {id: "st\\na", kind: wifi, position: [0.0, 0.0], peer: ap,'
         ' traffic: {kind: saturated}}\n  - {id: ap, kind: wifi, position: [3.0, 0.0]}\n',
         ["nodes[0].id: node id 'st\\na' holds a character that is not printable, such as a "
          "line break"]),
        # a carriage return splits a line too, and a tab is not printable
        ('nodes:\n  - {id: "st\\ra", kind: wifi, position: [0.0, 0.0]}\n',
         ["nodes[0].id: node id 'st\\ra' holds a character that is not printable, such as a "
          "line break"]),
        ('nodes:\n  - {id: "st\\ta", kind: wifi, position: [0.0, 0.0]}\n',
         ["nodes[0].id: node id 'st\\ta' holds a character that is not printable, such as a "
          "line break"]),
        # earlier versions also judged a section's cross-field rule, the
        # window rule or the presence of an id against the default put in
        # place of a value that failed its own check
        ("wifi: {cw_min: 0, cw_max: 5}\n", ["wifi.cw_min: must be >= 1"]),
        ("wifi: {cw_min: 'x', cw_max: 5}\n", ["wifi.cw_min: expected int, got str"]),
        ("reservation: {claim_interval_min_us: 0, claim_interval_max_us: 500}\n",
         ["reservation.claim_interval_min_us: must be >= 1"]),
        ("medium: {path_loss: {kind: bogus, exponent: 3.0}}\n",
         ["medium.path_loss.kind: must be one of ['free-space', 'log-distance']"]),
        ("wimax: {dl_ratio: 2.0, preamble_us: 4000}\n", ["wimax.dl_ratio: must be <= 0.95"]),
        ("duration_us: 500\nwarmup_us: -1\n", ["(top).warmup_us: must be >= 0"]),
        # the run window reports at its field's path, as the field's bound does
        ("duration_us: 500\n", ["(top).warmup_us: warm-up must be shorter than the run"]),
        ("nodes:\n  - {id: 5, position: [0, 0]}\n", ["nodes[0].id: expected str, got int"]),
        # the window rule waits for an otherwise valid document, as the node
        # rules do
        ("duration_us: 500\nwifi: {slot_us: 0}\n", ["wifi.slot_us: must be >= 1"]),
        # a rule whose own fields passed still reports, also beside a failed
        # nested section
        ("wifi: {cw_min: 20, cw_max: 5}\n", ["wifi.cw_max: must be >= cw_min"]),
        ("reservation: {qos: {max_mean_delay_us: -1.0}, claim_interval_min_us: 10,"
         " claim_interval_max_us: 5}\n",
         ["reservation.qos.max_mean_delay_us: must be >= 0.0",
          "reservation.claim_interval_max_us: must be >= claim_interval_min_us"]),
    ], ids=["int_for_float", "null_nodes", "nodes_not_a_list", "spillage_not_a_list",
            "spillage_empty", "spillage_unsorted", "collocated_with_itself",
            "bs_not_a_base_station", "ss_traffic", "bs_off_a_subscriber_station",
            "peer_not_wifi", "peer_itself", "wimax_traffic_on_wifi", "base_station_traffic",
            "peer_wherever_set", "id_unprintable", "id_carriage_return", "id_tab",
            "cw_min_below_bound", "cw_min_not_an_int", "claim_interval_min_below_bound",
            "path_loss_kind_unknown", "dl_ratio_above_bound", "warmup_below_bound",
            "window_past_the_run", "id_not_a_string", "window_waits_for_a_valid_document",
            "cw_max_below_cw_min", "claim_interval_beside_a_bad_qos"])
    def test_each_rule_reports_its_path(self, text, expected):
        """A rejected document gives exactly its rule's errors; an accepted
        one parses as the config given, emitted alike, so an int given for a
        float field must read as that float (YAML writes 12 and 12.0 apart)."""
        if isinstance(expected, ScenarioConfig):
            assert emit_scenario(parse_scenario(text)) == emit_scenario(expected)
            return
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert err.value.errors == expected


class TestToggle:
    def test_toggle_is_the_only_difference(self, conference_cfg):
        off = toggled(conference_cfg, "reservation", False)
        assert not off.reservation.enabled
        assert toggled(off, "reservation", True) == conference_cfg
        on = toggled(conference_cfg, "arbiter", True)
        assert on.arbiter.enabled
        assert on.nodes == conference_cfg.nodes

    def test_unknown_mechanism(self, conference_cfg):
        with pytest.raises(ValueError):
            toggled(conference_cfg, "warp-drive", True)



# ---------------------------------------------------------------------------
# round trip of configs drawn inside each field's metadata bounds


def scalars(cls, skip=()):
    """Strategy for a dict of the scalar fields of ``cls``, each inside its
    metadata bounds.  Free-form strings and nested sections are left out."""
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        meta, hint = f.metadata, hints[f.name]
        if f.name in skip:
            continue
        if "choices" in meta:
            out[f.name] = st.sampled_from(meta["choices"])
        elif hint is bool:
            out[f.name] = st.booleans()
        elif hint is int:
            out[f.name] = st.integers(meta.get("lo"), meta.get("hi"))
        elif hint in (float, Optional[float]):
            value = st.floats(meta.get("lo"), meta.get("hi"),
                              allow_nan=False, allow_infinity=False)
            out[f.name] = value if hint is float else st.none() | value
    return st.fixed_dictionaries(out)


@st.composite
def scenarios(draw):
    """Valid configs: every cross-field rule is met by adjusting one field
    inside its bounds."""
    wifi = draw(scalars(DcfParams))
    wifi["cw_max"] = max(wifi["cw_max"], wifi["cw_min"])
    coord = st.floats(-1e3, 1e3)
    # no two radios share a position, so none coincide across platforms
    positions = iter(draw(st.lists(st.builds(Position, coord, coord), min_size=4,
                                   max_size=4, unique=True)))

    def radio(node_id, kind, traffic_kinds, **links):
        traffic = draw(scalars(TrafficConfig, skip={"kind"}))
        if traffic["repeat_us"]:  # a train ends before the next one starts
            traffic["repeat_us"] = max(traffic["repeat_us"],
                                       traffic["reservation_us"] + wifi["cts_airtime_us"])
        traffic = TrafficConfig(kind=draw(st.sampled_from(traffic_kinds)), **traffic)
        return NodeConfig(id=node_id, kind=kind, position=next(positions),
                          system=draw(st.text("abxyz:-", min_size=1, max_size=4)),
                          traffic=traffic, **draw(scalars(NodeConfig, skip={"kind"})), **links)

    nodes = (radio("bs", "wimax-bs", ["none"]),
             radio("ss", "wimax-ss", ["none", "wimax"], bs="bs"),
             radio("sta", "wifi", ["none", "saturated", "paced", "cts-inject"],
                   peer="ap", collocated_with="ss"),
             radio("ap", "wifi", ["none", "cts-inject"]))
    path_loss = draw(scalars(PathLossModel))
    if path_loss["kind"] == FREE_SPACE:
        path_loss["exponent"] = PathLossModel.exponent
    separations = sorted(draw(st.lists(st.floats(0.1, 1e3), min_size=1, max_size=3,
                                       unique=True)))
    rejections = sorted(draw(st.lists(st.floats(0.0, 1e3), min_size=len(separations),
                                      max_size=len(separations))))
    medium = MediumModel(path_loss=PathLossModel(**path_loss),
                         spillage=SpillageTable(tuple(zip(separations, rejections))),
                         **draw(scalars(MediumModel)))
    wimax = draw(scalars(WimaxConfig))
    dl_end = int(wimax["frame_us"] * wimax["dl_ratio"])
    wimax["preamble_us"] = min(wimax["preamble_us"], dl_end)
    wimax["ttg_us"] = min(wimax["ttg_us"], wimax["frame_us"] - dl_end)
    reservation = draw(scalars(ReservationConfig))
    reservation["claim_interval_max_us"] = max(reservation["claim_interval_max_us"],
                                               reservation["claim_interval_min_us"])
    qos = draw(st.none() | scalars(QosTarget).map(lambda d: QosTarget(**d)))
    top = draw(scalars(ScenarioConfig))
    top["duration_us"] = max(top["duration_us"], top["warmup_us"] + 1)
    return ScenarioConfig(medium=medium, wifi=DcfParams(**wifi), wimax=WimaxConfig(**wimax),
                          reservation=ReservationConfig(qos=qos, **reservation),
                          arbiter=ArbiterConfig(**draw(scalars(ArbiterConfig))),
                          nodes=nodes, **top)


class TestRoundTripProperty:
    @settings(max_examples=30, deadline=None)
    @given(scenarios())
    def test_configs_inside_the_bounds_round_trip(self, cfg):
        assert parse_scenario(emit_scenario(cfg)) == cfg
