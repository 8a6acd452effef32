import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from coexsim.medium import (BELOW_SENSITIVITY, CORRUPTED, CTS, DATA, DECODED, WIMAX_BURST,
                            MediumModel, Memo, PathLossModel, Position, RadioInterface,
                            SpillageTable, Transmission, delivery_result,
                            invert_path_loss, path_loss, received_power,
                            required_isolation, resolve_deliveries)

FREE = PathLossModel(kind="free-space", frequency_mhz=2400.0)
LOGD = PathLossModel(kind="log-distance", exponent=3.0, reference_loss_db=40.05)


def wifi_iface(iid, x, y, channel=2412.0, power=20.0, sens=-85.0, platform=None):
    return RadioInterface(iid, Position(x, y), channel, power,
                          sens, -82.0, platform)


class TestPathLoss:
    def test_isolation_distance(self):
        # 57 dB of isolation corresponds to roughly 7 m of free space
        assert path_loss(7.0, FREE) == pytest.approx(57.0, abs=0.5)

    def test_free_space_one_meter(self):
        assert path_loss(1.0, FREE) == pytest.approx(40.054, abs=0.01)

    def test_log_distance_reference_identity(self):
        for exponent in (2.0, 3.0, 4.5):
            model = PathLossModel(kind="log-distance", exponent=exponent,
                                  reference_loss_db=40.05)
            assert path_loss(1.0, model) == pytest.approx(40.05)

    def test_sub_meter_clamps_to_one_meter(self):
        assert path_loss(0.2, LOGD) == path_loss(1.0, LOGD)

    def test_non_positive_distance_rejected(self):
        with pytest.raises(ValueError):
            path_loss(0.0, FREE)
        with pytest.raises(ValueError):
            path_loss(-3.0, LOGD)

    def test_invert_round_trips(self):
        for model in (FREE, LOGD):
            for d in (1.5, 3.0, 40.0, 250.0):
                assert invert_path_loss(path_loss(d, model), model) == pytest.approx(d)

    @given(st.floats(min_value=1.0, max_value=1e4),
           st.floats(min_value=1.001, max_value=10.0))
    def test_strictly_increasing_beyond_one_meter(self, d, factor):
        for model in (FREE, LOGD):
            assert path_loss(d * factor, model) > path_loss(d, model)

    def test_free_space_pins_exponent(self):
        with pytest.raises(ValueError, match=r"^free-space model has a fixed exponent of 2\.0$"):
            PathLossModel(kind="free-space", exponent=3.0)


class TestSpillage:
    def test_co_channel_is_zero(self):
        assert SpillageTable().rejection_db(0.0) == 0.0

    def test_calibration_entries(self):
        table = SpillageTable()
        assert table.rejection_db(32.0) == 41.0
        assert table.rejection_db(114.0) == 55.0

    def test_interpolation_and_clamps(self):
        table = SpillageTable()
        expected = 41.0 + (73.0 - 32.0) / (114.0 - 32.0) * 14.0
        assert table.rejection_db(73.0) == pytest.approx(expected)
        assert table.rejection_db(5.0) == 41.0     # below first entry
        assert table.rejection_db(500.0) == 55.0   # beyond last entry
        assert table.rejection_db(-32.0) == 41.0   # separation is unsigned

    def test_rejects_decreasing_rejection(self):
        with pytest.raises(ValueError, match="^rejection must be non-decreasing with separation$"):
            SpillageTable(((10.0, 50.0), (20.0, 40.0)))

    @pytest.mark.parametrize("entries, message", [
        (((10.0, 40.0), (10.0, 50.0)), "entries must be sorted by separation, no duplicates"),
        (((0.0, 40.0),), "separation_mhz: must be >= 0.1"),
        (((10.0, -1.0),), "rejection_db: must be >= 0.0"),
    ], ids=["duplicate", "zero_separation", "negative_rejection"])
    def test_rejects_bad_entries(self, entries, message):
        """Each row keeps the bounds of a scenario file's row."""
        with pytest.raises(ValueError) as raised:
            SpillageTable(entries)
        assert str(raised.value) == message


class TestReceivedPower:
    def setup_method(self):
        self.src = Position(0.0, 0.0)
        self.dst = Position(1.0, 0.0)
        self.table = SpillageTable()

    def test_adjacent_channel_spillage_low_band(self):
        # WiFi channel 1 against the 2380 MHz slot just below the ISM band
        rx = received_power(20.0, self.src, self.dst, 2412.0, 2380.0, FREE, self.table)
        assert rx == pytest.approx(-61.0, abs=0.5)

    def test_adjacent_channel_spillage_high_band(self):
        rx = received_power(20.0, self.src, self.dst, 2462.0, 2576.0, FREE, self.table)
        assert rx == pytest.approx(-75.0, abs=0.5)

    def test_co_channel(self):
        rx = received_power(20.0, self.src, self.dst, 2412.0, 2412.0, FREE, self.table)
        assert rx == pytest.approx(-20.054, abs=0.01)

    def test_coupling_replaces_path_loss(self):
        rx = received_power(20.0, self.src, self.src, 2412.0, 2412.0, FREE, self.table,
                            coupling_db=20.0)
        assert rx == pytest.approx(0.0)

    @given(st.floats(min_value=0.5, max_value=400.0))
    def test_separation_never_beats_co_channel(self, separation):
        co = received_power(20.0, self.src, self.dst, 2412.0, 2412.0, FREE, self.table)
        off = received_power(20.0, self.src, self.dst, 2412.0, 2412.0 + separation,
                             FREE, self.table)
        assert off <= co


class TestRequiredIsolation:
    def test_values(self):
        assert required_isolation(-61.0, -118.0) == pytest.approx(57.0)
        assert required_isolation(-75.0, -118.0) == pytest.approx(43.0)

    @given(st.floats(min_value=-150, max_value=30))
    def test_equal_levels_need_nothing(self, level):
        assert required_isolation(level, level) == 0.0


class TestTransmission:
    def test_end_is_start_plus_airtime(self):
        tx = Transmission("a", DATA, 120, 2000, 20.0, dest="b")
        assert tx.end_us == 2120
        kw = Transmission(source="a", kind=DATA, start_us=120, airtime_us=2000,
                          power_dbm=20.0, dest="b")
        assert kw == tx and hash(kw) == hash(tx)

    def test_replace_recomputes_the_end(self):
        tx = Transmission("a", DATA, 0, 100, 20.0)
        assert tx._replace(start_us=500).end_us == 600
        assert tx._replace(airtime_us=7).end_us == 7
        assert tx._replace(dest="b") == Transmission("a", DATA, 0, 100, 20.0, dest="b")
        assert copy.copy(tx) == tx and pickle.loads(pickle.dumps(tx)) == tx

    def test_end_cannot_be_set_or_given(self):
        tx = Transmission("a", CTS, 0, 44, 20.0, nav_duration_us=500)
        with pytest.raises(AttributeError):
            tx.end_us = 3
        with pytest.raises(ValueError):
            tx._replace(end_us=3)
        with pytest.raises(TypeError):
            Transmission("a", CTS, 0, 44, 20.0, end_us=3)
        with pytest.raises(TypeError):
            Transmission("a", CTS, 0, 44, 20.0, None, 500, 3)
        with pytest.raises(ValueError):
            Transmission._make(("a", CTS, 0, 44, 20.0, None, 500, 3))
        assert Transmission._make(tx) == tx

    @pytest.mark.parametrize("airtime, nav", [(0, 0), (-5, 0), (44, -1)])
    def test_bad_airtime_or_nav_rejected(self, airtime, nav):
        tx = Transmission("a", CTS, 0, 44, 20.0)
        with pytest.raises(ValueError):
            Transmission("a", CTS, 0, airtime, 20.0, nav_duration_us=nav)
        with pytest.raises(ValueError):
            tx._replace(airtime_us=airtime, nav_duration_us=nav)


class TestResolveDeliveries:
    def setup_method(self):
        self.medium = MediumModel(path_loss=LOGD)

    def test_clean_delivery(self):
        ifaces = {"a": wifi_iface("a", 0, 0), "b": wifi_iface("b", 5, 0)}
        tx = Transmission("a", DATA, 0, 2000, 20.0, dest="b")
        out = resolve_deliveries([tx], ifaces, (0, 2000), self.medium)
        assert len(out) == 1
        assert out[0].result == DECODED
        assert out[0].receiver == "b"

    def test_below_sensitivity(self):
        ifaces = {"a": wifi_iface("a", 0, 0, power=-30.0), "b": wifi_iface("b", 200, 0)}
        tx = Transmission("a", DATA, 0, 100, -30.0, dest="b")
        out = resolve_deliveries([tx], ifaces, (0, 100), self.medium)
        assert out[0].result == BELOW_SENSITIVITY

    def test_adjacent_band_interferer_corrupts_burst(self):
        # a distant scheduled downlink drowned by nearby off-channel spillage
        ifaces = {
            "bs": RadioInterface("bs", Position(150, 0), 2380.0,
                                 30.0, -90.0, -82.0),
            "ss": RadioInterface("ss", Position(0, 0), 2380.0,
                                 23.0, -90.0, -82.0),
            "sta": wifi_iface("sta", 2, 0),
        }
        burst = Transmission("bs", WIMAX_BURST, 0, 3000, 30.0, dest="ss")
        jam = Transmission("sta", DATA, 1000, 2000, 20.0)
        out = resolve_deliveries([burst, jam], ifaces, (0, 3000), self.medium)
        assert out[0].result == CORRUPTED

    def test_equal_power_mutual_corruption(self):
        ifaces = {
            "a": wifi_iface("a", 0, 0), "b": wifi_iface("b", 10, 0),
            "x": wifi_iface("x", 5, 4), "y": wifi_iface("y", 5, -4),
        }
        t1 = Transmission("a", DATA, 0, 1000, 20.0, dest="x")
        t2 = Transmission("b", DATA, 0, 1000, 20.0, dest="y")
        out = resolve_deliveries([t1, t2], ifaces, (0, 1000), self.medium)
        assert [o.result for o in out] == [CORRUPTED, CORRUPTED]

    def test_non_overlapping_interferer_is_harmless(self):
        ifaces = {"a": wifi_iface("a", 0, 0), "b": wifi_iface("b", 5, 0),
                  "c": wifi_iface("c", 1, 1)}
        tx = Transmission("a", DATA, 0, 100, 20.0, dest="b")
        later = Transmission("c", DATA, 100, 100, 20.0)
        out = resolve_deliveries([tx, later], ifaces, (0, 200), self.medium)
        assert out[0].result == DECODED

    def test_window_missing_the_frame_leaves_it_decoded(self):
        """No instant of the frame lies in the window, so even the receiver's
        own emission over the window cannot corrupt it."""
        ifaces = {"a": wifi_iface("a", 0, 0), "b": wifi_iface("b", 5, 0)}
        tx = Transmission("a", DATA, 0, 50, 20.0, dest="b")
        own = Transmission("b", DATA, 40, 60, 20.0)
        out = resolve_deliveries([tx, own], ifaces, (60, 70), self.medium)
        assert out[0].result == DECODED

    def test_half_duplex_receiver(self):
        ifaces = {"a": wifi_iface("a", 0, 0), "b": wifi_iface("b", 5, 0)}
        tx = Transmission("a", DATA, 0, 100, 20.0, dest="b")
        own = Transmission("b", DATA, 50, 100, 20.0)
        out = resolve_deliveries([tx, own], ifaces, (0, 200), self.medium)
        assert out[0].result == CORRUPTED

    def test_deterministic_and_one_outcome_per_addressed_frame(self):
        ifaces = {"a": wifi_iface("a", 0, 0), "b": wifi_iface("b", 5, 0),
                  "c": wifi_iface("c", 3, 3)}
        txs = [
            Transmission("a", DATA, 0, 50, 20.0, dest="b"),
            Transmission("c", DATA, 10, 50, 20.0, dest="a"),
            Transmission("b", CTS, 70, 44, 20.0),  # unaddressed
        ]
        first = resolve_deliveries(txs, ifaces, (0, 150), self.medium)
        second = resolve_deliveries(list(reversed(txs)), ifaces, (0, 150), self.medium)
        assert first == second
        assert len(first) == 2
        assert {o.receiver for o in first} == {"a", "b"}
        for o in first:
            assert o.result in (DECODED, CORRUPTED, BELOW_SENSITIVITY)


class TestOverhearing:
    """The decode rule at a listener that is not the frame's addressee."""

    def setup_method(self):
        self.medium = MediumModel(path_loss=LOGD)
        self.ifaces = {"coord": wifi_iface("coord", 0, 0), "lst": wifi_iface("lst", 5, 0),
                       "near": wifi_iface("near", 6, 0), "far": wifi_iface("far", 400, 0)}
        self.cts = Transmission("coord", CTS, 0, 44, 20.0, nav_duration_us=5000)

    def heard(self, *others):
        lst = self.ifaces["lst"]
        return delivery_result(self.cts, [self.cts, *others], lst, (0, 44), self.medium,
                               Memo(lambda src: self.medium.link_loss_db(self.ifaces[src], lst)))

    def test_clear_channel_decodes(self):
        out = self.heard()
        assert (out.receiver, out.result) == ("lst", DECODED)
        assert out.rx_power_dbm == pytest.approx(
            20.0 - self.medium.link_loss_db(self.ifaces["coord"], self.ifaces["lst"]))

    def test_listener_on_air_is_corrupted(self):
        own = Transmission("lst", DATA, 10, 2000, 20.0, dest="near")
        assert self.heard(own).result == CORRUPTED

    def test_strong_overlapper_corrupts(self):
        loud = Transmission("near", DATA, 20, 2000, 20.0, dest="coord")
        assert self.heard(loud).result == CORRUPTED

    def test_weak_or_disjoint_overlapper_is_harmless(self):
        weak = Transmission("far", DATA, 20, 2000, 20.0, dest="coord")
        later = Transmission("near", DATA, 44, 2000, 20.0, dest="coord")
        assert self.heard(weak, later).result == DECODED
