import math

import pytest
from hypothesis import given, strategies as st

from coexsim.wimax import DL, UL, SsDemand, WimaxConfig, build_frame_map

# the scenario defaults: a 5000 us frame, 60 % downlink, 2 bytes/us, a 200 us
# preamble and a 100 us turnaround gap
WIMAX = WimaxConfig()


class TestBuildFrameMap:
    def test_sole_claimant_spans_dl_subframe(self):
        grants = build_frame_map([SsDemand("ss1", 10_000_000, DL)], WIMAX)
        assert len(grants) == 1
        g = grants[0]
        assert (g.ss, g.direction, g.offset_us, g.len_us) == ("ss1", DL, 200, 2800)

    def test_equal_ul_demands_split_equally(self):
        demands = [SsDemand("ss1", 4000, UL), SsDemand("ss2", 4000, UL)]
        grants = build_frame_map(demands, WIMAX)
        ul = [g for g in grants if g.direction == UL]
        # UL window is [3100, 5000): 1900 us shared equally, ascending id
        assert [(g.ss, g.offset_us, g.len_us) for g in ul] == [
            ("ss1", 3100, 950), ("ss2", 4050, 950)]

    def test_small_demand_gets_exactly_what_it_needs(self):
        grants = build_frame_map([SsDemand("ss1", 1000, UL)], WIMAX)
        (g,) = grants
        assert g.len_us == 500

    def test_zero_demand_yields_no_grants(self):
        grants = build_frame_map([SsDemand("ss1", 0, DL), SsDemand("ss1", 0, UL)], WIMAX)
        assert grants == ()

    def test_bad_parameters(self):
        """The section refuses a geometry that no frame map can follow."""
        with pytest.raises(ValueError, match=r"^frame_us: must be >= 100$"):
            WimaxConfig(frame_us=0)
        with pytest.raises(ValueError, match=r"^dl_ratio: must be <= 0\.95$"):
            WimaxConfig(dl_ratio=1.2)

    def test_bad_demand(self):
        """A negative queue and a direction other than DL/UL are refused."""
        with pytest.raises(ValueError):
            build_frame_map([SsDemand("ss1", -1, DL)], WIMAX)
        with pytest.raises(ValueError):
            build_frame_map([SsDemand("ss1", 1000, "XL")], WIMAX)

    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d"]),
                              st.integers(min_value=0, max_value=50_000),
                              st.sampled_from([DL, UL])),
                    min_size=0, max_size=8))
    def test_grants_ordered_disjoint_and_inside_subframes(self, raw):
        seen = set()
        demands = []
        for ss, qb, d in raw:
            if (ss, d) in seen:
                continue
            seen.add((ss, d))
            demands.append(SsDemand(ss, qb, d))
        grants = build_frame_map(demands, WIMAX)
        prev_end = 0
        for g in grants:
            assert g.len_us > 0
            assert g.offset_us >= prev_end
            prev_end = g.offset_us + g.len_us
            if g.direction == DL:
                assert g.offset_us >= 200
                assert g.offset_us + g.len_us <= 3000
            else:
                assert g.offset_us >= 3100
                assert g.offset_us + g.len_us <= 5000

    @given(st.integers(min_value=0, max_value=100_000),
           st.integers(min_value=0, max_value=100_000))
    def test_served_time_never_exceeds_demand(self, qa, qb):
        demands = [SsDemand("a", qa, UL), SsDemand("b", qb, UL)]
        grants = build_frame_map(demands, WIMAX)
        need = {"a": math.ceil(qa / 2.0), "b": math.ceil(qb / 2.0)}
        for g in grants:
            assert g.len_us <= need[g.ss]


class TestSsBurst:
    """The engine sends one burst per grant, so grants must never overlap."""

    def test_bursts_from_one_map_never_overlap(self):
        demands = [SsDemand("ss1", 9000, DL), SsDemand("ss2", 9000, DL),
                   SsDemand("ss1", 9000, UL), SsDemand("ss2", 5000, UL)]
        grants = build_frame_map(demands, WIMAX)
        spans = sorted((g.offset_us, g.offset_us + g.len_us) for g in grants)
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert e0 <= s1
        for g in grants:
            assert 0 <= g.offset_us and g.offset_us + g.len_us <= 5000
