"""Region catalog and the Table 1 RTT model."""

import numpy as np
import pytest

from repro import calibration
from repro.geo.coords import GeoPoint
from repro.geo.latency import ONE_WAY_MEMO_SIZE, PathModel, _one_way_ms, rtt_ms
from repro.geo.regions import CITY_CATALOG, Region, all_clients, city, region_of
from repro.geo.regions import test_clients as region_test_clients


class TestRegions:
    def test_catalog_has_paper_vantage_counts(self):
        # Sec. 4.1: two Western, three Middle, three Eastern clients.
        assert len(CITY_CATALOG[Region.WEST]) == 2
        assert len(CITY_CATALOG[Region.MIDDLE]) == 3
        assert len(CITY_CATALOG[Region.EAST]) == 3

    def test_all_clients_is_eight(self):
        assert len(all_clients()) == 8

    def test_city_lookup_case_insensitive(self):
        assert city("DALLAS").name == "Dallas, TX"

    def test_city_lookup_missing(self):
        with pytest.raises(KeyError):
            city("springfield")

    def test_region_of_catalog_city(self):
        assert region_of(city("chicago")) is Region.MIDDLE

    def test_region_from_code(self):
        assert Region.from_code("W") is Region.WEST
        with pytest.raises(ValueError):
            Region.from_code("X")

    def test_test_clients_one_per_region(self):
        clients = region_test_clients()
        assert set(clients) == set(Region)


class TestPathModel:
    def test_zero_distance_rtt_is_access_only(self):
        p = city("dallas")
        assert rtt_ms(p, p) == pytest.approx(calibration.ACCESS_RTT_MS)

    def test_rtt_grows_with_distance(self):
        w, m, e = city("san jose"), city("dallas"), city("washington")
        assert rtt_ms(w, m) < rtt_ms(w, e)

    def test_rtt_is_symmetric(self):
        w, e = city("san jose"), city("washington")
        assert rtt_ms(w, e) == pytest.approx(rtt_ms(e, w))

    def test_coast_to_coast_matches_paper_scale(self):
        # Paper: ~80 ms across the US (Table 1 off-diagonal).
        w, e = city("san jose"), GeoPoint("Ashburn", 39.0438, -77.4874)
        assert 60 < rtt_ms(w, e) < 90

    def test_one_way_is_half_rtt(self):
        model = PathModel()
        w, e = city("san jose"), city("washington")
        assert model.one_way_ms(w, e) == pytest.approx(model.base_rtt_ms(w, e) / 2)

    def test_samples_center_on_base(self):
        model = PathModel()
        model.seed(7)
        w, e = city("san jose"), city("washington")
        samples = model.sample_rtt_ms(w, e, 500)
        assert np.mean(samples) == pytest.approx(
            model.base_rtt_ms(w, e), abs=0.5
        )

    def test_sample_std_under_table1_bound(self):
        model = PathModel()
        model.seed(11)
        samples = model.sample_rtt_ms(city("san jose"), city("washington"), 500)
        assert np.std(samples) < calibration.TABLE1_RTT_STD_BOUND_MS

    def test_samples_never_negative(self):
        model = PathModel()
        model.seed(3)
        p = city("dallas")
        samples = model.sample_rtt_ms(p, p, 200)
        assert (samples > 0).all()

    def test_reseeding_reproduces(self):
        model = PathModel()
        w, e = city("san jose"), city("washington")
        model.seed(5)
        first = model.sample_rtt_ms(w, e, 10)
        model.seed(5)
        second = model.sample_rtt_ms(w, e, 10)
        assert np.array_equal(first, second)


class TestOneWayDelayMemo:
    """``one_way_ms`` is memoized; the memo must follow live parameters."""

    W, E = city("san jose"), city("washington")

    def assert_half_base(self, model):
        value = model.one_way_ms(self.W, self.E)
        assert value == model.base_rtt_ms(self.W, self.E) / 2.0
        return value

    def test_mutated_model_changes_its_delay(self):
        model = PathModel()
        default = self.assert_half_base(model)
        model.inflation *= 1.5
        inflated = self.assert_half_base(model)
        assert inflated != default
        model.access_rtt_ms += 7.0
        slower = self.assert_half_base(model)
        assert slower != inflated
        model.fiber_speed_mps /= 2.0
        assert self.assert_half_base(model) != slower

    def test_spawned_clones_agree(self):
        model = PathModel(access_rtt_ms=12.5)
        model.inflation = 1.9
        for clone in (model.spawn(), model.spawn(seed=3)):
            assert clone.one_way_ms(self.W, self.E) == \
                model.one_way_ms(self.W, self.E)
            assert clone.one_way_ms(self.E, self.W) == \
                model.one_way_ms(self.E, self.W)

    def test_hits_return_the_computed_float(self):
        _one_way_ms.cache_clear()
        model = PathModel()
        first = model.one_way_ms(self.W, self.E)
        again = PathModel().one_way_ms(self.W, self.E)
        info = _one_way_ms.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert info.maxsize == ONE_WAY_MEMO_SIZE
        assert again == first == model.base_rtt_ms(self.W, self.E) / 2.0
