"""Analytic shared-cache model tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.soc.cache import AnalyticSharedCache, CacheDemand
from repro.soc.specs import CacheGeometry

MIB = 1024 * 1024


@pytest.fixture()
def cache():
    return AnalyticSharedCache(
        geometry=CacheGeometry(size_bytes=2 * MIB, line_bytes=64, associativity=8)
    )


def _demand(task_id, accesses=1e7, working_set=1.0 * MIB, solo=0.1):
    return CacheDemand(
        task_id=task_id,
        accesses_per_s=accesses,
        working_set_bytes=working_set,
        solo_miss_ratio=solo,
    )


class TestSoloBehaviour:
    def test_fitting_task_alone_runs_at_solo_ratio(self, cache):
        ratios = cache.miss_ratios([_demand("a", working_set=1.0 * MIB)])
        assert ratios["a"] == pytest.approx(0.1)

    def test_streaming_task_alone_still_runs_at_solo_ratio(self, cache):
        """Solo miss ratio is defined at full capacity; a working set
        beyond the cache must not self-inflate."""
        ratios = cache.miss_ratios([_demand("a", working_set=24 * MIB)])
        assert ratios["a"] == pytest.approx(0.1)

    def test_idle_task_keeps_solo_ratio(self, cache):
        ratios = cache.miss_ratios([_demand("a", accesses=0.0)])
        assert ratios["a"] == pytest.approx(0.1)

    def test_empty_demand_list(self, cache):
        assert cache.miss_ratios([]) == {}


class TestSharing:
    def test_contention_inflates_both_sharers(self, cache):
        ratios = cache.miss_ratios(
            [
                _demand("a", working_set=1.5 * MIB),
                _demand("b", working_set=1.5 * MIB),
            ]
        )
        assert ratios["a"] > 0.1
        assert ratios["b"] > 0.1

    def test_more_aggressive_competitor_hurts_more(self, cache):
        mild = cache.miss_ratios(
            [
                _demand("victim", working_set=1.5 * MIB),
                _demand("rival", accesses=2e6, working_set=8 * MIB, solo=0.1),
            ]
        )["victim"]
        fierce = cache.miss_ratios(
            [
                _demand("victim", working_set=1.5 * MIB),
                _demand("rival", accesses=8e7, working_set=8 * MIB, solo=0.15),
            ]
        )["victim"]
        assert fierce > mild

    def test_small_working_set_is_immune(self, cache):
        """A task whose working set fits its share keeps its solo ratio."""
        ratios = cache.miss_ratios(
            [
                _demand("tiny", accesses=5e7, working_set=0.05 * MIB),
                _demand("rival", accesses=5e7, working_set=8 * MIB, solo=0.15),
            ]
        )
        assert ratios["tiny"] == pytest.approx(0.1, rel=0.05)

    def test_ratio_never_exceeds_one(self, cache):
        ratios = cache.miss_ratios(
            [
                _demand("a", accesses=1e9, working_set=64 * MIB, solo=0.9),
                _demand("b", accesses=1e9, working_set=64 * MIB, solo=0.9),
            ]
        )
        assert ratios["a"] <= 1.0
        assert ratios["b"] <= 1.0

    def test_symmetric_sharers_get_symmetric_ratios(self, cache):
        ratios = cache.miss_ratios(
            [_demand("a", working_set=3 * MIB), _demand("b", working_set=3 * MIB)]
        )
        assert ratios["a"] == pytest.approx(ratios["b"])

    def test_sharper_theta_inflates_more(self):
        geometry = CacheGeometry(2 * MIB, 64, 8)
        demands = [
            _demand("a", working_set=2 * MIB),
            _demand("b", accesses=5e7, working_set=8 * MIB, solo=0.15),
        ]
        gentle = AnalyticSharedCache(geometry, theta=0.3).miss_ratios(demands)["a"]
        sharp = AnalyticSharedCache(geometry, theta=0.9).miss_ratios(demands)["a"]
        assert sharp > gentle

    @given(
        accesses=st.floats(1e5, 1e9),
        working_set=st.floats(0.1 * MIB, 32 * MIB),
        solo=st.floats(0.01, 0.5),
        rival_accesses=st.floats(1e5, 1e9),
    )
    def test_ratio_bounded_between_solo_and_one(
        self, cache, accesses, working_set, solo, rival_accesses
    ):
        ratios = cache.miss_ratios(
            [
                CacheDemand("victim", accesses, working_set, solo),
                CacheDemand("rival", rival_accesses, 16 * MIB, 0.2),
            ]
        )
        assert solo - 1e-9 <= ratios["victim"] <= 1.0


class TestValidation:
    def test_negative_access_rate_rejected(self):
        with pytest.raises(ValueError):
            CacheDemand("a", -1.0, MIB, 0.1)

    def test_negative_working_set_rejected(self):
        with pytest.raises(ValueError):
            CacheDemand("a", 1.0, -1.0, 0.1)

    def test_out_of_range_miss_ratio_rejected(self):
        with pytest.raises(ValueError):
            CacheDemand("a", 1.0, MIB, 1.5)

    def test_duplicate_task_ids_rejected(self, cache):
        """Two demands under one id would share one occupancy entry:
        the pair below once came back as ``{"a": 0.3}``, the second
        demand's solo ratio with no contention at all."""
        first = _demand("a", accesses=4e7, working_set=3 * MIB, solo=0.10)
        second = _demand("a", accesses=1e6, working_set=0.5 * MIB, solo=0.30)
        with pytest.raises(ValueError, match="distinct task ids"):
            cache.miss_ratios([first, second])
        renamed = _demand("b", accesses=1e6, working_set=0.5 * MIB, solo=0.30)
        assert cache.miss_ratios([first, renamed])["b"] > 0.5
