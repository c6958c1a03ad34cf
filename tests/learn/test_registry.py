"""Model registry: versioning, atomic publish, lineage, activation."""

import pytest

from repro.browser.dom import PageFeatures
from repro.learn.registry import ModelRegistry, RegistryError


@pytest.fixture()
def registry(tmp_path):
    return ModelRegistry(tmp_path, fingerprint="cafe0123")


@pytest.fixture()
def census():
    return PageFeatures(1500, 150, 300, 280, 120)


class TestPublish:
    def test_versions_count_up_from_one(self, registry, small_predictor):
        assert registry.versions() == []
        assert registry.latest_version() is None
        assert registry.publish(small_predictor) == 1
        assert registry.publish(small_predictor) == 2
        assert registry.versions() == [1, 2]
        assert registry.latest_version() == 2

    def test_no_tmp_debris_survives_a_publish(self, registry, small_predictor):
        registry.publish(small_predictor)
        leftovers = [
            entry for entry in registry.partition.iterdir()
            if entry.name.endswith(".tmp")
        ]
        assert leftovers == []

    def test_round_trip_preserves_predictions(
        self, registry, small_predictor, census
    ):
        version = registry.publish(small_predictor)
        rebuilt = registry.load(version)
        original = small_predictor.prediction_table(census, 5.0, 1.0, 55.0)
        restored = rebuilt.prediction_table(census, 5.0, 1.0, 55.0)
        assert [p.load_time_s for p in original] == [
            p.load_time_s for p in restored
        ]
        assert [p.power_w for p in original] == [p.power_w for p in restored]

    def test_meta_records_lineage_and_calibration(
        self, registry, small_predictor
    ):
        root = registry.publish(small_predictor, source="seed")
        child = registry.publish(
            small_predictor,
            parent_version=root,
            extra_meta={"records_seen": 99},
        )
        meta = registry.meta(child)
        assert meta["version"] == child
        assert meta["parent_version"] == root
        assert meta["source"] == "retrain"
        assert meta["records_seen"] == 99
        assert meta["calibration"]["fingerprint"]
        assert registry.meta(root)["parent_version"] is None

    def test_fingerprints_partition_the_namespace(
        self, tmp_path, small_predictor
    ):
        a = ModelRegistry(tmp_path, fingerprint="aaaa")
        b = ModelRegistry(tmp_path, fingerprint="bbbb")
        a.publish(small_predictor)
        assert b.versions() == []
        assert b.latest_version() is None


class TestActivation:
    def test_activate_pins_and_loads(self, registry, small_predictor):
        assert registry.active_version() is None
        assert registry.active_predictor() is None
        version = registry.publish(small_predictor)
        registry.activate(version)
        assert registry.active_version() == version
        assert registry.active_predictor() is not None

    def test_activate_unknown_version_is_an_error(
        self, registry, small_predictor
    ):
        registry.publish(small_predictor)
        with pytest.raises(RegistryError):
            registry.activate(7)

    @pytest.mark.parametrize("text", ["abc", "2.0", ""])
    def test_non_integer_pointer_is_an_error(
        self, registry, small_predictor, text
    ):
        registry.publish(small_predictor)
        (registry.partition / "ACTIVE").write_text(f"{text}\n")
        with pytest.raises(RegistryError, match=f"pointer '{text}'"):
            registry.active_version()

    @pytest.mark.parametrize("text", ["0", "-1"])
    def test_non_positive_pointer_is_an_error(
        self, registry, small_predictor, text
    ):
        registry.publish(small_predictor)
        (registry.partition / "ACTIVE").write_text(f"{text}\n")
        with pytest.raises(RegistryError, match=f"pointer '{text}'"):
            registry.active_version()

    def test_dangling_pointer_is_an_error(self, registry, small_predictor):
        registry.publish(small_predictor)
        (registry.partition / "ACTIVE").write_text("7\n")
        with pytest.raises(RegistryError, match="pointer '7'.*unpublished"):
            registry.active_version()
        with pytest.raises(RegistryError, match="pointer '7'"):
            registry.active_predictor()

    def test_missing_version_load_is_an_error(self, registry):
        with pytest.raises(RegistryError, match="not found"):
            registry.load(1)
        with pytest.raises(RegistryError, match="metadata"):
            registry.meta(1)
