"""Harness tests: governor factory, oracle extraction, run summaries.

These tests disable the artifact cache so they exercise the real code
paths deterministically.
"""

import pytest

from repro.core.ppw import FrequencyPrediction
from repro.experiments.figures import (
    decision_interval_study,
    double_interference_study,
)
from repro.experiments.harness import (
    GOVERNOR_NAMES,
    HarnessConfig,
    RunSummary,
    make_governor,
    oracle_points,
    run_kernel_alone,
    run_workload,
    with_ambient,
    workload_engine,
)
from repro.sim.engine import Engine, ReferenceEngine
from repro.soc.thermal import low_ambient


@pytest.fixture(autouse=True)
def no_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


class TestGovernorFactory:
    def test_plain_governors_need_no_models(self):
        config = HarnessConfig()
        for name in ("interactive", "performance", "powersave"):
            governor = make_governor(name, None, config)
            assert governor.name == name

    def test_model_based_governors_require_a_predictor(self):
        config = HarnessConfig()
        for name in ("DL", "EE", "DORA", "DORA_no_lkg"):
            with pytest.raises(ValueError):
                make_governor(name, None, config)

    def test_model_based_governors_built_with_predictor(self, small_predictor):
        config = HarnessConfig()
        for name in ("DL", "EE", "DORA", "DORA_no_lkg"):
            governor = make_governor(name, small_predictor, config)
            assert governor.name == name

    def test_dora_interval_comes_from_config(self, small_predictor):
        config = HarnessConfig(dora_interval_s=0.25)
        governor = make_governor("DORA", small_predictor, config)
        assert governor.interval_s == 0.25

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_governor("turbo", None, HarnessConfig())

    def test_factory_covers_the_published_names(self):
        assert set(GOVERNOR_NAMES) == {
            "interactive", "ondemand", "performance", "powersave",
            "DL", "EE", "DORA", "DORA_no_lkg",
        }


class TestOraclePoints:
    def _sweep(self):
        return [
            FrequencyPrediction(0.8e9, 3.5, 1.5),
            FrequencyPrediction(1.5e9, 2.2, 2.1),
            FrequencyPrediction(2.3e9, 1.6, 3.9),
        ]

    def test_oracle_extraction(self):
        oracle = oracle_points(self._sweep(), deadline_s=3.0)
        assert oracle.fd_hz == pytest.approx(1.5e9)
        assert oracle.fe_hz == pytest.approx(1.5e9)
        assert oracle.fopt_hz == pytest.approx(1.5e9)

    def test_infeasible_oracle(self):
        oracle = oracle_points(self._sweep(), deadline_s=1.0)
        assert oracle.fd_hz is None
        assert oracle.fopt_hz == pytest.approx(2.3e9)


class TestRunWorkload:
    def test_fixed_frequency_run(self, fast_config):
        governor = make_governor("performance", None, fast_config)
        result = run_workload("amazon", None, governor, fast_config)
        assert result.load_time_s is not None
        assert result.governor_name == "performance"

    def test_deadline_override_reaches_the_context(self, small_predictor, fast_config):
        governor = make_governor("DORA", small_predictor, fast_config)
        tight = run_workload(
            "espn", "bfs", governor, fast_config, deadline_s=1.0
        )
        governor = make_governor("DORA", small_predictor, fast_config)
        loose = run_workload(
            "espn", "bfs", governor, fast_config, deadline_s=30.0
        )
        assert tight.decisions.frequencies_hz[-1] >= (
            loose.decisions.frequencies_hz[-1]
        )

    def test_kernel_alone_is_duration_bounded(self, fast_config):
        result = run_kernel_alone("srad", duration_s=0.3, config=fast_config)
        assert result.load_time_s is None
        assert result.duration_s == pytest.approx(0.3, abs=0.02)

    def test_with_ambient_swaps_the_scenario(self, fast_config):
        cold = with_ambient(fast_config, low_ambient())
        assert cold.device.ambient.name == "low-ambient"
        assert fast_config.device.ambient.name == "room"


class TestEngineSelection:
    """``HarnessConfig.engine`` picks the engine of every harness run."""

    REFERENCE = HarnessConfig(dt_s=0.004, engine="reference")

    @pytest.fixture
    def reference_runs(self, monkeypatch):
        """The engines ``ReferenceEngine.run`` is called on."""
        runs = []
        run = ReferenceEngine.run

        def spy(engine):
            runs.append(engine)
            return run(engine)

        monkeypatch.setattr(ReferenceEngine, "run", spy)
        return runs

    def test_workload_engine(self):
        governor = make_governor("performance", None, self.REFERENCE)
        engine = workload_engine("amazon", "bfs", governor, self.REFERENCE)
        assert type(engine) is ReferenceEngine
        assert type(workload_engine("amazon", "bfs", governor)) is Engine

    def test_run_kernel_alone(self, reference_runs):
        run_kernel_alone("srad", duration_s=0.1, config=self.REFERENCE)
        assert len(reference_runs) == 1

    def test_double_interference_study(self, reference_runs, small_predictor):
        double_interference_study(
            small_predictor,
            self.REFERENCE,
            pages=("amazon",),
            kernel_pairs=(("bfs", "backprop"),),
        )
        assert len(reference_runs) == 3  # DORA, interactive and fmax
        assert all(e.context.corunner_cores == (2, 3) for e in reference_runs)

    def test_decision_interval_study(
        self, monkeypatch, reference_runs, small_predictor
    ):
        fast_runs = []
        run = Engine.run

        def spy(engine):
            fast_runs.append(engine)
            return run(engine)

        monkeypatch.setattr(Engine, "run", spy)
        decision_interval_study(
            small_predictor,
            self.REFERENCE,
            intervals_s=(0.1,),
            sample_pages=("amazon",),
        )
        assert reference_runs and not fast_runs

    def test_unknown_engine_rejected(self):
        config = HarnessConfig(engine="turbo")
        governor = make_governor("performance", None, config)
        with pytest.raises(ValueError, match="turbo"):
            run_workload("amazon", None, governor, config)


class TestRunSummary:
    def test_ppw_and_deadline(self):
        summary = RunSummary(
            governor="x", load_time_s=2.0, avg_power_w=2.5, energy_j=5.0,
            duration_s=2.0, switch_count=0, switch_stall_s=0.0,
            final_temperature_c=50.0,
        )
        assert summary.ppw == pytest.approx(0.2)
        assert summary.meets(3.0)
        assert not summary.meets(1.9)

    def test_timeout_summary(self):
        summary = RunSummary(
            governor="x", load_time_s=None, avg_power_w=2.5, energy_j=5.0,
            duration_s=2.0, switch_count=0, switch_stall_s=0.0,
            final_temperature_c=50.0,
        )
        assert summary.ppw == 0.0
        assert not summary.meets(60.0)
