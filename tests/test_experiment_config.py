"""Tests for the declarative experiment configuration runner."""

import json

import pytest

from repro.benchmark.config import ExperimentConfig, ExperimentReport, run_experiment


class TestConfig:
    def test_json_round_trip(self):
        config = ExperimentConfig(
            dataset="Nasa", n_rows=120, detectors=["MVD"], repairs=["GT"],
            models=["Ridge"], scenarios=["S1", "S4"], n_seeds=2,
        )
        clone = ExperimentConfig.from_json(config.to_json())
        assert clone == config

    def test_validation(self):
        with pytest.raises(ValueError, match="dataset"):
            ExperimentConfig(dataset="Ghost")
        with pytest.raises(ValueError, match="detector"):
            ExperimentConfig(dataset="Nasa", detectors=["GhostDetector"])
        with pytest.raises(ValueError, match="repair"):
            ExperimentConfig(dataset="Nasa", repairs=["GhostRepair"])
        with pytest.raises(ValueError, match="n_seeds"):
            ExperimentConfig(dataset="Nasa", n_seeds=0)
        with pytest.raises(ValueError, match="scenarios"):
            ExperimentConfig(dataset="Nasa", scenarios=["S9"])

    def test_json_is_plain_data(self):
        config = ExperimentConfig(dataset="Beers", n_rows=60)
        payload = json.loads(config.to_json())
        assert payload["dataset"] == "Beers"
        assert payload["scenarios"] == ["S1", "S4"]


class TestRunExperiment:
    def test_explicit_pipeline(self):
        config = ExperimentConfig(
            dataset="Nasa", n_rows=150, seed=1,
            detectors=["MVD", "SD"],
            repairs=["GT", "Impute-Mean"],
            models=["Ridge"],
            scenarios=["S1", "S4"],
            n_seeds=2,
        )
        report = run_experiment(config)
        assert len(report.detection_runs) == 2
        # 2 detectors x 2 repairs (assuming both detected something).
        active = [r for r in report.detection_runs if r.result.n_detected]
        assert len(report.repair_runs) == len(active) * 2
        # dirty + repaired variants, 1 model.
        assert len(report.evaluations) == 1 + len(report.repair_runs)
        text = report.render()
        assert "detection" in text and "repair grid" in text and "modeling" in text

    def test_controller_defaults(self):
        config = ExperimentConfig(
            dataset="SmartFactory", n_rows=120, seed=0,
            detectors=["MVD"], models=[], n_seeds=1,
        )
        # repairs=None -> controller picks generic repairs automatically.
        report = run_experiment(config)
        assert report.repair_runs
        assert report.evaluations == []

    def test_ml_oriented_repairs_rejected(self):
        with pytest.raises(ValueError, match="ML-oriented"):
            ExperimentConfig(
                dataset="Adult", n_rows=100, detectors=["MVD"],
                repairs=["ActiveClean"], models=[],
            )

    def test_bad_model_name_fails_fast(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                dataset="Nasa", n_rows=100, detectors=["MVD"],
                repairs=["GT"], models=["GhostModel"], n_seeds=1,
            )
