"""Tests for the hyperparameter search layer and AutoML systems."""

import numpy as np
import pytest

from repro.ml.automl import AutoLearn, TPotLite
from repro.ml.model_zoo import (
    CLASSIFICATION,
    CLUSTERING,
    REGRESSION,
    build_model,
    get_spec,
    specs_for_task,
)
from repro.tuning import Categorical, Float, Integer, SearchSpace, Study, tune_estimator


class TestDistributions:
    def test_float_bounds(self):
        rng = np.random.default_rng(0)
        dim = Float(0.1, 10.0, log=True)
        for _ in range(50):
            value = dim.sample(rng)
            assert 0.1 <= value <= 10.0
        near = dim.sample_near(1.0, rng)
        assert 0.1 <= near <= 10.0

    def test_float_validation(self):
        with pytest.raises(ValueError):
            Float(5.0, 1.0)
        with pytest.raises(ValueError):
            Float(-1.0, 1.0, log=True)

    def test_integer(self):
        rng = np.random.default_rng(1)
        dim = Integer(1, 5)
        values = {dim.sample(rng) for _ in range(100)}
        assert values <= {1, 2, 3, 4, 5}
        assert len(values) >= 3
        assert 1 <= dim.sample_near(3, rng) <= 5
        with pytest.raises(ValueError):
            Integer(5, 1)

    def test_categorical(self):
        rng = np.random.default_rng(2)
        dim = Categorical(["a", "b"])
        assert dim.sample(rng) in ("a", "b")
        assert dim.sample_near("a", rng) in ("a", "b")
        with pytest.raises(ValueError):
            Categorical([])

    def test_space_sampling(self):
        space = SearchSpace({"x": Float(0, 1), "k": Integer(1, 3)})
        rng = np.random.default_rng(3)
        params = space.sample(rng)
        assert set(params) == {"x", "k"}
        with pytest.raises(ValueError):
            SearchSpace({})


class TestStudy:
    def test_random_search_finds_good_region(self):
        space = SearchSpace({"x": Float(-5, 5)})
        study = Study(space, sampler="random", seed=0)
        best = study.optimize(lambda p: -(p["x"] - 2.0) ** 2, n_trials=60)
        assert abs(best.params["x"] - 2.0) < 1.0

    def test_tpe_beats_random_on_average(self):
        def objective(p):
            return -(p["x"] - 2.0) ** 2 - (p["y"] - 1.0) ** 2

        space_factory = lambda: SearchSpace(
            {"x": Float(-10, 10), "y": Float(-10, 10)}
        )
        tpe_scores, random_scores = [], []
        for seed in range(5):
            tpe = Study(space_factory(), sampler="tpe", seed=seed)
            tpe.optimize(objective, 25)
            tpe_scores.append(tpe.best_trial.score)
            rand = Study(space_factory(), sampler="random", seed=seed)
            rand.optimize(objective, 25)
            random_scores.append(rand.best_trial.score)
        assert np.mean(tpe_scores) >= np.mean(random_scores) - 0.5

    def test_study_validation(self):
        space = SearchSpace({"x": Float(0, 1)})
        with pytest.raises(ValueError):
            Study(space, sampler="grid")
        with pytest.raises(ValueError):
            Study(space).optimize(lambda p: 0.0, 0)
        with pytest.raises(RuntimeError):
            _ = Study(space).best_trial

    def test_ask_tell_interface(self):
        space = SearchSpace({"k": Integer(1, 10)})
        study = Study(space, seed=1)
        for _ in range(8):
            params = study.ask()
            study.tell(params, float(params["k"]))
        assert study.best_trial.params["k"] == max(
            t.params["k"] for t in study.trials
        )


class TestTuneEstimator:
    def test_tunes_knn(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(120, 3))
        labels = (features[:, 0] > 0).astype(int)
        from repro.ml import KNNClassifier

        model, trial = tune_estimator(
            KNNClassifier,
            SearchSpace({"n_neighbors": Integer(1, 15)}),
            features[:80],
            labels[:80],
            features[80:],
            labels[80:],
            n_trials=8,
            seed=0,
        )
        # The winner comes back unfitted; its caller fits it.
        with pytest.raises(RuntimeError):
            model.predict(features[80:])
        model.fit(features[:80], labels[:80])
        assert model.score(features[80:], labels[80:]) > 0.8
        assert 1 <= trial.params["n_neighbors"] <= 15


class TestModelZoo:
    def test_registry_counts_match_table2(self):
        assert len(specs_for_task(CLASSIFICATION)) == 12
        assert len(specs_for_task(REGRESSION)) == 11
        assert len(specs_for_task(CLUSTERING)) == 6

    def test_every_spec_builds_and_samples(self):
        rng = np.random.default_rng(5)
        for task in (CLASSIFICATION, REGRESSION, CLUSTERING):
            for spec in specs_for_task(task):
                params = spec.space.sample(rng)
                model = spec.build(**params)
                assert model is not None

    def test_get_spec_and_build(self):
        spec = get_spec(CLASSIFICATION, "XGB")
        assert spec.name == "XGB"
        model = build_model(REGRESSION, "Ridge", alpha=3.0)
        assert model.alpha == 3.0
        with pytest.raises(KeyError):
            get_spec(CLASSIFICATION, "nope")
        with pytest.raises(ValueError):
            specs_for_task("ranking")


def _toy_classification(n=150, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 4))
    labels = (features[:, 0] + features[:, 1] > 0).astype(int)
    return features, labels


class TestAutoML:
    def test_autolearn_learns(self):
        features, labels = _toy_classification(seed=6)
        model = AutoLearn(task=CLASSIFICATION, time_budget=8, seed=0)
        model.fit(features[:100], labels[:100])
        assert model.score(features[100:], labels[100:]) > 0.75
        assert len(model.history_) == 8
        assert model.best_genome_ is not None

    def test_tpot_learns(self):
        features, labels = _toy_classification(seed=7)
        model = TPotLite(
            task=CLASSIFICATION, population_size=4, generations=2, seed=0
        )
        model.fit(features[:100], labels[:100])
        assert model.score(features[100:], labels[100:]) > 0.75

    def test_automl_regression(self):
        rng = np.random.default_rng(8)
        features = rng.normal(size=(120, 3))
        targets = features @ np.array([1.0, -2.0, 0.5]) + 1.0
        model = AutoLearn(task=REGRESSION, time_budget=8, seed=1)
        model.fit(features[:90], targets[:90])
        assert model.score(features[90:], targets[90:]) > 0.6

    def test_automl_validation(self):
        with pytest.raises(ValueError):
            AutoLearn(task=CLUSTERING)
        with pytest.raises(ValueError):
            AutoLearn(time_budget=0)
        with pytest.raises(ValueError):
            TPotLite(population_size=1)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            AutoLearn().predict(np.zeros((2, 2)))
