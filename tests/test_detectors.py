"""Tests for all 19 error detectors.

Each detector is exercised on a synthetic table with a planted error of the
type it targets; we check recall on the planted cells and sane precision.
"""

import numpy as np
import pytest

from repro.benchmark.runner import run_detection_suite
from repro.constraints import ColumnPattern, FunctionalDependency
from repro.context import CleaningContext
from repro.datagen import generate
from repro.dataset import CATEGORICAL, NUMERICAL, Schema, Table
from repro.detectors import (
    CleanLabDetector,
    DBoostDetector,
    ED2Detector,
    FahesDetector,
    HoloCleanDetector,
    IFDetector,
    IQRDetector,
    KataraDetector,
    KeyCollisionDetector,
    KnowledgeBase,
    MaxEntropyDetector,
    MetadataDrivenDetector,
    MinKDetector,
    MVDetector,
    NadeefDetector,
    OpenRefineDetector,
    PicketDetector,
    RahaDetector,
    SDDetector,
    ZeroERDetector,
    all_detectors,
    detector_registry,
)
from repro.errors import (
    ImplicitMissingInjector,
    MislabelInjector,
    MissingValueInjector,
    OutlierInjector,
)
from repro.metrics import detection_scores


def base_table(n=200, seed=0):
    rng = np.random.default_rng(seed)
    schema = Schema.from_pairs(
        [
            ("amount", NUMERICAL),
            ("score", NUMERICAL),
            ("city", CATEGORICAL),
            ("country", CATEGORICAL),
            ("label", CATEGORICAL),
        ]
    )
    cities = ["berlin", "munich", "hamburg", "paris", "lyon"]
    country_of = {
        "berlin": "germany",
        "munich": "germany",
        "hamburg": "germany",
        "paris": "france",
        "lyon": "france",
    }
    chosen = [cities[int(rng.integers(5))] for _ in range(n)]
    amounts = rng.normal(100.0, 10.0, size=n)
    return Table(
        schema,
        {
            "amount": amounts.tolist(),
            "score": rng.uniform(0, 1, size=n).tolist(),
            "city": chosen,
            "country": [country_of[c] for c in chosen],
            "label": [
                "high" if a > 100 else "low" for a in amounts
            ],
        },
    )


RNG = lambda s=0: np.random.default_rng(s)


class TestMVDetector:
    def test_finds_all_missing(self):
        clean = base_table()
        result = MissingValueInjector().inject(clean, 0.05, RNG(1))
        ctx = CleaningContext(dirty=result.dirty)
        detected = MVDetector().detect(ctx)
        scores = detection_scores(detected.cells, result.error_cells)
        assert scores.recall == 1.0
        assert scores.precision == 1.0

    def test_runtime_recorded(self):
        ctx = CleaningContext(dirty=base_table(n=20))
        result = MVDetector().detect(ctx)
        assert result.runtime_seconds >= 0.0
        assert result.detector == "MVD"


@pytest.mark.parametrize(
    "detector",
    [SDDetector(3.0), IQRDetector(1.5), IFDetector(seed=1), DBoostDetector(seed=1)],
    ids=lambda d: d.name,
)
def test_outlier_detectors_find_planted_outliers(detector):
    clean = base_table(seed=2)
    result = OutlierInjector(degree=6.0).inject(clean, 0.05, RNG(3))
    ctx = CleaningContext(dirty=result.dirty, seed=1)
    detected = detector.detect(ctx)
    scores = detection_scores(detected.cells, result.error_cells)
    assert scores.recall > 0.8, f"{detector.name} recall {scores.recall}"
    assert scores.precision > 0.4, f"{detector.name} precision {scores.precision}"


def test_if_unit_on_a_column_spanning_the_float_range_succeeds():
    # Every isolation split of this column spans more than the float
    # range, which ``Generator.uniform`` rejects with OverflowError.
    dataset = generate("SmartFactory", n_rows=40, seed=0)
    column = dataset.dirty.schema.numerical_names[0]
    for row in range(dataset.dirty.n_rows):
        dataset.dirty.set_cell(row, column, (-1.7e308, 1.7e308)[row % 2])
    (run,) = run_detection_suite(dataset, [IFDetector(seed=1)])
    assert not run.failed, run.failure


def test_outlier_detectors_ignore_clean_data():
    ctx = CleaningContext(dirty=base_table(seed=4))
    for detector in (SDDetector(4.0), IQRDetector(3.0)):
        detected = detector.detect(ctx)
        # At most a sliver of false positives on clean Gaussian data.
        assert detected.n_detected < 0.01 * 200 * 5 + 5


class TestFahes:
    def test_finds_disguised_missing(self):
        clean = base_table(seed=5)
        result = ImplicitMissingInjector().inject(clean, 0.06, RNG(6))
        ctx = CleaningContext(dirty=result.dirty)
        detected = FahesDetector().detect(ctx)
        scores = detection_scores(detected.cells, result.error_cells)
        assert scores.recall > 0.7
        assert scores.precision > 0.5

    def test_ignores_explicit_missing(self):
        clean = base_table(seed=7)
        result = MissingValueInjector().inject(clean, 0.05, RNG(8))
        detected = FahesDetector().detect(CleaningContext(dirty=result.dirty))
        assert not (detected.cells & result.error_cells)

    def test_validation(self):
        with pytest.raises(ValueError):
            FahesDetector(min_repeats=0)
        with pytest.raises(ValueError):
            FahesDetector(extreme_quantile=0.7)


class TestNadeef:
    def test_fd_violations(self):
        clean = base_table(seed=9)
        dirty = clean.copy()
        dirty.set_cell(0, "country", "spain")  # violates city -> country
        ctx = CleaningContext(
            dirty=dirty, fds=[FunctionalDependency(("city",), "country")]
        )
        detected = NadeefDetector().detect(ctx)
        assert (0, "country") in detected.cells

    def test_pattern_violations(self):
        clean = base_table(seed=10)
        dirty = clean.copy()
        dirty.set_cell(3, "city", "b3rlin")
        ctx = CleaningContext(
            dirty=dirty, patterns=[ColumnPattern("city", r"[a-z ]+")]
        )
        detected = NadeefDetector().detect(ctx)
        assert (3, "city") in detected.cells

    def test_no_signals_no_detections(self):
        ctx = CleaningContext(dirty=base_table())
        assert NadeefDetector().detect(ctx).n_detected == 0


class TestHoloClean:
    def test_detects_rule_violations_and_missing(self):
        clean = base_table(seed=11)
        dirty = clean.copy()
        dirty.set_cell(0, "country", "spain")
        dirty.set_cell(1, "amount", None)
        ctx = CleaningContext(
            dirty=dirty, fds=[FunctionalDependency(("city",), "country")]
        )
        detected = HoloCleanDetector().detect(ctx)
        assert (0, "country") in detected.cells
        assert (1, "amount") in detected.cells

    def test_validation(self):
        with pytest.raises(ValueError):
            HoloCleanDetector(cooccurrence_threshold=1.0)


class TestKatara:
    def _kb(self):
        kb = KnowledgeBase()
        kb.add_domain("city", ["berlin", "munich", "hamburg", "paris", "lyon"])
        kb.add_domain("country", ["germany", "france"])
        kb.add_relation(
            "city",
            "country",
            [
                ("berlin", "germany"),
                ("munich", "germany"),
                ("hamburg", "germany"),
                ("paris", "france"),
                ("lyon", "france"),
            ],
        )
        return kb

    def test_domain_and_relation_violations(self):
        clean = base_table(seed=12)
        dirty = clean.copy()
        dirty.set_cell(0, "city", "atlantis")        # domain violation
        dirty.set_cell(1, "country", "france")       # relation violation
        if dirty.get_cell(1, "city") in ("paris", "lyon"):
            dirty.set_cell(1, "city", "berlin")
        ctx = CleaningContext(dirty=dirty, knowledge_base=self._kb())
        detected = KataraDetector().detect(ctx)
        assert (0, "city") in detected.cells
        assert (1, "country") in detected.cells
        # Relation violations flag both sides (KATARA's crowd ambiguity).
        assert (1, "city") in detected.cells

    def test_no_kb_no_detections(self):
        ctx = CleaningContext(dirty=base_table())
        assert KataraDetector().detect(ctx).n_detected == 0


class TestOpenRefine:
    def test_finds_format_variants(self):
        clean = base_table(seed=13)
        dirty = clean.copy()
        dirty.set_cell(0, "city", "Berlin")
        dirty.set_cell(5, "city", "berlin ")
        detected = OpenRefineDetector().detect(CleaningContext(dirty=dirty))
        assert (0, "city") in detected.cells

    def test_clean_column_unflagged(self):
        detected = OpenRefineDetector().detect(
            CleaningContext(dirty=base_table(seed=14))
        )
        assert detected.n_detected == 0


class TestDuplicateDetectors:
    def _with_duplicates(self, seed=15):
        clean = base_table(n=80, seed=seed)
        dirty = clean.copy()
        # Copy row 0 over rows 40 and 41.
        for victim in (40, 41):
            for column in clean.column_names:
                dirty.set_cell(victim, column, clean.get_cell(0, column))
        return dirty

    def test_key_collision(self):
        dirty = self._with_duplicates()
        ctx = CleaningContext(
            dirty=dirty, key_columns=["amount", "city"]
        )
        detected = KeyCollisionDetector().detect(ctx)
        rows = {r for r, _ in detected.cells}
        assert {40, 41} <= rows

    def test_key_collision_needs_keys(self):
        ctx = CleaningContext(dirty=self._with_duplicates())
        assert KeyCollisionDetector().detect(ctx).n_detected == 0

    def test_zeroer_finds_duplicates(self):
        dirty = self._with_duplicates(seed=16)
        ctx = CleaningContext(dirty=dirty, seed=3)
        detected = ZeroERDetector().detect(ctx)
        rows = {r for r, _ in detected.cells}
        assert rows & {0, 40, 41}

    def test_zeroer_clean_data_few_false_positives(self):
        ctx = CleaningContext(dirty=base_table(n=60, seed=17), seed=0)
        detected = ZeroERDetector().detect(ctx)
        flagged_rows = {r for r, _ in detected.cells}
        assert len(flagged_rows) <= 6


class TestCleanLab:
    def test_finds_flipped_labels(self):
        clean = base_table(n=300, seed=18)
        result = MislabelInjector("label").inject(clean, 0.08, RNG(19))
        ctx = CleaningContext(
            dirty=result.dirty, label_column="label", seed=0
        )
        detected = CleanLabDetector().detect(ctx)
        scores = detection_scores(detected.cells, result.error_cells)
        # Confident learning misses boundary samples by design; the paper
        # itself reports moderate CleanLab recall (Figure 2d).
        assert scores.recall > 0.45
        assert scores.precision > 0.7

    def test_no_label_column(self):
        ctx = CleaningContext(dirty=base_table())
        assert CleanLabDetector().detect(ctx).n_detected == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CleanLabDetector(n_folds=1)


class TestEnsembles:
    def _dirty_context(self, seed=20):
        clean = base_table(seed=seed)
        from repro.errors import CompositeInjector

        injector = CompositeInjector(
            [MissingValueInjector(), OutlierInjector(degree=6.0)]
        )
        result = injector.inject(clean, 0.08, RNG(seed + 1))
        return (
            CleaningContext(dirty=result.dirty, clean=clean, seed=1),
            result.error_cells,
        )

    def test_min_k_union_vs_intersection(self):
        ctx, errors = self._dirty_context()
        union = MinKDetector(k=1).detect(ctx)
        strict = MinKDetector(k=3).detect(ctx)
        assert strict.cells <= union.cells
        scores = detection_scores(union.cells, errors)
        assert scores.recall > 0.8

    def test_max_entropy_covers_errors(self):
        ctx, errors = self._dirty_context(seed=22)
        detected = MaxEntropyDetector().detect(ctx)
        scores = detection_scores(detected.cells, errors)
        assert scores.recall > 0.8

    def test_max_entropy_orders_detectors(self):
        ctx, _ = self._dirty_context(seed=23)
        detector = MaxEntropyDetector()
        detector.detect(ctx)
        assert len(detector.execution_order_) >= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            MinKDetector(k=0)
        with pytest.raises(ValueError):
            MaxEntropyDetector(min_new_fraction=1.0)


class TestMLSupported:
    def _dirty(self, seed=24):
        clean = base_table(seed=seed)
        from repro.errors import CompositeInjector

        injector = CompositeInjector(
            [MissingValueInjector(), OutlierInjector(degree=6.0)]
        )
        result = injector.inject(clean, 0.1, RNG(seed + 1))
        return clean, result

    @pytest.mark.parametrize(
        "detector",
        [
            MetadataDrivenDetector(label_budget=300),
            RahaDetector(labels_per_column=15),
            ED2Detector(labels_per_column=25),
        ],
        ids=lambda d: d.name,
    )
    def test_learns_to_detect(self, detector):
        clean, result = self._dirty()
        ctx = CleaningContext(dirty=result.dirty, clean=clean, seed=2)
        detected = detector.detect(ctx)
        scores = detection_scores(detected.cells, result.error_cells)
        assert scores.f1 > 0.5, f"{detector.name} f1 {scores.f1}"

    def test_ml_detectors_need_oracle(self):
        _, result = self._dirty(seed=26)
        ctx = CleaningContext(dirty=result.dirty)  # no ground truth
        for detector in (
            MetadataDrivenDetector(),
            RahaDetector(),
            ED2Detector(),
        ):
            assert detector.detect(ctx).n_detected == 0

    def test_picket_self_supervised_no_oracle_needed(self):
        clean, result = self._dirty(seed=27)
        ctx = CleaningContext(dirty=result.dirty)
        detected = PicketDetector().detect(ctx)
        scores = detection_scores(detected.cells, result.error_cells)
        assert scores.recall > 0.3

    def test_picket_memory_boundary(self):
        clean = base_table(n=30, seed=28)
        detector = PicketDetector(max_rows=10)
        with pytest.raises(MemoryError):
            detector.detect(CleaningContext(dirty=clean))

    def test_validation(self):
        with pytest.raises(ValueError):
            MetadataDrivenDetector(label_budget=1)
        with pytest.raises(ValueError):
            RahaDetector(labels_per_column=1)
        with pytest.raises(ValueError):
            ED2Detector(labels_per_column=2)
        with pytest.raises(ValueError):
            PicketDetector(numeric_residual_sigmas=0)


class TestRegistry:
    def test_nineteen_detectors(self):
        detectors = all_detectors()
        assert len(detectors) == 19
        names = [d.name for d in detectors]
        assert len(set(names)) == 19

    def test_registry_keys(self):
        registry = detector_registry()
        for expected in ("KATARA", "NADEEF", "FAHES", "HoloClean", "dBoost",
                         "OpenRefine", "IF", "SD", "IQR", "MVD",
                         "KeyCollision", "ZeroER", "CleanLab", "Min-K",
                         "MaxEntropy", "Meta", "RAHA", "ED2", "Picket"):
            assert expected in registry

    def test_categories(self):
        from repro.detectors import ML_SUPPORTED, NON_LEARNING

        registry = detector_registry()
        assert registry["RAHA"].category == ML_SUPPORTED
        assert registry["SD"].category == NON_LEARNING
        ml_count = sum(
            1 for d in registry.values() if d.category == ML_SUPPORTED
        )
        assert ml_count == 4
