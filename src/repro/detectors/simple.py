"""Simple statistical detectors: explicit missing values and the SD / IQR /
Isolation-Forest outlier detectors of Table 1."""

from __future__ import annotations

from typing import Any, Dict, Set, Tuple

import numpy as np

from repro.context import CleaningContext
from repro.dataset.table import Cell, Table
from repro.detectors.base import NON_LEARNING, BlockwiseDetector, Detector
from repro.errors import profile
from repro.ml.forest import IsolationForest


class MVDetector(BlockwiseDetector, Detector):
    """Explicit missing-value detector (empty / NaN / null tokens).

    The paper attributes this to a pandas-style scan; it is exact for
    explicit missing values and blind to disguised ones.  Each cell's
    missingness depends on that cell alone, so the detector streams over
    row blocks with no profile at all.
    """

    name = "MVD"
    category = NON_LEARNING
    tackles = frozenset({profile.MISSING})

    def _detect_block(
        self,
        context: CleaningContext,
        fitted: Any,
        block: Table,
        start: int,
    ) -> Set[Cell]:
        return {(start + row, column) for row, column in block.missing_cells()}


class SDDetector(BlockwiseDetector, Detector):
    """Standard-deviation outlier detector.

    A numeric cell is an outlier when it lies more than ``n_sigmas``
    standard deviations from its column mean.  The mean/std pair is the
    whole-table profile; the threshold test is elementwise, so inference
    streams over row blocks byte-identically.
    """

    name = "SD"
    category = NON_LEARNING
    tackles = frozenset({profile.OUTLIER, profile.IMPLICIT_MISSING})

    def __init__(self, n_sigmas: float = 3.0) -> None:
        if n_sigmas <= 0:
            raise ValueError("n_sigmas must be positive")
        self.n_sigmas = n_sigmas

    def fit_profile(
        self, context: CleaningContext
    ) -> Dict[str, Tuple[float, float]]:
        """Per-column ``(mean, std)`` over the whole dirty table.

        Columns with fewer than 3 finite values or zero spread are
        omitted: no cell of theirs is flagged.
        """
        stats: Dict[str, Tuple[float, float]] = {}
        table = context.dirty
        for column in table.schema.numerical_names:
            values = table.as_float(column)
            finite = values[~np.isnan(values)]
            if len(finite) < 3:
                continue
            mean, std = float(finite.mean()), float(finite.std())
            if std == 0:
                continue
            stats[column] = (mean, std)
        return stats

    def _detect_block(
        self,
        context: CleaningContext,
        fitted: Dict[str, Tuple[float, float]],
        block: Table,
        start: int,
    ) -> Set[Cell]:
        cells: Set[Cell] = set()
        for column, (mean, std) in fitted.items():
            values = block.as_float(column)
            deviant = np.abs(values - mean) > self.n_sigmas * std
            for i in np.flatnonzero(deviant & ~np.isnan(values)):
                cells.add((start + int(i), column))
        return cells


class IQRDetector(BlockwiseDetector, Detector):
    """Interquartile-range outlier detector.

    Flags values outside ``[Q1 - k*IQR, Q3 + k*IQR]`` -- the resistant
    alternative to SD the paper describes.  The fence pair is the
    whole-table profile; the range test is elementwise, so inference
    streams over row blocks byte-identically.
    """

    name = "IQR"
    category = NON_LEARNING
    tackles = frozenset({profile.OUTLIER, profile.IMPLICIT_MISSING})

    def __init__(self, k: float = 1.5) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k

    def fit_profile(
        self, context: CleaningContext
    ) -> Dict[str, Tuple[float, float]]:
        """Per-column ``(low, high)`` fences over the whole dirty table.

        Columns with fewer than 4 finite values or zero IQR are omitted:
        no cell of theirs is flagged.
        """
        fences: Dict[str, Tuple[float, float]] = {}
        table = context.dirty
        for column in table.schema.numerical_names:
            values = table.as_float(column)
            finite = values[~np.isnan(values)]
            if len(finite) < 4:
                continue
            q1, q3 = np.quantile(finite, [0.25, 0.75])
            iqr = q3 - q1
            if iqr == 0:
                continue
            fences[column] = (q1 - self.k * iqr, q3 + self.k * iqr)
        return fences

    def _detect_block(
        self,
        context: CleaningContext,
        fitted: Dict[str, Tuple[float, float]],
        block: Table,
        start: int,
    ) -> Set[Cell]:
        cells: Set[Cell] = set()
        for column, (low, high) in fitted.items():
            values = block.as_float(column)
            deviant = (values < low) | (values > high)
            for i in np.flatnonzero(deviant):
                cells.add((start + int(i), column))
        return cells


class IFDetector(Detector):
    """Isolation-forest outlier detector.

    Fits one isolation forest per numeric column (cell-level decisions, as
    REIN requires) using mean imputation for missing entries, which are
    never themselves flagged -- they belong to the MV detector.
    """

    name = "IF"
    category = NON_LEARNING
    tackles = frozenset({profile.OUTLIER, profile.IMPLICIT_MISSING})

    def __init__(
        self, n_estimators: int = 40, contamination: float = 0.1, seed: int = 0
    ) -> None:
        self.n_estimators = n_estimators
        self.contamination = contamination
        self.seed = seed

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        cells: Set[Cell] = set()
        table = context.dirty
        for column in table.schema.numerical_names:
            values = table.as_float(column)
            missing = np.isnan(values)
            if missing.all() or len(values) < 8:
                continue
            filled = values.copy()
            filled[missing] = float(np.nanmean(values))
            forest = IsolationForest(
                n_estimators=self.n_estimators,
                contamination=self.contamination,
                seed=self.seed,
            )
            flagged = forest.fit_predict(filled[:, None]) == -1
            for i in np.flatnonzero(flagged & ~missing):
                cells.add((int(i), column))
        return cells
