"""dBoost: ensemble outlier detection with automatic configuration search.

dBoost (Mariet & Madden) combines histogram, Gaussian, and Gaussian-mixture
per-column models and tunes their hyperparameters by random search over the
configuration space.  Each candidate configuration is scored by how cleanly
it separates a small flagged fraction from the bulk (an unsupervised proxy
for precision), and the best configuration's detections are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

import numpy as np

from repro.context import CleaningContext
from repro.dataset.table import Cell, Table
from repro.detectors.base import NON_LEARNING, Detector
from repro.errors import profile
from repro.kernels import kernel_stage


@dataclass(frozen=True)
class _Config:
    model: str          # 'gaussian' | 'histogram' | 'mixture'
    threshold: float    # sigma multiplier or frequency cut-off
    n_bins: int = 10
    n_components: int = 2


def _gaussian_outliers(values: np.ndarray, threshold: float) -> np.ndarray:
    finite = values[~np.isnan(values)]
    if len(finite) < 3 or finite.std() == 0:
        return np.zeros(len(values), dtype=bool)
    z = np.abs(values - finite.mean()) / finite.std()
    return (z > threshold) & ~np.isnan(values)


def _histogram_outliers(
    values: np.ndarray, threshold: float, n_bins: int
) -> np.ndarray:
    finite = values[~np.isnan(values)]
    if len(finite) < n_bins:
        return np.zeros(len(values), dtype=bool)
    counts, edges = np.histogram(finite, bins=n_bins)
    frequencies = counts / counts.sum()
    rare_bins = frequencies < threshold
    flagged = np.zeros(len(values), dtype=bool)
    valid = ~np.isnan(values)
    bins = np.clip(np.searchsorted(edges, values[valid]) - 1, 0, n_bins - 1)
    flagged[valid] = rare_bins[bins]
    return flagged


def _component_log_probs(
    x: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
) -> np.ndarray:
    """Each value's log density under each weighted mixture component.

    The expression ``log(w + 1e-12) - 0.5 * log(2 pi v) - 0.5 * (x - m)
    ** 2 / v``, evaluated in Python's order, with the (n, k) steps done
    in place in one buffer.
    """
    offset = (
        np.log(weights[None, :] + 1e-12)
        - 0.5 * np.log(2 * np.pi * variances[None, :])
    )
    out = np.subtract(x[:, None], means[None, :])
    np.square(out, out=out)
    np.multiply(0.5, out, out=out)
    np.divide(out, variances[None, :], out=out)
    return np.subtract(offset, out, out=out)


def _logsumexp_rows(log_probs: np.ndarray) -> np.ndarray:
    """``np.logaddexp.reduce(log_probs, axis=1)``, bit for bit.

    Over two or more columns the reduction folds them left to right;
    chaining ``np.logaddexp`` over whole columns does the same steps in
    the same order, without the reduction's per-row inner loop over a
    handful of columns.  One column is left to the reduction, which
    starts from logaddexp's identity (it turns ``-0.0`` into ``0.0``).
    """
    if log_probs.shape[1] < 2:
        return np.logaddexp.reduce(log_probs, axis=1)
    total = log_probs[:, 0]
    for j in range(1, log_probs.shape[1]):
        total = np.logaddexp(total, log_probs[:, j])
    return total


def _mixture_scores(
    finite: np.ndarray, n_components: int
) -> Optional[np.ndarray]:
    """Each finite value's log-likelihood under a 1-D Gaussian mixture
    fitted to them by 25 EM steps (None: too few values to fit)."""
    if len(finite) < max(8, n_components * 3):
        return None
    # Tiny 1-D EM.
    means = np.quantile(finite, np.linspace(0.2, 0.8, n_components))
    variances = np.full(n_components, finite.var() / n_components + 1e-9)
    weights = np.full(n_components, 1.0 / n_components)
    for _ in range(25):
        log_probs = _component_log_probs(finite, weights, means, variances)
        log_norm = _logsumexp_rows(log_probs)
        resp = np.exp(
            np.subtract(log_probs, log_norm[:, None], out=log_probs),
            out=log_probs,
        )
        total = resp.sum(axis=0) + 1e-10
        weights = total / len(finite)
        means = resp.T @ finite / total
        variances = (
            resp.T @ (finite[:, None] - means[None, :]) ** 2
        ).diagonal() / total + 1e-9
    return _logsumexp_rows(
        _component_log_probs(finite, weights, means, variances)
    )


def _mixture_cut(
    values: np.ndarray, scores: Optional[np.ndarray], threshold: float
) -> np.ndarray:
    """Flag the finite values whose score is below the ``threshold``
    quantile of all scores (``scores`` belong to ``values[~isnan]``)."""
    flagged = np.zeros(len(values), dtype=bool)
    if scores is not None:
        flagged[~np.isnan(values)] = scores < np.quantile(scores, threshold)
    return flagged


def _mixture_outliers(
    values: np.ndarray,
    threshold: float,
    n_components: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Flag values with low likelihood under a 1-D Gaussian mixture.

    The EM draws nothing from ``rng``; only the final cut depends on
    ``threshold``, which is why the detector fits once per component
    count and applies each configuration's cut to the kept scores.
    """
    scores = _mixture_scores(values[~np.isnan(values)], n_components)
    return _mixture_cut(values, scores, threshold)


class DBoostDetector(Detector):
    """dBoost with random configuration search (Table 1 row 'B')."""

    name = "dBoost"
    category = NON_LEARNING
    tackles = frozenset({profile.OUTLIER, profile.IMPLICIT_MISSING})

    def __init__(self, n_search: int = 12, seed: int = 0) -> None:
        if n_search < 1:
            raise ValueError("n_search must be >= 1")
        self.n_search = n_search
        self.seed = seed

    def _random_config(self, rng: np.random.Generator) -> _Config:
        model = ("gaussian", "histogram", "mixture")[int(rng.integers(3))]
        if model == "gaussian":
            return _Config(model, threshold=float(rng.uniform(2.0, 5.0)))
        if model == "histogram":
            return _Config(
                model,
                threshold=float(rng.uniform(0.005, 0.05)),
                n_bins=int(rng.integers(8, 30)),
            )
        return _Config(
            model,
            threshold=float(rng.uniform(0.005, 0.05)),
            n_components=int(rng.integers(2, 4)),
        )

    @staticmethod
    def _separation_score(values: np.ndarray, flagged: np.ndarray) -> float:
        """Unsupervised config score: distance between flagged and bulk.

        Good configurations flag a small, clearly separated fraction.
        """
        valid = ~np.isnan(values)
        flagged = flagged & valid
        n_flagged = int(flagged.sum())
        n_valid = int(valid.sum())
        if n_flagged == 0 or n_flagged == n_valid:
            return -np.inf
        fraction = n_flagged / n_valid
        if fraction > 0.4:
            return -np.inf
        bulk = values[valid & ~flagged]
        spread = bulk.std() or 1.0
        gap = np.abs(values[flagged] - bulk.mean()).mean() / spread
        return float(gap - 2.0 * fraction)

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        with kernel_stage("dboost"):
            return self._detect_columns(context)

    def _detect_columns(self, context: CleaningContext) -> Set[Cell]:
        rng = context.rng(17)
        table = context.dirty
        cells: Set[Cell] = set()
        for column in table.schema.numerical_names:
            values = table.as_float(column)
            finite = values[~np.isnan(values)]
            if len(finite) < 8:
                continue
            # One EM fit per component count: configs differ in the cut.
            mixture_scores: Dict[int, Optional[np.ndarray]] = {}
            best_flags: Optional[np.ndarray] = None
            best_score = -np.inf
            for _ in range(self.n_search):
                config = self._random_config(rng)
                if config.model == "gaussian":
                    flagged = _gaussian_outliers(values, config.threshold)
                elif config.model == "histogram":
                    flagged = _histogram_outliers(
                        values, config.threshold, config.n_bins
                    )
                else:
                    k = config.n_components
                    if k not in mixture_scores:
                        mixture_scores[k] = _mixture_scores(finite, k)
                    flagged = _mixture_cut(
                        values, mixture_scores[k], config.threshold
                    )
                score = self._separation_score(values, flagged)
                if score > best_score:
                    best_score, best_flags = score, flagged
            if best_flags is None or best_score == -np.inf:
                continue
            for i in np.flatnonzero(best_flags):
                cells.add((int(i), column))
        return cells
