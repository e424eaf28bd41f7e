"""Search spaces and samplers for hyperparameter tuning.

The TPE-style sampler partitions past trials into "good" and "bad" by score
quantile, models each group per-dimension, and proposes candidates that
maximize the good/bad likelihood ratio -- the same idea behind Optuna's
default sampler, reimplemented on numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


class Distribution:
    """Base class for one searchable hyperparameter dimension."""

    def sample(self, rng: np.random.Generator) -> Any:
        raise NotImplementedError

    def sample_near(self, value: Any, rng: np.random.Generator) -> Any:
        """Sample in the neighbourhood of a known-good value."""
        raise NotImplementedError


@dataclass(frozen=True)
class Float(Distribution):
    """Uniform (or log-uniform) float in [low, high]."""

    low: float
    high: float
    log: bool = False

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ValueError("low must be < high")
        if self.log and self.low <= 0:
            raise ValueError("log-scale range must be positive")

    def sample(self, rng: np.random.Generator) -> float:
        if self.log:
            return float(
                np.exp(rng.uniform(np.log(self.low), np.log(self.high)))
            )
        return float(rng.uniform(self.low, self.high))

    def sample_near(self, value: float, rng: np.random.Generator) -> float:
        if self.log:
            log_span = np.log(self.high) - np.log(self.low)
            proposal = np.exp(rng.normal(np.log(value), 0.2 * log_span))
        else:
            proposal = rng.normal(value, 0.2 * (self.high - self.low))
        return float(np.clip(proposal, self.low, self.high))


@dataclass(frozen=True)
class Integer(Distribution):
    """Uniform integer in [low, high] inclusive."""

    low: int
    high: int

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError("low must be <= high")

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))

    def sample_near(self, value: int, rng: np.random.Generator) -> int:
        span = max(1, int(0.2 * (self.high - self.low)))
        proposal = int(round(rng.normal(value, span)))
        return int(np.clip(proposal, self.low, self.high))


@dataclass(frozen=True)
class Categorical(Distribution):
    """Uniform choice over fixed options."""

    options: Tuple[Any, ...]

    def __init__(self, options: Sequence[Any]) -> None:
        if not options:
            raise ValueError("options must be non-empty")
        object.__setattr__(self, "options", tuple(options))

    def sample(self, rng: np.random.Generator) -> Any:
        return self.options[int(rng.integers(len(self.options)))]

    def sample_near(self, value: Any, rng: np.random.Generator) -> Any:
        # Exploit the known-good option 70% of the time, explore otherwise.
        if rng.uniform() < 0.7:
            return value
        return self.sample(rng)


class SearchSpace:
    """A named set of hyperparameter dimensions."""

    def __init__(self, dimensions: Dict[str, Distribution]) -> None:
        if not dimensions:
            raise ValueError("search space must have at least one dimension")
        self.dimensions = dict(dimensions)

    def sample(self, rng: np.random.Generator) -> Dict[str, Any]:
        return {name: dim.sample(rng) for name, dim in self.dimensions.items()}

    def sample_near(
        self, anchor: Dict[str, Any], rng: np.random.Generator
    ) -> Dict[str, Any]:
        return {
            name: dim.sample_near(anchor[name], rng)
            for name, dim in self.dimensions.items()
        }


@dataclass
class Trial:
    params: Dict[str, Any]
    score: float


@dataclass
class Study:
    """Maximizes an objective over a search space.

    Args:
        space: the dimensions to search.
        sampler: ``"random"`` or ``"tpe"``.  TPE draws its first
            ``n_startup`` trials at random, then proposes candidates near
            anchors drawn from the top-gamma quantile of past trials,
            keeping the candidate that is farthest (per-dimension) from
            the bad group -- a lightweight likelihood-ratio argmax.
        seed: RNG seed.
    """

    space: SearchSpace
    sampler: str = "tpe"
    n_startup: int = 5
    gamma: float = 0.3
    n_candidates: int = 10
    seed: int = 0
    trials: List[Trial] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.sampler not in ("random", "tpe"):
            raise ValueError("sampler must be 'random' or 'tpe'")
        self._rng = np.random.default_rng(self.seed)

    def ask(self) -> Dict[str, Any]:
        """Propose the next parameter set to evaluate."""
        if self.sampler == "random" or len(self.trials) < self.n_startup:
            return self.space.sample(self._rng)
        ranked = sorted(self.trials, key=lambda t: t.score, reverse=True)
        n_good = max(1, int(math.ceil(self.gamma * len(ranked))))
        good = ranked[:n_good]
        anchor = good[int(self._rng.integers(len(good)))].params
        candidates = [
            self.space.sample_near(anchor, self._rng)
            for _ in range(self.n_candidates)
        ]
        # Prefer the candidate farthest from the bad group's centroids in
        # each numeric dimension (a cheap l(x)/g(x) surrogate).
        bad = ranked[n_good:]
        if not bad:
            return candidates[0]
        scores = [self._novelty(c, bad) for c in candidates]
        return candidates[int(np.argmax(scores))]

    def _novelty(self, params: Dict[str, Any], bad: List[Trial]) -> float:
        total = 0.0
        for name, dim in self.space.dimensions.items():
            if isinstance(dim, (Float, Integer)):
                span = float(dim.high - dim.low) or 1.0
                bad_values = np.array(
                    [float(t.params[name]) for t in bad], dtype=np.float64
                )
                total += float(
                    np.min(np.abs(bad_values - float(params[name]))) / span
                )
            else:
                bad_share = np.mean(
                    [t.params[name] == params[name] for t in bad]
                )
                total += 1.0 - float(bad_share)
        return total

    def tell(self, params: Dict[str, Any], score: float) -> None:
        """Record the result of a trial."""
        self.trials.append(Trial(dict(params), float(score)))

    def optimize(
        self,
        objective: Callable[[Dict[str, Any]], float],
        n_trials: int,
    ) -> Trial:
        """Run *n_trials* ask/tell rounds; return the best trial."""
        if n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        for _ in range(n_trials):
            params = self.ask()
            self.tell(params, objective(params))
        return self.best_trial

    @property
    def best_trial(self) -> Trial:
        if not self.trials:
            raise RuntimeError("study has no completed trials")
        return max(self.trials, key=lambda t: t.score)


def tune_estimator(
    factory: Callable[..., Any],
    space: SearchSpace,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_valid: np.ndarray,
    y_valid: np.ndarray,
    n_trials: int = 10,
    seed: int = 0,
) -> Tuple[Any, Trial]:
    """Tune an estimator factory against a holdout split.

    Returns ``(best_estimator, best_trial)``, the estimator being the
    winning configuration *unfitted*: callers fit it on the data they
    score (the pipeline fits it on the full training split), so a fit
    here would be thrown away.  The estimator's own
    ``score_predictions`` (accuracy or R^2) on the holdout is the
    objective, matching how REIN tunes each model with Optuna before the
    scenario runs.  Trials fit through :func:`repro.ml.base.fit_predict`,
    so a repeated trial is an artifact-cache hit.
    """
    from repro.ml.base import fit_predict

    def objective(params: Dict[str, Any]) -> float:
        model = factory(**params)
        try:
            predictions = fit_predict(model, x_train, y_train, x_valid)
            return model.score_predictions(predictions, y_valid)
        except (ValueError, np.linalg.LinAlgError):
            return -np.inf

    study = Study(space, seed=seed)
    best = study.optimize(objective, n_trials)
    return factory(**best.params), best
