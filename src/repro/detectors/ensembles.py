"""Ensemble detectors: Min-K and Max Entropy (Abedjan et al., "Detecting
data errors: where are we and what needs to be done?").

Both aggregate a pool of non-learning base detectors:

- Min-K flags a cell when at least ``k`` base detectors flag it;
- Max Entropy orders the base detectors by how much *new information*
  (entropy over the undecided cell pool) each adds, greedily accumulating
  detections until additional detectors stop contributing.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set

from repro.context import CleaningContext
from repro.dataset.table import Cell
from repro.detectors.base import NON_LEARNING, Detector, nested_cells
from repro.detectors.dboost import DBoostDetector
from repro.detectors.duplicates import KeyCollisionDetector
from repro.detectors.fahes import FahesDetector
from repro.detectors.openrefine import OpenRefineDetector
from repro.detectors.rules import NadeefDetector
from repro.detectors.simple import IQRDetector, MVDetector, SDDetector


def default_base_detectors() -> List[Detector]:
    """The non-learning pool both ensembles aggregate by default."""
    return [
        MVDetector(),
        SDDetector(n_sigmas=3.0),
        IQRDetector(k=1.5),
        DBoostDetector(n_search=8),
        FahesDetector(),
        NadeefDetector(),
        OpenRefineDetector(),
        KeyCollisionDetector(),
    ]


class MinKDetector(Detector):
    """Min-K ensemble (Table 1 row 'M'): cells flagged by >= k detectors.

    k=1 is the detector union (maximum recall); larger k trades recall for
    precision.  Detectors listed in ``trusted`` bypass the vote threshold:
    the deterministic signal-driven tools (explicit-NULL scan, rule/pattern
    checks, fingerprint clustering, key collision) are each the *only* pool
    member covering their error family and are near-perfect-precision by
    construction, so demanding a second independent vote would
    systematically drop their entire error class.  Voting disciplines the
    statistical heuristics (SD, IQR, dBoost, FAHES), which overlap.
    """

    name = "Min-K"
    category = NON_LEARNING
    tackles = frozenset({"holistic"})

    def __init__(
        self,
        k: int = 2,
        base_detectors: Optional[Sequence[Detector]] = None,
        trusted: Sequence[str] = ("MVD", "NADEEF", "OpenRefine", "KeyCollision"),
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.base_detectors = (
            list(base_detectors)
            if base_detectors is not None
            else default_base_detectors()
        )
        self.trusted = frozenset(trusted)

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        votes: Dict[Cell, int] = {}
        trusted_cells: Set[Cell] = set()
        active = 0
        for detector in self.base_detectors:
            cells = nested_cells(detector, context)
            if cells:
                active += 1
            if detector.name in self.trusted:
                trusted_cells |= cells
            for cell in cells:
                votes[cell] = votes.get(cell, 0) + 1
        # Never demand more votes than detectors that actually fired.
        threshold = min(self.k, active) if active else self.k
        return trusted_cells | {
            cell for cell, count in votes.items() if count >= threshold
        }


class MaxEntropyDetector(Detector):
    """Max Entropy ensemble (Table 1 row 'X').

    Greedy ordering: at each step pick the detector whose detections have
    maximum entropy against the current union -- i.e. whose flagged set
    splits into covered/uncovered cells most evenly, the most *informative*
    next tool.  Stop when the best candidate adds fewer than
    ``min_new_fraction`` new cells.
    """

    name = "MaxEntropy"
    category = NON_LEARNING
    tackles = frozenset({"holistic"})

    def __init__(
        self,
        base_detectors: Optional[Sequence[Detector]] = None,
        min_new_fraction: float = 0.02,
    ) -> None:
        if not 0.0 <= min_new_fraction < 1.0:
            raise ValueError("min_new_fraction must be in [0, 1)")
        self.base_detectors = (
            list(base_detectors)
            if base_detectors is not None
            else default_base_detectors()
        )
        self.min_new_fraction = min_new_fraction
        self.execution_order_: List[str] = []

    @staticmethod
    def _entropy(n_new: int, n_overlap: int) -> float:
        total = n_new + n_overlap
        if total == 0:
            return -1.0
        entropy = 0.0
        for count in (n_new, n_overlap):
            if count:
                p = count / total
                entropy -= p * math.log2(p)
        # Tie-break toward detectors bringing more new cells.
        return entropy + 1e-6 * n_new

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        results = {
            detector.name: nested_cells(detector, context)
            for detector in self.base_detectors
        }
        union: Set[Cell] = set()
        remaining = dict(results)
        self.execution_order_ = []
        while remaining:
            best_name, best_score, best_new = None, -math.inf, 0
            for name, cells in remaining.items():
                new = len(cells - union)
                overlap = len(cells & union)
                score = self._entropy(new, overlap)
                if score > best_score:
                    best_name, best_score, best_new = name, score, new
            if best_name is None:
                break
            floor = self.min_new_fraction * max(len(union), 1)
            if union and best_new <= floor:
                break
            union |= remaining.pop(best_name)
            self.execution_order_.append(best_name)
            if not union:
                # First detector found nothing; drop it and continue.
                continue
        return union
