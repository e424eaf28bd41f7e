"""Rule-based detectors: NADEEF and HoloClean's detection stage.

NADEEF treats quality rules holistically: denial constraints, FD rules, and
user-defined patterns all funnel through one violation interface.
HoloClean's detection stage combines the same qualitative signals (denial
constraints) with quantitative ones (co-occurrence statistics) and explicit
missing values.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Set, Tuple

import numpy as np

from repro.context import CleaningContext
from repro.dataset.table import Cell
from repro.detectors.base import NON_LEARNING, Detector
from repro.errors import profile


class NadeefDetector(Detector):
    """NADEEF: holistic rule + pattern violation detection (row 'N').

    Requires FD rules and/or denial constraints and/or patterns in the
    context; with no signals it detects nothing (as the real tool would).
    """

    name = "NADEEF"
    category = NON_LEARNING
    tackles = frozenset(
        {profile.RULE_VIOLATION, profile.PATTERN_VIOLATION, profile.TYPO,
         profile.IMPLICIT_MISSING, profile.INCONSISTENCY}
    )

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        cells: Set[Cell] = set()
        for fd in context.fds:
            cells |= fd.violations(context.dirty)
        for constraint in context.constraints:
            cells |= constraint.violations(context.dirty)
        for pattern in context.patterns:
            if pattern.column in context.dirty.schema:
                cells |= pattern.violations(context.dirty)
        return cells


class HoloCleanDetector(Detector):
    """HoloClean's detection stage (row 'H').

    Signals: denial constraints (qualitative) + explicit missing values +
    low-probability co-occurrences (quantitative).  The co-occurrence
    module flags categorical cells whose value is never (or almost never)
    seen together with the row's other attribute values elsewhere in the
    dataset -- the statistical counterpart HoloClean adds on top of DCs.
    """

    name = "HoloClean"
    category = NON_LEARNING
    tackles = frozenset(
        {profile.RULE_VIOLATION, profile.MISSING, profile.INCONSISTENCY}
    )

    def __init__(self, cooccurrence_threshold: float = 0.005) -> None:
        if not 0.0 <= cooccurrence_threshold < 1.0:
            raise ValueError("cooccurrence_threshold must be in [0, 1)")
        self.cooccurrence_threshold = cooccurrence_threshold

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        table = context.dirty
        cells: Set[Cell] = set(table.missing_cells())
        for constraint in context.all_constraints():
            cells |= constraint.violations(table)
        cells |= self._cooccurrence_violations(context)
        return cells

    def _cooccurrence_violations(self, context: CleaningContext) -> Set[Cell]:
        table = context.dirty
        categorical = table.schema.categorical_names
        if len(categorical) < 2:
            return set()
        # Pairwise conditional frequencies P(value_b | value_a).
        pair_counts: Dict[Tuple[str, str], Counter] = defaultdict(Counter)
        value_counts: Dict[str, Counter] = {c: Counter() for c in categorical}
        normalized = {c: table.text_keys(c) for c in categorical}
        for i in range(table.n_rows):
            for col_a in categorical:
                value_a = normalized[col_a][i]
                if value_a is None:
                    continue
                value_counts[col_a][value_a] += 1
                for col_b in categorical:
                    if col_b == col_a:
                        continue
                    value_b = normalized[col_b][i]
                    if value_b is not None:
                        pair_counts[(col_a, col_b)][(value_a, value_b)] += 1
        cells: Set[Cell] = set()
        for i in range(table.n_rows):
            for col_b in categorical:
                value_b = normalized[col_b][i]
                if value_b is None:
                    continue
                surprise_votes = 0
                contexts = 0
                for col_a in categorical:
                    if col_a == col_b:
                        continue
                    value_a = normalized[col_a][i]
                    if value_a is None:
                        continue
                    support = value_counts[col_a][value_a]
                    if support < 5:
                        continue
                    contexts += 1
                    joint = pair_counts[(col_a, col_b)][(value_a, value_b)]
                    if joint / support <= self.cooccurrence_threshold:
                        surprise_votes += 1
                if contexts and surprise_votes == contexts:
                    cells.add((i, col_b))
        return cells
