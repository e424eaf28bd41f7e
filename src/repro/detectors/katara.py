"""KATARA: knowledge-base-powered semantic pattern detection.

KATARA (Chu et al.) aligns table columns with knowledge-base concepts and
relations, then flags cells that violate the discovered semantic patterns.
The crowdsourced KB of the original is replaced by a synthetic
:class:`KnowledgeBase`: concept domains (valid value sets) plus binary
relations (valid value pairs across two concepts).  Column-to-concept
alignment is discovered automatically by domain overlap, mirroring KATARA's
table-pattern discovery step.

Alignment scoring and violation checking run on precomputed per-distinct
value indexes instead of per-row membership loops: each column is
normalized once per distinct payload, interned to integer ids, and
domain/relation membership is decided once per distinct value (or value
pair) then scattered back to rows.  ``tests/test_cleaning_kernels.py``
proves the results identical to the frozen scalars in
``tests/oracles/detectors.py``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.context import CleaningContext
from repro.dataset.columnar import intern_values, normalized_column
from repro.dataset.table import Cell, Table, is_missing
from repro.detectors.base import NON_LEARNING, Detector
from repro.errors import profile
from repro.kernels import kernel_stage


@dataclass
class KnowledgeBase:
    """A miniature KB: concept domains and binary relations.

    Attributes:
        domains: concept name -> set of valid surface forms.
        relations: (concept_a, concept_b) -> set of valid (a, b) pairs.
    """

    domains: Dict[str, Set[str]] = field(default_factory=dict)
    relations: Dict[Tuple[str, str], Set[Tuple[str, str]]] = field(
        default_factory=dict
    )

    @staticmethod
    def normalize(value: object) -> Optional[str]:
        if is_missing(value):
            return None
        return str(value).strip().lower()

    def add_domain(self, concept: str, values) -> None:
        normalized = {self.normalize(v) for v in values}
        self.domains[concept] = {v for v in normalized if v is not None}

    def add_relation(self, concept_a: str, concept_b: str, pairs) -> None:
        normalized = set()
        for a, b in pairs:
            na, nb = self.normalize(a), self.normalize(b)
            if na is not None and nb is not None:
                normalized.add((na, nb))
        self.relations[(concept_a, concept_b)] = normalized

    def align_column(
        self, table: Table, column: str, min_overlap: float = 0.5
    ) -> Optional[str]:
        """Best-matching concept for a column by domain-overlap score.

        Overlap is row-weighted (fraction of non-missing *cells* inside the
        concept's domain) so a long tail of dirty variants cannot mask an
        otherwise clear alignment.  Membership is resolved once per
        distinct value; the score divides the same integers the scalar
        per-cell scan divides, so alignments are identical.
        """
        normalized = normalized_column(
            table.column_view(column), self.normalize
        )
        counts = Counter(v for v in normalized if v is not None)
        total = sum(counts.values())
        if not total:
            return None
        best_concept, best_score = None, min_overlap
        for concept, domain in self.domains.items():
            if not domain:
                continue
            hits = sum(c for v, c in counts.items() if v in domain)
            score = hits / total
            if score > best_score:
                best_concept, best_score = concept, score
        return best_concept


def katara_violations(
    kb: KnowledgeBase, table: Table, alignment: Dict[str, str]
) -> Set[Cell]:
    """Domain and relation violations for aligned columns.

    Domain membership is decided once per distinct normalized value and
    relation membership once per distinct value *pair*, then scattered to
    rows through the interned id arrays.
    """
    cells: Set[Cell] = set()
    interned: Dict[str, Tuple[np.ndarray, List[Optional[str]]]] = {
        column: intern_values(
            normalized_column(table.column_view(column), kb.normalize)
        )
        for column in alignment
    }
    for column, concept in alignment.items():
        domain = kb.domains[concept]
        uids, distinct = interned[column]
        if not distinct:
            continue
        outside = np.fromiter(
            (v not in domain for v in distinct), bool, count=len(distinct)
        )
        flagged = (uids >= 0) & outside[np.maximum(uids, 0)]
        cells.update((i, column) for i in np.flatnonzero(flagged).tolist())
    columns = list(alignment)
    for col_a, col_b in itertools.permutations(columns, 2):
        key = (alignment[col_a], alignment[col_b])
        valid_pairs = kb.relations.get(key)
        if valid_pairs is None:
            continue
        ua, da = interned[col_a]
        ub, db = interned[col_b]
        present = (ua >= 0) & (ub >= 0)
        present_rows = np.flatnonzero(present)
        if not len(present_rows):
            continue
        base = max(len(db), 1)
        codes = ua[present] * base + ub[present]
        distinct_codes, inverse = np.unique(codes, return_inverse=True)
        invalid = np.fromiter(
            (
                (da[code // base], db[code % base]) not in valid_pairs
                for code in distinct_codes.tolist()
            ),
            bool,
            count=len(distinct_codes),
        )
        for i in present_rows[invalid[inverse.ravel()]].tolist():
            cells.add((i, col_a))
            cells.add((i, col_b))
    return cells


class KataraDetector(Detector):
    """KATARA detection (Table 1 row 'K').

    Flags: (1) cells whose value is outside the aligned concept's domain,
    and (2) cell pairs that contradict a KB relation between two aligned
    columns (both participating cells are flagged, as KATARA cannot tell
    which side is wrong without the crowd).
    """

    name = "KATARA"
    category = NON_LEARNING
    tackles = frozenset(
        {profile.PATTERN_VIOLATION, profile.RULE_VIOLATION, profile.TYPO,
         profile.INCONSISTENCY}
    )

    def __init__(self, min_overlap: float = 0.5) -> None:
        if not 0.0 < min_overlap < 1.0:
            raise ValueError("min_overlap must be in (0, 1)")
        self.min_overlap = min_overlap

    def _detect(self, context: CleaningContext) -> Set[Cell]:
        kb = context.knowledge_base
        if not isinstance(kb, KnowledgeBase):
            return set()
        table = context.dirty
        with kernel_stage("katara"):
            alignment: Dict[str, str] = {}
            for column in table.column_names:
                concept = kb.align_column(table, column, self.min_overlap)
                if concept is not None:
                    alignment[column] = concept
            return katara_violations(kb, table, alignment)
