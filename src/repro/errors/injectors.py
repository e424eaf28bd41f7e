"""Error injectors: the BigDaMa error-generator analogue plus duplicates,
mislabels, and inconsistencies.

Every injector implements ``inject(table, rate, rng)`` returning an
:class:`~repro.errors.profile.InjectionResult`.  ``rate`` is the fraction of
*eligible* cells to corrupt (eligible = the injector's target columns), except
for row-level injectors (duplicates, mislabels) where it is a fraction of
rows.  Injectors never corrupt a cell twice and record exactly which cells
they touched, giving the benchmark a precise ground-truth error mask.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.dataset.table import Cell, Table, coerce_float, is_missing
from repro.errors import profile
from repro.errors.profile import InjectionResult

#: QWERTY adjacency used for realistic keyboard typos.
_KEYBOARD_NEIGHBORS: Dict[str, str] = {
    "q": "wa", "w": "qes", "e": "wrd", "r": "etf", "t": "ryg", "y": "tuh",
    "u": "yij", "i": "uok", "o": "ipl", "p": "ol",
    "a": "qsz", "s": "awdx", "d": "sefc", "f": "drgv", "g": "fthb",
    "h": "gyjn", "j": "hukm", "k": "jil", "l": "kop",
    "z": "asx", "x": "zsdc", "c": "xdfv", "v": "cfgb", "b": "vghn",
    "n": "bhjm", "m": "njk",
    "1": "2q", "2": "13qw", "3": "24we", "4": "35er", "5": "46rt",
    "6": "57ty", "7": "68yu", "8": "79ui", "9": "80io", "0": "9op",
}

#: Disguised missing-value sentinels (FAHES's quarry).  None of these are
#: recognised by :func:`repro.dataset.table.is_missing`.
_IMPLICIT_TOKENS_TEXT = ("unknown", "UNK", "none given", "xxx")
_IMPLICIT_TOKENS_NUMERIC = (99999.0, -1.0, 9999.0, -999.0)


class ErrorInjector:
    """Base injector: target-column resolution and cell sampling."""

    #: error-type label recorded in the injection result.
    error_type: str = "generic"

    def __init__(self, columns: Optional[Sequence[str]] = None) -> None:
        self.columns = list(columns) if columns is not None else None

    def eligible_columns(self, table: Table) -> List[str]:
        """Columns this injector may corrupt (override per error type)."""
        if self.columns is not None:
            return [c for c in self.columns if c in table.schema]
        return table.column_names

    def _sample_cells(
        self,
        table: Table,
        rate: float,
        rng: np.random.Generator,
        skip_missing: bool = True,
    ) -> List[Cell]:
        """Sample distinct non-missing cells at the requested rate."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        columns = self.eligible_columns(table)
        # The pool runs column by column, rows ascending: the draw below
        # indexes into it, so this order fixes which cells are picked.
        rows = [
            np.flatnonzero(~table.missing_mask(name))
            if skip_missing
            else np.arange(table.n_rows)
            for name in columns
        ]
        sizes = [len(r) for r in rows]
        count = int(round(rate * table.n_rows * len(columns)))
        count = min(count, sum(sizes))
        if count == 0:
            return []
        chosen = rng.choice(sum(sizes), size=count, replace=False)
        owners = np.repeat(np.arange(len(columns)), sizes)[chosen]
        return list(
            zip(
                np.concatenate(rows)[chosen].tolist(),
                [columns[k] for k in owners.tolist()],
            )
        )

    def inject(
        self, table: Table, rate: float, rng: np.random.Generator
    ) -> InjectionResult:
        raise NotImplementedError


class MissingValueInjector(ErrorInjector):
    """Explicit missing values: cells are blanked to None."""

    error_type = profile.MISSING

    def inject(self, table, rate, rng):
        dirty = table.copy()
        cells = self._sample_cells(table, rate, rng)
        for row, col in cells:
            dirty.set_cell(row, col, None)
        return InjectionResult(dirty, {self.error_type: set(cells)})


class ImplicitMissingInjector(ErrorInjector):
    """Disguised missing values (e.g. ``99999`` for a number)."""

    error_type = profile.IMPLICIT_MISSING

    def inject(self, table, rate, rng):
        dirty = table.copy()
        cells = self._sample_cells(table, rate, rng)
        marked: Set[Cell] = set()
        for row, col in cells:
            if table.schema.kind_of(col) == "numerical":
                token = _IMPLICIT_TOKENS_NUMERIC[
                    int(rng.integers(len(_IMPLICIT_TOKENS_NUMERIC)))
                ]
            else:
                token = _IMPLICIT_TOKENS_TEXT[
                    int(rng.integers(len(_IMPLICIT_TOKENS_TEXT)))
                ]
            if not _equal_payload(table.get_cell(row, col), token):
                dirty.set_cell(row, col, token)
                marked.add((row, col))
        return InjectionResult(dirty, {self.error_type: marked})


class OutlierInjector(ErrorInjector):
    """Numeric outliers placed ``degree`` standard deviations from the mean.

    ``degree`` is the paper's "outlier degree" robustness knob (Figure 3c).
    """

    error_type = profile.OUTLIER

    def __init__(self, columns=None, degree: float = 4.0) -> None:
        super().__init__(columns)
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.degree = degree

    def eligible_columns(self, table):
        base = super().eligible_columns(table)
        return [c for c in base if table.schema.kind_of(c) == "numerical"]

    def inject(self, table, rate, rng):
        dirty = table.copy()
        cells = self._sample_cells(table, rate, rng)
        stats: Dict[str, Tuple[float, float]] = {}
        marked: Set[Cell] = set()
        for row, col in cells:
            if col not in stats:
                values = table.as_float(col)
                stats[col] = (
                    float(np.nanmean(values)),
                    float(np.nanstd(values)) or 1.0,
                )
            mean, std = stats[col]
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            jitter = rng.uniform(0.0, 0.5)
            outlier = mean + sign * (self.degree + jitter) * std
            if not _equal_payload(table.get_cell(row, col), outlier):
                dirty.set_cell(row, col, outlier)
                marked.add((row, col))
        return InjectionResult(dirty, {self.error_type: marked})


class GaussianNoiseInjector(ErrorInjector):
    """Additive Gaussian noise on numeric cells (error-generator style)."""

    error_type = profile.GAUSSIAN_NOISE

    def __init__(self, columns=None, scale: float = 0.5) -> None:
        super().__init__(columns)
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale

    def eligible_columns(self, table):
        base = super().eligible_columns(table)
        return [c for c in base if table.schema.kind_of(c) == "numerical"]

    def inject(self, table, rate, rng):
        dirty = table.copy()
        cells = self._sample_cells(table, rate, rng)
        stds: Dict[str, float] = {}
        marked: Set[Cell] = set()
        for row, col in cells:
            if col not in stds:
                stds[col] = float(np.nanstd(table.as_float(col))) or 1.0
            value = coerce_float(table.get_cell(row, col))
            if np.isnan(value):
                continue
            noise = rng.normal(0.0, self.scale * stds[col])
            if noise == 0.0:
                noise = self.scale * stds[col]
            dirty.set_cell(row, col, value + noise)
            marked.add((row, col))
        return InjectionResult(dirty, {self.error_type: marked})


class TypoInjector(ErrorInjector):
    """Keyboard typos: substitute/insert/delete a character.

    Applied to numeric cells, a typo turns the payload into text -- the
    "numerical attributes converted to categorical" effect Section 6.2
    describes.
    """

    error_type = profile.TYPO

    def inject(self, table, rate, rng):
        dirty = table.copy()
        cells = self._sample_cells(table, rate, rng)
        marked: Set[Cell] = set()
        for row, col in cells:
            original = str(table.get_cell(row, col)).strip()
            if not original:
                continue
            corrupted = _keyboard_typo(original, rng)
            # Payload equality, not string equality: a digit edit deep in a
            # float's repr can be numerically indistinguishable.
            if not _equal_payload(corrupted, table.get_cell(row, col)):
                dirty.set_cell(row, col, corrupted)
                marked.add((row, col))
        return InjectionResult(dirty, {self.error_type: marked})


class SwapInjector(ErrorInjector):
    """Value swapping: exchanges the values of two rows in one column."""

    error_type = profile.SWAP

    def inject(self, table, rate, rng):
        dirty = table.copy()
        columns = self.eligible_columns(table)
        n_swaps = int(round(rate * table.n_rows * len(columns) / 2.0))
        marked: Set[Cell] = set()
        for _ in range(n_swaps):
            col = columns[int(rng.integers(len(columns)))]
            row_a, row_b = rng.choice(table.n_rows, size=2, replace=False)
            value_a = dirty.get_cell(int(row_a), col)
            value_b = dirty.get_cell(int(row_b), col)
            if _equal_payload(value_a, value_b):
                continue
            dirty.set_cell(int(row_a), col, value_b)
            dirty.set_cell(int(row_b), col, value_a)
            marked.add((int(row_a), col))
            marked.add((int(row_b), col))
        # A cell swapped twice can land back on its original value;
        # reconcile so the mask equals the true diff.
        return InjectionResult(
            dirty, {self.error_type: marked}
        ).reconciled_with(table)


class InconsistencyInjector(ErrorInjector):
    """Formatting inconsistencies in categorical values (OpenRefine's prey).

    Replaces a value with a case/abbreviation/punctuation variant that still
    denotes the same entity.
    """

    error_type = profile.INCONSISTENCY

    def eligible_columns(self, table):
        base = super().eligible_columns(table)
        return [c for c in base if table.schema.kind_of(c) == "categorical"]

    def inject(self, table, rate, rng):
        dirty = table.copy()
        cells = self._sample_cells(table, rate, rng)
        marked: Set[Cell] = set()
        for row, col in cells:
            original = str(table.get_cell(row, col)).strip()
            variant = _format_variant(original, rng)
            if variant != original:
                dirty.set_cell(row, col, variant)
                marked.add((row, col))
        return InjectionResult(dirty, {self.error_type: marked})


class DuplicateInjector(ErrorInjector):
    """Duplicates: victim rows are overwritten with near-copies of others.

    Overwriting (rather than appending) keeps the dirty and ground-truth
    versions the same length, so cell-level masks stay aligned -- the
    paper notes that length changes break several detectors.  ``fuzziness``
    is the probability of perturbing one cell of the copy, producing fuzzy
    rather than exact duplicates.  ``fuzz_columns`` restricts which columns
    the perturbation may touch (e.g. keep class labels intact so duplicate
    noise does not masquerade as label typos).
    """

    error_type = profile.DUPLICATE

    def __init__(
        self, columns=None, fuzziness: float = 0.3, fuzz_columns=None
    ) -> None:
        super().__init__(columns)
        if not 0.0 <= fuzziness <= 1.0:
            raise ValueError("fuzziness must be in [0, 1]")
        self.fuzziness = fuzziness
        self.fuzz_columns = list(fuzz_columns) if fuzz_columns is not None else None

    def inject(self, table, rate, rng):
        dirty = table.copy()
        n_rows = table.n_rows
        n_victims = min(int(round(rate * n_rows)), max(n_rows - 1, 0))
        marked: Set[Cell] = set()
        if n_victims == 0:
            return InjectionResult(dirty, {self.error_type: marked})
        # Victims are drawn from the later rows and copy earlier sources, so
        # the duplicate is always the *later* record of its group -- the
        # convention duplicate detectors use when keeping the first record.
        candidates = np.arange(1, n_rows)
        victims = rng.choice(
            candidates, size=min(n_victims, len(candidates)), replace=False
        )
        victim_set = set(int(v) for v in victims)
        sources = [i for i in range(n_rows) if i not in victim_set]
        if not sources:
            return InjectionResult(dirty, {self.error_type: marked})
        fuzzable = (
            set(self.fuzz_columns)
            if self.fuzz_columns is not None
            else set(table.column_names)
        )
        for victim in victim_set:
            earlier = [s for s in sources if s < victim]
            pool = earlier if earlier else sources
            source = pool[int(rng.integers(len(pool)))]
            for col in table.column_names:
                source_value = table.get_cell(source, col)
                if col in fuzzable and rng.uniform() < self.fuzziness:
                    source_value = _fuzz_value(
                        source_value, table.schema.kind_of(col), rng
                    )
                if not _equal_payload(dirty.get_cell(victim, col), source_value):
                    dirty.set_cell(victim, col, source_value)
                    marked.add((victim, col))
        return InjectionResult(dirty, {self.error_type: marked})


class MislabelInjector(ErrorInjector):
    """Class errors: flips the label of a fraction of rows."""

    error_type = profile.MISLABEL

    def __init__(self, label_column: str) -> None:
        super().__init__([label_column])
        self.label_column = label_column

    def inject(self, table, rate, rng):
        dirty = table.copy()
        if self.label_column not in table.schema:
            raise KeyError(f"no label column {self.label_column!r}")
        values = table.column(self.label_column)
        classes = sorted(
            {str(v).strip() for v in values if not is_missing(v)}
        )
        marked: Set[Cell] = set()
        if len(classes) < 2:
            return InjectionResult(dirty, {self.error_type: marked})
        n_flips = int(round(rate * table.n_rows))
        candidates = np.flatnonzero(~table.missing_mask(self.label_column)).tolist()
        n_flips = min(n_flips, len(candidates))
        if n_flips == 0:
            return InjectionResult(dirty, {self.error_type: marked})
        flips = rng.choice(len(candidates), size=n_flips, replace=False)
        for pick in flips:
            row = candidates[pick]
            current = str(values[row]).strip()
            others = [c for c in classes if c != current]
            dirty.set_cell(row, self.label_column, others[int(rng.integers(len(others)))])
            marked.add((row, self.label_column))
        return InjectionResult(dirty, {self.error_type: marked})


class CompositeInjector(ErrorInjector):
    """Applies several injectors in sequence, merging their masks.

    Each sub-injector receives its own share of the overall rate; cells
    already corrupted by an earlier injector are left alone (the sampling
    skips cells whose value already differs from the running table).
    """

    error_type = "composite"

    def __init__(self, injectors: Sequence[ErrorInjector]) -> None:
        super().__init__(None)
        if not injectors:
            raise ValueError("composite needs at least one injector")
        self.injectors = list(injectors)

    def inject(self, table, rate, rng):
        share = rate / len(self.injectors)
        result = InjectionResult(table.copy(), {})
        for injector in self.injectors:
            step = injector.inject(result.dirty, share, rng)
            # Drop cells that an earlier injector already owns.
            owned = result.error_cells
            step.cells_by_type = {
                t: {c for c in cells if c not in owned}
                for t, cells in step.cells_by_type.items()
            }
            result = result.merge(step)
        # A later injector may have restored an earlier corruption to its
        # original value; reconcile so the mask equals the true diff.
        return result.reconciled_with(table)


# ----------------------------------------------------------------------
# Value-corruption helpers
# ----------------------------------------------------------------------
def _equal_payload(a, b) -> bool:
    from repro.dataset.table import values_equal

    return values_equal(a, b)


def _keyboard_typo(text: str, rng: np.random.Generator) -> str:
    """Apply one keyboard-realistic edit to *text*."""
    position = int(rng.integers(len(text)))
    char = text[position].lower()
    action = rng.uniform()
    neighbors = _KEYBOARD_NEIGHBORS.get(char)
    if neighbors and action < 0.5:
        # Substitution with an adjacent key.
        replacement = neighbors[int(rng.integers(len(neighbors)))]
        return text[:position] + replacement + text[position + 1 :]
    if neighbors and action < 0.8:
        # Fat-finger insertion.
        extra = neighbors[int(rng.integers(len(neighbors)))]
        return text[:position] + extra + text[position:]
    if len(text) > 1:
        # Deletion.
        return text[:position] + text[position + 1 :]
    return text + text  # single-char fallback: double it


def _format_variant(text: str, rng: np.random.Generator) -> str:
    """Produce a formatting-inconsistent variant of a categorical value."""
    choices = []
    if text.upper() != text:
        choices.append(text.upper())
    if text.capitalize() != text:
        choices.append(text.capitalize())
    if " " in text:
        choices.append(text.replace(" ", "_"))
        choices.append(text.replace(" ", ""))
    if len(text) > 4:
        choices.append(text[:3] + ".")
    choices.append(text + " Inc")
    return choices[int(rng.integers(len(choices)))]


def _fuzz_value(value, kind: str, rng: np.random.Generator):
    """Slightly perturb a copied value to make a fuzzy duplicate."""
    if is_missing(value):
        return value
    if kind == "numerical":
        numeric = coerce_float(value)
        if not np.isnan(numeric):
            return numeric * (1.0 + rng.normal(0.0, 0.01))
        return value
    return _keyboard_typo(str(value), rng)
