"""Frozen scalar oracles and the table that swaps them in.

Production code carries one vectorized implementation per cleaning
kernel.  The scalar originals they replaced live here as test code:
``oracles.ml``, ``oracles.detectors``, ``oracles.constraints``,
``oracles.repair``, ``oracles.metrics`` and ``oracles.table``.  The property suites call them directly; whole-run
comparisons (checkpoint stores, the cleaning-kernel benchmarks) route
the public API through them with :func:`reference_kernels`, which
patches every row of :data:`KERNELS` for the duration of a block.

Patches live in the calling process: forked workers inherit them and
spawned workers do not, so oracle runs are serial by contract.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Iterator, Tuple
from unittest import mock

from oracles.constraints import (
    reference_binary_violations,
    reference_fd_majority_repairs,
    reference_fd_violations,
    reference_unary_violations,
    reference_violating_row_pairs,
)
from oracles.detectors import (
    reference_build_blocks,
    reference_column_features,
    reference_dboost_detect_columns,
    reference_digit_fraction,
    reference_enumerate_block_pairs,
    reference_histogram_outliers,
    reference_iqr_detect,
    reference_katara_align_column,
    reference_katara_violations,
    reference_meta_detect,
    reference_mixture_outliers,
    reference_mv_detect,
    reference_pair_feature_matrix,
    reference_sd_detect,
    reference_shape_of,
)
from oracles.repair import reference_baran_repair, reference_holoclean_repair
from oracles.table import reference_diff_cells
from repro.cache.store import current_cache
from repro.constraints.dc import DenialConstraint
from repro.constraints.fd import FunctionalDependency
from repro.dataset.table import Table
from repro.detectors import dboost, duplicates, features, katara
from repro.detectors.dboost import DBoostDetector
from repro.detectors.ml_detectors import MetadataDrivenDetector
from repro.detectors.simple import IQRDetector, MVDetector, SDDetector
from repro.repair.baran import BaranRepair
from repro.repair.holistic import HoloCleanRepair

#: ``(owner, attribute, reference)``: one row per live kernel entry
#: point.  Each reference takes the live signature (methods receive the
#: instance as their first argument).
KERNELS: Tuple[Tuple[Any, str, Callable[..., Any]], ...] = (
    (dboost, "_histogram_outliers", reference_histogram_outliers),
    (dboost, "_mixture_outliers", reference_mixture_outliers),
    (DBoostDetector, "_detect_columns", reference_dboost_detect_columns),
    (MVDetector, "_detect", reference_mv_detect),
    (SDDetector, "_detect", reference_sd_detect),
    (IQRDetector, "_detect", reference_iqr_detect),
    (features, "_shape_of", reference_shape_of),
    (features, "_digit_fraction", reference_digit_fraction),
    (features, "_column_features", reference_column_features),
    (MetadataDrivenDetector, "_detect", reference_meta_detect),
    (duplicates, "build_blocks", reference_build_blocks),
    (duplicates, "_enumerate_block_pairs", reference_enumerate_block_pairs),
    (duplicates, "pair_feature_matrix", reference_pair_feature_matrix),
    (katara.KnowledgeBase, "align_column", reference_katara_align_column),
    (katara, "katara_violations", reference_katara_violations),
    (FunctionalDependency, "violations", reference_fd_violations),
    (FunctionalDependency, "majority_repairs", reference_fd_majority_repairs),
    (DenialConstraint, "_unary_violations", reference_unary_violations),
    (DenialConstraint, "_binary_violations", reference_binary_violations),
    (DenialConstraint, "violating_row_pairs", reference_violating_row_pairs),
    (BaranRepair, "_repair", reference_baran_repair),
    (HoloCleanRepair, "_repair", reference_holoclean_repair),
    (Table, "diff_cells", reference_diff_cells),
)


@contextmanager
def reference_kernels() -> Iterator[None]:
    """Route every :data:`KERNELS` entry point to its frozen oracle.

    Refuses to start under an installed artifact cache: cached kernels
    (FD and DC violations, ZeroER blocking) are looked up *above* the
    patched entry points, so a warm cache would serve vectorized
    results to an oracle run.
    """
    if current_cache() is not None:
        raise RuntimeError(
            "reference_kernels() needs an uncached run; "
            "leave the artifact cache scope first"
        )
    with ExitStack() as stack:
        for owner, attribute, reference in KERNELS:
            stack.enter_context(mock.patch.object(owner, attribute, reference))
        yield
