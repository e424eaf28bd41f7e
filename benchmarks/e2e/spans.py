"""Benchmark-side layer spans for the traced run.

The program records spans for suite stages, units, attempts, cleaning
kernels and the data plane.  The other layers the end-to-end benchmark
attributes time to -- data generation, error injection, encoding, model
fit/predict, tuning, the artifact cache, checkpoint commits and process
pool start-up -- have no spans of their own, so the traced run wraps their
public entry points here, from the outside.  Every wrapper records into
whatever telemetry :func:`repro.observability.telemetry.current_telemetry`
returns *in the calling process*: the child's telemetry in the driver,
the per-worker telemetry the parallel engine installs in pool workers,
and the ledger-backed telemetry of a service worker during a job.  The
wrappers are installed before any fork, so pool and service workers
inherit them.  With no telemetry installed a wrapper is a plain call.

Span names are ``<layer>:<operation>`` and the span category is the
layer, so :mod:`rollup` can group self time by layer.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from multiprocessing import pool as mp_pool
from typing import Any, Callable, Dict, List, Optional, Tuple


def _all_subclasses(cls: type) -> List[type]:
    found: List[type] = []
    stack = [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return found


def _defining_class(cls: type, name: str) -> Optional[type]:
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    return None


class LayerSpans:
    """Installs the benchmark-side layer wrappers (for the process's life).

    A call that re-enters the same layer on the same object -- a
    ``super().fit`` chain, ``fit_transform`` calling ``fit`` -- is folded
    into the outer span, so call counts count user-visible calls.  Calls
    on different objects nest normally (a forest fit and its tree fits
    are separate spans; self time keeps them from double counting).
    """

    def __init__(self) -> None:
        self._open: List[Tuple[Optional[int], str]] = []

    def _wrap(
        self,
        func: Callable[..., Any],
        layer: str,
        operation: str,
        method: bool,
        attrs: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> Callable[..., Any]:
        from repro.observability.telemetry import current_telemetry

        open_calls = self._open

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            telemetry = current_telemetry()
            if telemetry is None:
                return func(*args, **kwargs)
            key = (id(args[0]) if method and args else None, layer)
            if method and open_calls and open_calls[-1] == key:
                return func(*args, **kwargs)
            extra = attrs(*args, **kwargs) if attrs is not None else {}
            with telemetry.span(f"{layer}:{operation}", layer, **extra):
                open_calls.append(key)
                try:
                    return func(*args, **kwargs)
                finally:
                    open_calls.pop()

        return wrapper

    def _patch_method(
        self,
        cls: type,
        name: str,
        layer: str,
        operation: str,
        attrs: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            wrapped = self._wrap(raw.__func__, layer, operation, False, attrs)
            setattr(cls, name, classmethod(wrapped))
        else:
            setattr(cls, name, self._wrap(raw, layer, operation, True, attrs))

    def _patch_hierarchy(
        self, base: type, names: Dict[str, str], layer: str
    ) -> None:
        """Wrap each method where it is defined, for base and subclasses."""
        done = set()
        for cls in [base] + _all_subclasses(base):
            for name, operation in names.items():
                owner = _defining_class(cls, name)
                if owner is None or owner is object or (owner, name) in done:
                    continue
                done.add((owner, name))
                self._patch_method(owner, name, layer, operation)

    def _patch_function(
        self,
        original: Callable[..., Any],
        layer: str,
        operation: str,
        attrs: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> None:
        """Rebind every ``repro`` module global that names ``original``."""
        wrapped = self._wrap(original, layer, operation, False, attrs)
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapped)

    def install(self) -> None:
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)

        from repro.cache.store import ArtifactCache
        from repro.datagen.generators import generate
        from repro.dataset.encoding import TableEncoder
        from repro.errors.bart import BartEngine
        from repro.errors.injectors import ErrorInjector
        from repro.ml.base import BaseEstimator
        from repro.resilience.checkpoint import SuiteCheckpoint
        from repro.tuning.search import tune_estimator

        self._patch_function(generate, "datagen", "generate")
        self._patch_function(
            tune_estimator, "tuning", "tune",
            attrs=lambda *a, **k: {"n_trials": k.get("n_trials", 10)},
        )
        self._patch_hierarchy(ErrorInjector, {"inject": "inject"}, "errors")
        self._patch_method(BartEngine, "inject", "errors", "inject")
        for name in ("fit", "transform", "fit_transform"):
            self._patch_method(TableEncoder, name, "dataset", "encode")
        self._patch_hierarchy(
            BaseEstimator,
            {"fit": "fit", "fit_predict": "fit", "predict": "predict"},
            "ml",
        )
        self._patch_method(ArtifactCache, "get", "cache", "get")
        self._patch_method(ArtifactCache, "put", "cache", "put")
        for name in ("open", "get", "put", "flush"):
            self._patch_method(SuiteCheckpoint, name, "resilience", "checkpoint")
        self._patch_method(mp_pool.Pool, "__init__", "parallel", "pool_start")
        self._patch_method(mp_pool.Pool, "terminate", "parallel", "pool_stop")
