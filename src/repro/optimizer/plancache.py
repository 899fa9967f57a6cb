"""Content-addressed on-disk cache for candidate plan sets.

Computing a candidate set runs the parametric DP plus LP filtering —
seconds per query — and the figure/diagram/validation pipelines
recompute identical sets on every invocation.  This module keys each
:class:`~repro.optimizer.parametric.CandidateSet` by a SHA-256 digest
of everything that determines it:

* the query name and the storage scenario key,
* the feasible region's error level ``delta``,
* every field of :class:`~repro.optimizer.config.SystemParameters`,
* the DP cell cap and the full catalog statistics (so changing the
  TPC-H scale factor, or any table/index statistic, changes the key),
* the package version and a cache format version (a code upgrade never
  resurrects results written by an older cost model).

Layout under the cache root: ``<root>/<first two hex chars>/<digest>.pkl``
(one pickle per candidate set, fanned out to keep directories small).
Writes are atomic (temp file + ``os.replace``), so concurrent figure
workers can share one cache directory; corrupt or unreadable entries
are treated as misses and recomputed.

The cache directory defaults to ``.repro-cache`` in the working
directory and can be redirected with the ``REPRO_CACHE_DIR``
environment variable or the CLI's ``--cache-dir``; ``--no-cache``
bypasses it entirely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pickle
from pathlib import Path

from ..catalog.statistics import Catalog
from ..core.feasible import FeasibleRegion
from ..obs.metrics import METRICS
from ..obs.trace import span
from ..storage.layout import StorageLayout
from .config import SystemParameters
from .parametric import CandidateSet, candidate_plans
from .query import QuerySpec

__all__ = [
    "PlanCache",
    "PICKLE_LOAD_ERRORS",
    "atomic_write_pickle",
    "default_cache_dir",
    "cached_candidate_plans",
]

logger = logging.getLogger(__name__)

#: Bump when the pickle payload or key material changes shape.
#: v2: ``CandidateSet`` no longer carries a plan-index field.
_FORMAT_VERSION = 2

#: Everything a pickle load can raise on a corrupt/alien/stale entry.
#: Shared with the run journal (:mod:`repro.experiments.journal`),
#: which persists checkpoints with the same machinery.
PICKLE_LOAD_ERRORS = (
    OSError, pickle.UnpicklingError, EOFError,
    AttributeError, ImportError, ValueError,
)


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache``."""
    return os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


def atomic_write_pickle(path: Path, payload: object) -> None:
    """Pickle ``payload`` to ``path`` via temp file + ``os.replace``.

    The write is atomic on POSIX, so concurrent workers sharing one
    directory never observe a partial entry; raises ``OSError`` on
    unwritable filesystems (callers decide whether that is fatal).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    with open(temp, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(temp, path)


class PlanCache:
    """A content-addressed store of pickled candidate plan sets."""

    def __init__(self, root: "str | Path | None" = None) -> None:
        self._root = Path(root) if root is not None else Path(
            default_cache_dir()
        )

    @property
    def root(self) -> Path:
        return self._root

    @classmethod
    def from_root(cls, root: "str | Path | None") -> "PlanCache | None":
        """Rehydrate a cache handle from a serialized root (or None).

        The experiment engine ships ``str(cache.root)`` to worker
        processes instead of the handle itself; this is the single
        inverse of that convention.
        """
        return None if root is None else cls(root)

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def key_for(
        self,
        query_name: str,
        scenario_key: str,
        delta: float,
        params: SystemParameters,
        cell_cap: "int | None",
        catalog: Catalog,
    ) -> str:
        """SHA-256 digest of everything that determines the result."""
        from .. import __version__

        material = json.dumps(
            {
                "format": _FORMAT_VERSION,
                "version": __version__,
                "query": query_name,
                "scenario": scenario_key,
                "delta": repr(float(delta)),
                "params": {
                    key: repr(value)
                    for key, value in dataclasses.asdict(params).items()
                },
                "cell_cap": cell_cap,
                "catalog": hashlib.sha256(
                    pickle.dumps(catalog)
                ).hexdigest(),
            },
            sort_keys=True,
        )
        return hashlib.sha256(material.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self._root / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(self, key: str) -> "CandidateSet | None":
        """The cached set for ``key``, or None on miss/corruption.

        Misses and corrupt entries are distinguishable in the metrics
        registry (``plancache.misses`` vs ``plancache.corrupt``), and
        corruption recovery is logged rather than silent: an entry that
        exists but cannot be loaded points at a real problem (partial
        write survived a crash, disk fault, version skew).
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            METRICS.counter("plancache.misses").inc()
            return None
        except PICKLE_LOAD_ERRORS as exc:
            METRICS.counter("plancache.misses").inc()
            METRICS.counter("plancache.corrupt").inc()
            logger.warning(
                "corrupt candidate-set cache entry %s (%s: %s); "
                "treating as a miss and recomputing",
                path, type(exc).__name__, exc,
            )
            return None
        if not isinstance(payload, CandidateSet):
            METRICS.counter("plancache.misses").inc()
            METRICS.counter("plancache.corrupt").inc()
            logger.warning(
                "cache entry %s holds %s, not a CandidateSet; "
                "treating as a miss and recomputing",
                path, type(payload).__name__,
            )
            return None
        METRICS.counter("plancache.hits").inc()
        return payload

    def store(self, key: str, candidates: CandidateSet) -> None:
        """Atomically persist one candidate set (best effort).

        A cache that cannot be written (read-only filesystem, quota)
        must never fail the experiment, so OS errors are logged and
        swallowed.
        """
        path = self._path(key)
        try:
            atomic_write_pickle(path, candidates)
        except OSError as exc:
            METRICS.counter("plancache.store_errors").inc()
            logger.warning(
                "could not write cache entry %s (%s: %s); result "
                "will be recomputed next run",
                path, type(exc).__name__, exc,
            )
            return
        METRICS.counter("plancache.stores").inc()


def cached_candidate_plans(
    query: QuerySpec,
    catalog: Catalog,
    params: SystemParameters,
    layout: StorageLayout,
    region: FeasibleRegion,
    cell_cap: "int | None" = 64,
    cache: "PlanCache | None" = None,
    scenario_key: str = "",
) -> CandidateSet:
    """:func:`candidate_plans` with an optional read-through disk cache.

    With ``cache=None`` this is exactly the uncached computation.  The
    scenario key stands in for the layout/variation-group structure in
    the cache key (both are derived deterministically from scenario +
    query + catalog).
    """
    if cache is None:
        return candidate_plans(
            query, catalog, params, layout, region, cell_cap=cell_cap
        )
    key = cache.key_for(
        query_name=query.name,
        scenario_key=scenario_key,
        delta=region.delta,
        params=params,
        cell_cap=cell_cap,
        catalog=catalog,
    )
    with span(
        "plancache.get", query=query.name, key=key[:16]
    ) as current:
        hit = cache.load(key)
        current.set(hit=hit is not None)
        if hit is not None:
            return hit
        result = candidate_plans(
            query, catalog, params, layout, region, cell_cap=cell_cap
        )
        cache.store(key, result)
        return result
