"""The warm candidate-set store behind the decision server.

One :class:`CandidateStore` holds, per ``(query, scenario)``, the
usage matrix and plan signatures the decide kernel sweeps
— built exactly the way offline ``repro explain`` builds them
(``cached_candidate_plans`` with the same delta, cell cap and scenario
key), so an online decision and an offline explain of the same probe
see the same candidate set byte for byte.

The store is **shared, not private**: entry construction reads through
the same content-addressed ``.repro-cache`` the CLI uses (honouring
``$REPRO_CACHE_DIR`` / ``--cache-dir`` / ``--no-cache``), and cache
writes are atomic — so N pre-forked worker processes, the load
generator's offline verifier and any concurrent CLI run all serve one
cache.  The first process to compute a candidate set warms it for
everyone.

Catalog hot-reload: with ``catalog_path`` set, :meth:`maybe_reload`
re-digests the pickled catalog file and, when the digest changed,
swaps the catalog in and drops every warm entry (they were computed
against the old statistics).  The server polls this on a timer; the
``/healthz`` payload reports the active digest.
"""

from __future__ import annotations

import logging
import pickle
from pathlib import Path
from typing import Any

import numpy as np

from ..experiments.engine import RunContext, UnknownQueryError
from ..experiments.scenarios import (
    UnknownScenarioError,
    resolve_scenario_key,
    scenario,
)
from ..obs.manifest import catalog_digest
from ..obs.metrics import METRICS
from ..optimizer.plancache import (
    PICKLE_LOAD_ERRORS,
    PlanCache,
    cached_candidate_plans,
)
from .protocol import RequestError

__all__ = ["CandidateStore", "StoreEntry"]

logger = logging.getLogger(__name__)

#: The candidate-set DP cell cap offline ``repro explain`` uses for
#: named TPC-H queries; the store must match it for digest parity.
CELL_CAP = 64


class StoreEntry:
    """One warm ``(query, scenario)`` candidate set, sweep-ready."""

    __slots__ = (
        "query",
        "scenario",
        "matrix",
        "signatures",
        "names",
        "center",
        "truncated",
    )

    def __init__(
        self, query: str, scenario_key: str, candidates: Any, layout: Any
    ) -> None:
        self.query = query
        self.scenario = scenario_key
        self.matrix = np.asarray(candidates.usage_matrix, dtype=float)
        self.signatures = candidates.signatures
        center = layout.center_costs()
        self.names = tuple(center.space.names)
        self.center = tuple(float(v) for v in center.values)
        self.truncated = bool(candidates.truncated)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    @property
    def plans(self) -> int:
        return self.matrix.shape[0]


class CandidateStore:
    """Warm store + catalog lifecycle for the decision server."""

    def __init__(
        self,
        scale: float = 100.0,
        delta: float = 100.0,
        cache: "PlanCache | None" = None,
        catalog_path: "str | Path | None" = None,
    ) -> None:
        self.scale = float(scale)
        self.delta = float(delta)
        self.cache = cache
        self.catalog_path = (
            Path(catalog_path) if catalog_path is not None else None
        )
        self._entries: dict[tuple, StoreEntry] = {}
        self._ctx = self._build_context()

    # ------------------------------------------------------------------
    # Catalog lifecycle
    # ------------------------------------------------------------------
    def _load_catalog_file(self) -> Any:
        if self.catalog_path is None:
            return None
        try:
            with open(self.catalog_path, "rb") as handle:
                return pickle.load(handle)
        except PICKLE_LOAD_ERRORS as exc:
            raise RequestError(
                f"cannot load catalog {self.catalog_path}: "
                f"{type(exc).__name__}: {exc}"
            )

    def _build_context(self) -> RunContext:
        catalog = self._load_catalog_file()
        ctx = RunContext(
            scale=self.scale, catalog=catalog, cache=self.cache
        )
        ctx.catalog  # materialize now so catalog_sha is ready
        return ctx

    @property
    def catalog_sha(self) -> str:
        return self._ctx.catalog_sha

    def maybe_reload(self) -> bool:
        """Re-digest the catalog file; swap + invalidate on change.

        Returns True when a reload happened.  Without a catalog file
        the store is static and this is a no-op.  An unreadable file
        (mid-replace, deleted) keeps the current catalog — the server
        must never die because a reload raced a writer.
        """
        if self.catalog_path is None:
            return False
        try:
            fresh = self._load_catalog_file()
        except RequestError as exc:
            logger.warning("catalog reload skipped: %s", exc)
            return False
        digest = catalog_digest(fresh)
        if digest == self._ctx.catalog_sha:
            return False
        logger.info(
            "catalog digest changed %s -> %s; dropping %d warm "
            "entr(ies)",
            (self._ctx.catalog_sha or "?")[:12],
            digest[:12],
            len(self._entries),
        )
        self._ctx = RunContext(
            scale=self.scale, catalog=fresh, cache=self.cache
        )
        self._ctx.catalog
        self._entries.clear()
        METRICS.counter("serve.catalog_reloads").inc()
        return True

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------
    def entry(self, query: str, scenario_key: str) -> StoreEntry:
        """The warm entry for ``(query, scenario)``, built on miss.

        Unknown queries/scenarios surface as :class:`RequestError`
        with the valid choices listed — the server maps that straight
        to an HTTP 400 body.
        """
        try:
            key = (query, resolve_scenario_key(scenario_key))
        except UnknownScenarioError as exc:
            raise RequestError(str(exc))
        found = self._entries.get(key)
        if found is not None:
            return found
        try:
            selected = self._ctx.select([query])
        except UnknownQueryError as exc:
            raise RequestError(str(exc))
        (spec,) = selected.values()
        config = scenario(key[1])
        layout = config.layout_for(spec)
        region = config.region(layout, self.delta)
        candidates = cached_candidate_plans(
            spec,
            self._ctx.catalog,
            self._ctx.params,
            layout,
            region,
            cell_cap=CELL_CAP,
            cache=self.cache,
            scenario_key=key[1],
        )
        built = StoreEntry(query, key[1], candidates, layout)
        self._entries[key] = built
        METRICS.counter("serve.store_builds").inc()
        return built

    def query_spec(self, query: str):
        """The named :class:`QuerySpec` (RequestError when unknown)."""
        try:
            selected = self._ctx.select([query])
        except UnknownQueryError as exc:
            raise RequestError(str(exc))
        (spec,) = selected.values()
        return spec

    def warm(self, queries, scenario_key: str) -> int:
        """Pre-build entries for a query list; returns the count."""
        count = 0
        for query in queries:
            self.entry(query, scenario_key)
            count += 1
        return count

    def stats(self) -> dict[str, Any]:
        """The ``/healthz`` store block."""
        return {
            "entries": len(self._entries),
            "catalog_digest": self.catalog_sha,
            "cache_dir": (
                str(self.cache.root) if self.cache is not None else None
            ),
            "plans": {
                f"{query}/{key}": entry.plans
                for (query, key), entry in sorted(self._entries.items())
            },
        }
