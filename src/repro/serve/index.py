"""Versioned in-memory catalogue index for one (model, dataset) pair.

Online retrieval never encodes items per request: the whole item
catalogue is encoded once into a dense ``(num_items+1, d)`` matrix and
held in memory, and every request is a gather + matmul against it. The
index is *versioned* — ``refresh()`` republishes the matrix and bumps
the version, and downstream caches (e.g. the micro-batcher's LRU) key
on the version so stale entries miss naturally after a model update.

An optional :class:`~repro.serve.ann.IVFIndex` can be attached; it is
refit inside every ``refresh()`` (incrementally, warm-starting k-means
from the previous centroids) and stamped with the version of the matrix
it was built from, so consumers can tell a current ANN structure from a
stale one.
"""

from __future__ import annotations

import threading

import numpy as np

from .ann import AnnSearch, IVFIndex

__all__ = ["CatalogIndex", "FrozenCatalogIndex"]


class CatalogIndex:
    """Precomputed, versioned item-representation matrix.

    ``dtype`` optionally down-casts the published matrix (float32 halves
    the memory footprint and speeds up the scoring matmuls; the paper's
    metrics are rank-based and insensitive to the cast). The matrix is
    built lazily on first use and marked read-only, so every consumer
    shares one buffer safely across threads.
    """

    def __init__(self, model, dataset, dtype=None, chunk_size: int = 256,
                 ann: IVFIndex | None = None, start_version: int = 0):
        if not hasattr(model, "encode_catalog"):
            raise TypeError(
                f"{type(model).__name__} does not expose encode_catalog, "
                "which indexed serving requires")
        self.model = model
        self.dataset = dataset
        self.dtype = np.dtype(dtype) if dtype is not None else None
        self.chunk_size = chunk_size
        self._matrix: np.ndarray | None = None
        self._ann = ann
        # start_version lets a hot-swapped scenario's fresh index continue
        # the retired index's version sequence, keeping the version a
        # client sees monotonic across model generations.
        self._version = start_version
        self._stale = True
        self._stale_epoch = 0
        # _lock guards the published state and is only ever held briefly;
        # _refresh_lock serializes builders, which do the expensive
        # encode + ANN fit *outside* _lock so concurrent readers never
        # stall behind a rebuild.
        self._lock = threading.RLock()
        self._refresh_lock = threading.Lock()

    # -- state ---------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic publication counter (0 until the first build)."""
        return self._version

    @property
    def num_items(self) -> int:
        return self.dataset.num_items

    @property
    def nbytes(self) -> int:
        """Memory held by the published matrix (0 before the first build)."""
        return 0 if self._matrix is None else self._matrix.nbytes

    @property
    def stale(self) -> bool:
        """True when the next access will rebuild (version will change)."""
        return self._stale or self._matrix is None

    @property
    def ann(self) -> IVFIndex | None:
        """The attached approximate-retrieval structure, if any."""
        return self._ann

    def mark_stale(self) -> None:
        """Request a rebuild on next access (e.g. after a weight update).

        Caches keyed on the version must treat a stale index as
        uncacheable (see ``MicroBatcher.submit``): the current version
        number still names the *old* snapshot until the rebuild runs.
        The epoch counter makes the request durable against an in-flight
        rebuild: a build that started before this call cannot clear it.
        """
        with self._lock:
            self._stale = True
            self._stale_epoch += 1

    def attach_ann(self, ann: IVFIndex | None) -> None:
        """Attach (or detach, with ``None``) the ANN structure.

        When a matrix is already published the structure is fitted to it
        immediately, so attaching never leaves a window where retrieval
        sees an unfitted index. Attaching serializes with builders on
        ``_refresh_lock``: an attach landing mid-rebuild would otherwise
        be stamped with the about-to-be-superseded version and fall back
        to exact scoring forever after. The fit itself runs outside the
        reader lock — readers keep serving (exactly) while it builds.
        """
        with self._refresh_lock:
            with self._lock:
                self._ann = ann
                matrix, version = self._matrix, self._version
            if ann is not None and matrix is not None:
                ann.fit(matrix, version=version)

    # -- building ------------------------------------------------------------

    def publish_partial(self, base_matrix: np.ndarray,
                        changed_ids: np.ndarray) -> int:
        """Publish a version that reuses ``base_matrix`` rows, re-encoding
        only ``changed_ids``; returns the new version.

        This is the hot-swap fast path for catalogue *growth without
        weight change*: when new (cold) items arrive but the model that
        produced ``base_matrix`` is unchanged, every existing row is
        still exact, so only the new/changed rows are encoded —
        ``O(|changed|)`` instead of ``O(num_items)``. The caller is
        responsible for the precondition (same weights); a weight update
        invalidates every row and must use :meth:`refresh`. Falls back
        to a full rebuild for models without the row-encode protocol.
        """
        if not hasattr(self.model, "encode_item_rows"):
            return self.refresh()
        with self._refresh_lock:
            with self._lock:
                next_version = self._version + 1
                ann = self._ann
                epoch = self._stale_epoch
            rows = self.dataset.num_items + 1
            dtype = self.dtype if self.dtype is not None \
                else base_matrix.dtype
            matrix = np.zeros((rows, base_matrix.shape[1]), dtype=dtype)
            keep = min(base_matrix.shape[0], rows)
            matrix[:keep] = base_matrix[:keep]
            changed = np.asarray(changed_ids, dtype=np.int64)
            if changed.size:
                for start in range(0, changed.size, self.chunk_size):
                    ids = changed[start:start + self.chunk_size]
                    fresh = self.model.encode_item_rows(self.dataset, ids)
                    matrix[ids] = fresh.astype(dtype, copy=False)
            matrix.flags.writeable = False
            if ann is not None:
                ann.fit(matrix, version=next_version)
            with self._lock:
                self._matrix = matrix
                self._stale = self._stale_epoch != epoch
                self._version = next_version
                return next_version

    def refresh(self) -> int:
        """Re-encode the catalogue and publish a new version; returns it.

        The build — catalogue encode plus ANN refit, the multi-second
        part at scale — runs outside the reader lock: concurrent
        requests keep snapshotting the previous version until the new
        one is adopted in a brief critical section. The ANN structure is
        fitted and stamped with the version *before* publication, so no
        reader can pair the new matrix with the old structure; a reader
        that races the window between fit and publication sees the old
        matrix with a not-yet-matching structure stamp and simply scores
        exactly (see :meth:`snapshot_retrieval`).
        """
        with self._refresh_lock:
            return self._rebuild()

    def _rebuild(self) -> int:
        """Build + publish one version; caller holds ``_refresh_lock``."""
        with self._lock:
            next_version = self._version + 1
            ann = self._ann
            epoch = self._stale_epoch
        matrix = self.model.encode_catalog(self.dataset,
                                           chunk_size=self.chunk_size)
        if self.dtype is not None and matrix.dtype != self.dtype:
            matrix = matrix.astype(self.dtype)
        matrix.flags.writeable = False
        if ann is not None:
            ann.fit(matrix, version=next_version)
        with self._lock:
            self._matrix = matrix
            # A mark_stale() that landed while we were encoding refers
            # to weights this build may not have seen: keep the index
            # stale so the next access rebuilds again rather than
            # serving the superseded snapshot as fresh.
            self._stale = self._stale_epoch != epoch
            self._version = next_version
            return next_version

    @property
    def matrix(self) -> np.ndarray:
        """The current ``(num_items+1, d)`` matrix, building if stale."""
        return self.snapshot()[0]

    def snapshot(self) -> tuple[np.ndarray, int]:
        """Atomically read ``(matrix, version)``, building if stale.

        Scoring code must label results with the version from the same
        snapshot it scored against — reading ``matrix`` and ``version``
        separately can interleave with a concurrent :meth:`refresh`.
        """
        with self._lock:
            if not (self._stale or self._matrix is None):
                return self._matrix, self._version
        self._refresh_if_stale()
        with self._lock:
            return self._matrix, self._version

    def _refresh_if_stale(self) -> None:
        """Rebuild once if still stale; concurrent callers coalesce."""
        with self._refresh_lock:
            with self._lock:
                if not (self._stale or self._matrix is None):
                    return             # another builder already published
            self._rebuild()

    def snapshot_retrieval(self) -> tuple[np.ndarray, int, AnnSearch | None]:
        """Like :meth:`snapshot` plus a search view *for that version*.

        The third slot is an :class:`AnnSearch` pinned to the fitted
        state matching the returned matrix — a refresh landing after
        this call refits the live index but cannot swap the state under
        a request already scoring the old snapshot. It is ``None`` when
        no structure is attached or the attached one was fitted against
        a different version (e.g. a rebuild is mid-flight) — the caller
        must then score exactly rather than trust stale cells.
        """
        matrix, version = self.snapshot()
        ann = self._ann
        search = None if ann is None else ann.search_snapshot()
        if search is not None and search.version != version:
            search = None
        return matrix, version, search

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = None if self._matrix is None else self._matrix.shape
        return (f"CatalogIndex(dataset={self.dataset.name!r}, "
                f"version={self._version}, shape={shape})")


class FrozenCatalogIndex:
    """A read-only :class:`CatalogIndex` over an externally published matrix.

    Pool worker processes (``repro.serve.pool``) never encode: the parent
    publishes the catalogue matrix into shared memory, and each worker
    wraps its zero-copy view in this class so the rest of the serving
    stack (:class:`~repro.serve.recommender.Recommender`, the
    micro-batcher's version-keyed cache) works unchanged. The index is
    never stale — a new generation arrives as a *new* frozen index via
    the generation fence, not as a rebuild of this one — so the mutating
    half of the ``CatalogIndex`` surface (``mark_stale``,
    ``publish_partial``) raises, and ``refresh`` is a no-op returning the
    pinned version. No locks: every field is immutable after the
    (single-threaded) ANN fit in ``attach_ann``.
    """

    def __init__(self, matrix: np.ndarray, version: int,
                 num_items: int | None = None):
        matrix = np.asarray(matrix)
        if matrix.flags.writeable:
            matrix = matrix.view()
            matrix.flags.writeable = False
        self._matrix = matrix
        self._version = int(version)
        self._num_items = (int(num_items) if num_items is not None
                           else matrix.shape[0] - 1)
        self._ann: IVFIndex | None = None

    # -- state ---------------------------------------------------------------

    @property
    def version(self) -> int:
        return self._version

    @property
    def num_items(self) -> int:
        return self._num_items

    @property
    def nbytes(self) -> int:
        return self._matrix.nbytes

    @property
    def stale(self) -> bool:
        return False

    @property
    def ann(self) -> IVFIndex | None:
        return self._ann

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def mark_stale(self) -> None:
        raise RuntimeError("FrozenCatalogIndex cannot rebuild; publish a "
                           "new generation through the pool fence instead")

    def publish_partial(self, base_matrix, changed_ids) -> int:
        raise RuntimeError("FrozenCatalogIndex cannot rebuild; publish a "
                           "new generation through the pool fence instead")

    def attach_ann(self, ann: IVFIndex | None) -> None:
        """Attach and immediately fit an ANN structure to the frozen matrix.

        Fitting is per-worker duplicated work (each process builds its
        own centroids over the shared matrix), which is the price
        of keeping ANN structures plain process-local objects.
        """
        self._ann = ann
        if ann is not None:
            ann.fit(self._matrix, version=self._version)

    # -- reads ---------------------------------------------------------------

    def refresh(self) -> int:
        """No-op: frozen generations are replaced, never rebuilt."""
        return self._version

    def snapshot(self) -> tuple[np.ndarray, int]:
        return self._matrix, self._version

    def snapshot_retrieval(self) -> tuple[np.ndarray, int, AnnSearch | None]:
        ann = self._ann
        search = None if ann is None else ann.search_snapshot()
        if search is not None and search.version != self._version:
            search = None          # pragma: no cover - fit pins the version
        return self._matrix, self._version, search

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FrozenCatalogIndex(version={self._version}, "
                f"shape={self._matrix.shape})")
