"""Clustering primitives for approximate retrieval.

``repro.serve.ann`` builds its IVF coarse quantizer from the k-means
that lives here, below the serving stack: memory-bounded Lloyd's
iterations with optional warm-start centroids, which is what makes
*incremental* index refreshes cheap (a re-encoded catalogue re-clusters
from the previous centroids in a couple of iterations instead of from
scratch).

Everything is plain numpy on purpose: this runs inside the index-refresh
path, never under autograd.

(``repro.baselines.vqrec`` carries its own small k-means: its centroids
feed committed, cache-keyed experiment tables, so its numerics are
frozen — do not unify it with this serving-grade implementation.)
"""

from __future__ import annotations

import numpy as np

__all__ = ["kmeans", "kmeans_assign"]


def kmeans_assign(data: np.ndarray, centroids: np.ndarray,
                  chunk_size: int = 8192) -> np.ndarray:
    """Nearest-centroid assignment for each row of ``data``.

    Uses the ``|x|^2 - 2 x·c + |c|^2`` expansion and processes ``data``
    in chunks so the ``(n, k)`` distance matrix never exceeds
    ``chunk_size * k`` floats — catalogue-scale inputs (10^5 rows, 10^3
    centroids) assign in bounded memory.
    """
    data = np.asarray(data)
    centroids = np.asarray(centroids, dtype=data.dtype)
    cent_sq = (centroids ** 2).sum(axis=1)
    out = np.empty(len(data), dtype=np.int64)
    for lo in range(0, len(data), chunk_size):
        chunk = data[lo:lo + chunk_size]
        # |x|^2 is constant per row — irrelevant to the argmin.
        dists = cent_sq[None, :] - 2.0 * (chunk @ centroids.T)
        out[lo:lo + chunk_size] = dists.argmin(axis=1)
    return out


def kmeans(data: np.ndarray, num_clusters: int, iters: int = 10,
           seed: int = 0, init: np.ndarray | None = None,
           chunk_size: int = 8192) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's k-means; returns ``(centroids, assignments)``.

    ``init`` warm-starts from previous centroids (shape ``(k', d)``;
    ``k'`` may differ from ``num_clusters`` — extra rows are dropped,
    missing rows are sampled from ``data``), which converges in a
    fraction of the cold-start iterations when ``data`` drifted only a
    little (the online index-refresh case). Empty clusters are re-seeded
    from the rows currently farthest from their centroid, so all
    ``num_clusters`` centroids stay live.
    """
    data = np.asarray(data)
    if data.ndim != 2 or len(data) == 0:
        raise ValueError(f"kmeans needs a non-empty (n, d) matrix, "
                         f"got shape {data.shape}")
    num_clusters = min(int(num_clusters), len(data))
    if num_clusters < 1:
        raise ValueError("num_clusters must be >= 1")
    rng = np.random.default_rng(seed)
    if init is not None and len(init) and init.shape[1] == data.shape[1]:
        centroids = np.asarray(init, dtype=data.dtype)[:num_clusters].copy()
        if len(centroids) < num_clusters:
            extra = rng.choice(len(data), num_clusters - len(centroids),
                               replace=False)
            centroids = np.concatenate([centroids, data[extra]])
    else:
        centroids = data[rng.choice(len(data), num_clusters,
                                    replace=False)].copy()
    assignments = kmeans_assign(data, centroids, chunk_size=chunk_size)
    for _ in range(max(int(iters), 1)):
        counts = np.bincount(assignments, minlength=num_clusters)
        # Per-dimension bincount beats np.add.at's unbuffered scatter;
        # this accumulation runs inside every online index refresh.
        sums = np.stack(
            [np.bincount(assignments, weights=data[:, j],
                         minlength=num_clusters)
             for j in range(data.shape[1])], axis=1).astype(centroids.dtype)
        live = counts > 0
        centroids[live] = sums[live] / counts[live, None]
        if not live.all():
            # Re-seed dead clusters on the worst-fit rows.
            dists = ((data - centroids[assignments]) ** 2).sum(axis=1)
            worst = np.argsort(-dists)[:int((~live).sum())]
            centroids[~live] = data[worst]
        new_assignments = kmeans_assign(data, centroids,
                                        chunk_size=chunk_size)
        if np.array_equal(new_assignments, assignments):
            assignments = new_assignments
            break
        assignments = new_assignments
    return centroids, assignments
