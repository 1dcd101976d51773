"""Brute-force retrieval oracle, independent of `dkph.retrieval` and `dkph.codes`.

It works on unpacked bits: distances from {0,1} bit matrices, a stable
(distance, id) ranking of the whole database, self-exclusion by id and AP@k
divided by min(R, k), where R counts the relevant database items. It is fast
enough to check every query of every width once per run.
"""

from __future__ import annotations

import numpy as np

# Largest accepted |dkph - oracle| for a mAP value. It admits a different
# float summation order (a vectorized rewrite) and nothing else: one changed
# rank moves mAP@k by at least about 1 / (queries * k), far above it.
MAP_TOLERANCE = 1e-12


def unpack(packed: np.ndarray, k: int) -> np.ndarray:
    """{0,1} bits of packed rows; bit j sits in byte j // 8 at position j % 8."""
    packed = np.asarray(packed, dtype=np.uint8)
    bits = (packed[:, :, None] >> np.arange(8, dtype=np.uint8)) & 1
    return bits.reshape(packed.shape[0], -1)[:, :k].astype(np.int64)


def distances(q_bits, db_bits) -> np.ndarray:
    """Hamming distance of every query row to every database row: the count
    of positions where one has a 1 and the other a 0 (exact in float64)."""
    q = np.atleast_2d(q_bits).astype(np.float64)
    db = np.asarray(db_bits, dtype=np.float64)
    return (q @ (1 - db).T + (1 - q) @ db.T).round().astype(np.int64)


def ranking(dists: np.ndarray, db_ids, exclude_id=None) -> np.ndarray:
    """Database positions nearest first, ties by lower id, without `exclude_id`."""
    ids = np.asarray(db_ids, dtype=np.int64)
    order = np.argsort(dists * (int(ids.max()) + 1) + ids, kind="stable")
    return order if exclude_id is None else order[ids[order] != exclude_id]


def map_at_ks(q_bits, q_labels, q_ids, db_bits, db_labels, db_ids, ks) -> dict:
    """Mean AP@k for each k, over the queries with at least one relevant item
    (None where no query has one)."""
    db_labels = np.asarray(db_labels)
    totals, evaluated = dict.fromkeys(ks, 0.0), 0
    for dists, label, qid in zip(distances(q_bits, db_bits), q_labels, q_ids):
        relevant = (db_labels[ranking(dists, db_ids, int(qid))] == label).tolist()
        r = sum(relevant)
        if r == 0:
            continue
        evaluated += 1
        for k in ks:
            hits, ap = 0, 0.0
            for rank, rel in enumerate(relevant[:k], start=1):
                if rel:
                    hits += 1
                    ap += hits / rank
            totals[k] += ap / min(r, k)
    return {k: (total / evaluated if evaluated else None) for k, total in totals.items()}


def topk(q_bits, db_bits, db_ids, k: int, exclude_id=None):
    """(ids, distances) of the k nearest database items."""
    dists = distances(q_bits, db_bits)[0]
    order = ranking(dists, db_ids, exclude_id)[:k]
    return np.asarray(db_ids)[order].tolist(), dists[order].tolist()
