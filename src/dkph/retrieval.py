"""Packed-bit Hamming index and the retrieval evaluation suite.

Codes live as packed bytes (``codes.pack_bits``). For distances the packed
rows are viewed as zero-padded words of the code's width: uint8 for rows of
1 byte, uint32 for 2-4, uint64 for 5-8, and several uint64 words beyond
that. There is no uint16 word: ``np.bitwise_count`` in place takes about
twice as long on uint16 words as on uint32. Both sides of a distance go
through the same rule. The Hamming distance of two rows is the sum of
``np.bitwise_count`` over their XORed words. Pad bits never count: the
index and the packed query sweep take only rows that pass
``codes.check_packed``, whose row rule makes them zero in both operands.
``packed_distances`` writes the counts straight into the dtype its caller
asks for: the index's key dtype for ranking, int64 for PR alone.

``evaluate_packed`` is the one evaluation sweep, over packed query rows as
``codes.pack_bits`` writes them (stored codes are scored as they are read);
``evaluate`` packs {-1,+1} query bits once and runs it. The sweep
computes one (queries x database) distance matrix per call, in the blocks
of query rows of ``numerics.block_slices``, one (B, n_db) int64 buffer
within the shared work-block budget ``numerics.BLOCK_BYTES`` each. From
each block's distances it fills the PR histograms, then forms the ranking
keys once and ranks them once, to the largest cutoff; every cutoff's AP is
a prefix of that one ranked list. ``map_at_k`` is the sweep at one cutoff
without PR histograms, and ``pr_curve`` the sweep with no cutoff, which
ranks nothing; so each does only its own part of the work.

Single queries. ``query_topk`` scores one query in one pass, without the
sweep's machinery. Its words come straight from the query's packed bytes,
zero-padded to the index's word width (``_as_words``' rule for one row).
Each word column of the index is XORed against the query's word into one
fresh row, whose bits are counted into the key dtype in place; the sweep
instead forms a block's (queries x database) outer XOR in
``packed_distances``. The query's own row, when ``exclude_id`` is in the
index, is found by a binary search in the sorted ids and an exact check of
the id found there, against the sweep's rows of all its query ids at once
(``CodeIndex._rows_of``). The top k is an in-place partition and sort of the
call's own key row, where the sweep's ``_top_keys`` ranks a copy of each
block's keys. No per-query work is cached on the index or on the code.

The index keeps ``packed``, ``ids`` and ``labels`` in ascending id order,
so a row's position is its id's rank. Results are ranked by the single key
``distance * n + rank_of_id``, where ``rank_of_id`` is the row's position:
keys are unique, so ties (equal distance) break toward the lower id and
every ranked list is deterministic without a stable sort. A key also names
its row, as ``row = key % n`` and ``distance = key // n``, so ranking
partitions the key values themselves (``np.partition``, then a sort of the
k smallest) and never their positions. Keys are int32 when every key
fits, that is when (K + 2) * n <= 2**31 - 1 (the largest distance is
K + 1, an excluded own row), and int64 otherwise; the index picks the
dtype once.

Relevance comes from the index's label table, built once: its distinct
labels with their counts. A query's relevant count is the count of its
label (0 when the database lacks it), less its own row when that row
shares the label, and a ranked key is a hit when ``labels[key % n]``
equals the query's label. So mAP reads labels at the ranked keys only and
builds no (queries x database) relevance matrix. PR reads per-query
histograms of distance 0..K, over all items and over the relevant ones,
and it is the one place that builds a block's boolean relevance matrix.
Labels and ids, of the index and of the queries, must have an integer
dtype: a float or bool label or id raises ValueError naming them, so that
no id is truncated onto another. ``query_topk``'s ``k`` and ``exclude_id``
are integers too (not bools), as every mAP cutoff is; anything else raises
TypeError.

Evaluation conventions:
  * AP@k divides by min(R, k), where R is the number of relevant items in
    the database, so a perfect ranking always scores 1. A cutoff k is an
    integer of at least 1 (not a bool); one of n or more ranks everything.
  * Given query ids, a query sharing an id with a database item is excluded
    from its own results (test partitions are commonly used as both query
    set and database, and trivial rank-1 self hits would inflate every
    metric). Without query ids nothing is excluded.
  * Queries with zero relevant items are skipped and counted, not scored.
  * Precision at a Hamming radius that retrieves nothing is undefined and
    skipped rather than pinned to 0 or 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .codes import BinaryCode, check_packed, pack_bits
from .exceptions import ShapeError
from .numerics import block_slices

# Cutoffs of the reported mAP@k; RunConfig asks for min(MAP_KS) database videos.
MAP_KS = (5, 20, 60, 100)


def _key_dtype(k: int, n: int) -> type:
    """int32 when every ranking key of n k-bit codes fits it, else int64."""
    return np.int32 if (k + 2) * n <= np.iinfo(np.int32).max else np.int64


# Word type of a packed row of 0..8 bytes; longer rows are several uint64 words.
_WORD_TYPES = tuple(np.dtype(t) for t in (np.uint8, np.uint8, np.uint32, np.uint32, np.uint32,
                                          np.uint64, np.uint64, np.uint64, np.uint64))


def _as_words(packed: np.ndarray) -> np.ndarray:
    """Packed uint8 rows as zero-padded words of the row's width:
    (n, ceil(bytes / word bytes)) of uint8, uint32 or uint64."""
    n, n_bytes = packed.shape
    word = _WORD_TYPES[min(n_bytes, 8)]
    padded = np.zeros((n, -(-n_bytes // word.itemsize) * word.itemsize), dtype=np.uint8)
    padded[:, :n_bytes] = packed
    return padded.view(word)


def _count_bits(words: np.ndarray, dtype) -> np.ndarray:
    """np.bitwise_count of words as dtype; in place when the widths match,
    since a uint64 -> int64 output cast is several times slower than the count."""
    if words.itemsize == np.dtype(dtype).itemsize:
        return np.bitwise_count(words, out=words).view(dtype)
    return np.bitwise_count(words, out=np.empty(words.shape, dtype))


def packed_distances(db_words: np.ndarray, q_words: np.ndarray, dtype) -> np.ndarray:
    """(nq, n_db) Hamming distances between rows of words (``_as_words``),
    counted straight into the integer dtype."""
    dist = _count_bits(np.bitwise_xor.outer(q_words[:, 0], db_words[:, 0]), dtype)
    if db_words.shape[1] > 1:
        word = np.empty(dist.shape, dtype=db_words.dtype)
        for w in range(1, db_words.shape[1]):
            np.bitwise_xor.outer(q_words[:, w], db_words[:, w], out=word)
            dist += _count_bits(word, dtype)
    return dist


def integer_array(values, name: str) -> np.ndarray:
    """values (labels or ids) as an array; ValueError naming them unless their
    dtype is an integer one (a bool or float would match by value, or not at all)."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ValueError(f"{name} must have an integer dtype, got {values.dtype}")
    return values


def _integer(value, name: str) -> int:
    """value as an int; TypeError naming it for a bool or a non-integer.
    A plain int returns at once: query_topk checks two per request."""
    if type(value) is int:
        return value
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name}={value!r} is not an integer")


@dataclass
class CodeIndex:
    """Immutable database of packed codes with unique integer ids.

    ``packed``, ``ids`` and ``labels`` are kept in ascending id order: the
    index sorts them by id once, so a row's position is its id's rank.
    """

    packed: np.ndarray            # (n, ceil(K/8)) uint8, codes.check_packed's row rule
    ids: np.ndarray               # (n,) int64
    k: int
    labels: np.ndarray | None = None  # (n,) integer semantic labels, optional
    # derived once: the packed rows as words of the code's width; each row's
    # position (its id's rank, the tie-breaking part of the ranking key), in
    # the key dtype of _key_dtype(k, n)
    words: np.ndarray = field(init=False, repr=False)
    rank_of_id: np.ndarray = field(init=False, repr=False)
    # derived once when labelled, the label table: the distinct labels in
    # ascending order and the count of each (a query's relevant count)
    _label_values: np.ndarray | None = field(init=False, repr=False, default=None)
    _label_counts: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.packed = np.asarray(self.packed)
        self.k = check_packed(self.packed, self.k)
        self.ids = integer_array(self.ids, "ids").astype(np.int64, copy=False)
        if self.packed.shape[0] != self.ids.size:
            raise ShapeError("ids and code rows differ in count")
        order = np.argsort(self.ids, kind="stable")
        self.ids, self.packed = self.ids[order], self.packed[order]
        if np.any(self.ids[1:] == self.ids[:-1]):
            raise ValueError("ids must be unique")
        if self.labels is not None:
            labels = integer_array(self.labels, "labels")
            if labels.size != self.ids.size:
                raise ShapeError("labels and ids differ in count")
            self.labels = labels[order].astype(np.int64, copy=False)
            self._label_values, self._label_counts = np.unique(self.labels, return_counts=True)
        self.rank_of_id = np.arange(self.n, dtype=_key_dtype(self.k, self.n))
        self.words = _as_words(self.packed)

    @property
    def n(self) -> int:
        return self.ids.size

    def _rows_of(self, ids) -> np.ndarray:
        """Database row of each id, or -1 where the id is not in the index."""
        ids = np.asarray(ids, dtype=np.int64)
        if self.n == 0:
            return np.full(ids.shape, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(self.ids, ids), self.n - 1)
        return np.where(self.ids[at] == ids, at, -1)

    def _relevant_counts(self, labels: np.ndarray, own: np.ndarray) -> np.ndarray:
        """Database items sharing each query's label (0 where the database has
        none), less the query's own row (own >= 0) when that row shares it."""
        if self.n == 0:
            return np.zeros(labels.shape, dtype=np.int64)
        at = np.minimum(np.searchsorted(self._label_values, labels), self._label_values.size - 1)
        counts = np.where(self._label_values[at] == labels, self._label_counts[at], 0)
        return counts - ((own >= 0) & (self.labels[own] == labels))

    @classmethod
    def from_bits(cls, bits: np.ndarray, ids=None, labels=None) -> "CodeIndex":
        """bits: (n, K) array over {-1,+1}."""
        bits = np.asarray(bits)
        ids = np.arange(bits.shape[0]) if ids is None else ids
        return cls(packed=pack_bits(bits), ids=ids, k=bits.shape[1], labels=labels)


@dataclass
class RankedList:
    """(id, distance) pairs with distances non-decreasing, ties by id."""

    ids: np.ndarray
    distances: np.ndarray


def _keys(idx: CodeIndex, dist: np.ndarray) -> np.ndarray:
    """Ranking keys ``dist * n + rank_of_id``, in place over distances in the
    index's key dtype."""
    dist *= idx.n
    dist += idx.rank_of_id
    return dist


def _top_keys(key: np.ndarray, k: int) -> np.ndarray:
    """The k smallest keys along the last axis, ascending (all of them if k >= n)."""
    if k >= key.shape[-1]:
        return np.sort(key, axis=-1)
    top = np.partition(key, k - 1, axis=-1)[..., :k]
    top.sort(axis=-1)
    return top


def query_topk(idx: CodeIndex, query: BinaryCode, k: int, exclude_id=None) -> RankedList:
    """The k nearest codes, ranked by distance then id, from one XOR and count
    over the index's words, a binary search for ``exclude_id``'s row and an
    in-place top k (module docstring, Single queries). Raises ValueError if
    k exceeds the (post-exclusion) size; ``k`` and ``exclude_id`` must be
    integers, not bools (TypeError)."""
    k = _integer(k, "k")
    if query.k != idx.k:
        raise ShapeError(f"query has {query.k} bits, index has {idx.k}")
    words = idx.words
    # _as_words' rule for one row: the packed bytes, zero-padded to whole words
    q_words = np.frombuffer(query.packed.tobytes().ljust(words.shape[1] * words.itemsize, b"\0"),
                            dtype=words.dtype)
    dtype = idx.rank_of_id.dtype
    dist = _count_bits(np.bitwise_xor(words[:, 0], q_words[0]), dtype)
    for w in range(1, q_words.size):
        dist += _count_bits(np.bitwise_xor(words[:, w], q_words[w]), dtype)
    size = idx.n
    if exclude_id is not None:
        exclude_id = _integer(exclude_id, "exclude_id")
        # ids are sorted and unique: the search gives the one row that may hold
        # exclude_id, and only an equal id there is it (an int past int64 is
        # searched as a float, so 2**63 lands on 2**63 - 1)
        at = idx.ids.searchsorted(exclude_id)
        if at < size and idx.ids[at] == exclude_id:
            dist[at] = idx.k + 1   # past every real key, so never among the k
            size -= 1
    if not 0 <= k <= size:
        raise ValueError(f"k={k} outside 0..{size}, the database size after exclusion")
    top = _keys(idx, dist)
    if k < top.size:
        top.partition(k - 1)
        top = top[:k]
    top.sort()
    distances, rank = np.divmod(top, idx.n)
    return RankedList(ids=idx.ids[rank], distances=distances.astype(np.int64))


@dataclass
class MapScore:
    value: float
    evaluated: int
    skipped: int   # queries with zero relevant items


def _queries(query_packed, query_labels, query_ids, idx: CodeIndex):
    """Checked query set: (packed words, labels, own database row or -1,
    relevant count)."""
    if idx.labels is None:
        raise ValueError("index has no labels")
    query_packed = np.asarray(query_packed)
    check_packed(query_packed, idx.k)
    nq = query_packed.shape[0]
    if nq == 0:
        raise ShapeError(f"no packed queries of {idx.k}-bit codes")
    query_labels = integer_array(query_labels, "query_labels")
    if query_labels.shape != (nq,):
        raise ShapeError(f"query_labels has shape {query_labels.shape}, "
                         f"expected one label per query ({nq},)")
    own = np.full(nq, -1, dtype=np.int64)
    if query_ids is not None:
        query_ids = integer_array(query_ids, "query_ids")
        if query_ids.shape != (nq,):
            raise ShapeError(f"query_ids has shape {query_ids.shape}, "
                             f"expected one id per query ({nq},)")
        own = idx._rows_of(query_ids)
    return (_as_words(query_packed), query_labels, own,
            idx._relevant_counts(query_labels, own))


def _live_blocks(idx: CodeIndex, q_words, own, r_total, dtype):
    """Per block of query rows, its queries with at least one relevant item:
    (their positions in the query set, their distances in dtype).

    The distances of a block are one packed_distances call over all its rows,
    from which the rows without relevant items are dropped; a block of only
    such rows computes and yields nothing. A query's own database row gets
    distance K + 1, past every real one.
    """
    for rows in block_slices(r_total.size, 8 * idx.n):
        live = rows.start + np.flatnonzero(r_total[rows])
        if not live.size:
            continue
        dist = packed_distances(idx.words, q_words[rows], dtype)
        if live.size < dist.shape[0]:
            dist = dist[live - rows.start]
        r = np.flatnonzero(own[live] >= 0)
        dist[r, own[live[r]]] = idx.k + 1
        yield live, dist


def _cutoffs(ks) -> tuple[int, ...]:
    """Each mAP cutoff once, as an int; a bool, a non-integer or a cutoff
    below 1 raises, naming it."""
    out = []
    for k in ks:
        value = _integer(k, "cutoff k")
        if value < 1:
            raise ValueError(f"cutoff k={k!r} must be >= 1")
        out.append(value)
    return tuple(dict.fromkeys(out))


def _block_aps(idx: CodeIndex, dist, labels, has_own, r_total, ks) -> list[np.ndarray]:
    """Each cutoff's AP of a block's queries, from one ranking of their
    distances (consumed as keys) to the largest cutoff."""
    top = _top_keys(_keys(idx, dist), min(max(ks), idx.n))
    hit = idx.labels[top % idx.n] == labels[:, None]
    terms = np.cumsum(hit, axis=1) / np.arange(1, top.shape[1] + 1) * hit
    aps = []
    for k in ks:
        width = min(k, idx.n)
        sums = terms[:, :width].sum(axis=1)
        if width == idx.n:
            # an excluded own row ranks last (and may share the label): sum the
            # n - 1 real items only, which is the summation order of a list
            # without it
            sums[has_own] = terms[has_own, :width - 1].sum(axis=1)
        aps.append(sums / np.minimum(r_total, k))
    return aps


def _block_histograms(idx: CodeIndex, dist, labels, in_place: bool):
    """A block's per-query counts of retrieved and of relevant items within
    each radius 0..K; ``in_place`` when no ranking reads dist afterwards."""
    bins = idx.k + 2   # distances 0..K, then K + 1 for excluded own rows
    # an own row counts in bin K + 1, which is dropped, whatever its label
    rel = labels[:, None] == idx.labels
    # one histogram per query
    dist = np.add(dist, np.arange(labels.size)[:, None] * bins, out=dist if in_place else None)
    size = labels.size * bins
    n_ret = np.bincount(dist.ravel(), minlength=size).reshape(-1, bins)
    n_hit = np.bincount(dist[rel], minlength=size).reshape(-1, bins)
    return np.cumsum(n_ret[:, :-1], axis=1), np.cumsum(n_hit[:, :-1], axis=1)


def _mean_ap(aps: list[np.ndarray], n_queries: int) -> MapScore:
    if not aps:
        raise ValueError("no evaluable queries (all had zero relevant items)")
    aps = np.concatenate(aps)
    # a running total in query order
    return MapScore(value=float(np.cumsum(aps)[-1]) / aps.size, evaluated=aps.size,
                    skipped=n_queries - aps.size)


def _pr_points(retrieved: list[np.ndarray], hits: list[np.ndarray],
               r_total: np.ndarray) -> list[tuple[float, float]]:
    if not retrieved:
        return []
    # (radius, query) rows, so that each radius averages one contiguous row
    n_ret = np.ascontiguousarray(np.concatenate(retrieved).T)
    n_hit = np.ascontiguousarray(np.concatenate(hits).T)
    recall = (n_hit / r_total[r_total > 0]).mean(axis=1)
    # radii where the same number of queries retrieve something share one
    # (radii, count) array, whose row means reduce as each row's own would
    got = n_ret > 0
    count = np.count_nonzero(got, axis=1)
    precision = np.empty(count.size)
    for c in np.unique(count[count > 0]):
        radii = np.flatnonzero(count == c)
        hit, ret = n_hit[radii][got[radii]], n_ret[radii][got[radii]]
        precision[radii] = (hit / ret).reshape(radii.size, c).mean(axis=1)
    return [(float(recall[r]), float(precision[r])) for r in np.flatnonzero(count)]


def evaluate_packed(query_packed: np.ndarray, query_labels, idx: CodeIndex, ks=MAP_KS,
                    query_ids=None, *, pr: bool = True):
    """mAP@k at every cutoff in ``ks`` and, with ``pr``, the precision-recall
    curve, from one distance matrix per block of queries.

    Returns ``({k: MapScore}, points)``, with points None without ``pr``.
    query_packed: one or more rows that pass ``codes.check_packed`` at the
    index's K, as ``codes.pack_bits`` writes them; query_ids enables
    self-exclusion when the query set overlaps the database. Raises
    ValueError when ``ks`` is not empty and no query has a relevant item.
    """
    ks = _cutoffs(ks)
    q_words, q_labels, own, r_total = _queries(query_packed, query_labels, query_ids, idx)
    aps = [[] for _ in ks]
    retrieved, hits = [], []
    # ranking forms its keys in place over the distances; PR alone counts
    # its histograms in place over int64 ones
    dtype = idx.rank_of_id.dtype if ks else np.int64
    for live, dist in _live_blocks(idx, q_words, own, r_total, dtype):
        if pr:
            n_ret, n_hit = _block_histograms(idx, dist, q_labels[live], in_place=not ks)
            retrieved.append(n_ret)
            hits.append(n_hit)
        if ks:
            for per_k, ap in zip(aps, _block_aps(idx, dist, q_labels[live], own[live] >= 0,
                                                 r_total[live], ks)):
                per_k.append(ap)
    maps = {k: _mean_ap(per_k, r_total.size) for k, per_k in zip(ks, aps)}
    return maps, (_pr_points(retrieved, hits, r_total) if pr else None)


def evaluate(query_bits: np.ndarray, query_labels, idx: CodeIndex, ks=MAP_KS,
             query_ids=None, *, pr: bool = True):
    """:func:`evaluate_packed` of query_bits, (nq, K) over {-1,+1}, packed once."""
    query_bits = np.asarray(query_bits)
    if query_bits.ndim != 2 or query_bits.shape[0] == 0:
        raise ShapeError(f"query_bits must be a nonempty (nq, K) array, "
                         f"got shape {query_bits.shape}")
    if query_bits.shape[1] != idx.k:
        raise ShapeError(f"query has {query_bits.shape[1]} bits, index has {idx.k}")
    return evaluate_packed(pack_bits(query_bits), query_labels, idx, ks, query_ids, pr=pr)


def map_at_k(query_bits: np.ndarray, query_labels, idx: CodeIndex, k: int,
             query_ids=None) -> MapScore:
    """Mean average precision over the top-k ranked results: ``evaluate`` at
    the one cutoff k, without the PR curve."""
    (score,) = evaluate(query_bits, query_labels, idx, (k,), query_ids, pr=False)[0].values()
    return score


def pr_curve(query_bits: np.ndarray, query_labels, idx: CodeIndex,
             query_ids=None) -> list[tuple[float, float]]:
    """Precision-recall points swept over Hamming radius r = 0..K:
    ``evaluate`` with no cutoff, so nothing is ranked.

    Recall averages over every query with at least one relevant item;
    precision averages over queries that retrieved something at radius r.
    Radii where no query retrieves anything yield no point.
    """
    return evaluate(query_bits, query_labels, idx, (), query_ids)[1]
