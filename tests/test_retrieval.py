"""Hamming index and retrieval metrics against enumeration oracles."""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkph import codes, numerics, retrieval
from dkph.codes import BinaryCode, pack_bits
from dkph.exceptions import ShapeError
from dkph.retrieval import (
    CodeIndex,
    MapScore,
    evaluate,
    evaluate_packed,
    map_at_k,
    pr_curve,
    query_topk,
)


# every word type: 1-, 2-, 3-, 4-, 5- and 8-byte rows, and 2 and 3 uint64 words
WIDTHS = (1, 7, 8, 13, 24, 32, 40, 63, 64, 65, 130)


def random_bits(rng, n, k):
    return np.where(rng.random((n, k)) > 0.5, 1, -1).astype(np.int8)


def oracle_hamming(a, b):
    return sum(1 for x, y in zip(a, b) if x != y)


def oracle_ap_at_k(rel_in_rank_order, k):
    """Average precision via exact rational arithmetic."""
    rel = list(rel_in_rank_order)
    r_total = sum(rel)
    if r_total == 0:
        return None
    hits = 0
    total = Fraction(0)
    for j, r in enumerate(rel[:k], start=1):
        if r:
            hits += 1
            total += Fraction(hits, j)
    return total / min(r_total, k)


def distance(a, b):
    """Hamming distance of two codes through the packed kernel."""
    return int(retrieval.packed_distances(CodeIndex.from_bits(a.bits[None]).words,
                                          CodeIndex.from_bits(b.bits[None]).words,
                                          np.int64)[0, 0])


class TestHamming:
    def test_identical_codes(self):
        a = BinaryCode(np.array([1, -1, 1, 1, -1, 1, -1, -1], dtype=np.int8))
        assert distance(a, a) == 0

    def test_complement_is_k(self):
        for k in (1, 8, 13, 64):
            bits = np.where(np.random.default_rng(k).random(k) > 0.5, 1, -1).astype(np.int8)
            assert distance(BinaryCode(bits), BinaryCode(-bits)) == k

    def test_hand_case_k8(self):
        a = BinaryCode(np.array([1, 1, -1, -1, 1, -1, 1, 1], dtype=np.int8))
        b = BinaryCode(np.array([1, -1, -1, 1, 1, -1, -1, 1], dtype=np.int8))
        assert distance(a, b) == 3
        assert oracle_hamming(a.bits, b.bits) == 3
        assert query_topk(CodeIndex.from_bits(b.bits[None]), a, k=1).distances.tolist() == [3]

    def test_length_mismatch(self):
        idx = CodeIndex.from_bits(np.ones((2, 16), dtype=np.int8))
        with pytest.raises(ShapeError):
            query_topk(idx, BinaryCode(np.ones(8, dtype=np.int8)), k=1)

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_metric_properties(self, k, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (BinaryCode(row) for row in random_bits(rng, 3, k))
        assert distance(a, b) == distance(b, a)
        assert distance(a, a) == 0
        assert (distance(a, b) == 0) == np.array_equal(a.bits, b.bits)
        assert distance(a, c) <= distance(a, b) + distance(b, c)
        assert distance(a, b) == oracle_hamming(a.bits, b.bits)


class TestQueryTopk:
    def test_exact_match_ranks_first(self):
        rng = np.random.default_rng(0)
        bits = random_bits(rng, 10, 16)
        idx = CodeIndex.from_bits(bits)
        out = query_topk(idx, BinaryCode(bits[4]), k=3)
        assert out.ids[0] == 4
        assert out.distances[0] == 0

    def test_k_equals_n_is_a_permutation(self):
        rng = np.random.default_rng(1)
        bits = random_bits(rng, 12, 8)
        idx = CodeIndex.from_bits(bits)
        out = query_topk(idx, BinaryCode(bits[0]), k=12)
        assert sorted(out.ids.tolist()) == list(range(12))
        assert np.all(np.diff(out.distances) >= 0)

    def test_matches_exhaustive_sort_oracle(self):
        rng = np.random.default_rng(2)
        bits = random_bits(rng, 5, 8)
        q = BinaryCode(random_bits(rng, 1, 8)[0])
        idx = CodeIndex.from_bits(bits)
        out = query_topk(idx, q, k=5)
        oracle = sorted(
            (oracle_hamming(q.bits, bits[i]), i) for i in range(5)
        )
        assert [(d, i) for i, d in zip(out.ids.tolist(), out.distances.tolist())] == oracle

    def test_ties_break_by_ascending_id(self):
        bits = np.ones((4, 8), dtype=np.int8)  # all identical: full tie
        idx = CodeIndex.from_bits(bits)
        out = query_topk(idx, BinaryCode(bits[0]), k=4)
        assert out.ids.tolist() == [0, 1, 2, 3]

    def test_k_larger_than_database_rejected(self):
        idx = CodeIndex.from_bits(np.ones((3, 8), dtype=np.int8))
        with pytest.raises(ValueError):
            query_topk(idx, BinaryCode(np.ones(8, dtype=np.int8)), k=4)

    def test_query_code_is_packed_once_at_construction(self, monkeypatch):
        rng = np.random.default_rng(3)
        bits = random_bits(rng, 6, 13)
        idx = CodeIndex.from_bits(bits)
        q = BinaryCode(bits[2])
        calls = []
        monkeypatch.setattr(codes, "pack_bits", lambda b: calls.append(b))
        assert q.packed is q.packed
        np.testing.assert_array_equal(q.packed, np.packbits(bits[2] > 0, bitorder="little"))
        assert query_topk(idx, q, k=1).ids.tolist() == [2]
        assert calls == []

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            CodeIndex.from_bits(np.ones((2, 8), dtype=np.int8), ids=[1, 1])

    @pytest.mark.parametrize("ids", [[1.5, 2.5, 3.9], np.arange(3.0), [True, False, True]],
                             ids=["fractional", "float-integers", "bool"])
    def test_ids_must_have_an_integer_dtype(self, ids):
        # [1.5, 2.5, 3.9] were once stored as ids [1, 2, 3]
        with pytest.raises(ValueError, match="^ids must have an integer dtype"):
            CodeIndex.from_bits(np.ones((3, 8), dtype=np.int8), ids=ids)
        idx = CodeIndex.from_bits(np.ones((3, 8), dtype=np.int8), ids=np.arange(3, dtype=np.uint16))
        assert idx.ids.dtype == np.int64 and idx.ids.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("value", [True, np.True_, 2.5, 2.0, np.float64(1), "1"],
                             ids=["bool", "numpy-bool", "fractional", "float-integer",
                                  "numpy-float", "str"])
    def test_k_and_exclude_id_must_be_integers(self, value):
        # exclude_id=1.2 once excluded nothing, k=True returned one result
        # and k=2.5 raised numpy's partition error
        bits = random_bits(np.random.default_rng(4), 5, 8)
        idx, q = CodeIndex.from_bits(bits), BinaryCode(bits[1])
        with pytest.raises(TypeError, match=re.escape(f"k={value!r} is not an integer")):
            query_topk(idx, q, k=value)
        with pytest.raises(TypeError, match=re.escape(f"exclude_id={value!r} is not an integer")):
            query_topk(idx, q, k=2, exclude_id=value)
        # numpy integers and k = 0 stay valid
        assert query_topk(idx, q, k=np.int64(0)).ids.size == 0
        assert 1 not in query_topk(idx, q, k=np.uint8(4), exclude_id=np.int32(1)).ids.tolist()

    def test_exclusion_at_the_int64_limits(self):
        # an id past int64 finds its neighbour by a float search (2**63 lands
        # on 2**63 - 1): only an equal id may be excluded
        ids = [-2**63, -3, 0, 7, 2**63 - 1]
        bits = random_bits(np.random.default_rng(5), 5, 8)
        idx, q = CodeIndex.from_bits(bits, ids=ids), BinaryCode(bits[0])
        for outside in (2**63, -2**63 - 1, np.uint64(2**64 - 1)):
            assert sorted(query_topk(idx, q, 5, exclude_id=outside).ids.tolist()) == ids
        for limit in (2**63 - 1, -2**63):
            got = query_topk(idx, q, 4, exclude_id=limit).ids.tolist()
            assert sorted(got) == [i for i in ids if i != limit]
            with pytest.raises(ValueError, match="outside 0..4"):
                query_topk(idx, q, 5, exclude_id=limit)

    @pytest.mark.parametrize("k_bits", (1, 8, 65, 130))
    def test_an_empty_index_answers_k_zero_only(self, k_bits):
        idx = CodeIndex.from_bits(np.ones((0, k_bits), dtype=np.int8))
        q = BinaryCode(np.ones(k_bits, dtype=np.int8))
        for exclude in (None, 0):
            got = query_topk(idx, q, 0, exclude_id=exclude)
            assert got.ids.dtype == got.distances.dtype == np.int64
            assert got.ids.shape == got.distances.shape == (0,)
            with pytest.raises(ValueError, match="outside 0..0"):
                query_topk(idx, q, 1, exclude_id=exclude)

    @pytest.mark.parametrize("k_bits", WIDTHS)
    def test_queries_never_write_to_the_index(self, k_bits):
        # the distances, keys and top k are formed in place on the call's own arrays
        rng = np.random.default_rng(k_bits)
        bits = random_bits(rng, 40, k_bits)
        idx = CodeIndex.from_bits(bits, ids=rng.permutation(400)[:40] - 100,
                                  labels=rng.integers(0, 3, 40))
        fields = ("words", "packed", "ids", "labels", "rank_of_id")
        before = {name: getattr(idx, name).copy() for name in fields}
        for q in np.concatenate([bits[:5], random_bits(rng, 5, k_bits)]):
            for exclude in (None, int(idx.ids[3]), 10**6):
                for k in (0, 1, 17, 39):
                    query_topk(idx, BinaryCode(q), k, exclude_id=exclude)
        for name, was in before.items():
            now = getattr(idx, name)
            assert (now.dtype, now.shape, now.tobytes()) == (was.dtype, was.shape, was.tobytes())


class TestIdOrder:
    def test_a_shuffled_build_stores_and_answers_as_the_sorted_one(self):
        # 12-bit codes over 60 rows: many distance ties, broken by id
        rng = np.random.default_rng(21)
        n, k_bits = 60, 12
        bits = random_bits(rng, n, k_bits)
        packed = pack_bits(bits)
        ids = np.sort(rng.permutation(10 * n)[:n] * 3 - 5 * n)
        labels = rng.integers(0, 4, n)
        base = CodeIndex(packed=packed, ids=ids, k=k_bits, labels=labels)
        perm = rng.permutation(n)
        idx = CodeIndex(packed=packed[perm], ids=ids[perm], k=k_bits, labels=labels[perm])
        # rows are kept in ascending id order, codes and labels moved with their ids
        assert np.all(np.diff(idx.ids) > 0)
        np.testing.assert_array_equal(idx.ids, ids)
        np.testing.assert_array_equal(idx.packed, packed)
        np.testing.assert_array_equal(idx.labels, labels)

        rows = rng.integers(0, n, 5)
        queries = np.concatenate([bits[rows], random_bits(rng, 5, k_bits)])
        q_labels = np.concatenate([labels[rows], rng.integers(0, 4, 5)])
        q_ids = np.concatenate([ids[rows], 10**6 + np.arange(5)])
        for q, own in zip(queries, q_ids):
            for exclude in (None, own):
                got, want = (query_topk(i, BinaryCode(q), 30, exclude_id=exclude)
                             for i in (idx, base))
                assert got.ids.tolist() == want.ids.tolist()
                assert got.distances.tolist() == want.distances.tolist()
        maps, points = evaluate(queries, q_labels, idx, query_ids=q_ids)
        assert (maps, points) == evaluate(queries, q_labels, base, query_ids=q_ids)
        assert list(maps) == list(retrieval.MAP_KS) and points


class TestTopKeys:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    # a large row too: on small ones, np.partition may leave the k smallest sorted
    @pytest.mark.parametrize("shape", [(11,), (5, 11), (2000,), (3, 2000)],
                             ids=["1-D", "2-D", "1-D-large", "2-D-large"])
    def test_equals_the_argsort_ranking(self, shape, dtype):
        rng = np.random.default_rng(12)
        n = shape[-1]
        ids = rng.permutation(20 * n)[:n] * 3 - 10 * n   # shuffled, non-contiguous
        id_order = np.argsort(ids)
        rank_of_id = np.argsort(id_order)
        dist = rng.integers(0, 4, shape)                 # many ties
        key = (dist * n + rank_of_id).astype(dtype)
        order = np.argsort(key, axis=-1)
        for k in sorted({0, 1, n // 2, n - 1, n, n + 3}):
            top = retrieval._top_keys(key, k)
            assert top.dtype == dtype
            assert top.tolist() == np.take_along_axis(key, order, -1)[..., :k].tolist()
            # each key names its item: ids in rank order and their distances
            assert ids[id_order[top % n]].tolist() == ids[order[..., :k]].tolist()
            assert (top // n).tolist() == \
                np.take_along_axis(dist, order[..., :k], -1).tolist()

    def test_key_dtype_is_int32_while_every_key_fits(self):
        limit = 2**31 - 1   # (K + 2) * n bounds every key, own-row exclusion included
        assert retrieval._key_dtype(limit - 2, 1) is np.int32
        assert retrieval._key_dtype(limit - 1, 1) is np.int64
        assert retrieval._key_dtype(62, 2**25 - 1) is np.int32   # 2**31 - 64
        assert retrieval._key_dtype(62, 2**25) is np.int64       # 2**31
        assert retrieval._key_dtype(64, 3000) is np.int32


def index_with_ranks(query, rel_pattern, k_bits=16):
    """Database where item i sits at Hamming distance i+1 from the query,
    labeled 1 when rel_pattern[i] else 0 (query label is 1)."""
    rows = []
    for i in range(len(rel_pattern)):
        bits = query.copy()
        bits[: i + 1] *= -1
        rows.append(bits)
    labels = [1 if r else 0 for r in rel_pattern]
    return CodeIndex.from_bits(np.array(rows), ids=100 + np.arange(len(rows)), labels=labels)


class TestMapAtK:
    def test_all_topk_relevant_is_one(self):
        q = np.ones(16, dtype=np.int8)
        idx = index_with_ranks(q, [1, 1, 1, 1, 1, 1])
        out = map_at_k(q[None, :], [1], idx, k=3)
        assert out.value == pytest.approx(1.0)

    def test_no_relevant_in_topk_is_zero(self):
        q = np.ones(16, dtype=np.int8)
        idx = index_with_ranks(q, [0, 0, 0, 1, 1])
        out = map_at_k(q[None, :], [1], idx, k=3)
        assert out.value == 0.0

    def test_hand_case_ranks_one_and_three(self):
        # relevant at ranks 1 and 3, R = 2, k = 5 -> (1 + 2/3) / 2
        q = np.ones(16, dtype=np.int8)
        idx = index_with_ranks(q, [1, 0, 1, 0, 0, 0])
        out = map_at_k(q[None, :], [1], idx, k=5)
        assert out.value == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_queries_with_no_relevant_items_are_skipped_and_counted(self):
        q = np.ones(16, dtype=np.int8)
        idx = index_with_ranks(q, [1, 0, 1])
        queries = np.stack([q, q])
        out = map_at_k(queries, [1, 7], idx, k=2)  # label 7 has no matches
        assert out.evaluated == 1 and out.skipped == 1

    @staticmethod
    def invariance_case(rng):
        """120 12-bit codes (many distance ties) under shuffled, non-contiguous
        ids; half the queries are database members, named by their ids, and
        one fresh query's class 4 has no database item."""
        n = 120
        bits = random_bits(rng, n, 12)
        ids = rng.permutation(10 * n)[:n] * 7 - 3 * n
        labels = rng.integers(0, 4, n)
        rows = rng.integers(0, n, 8)
        queries = np.concatenate([bits[rows[:4]], random_bits(rng, 4, 12)])
        qlabels = np.concatenate([labels[rows[:4]], [4], rng.integers(0, 4, 3)])
        qids = np.concatenate([ids[rows[:4]], 10**6 + np.arange(4)])
        return bits, ids, labels, queries, qlabels, qids

    @staticmethod
    def every_result(bits, ids, labels, queries, qlabels, qids):
        """Every mAP@k the database holds, the PR curve, and each query's
        top-k (ids, distances): ties break by id, so all of it is exact."""
        idx = CodeIndex.from_bits(bits, ids=ids, labels=labels)
        maps = [(k, map_at_k(queries, qlabels, idx, k, qids)) for k in retrieval.MAP_KS
                if k <= idx.n]
        assert [k for k, _ in maps] == list(retrieval.MAP_KS)
        topk = [query_topk(idx, BinaryCode(q), 30, exclude_id=i) for q, i in zip(queries, qids)]
        return (maps, pr_curve(queries, qlabels, idx, qids),
                [(r.ids.tolist(), r.distances.tolist()) for r in topk])

    def test_database_permutation_invariance(self):
        rng = np.random.default_rng(3)
        bits, ids, labels, queries, qlabels, qids = self.invariance_case(rng)
        base = self.every_result(bits, ids, labels, queries, qlabels, qids)
        for _ in range(3):
            perm = rng.permutation(ids.size)
            assert self.every_result(bits[perm], ids[perm], labels[perm],
                                     queries, qlabels, qids) == base

    def test_renaming_the_classes_by_a_bijection_changes_no_number(self):
        rng = np.random.default_rng(13)
        bits, ids, labels, queries, qlabels, qids = self.invariance_case(rng)
        base = self.every_result(bits, ids, labels, queries, qlabels, qids)
        rename = rng.permutation(50)[:5] * 11 - 200
        assert self.every_result(bits, ids, rename[labels], queries, rename[qlabels],
                                 qids) == base

    def test_self_exclusion_drops_trivial_hit(self):
        rng = np.random.default_rng(4)
        bits = random_bits(rng, 8, 12)
        labels = np.zeros(8, dtype=int)
        idx = CodeIndex.from_bits(bits, ids=np.arange(8), labels=labels)
        with_self = map_at_k(bits[:1], [0], idx, k=3, query_ids=None)
        without = map_at_k(bits[:1], [0], idx, k=3, query_ids=np.array([0]))
        assert with_self.value == pytest.approx(1.0)  # rank-1 self hit
        assert without.evaluated == 1

    def test_moving_a_relevant_item_up_never_decreases_ap(self):
        rng = np.random.default_rng(5)
        q = np.ones(16, dtype=np.int8)
        for _ in range(50):
            pattern = (rng.random(10) > 0.6).astype(int).tolist()
            if sum(pattern) in (0, 10):
                continue
            base = map_at_k(q[None, :], [1], index_with_ranks(q, pattern), k=6).value
            # swap a relevant item with the irrelevant one directly above it
            for pos in range(1, 10):
                if pattern[pos] == 1 and pattern[pos - 1] == 0:
                    swapped = list(pattern)
                    swapped[pos - 1], swapped[pos] = 1, 0
                    better = map_at_k(q[None, :], [1],
                                      index_with_ranks(q, swapped), k=6).value
                    assert better >= base - 1e-12
                    break

    def test_matches_rational_oracle_on_random_databases(self):
        rng = np.random.default_rng(6)
        q = np.ones(16, dtype=np.int8)
        for _ in range(50):
            pattern = (rng.random(8) > 0.5).astype(int).tolist()
            if sum(pattern) == 0:
                continue
            k = int(rng.integers(1, 9))
            got = map_at_k(q[None, :], [1], index_with_ranks(q, pattern), k=k).value
            want = oracle_ap_at_k(pattern, k)
            assert abs(got - float(want)) < 1e-12


class TestPrCurve:
    def oracle_points(self, dists_rel, k_bits):
        """Exhaustive enumeration of the sweep for one query set."""
        points = []
        for radius in range(k_bits + 1):
            recalls, precisions = [], []
            for dists, rel in dists_rel:
                ret = [d <= radius for d in dists]
                hits = sum(1 for r, in_ret in zip(rel, ret) if r and in_ret)
                recalls.append(hits / sum(rel))
                if any(ret):
                    precisions.append(hits / sum(ret))
            if precisions:
                points.append((float(np.mean(recalls)), float(np.mean(precisions))))
        return points

    def test_full_radius_reaches_recall_one(self):
        rng = np.random.default_rng(7)
        bits = random_bits(rng, 15, 8)
        labels = rng.integers(0, 2, 15)
        idx = CodeIndex.from_bits(bits, labels=labels)
        points = pr_curve(random_bits(rng, 4, 8), rng.integers(0, 2, 4), idx)
        assert points[-1][0] == pytest.approx(1.0)

    def test_radius_zero_without_duplicates_gives_no_point(self):
        q = np.ones(8, dtype=np.int8)[None, :]
        bits = -np.ones((3, 8), dtype=np.int8)
        bits[1, 0] = 1
        bits[2, :2] = 1
        idx = CodeIndex.from_bits(bits, labels=[1, 1, 0])
        points = pr_curve(q, [1], idx)
        # distances are 8, 7, 6: radii 0..5 retrieve nothing and are skipped
        assert len(points) == 3

    def test_recall_monotone_nondecreasing(self):
        rng = np.random.default_rng(8)
        bits = random_bits(rng, 25, 12)
        labels = rng.integers(0, 3, 25)
        idx = CodeIndex.from_bits(bits, labels=labels)
        points = pr_curve(random_bits(rng, 5, 12), rng.integers(0, 3, 5), idx)
        recalls = [p[0] for p in points]
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))

    def test_four_item_hand_example_matches_enumeration_oracle(self):
        q = np.ones(8, dtype=np.int8)
        rows, dists = [], [0, 2, 3, 5]
        for d in dists:
            bits = q.copy()
            bits[:d] *= -1
            rows.append(bits)
        labels = [1, 0, 1, 1]
        idx = CodeIndex.from_bits(np.array(rows), labels=labels)
        got = pr_curve(q[None, :], [1], idx)
        rel = [lab == 1 for lab in labels]
        want = self.oracle_points([(dists, rel)], 8)
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_enumeration_oracle_on_random_databases(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            bits = random_bits(rng, 12, 10)
            labels = rng.integers(0, 2, 12)
            queries = random_bits(rng, 3, 10)
            qlabels = rng.integers(0, 2, 3)
            idx = CodeIndex.from_bits(bits, labels=labels)
            got = pr_curve(queries, qlabels, idx)

            pairs = []
            for qi in range(3):
                dists = [oracle_hamming(queries[qi], bits[i]) for i in range(12)]
                rel = [labels[i] == qlabels[qi] for i in range(12)]
                if sum(rel):
                    pairs.append((dists, rel))
            want = self.oracle_points(pairs, 10)
            assert got == pytest.approx(want, abs=1e-12)


# -- straight-line oracles: the per-query ranking loop the evaluation used
# before it computed one distance matrix per call -----------------------------

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def oracle_rank_all(idx, query_row, exclude_id=None):
    """Byte-table popcounts of one query against every database row, the
    row sharing the query's id dropped, then a stable (distance, id) sort."""
    packed_q = pack_bits(np.asarray(query_row).astype(np.int8)[None])
    dists = _POPCOUNT[np.bitwise_xor(idx.packed, packed_q)].sum(axis=1).astype(np.int64)
    ids = idx.ids
    labels = idx.labels
    if exclude_id is not None:
        keep = ids != exclude_id
        dists, ids = dists[keep], ids[keep]
        labels = labels[keep] if labels is not None else None
    order = np.lexsort((ids, dists))
    return ids[order], dists[order], (labels[order] if labels is not None else None)


def oracle_map_at_k(query_bits, query_labels, idx, k, query_ids=None):
    ap_sum = 0.0
    evaluated = 0
    skipped = 0
    for qi in range(query_bits.shape[0]):
        exclude = query_ids[qi] if query_ids is not None else None
        _, _, labels = oracle_rank_all(idx, query_bits[qi], exclude)
        rel = labels == query_labels[qi]
        r_total = int(rel.sum())
        if r_total == 0:
            skipped += 1
            continue
        top = rel[:k]
        hits = np.cumsum(top)
        precision_at = hits / np.arange(1, top.size + 1)
        ap = float((precision_at * top).sum()) / min(r_total, k)
        ap_sum += ap
        evaluated += 1
    if evaluated == 0:
        return None
    return MapScore(value=ap_sum / evaluated, evaluated=evaluated, skipped=skipped)


def oracle_pr_curve(query_bits, query_labels, idx, query_ids=None):
    per_query = []
    for qi in range(query_bits.shape[0]):
        exclude = query_ids[qi] if query_ids is not None else None
        _, dists, labels = oracle_rank_all(idx, query_bits[qi], exclude)
        rel = labels == query_labels[qi]
        if rel.sum() == 0:
            continue
        per_query.append((dists, rel))
    points = []
    for radius in range(idx.k + 1):
        recalls, precisions = [], []
        for dists, rel in per_query:
            retrieved = dists <= radius
            n_ret = int(retrieved.sum())
            n_hit = int((retrieved & rel).sum())
            recalls.append(n_hit / int(rel.sum()))
            if n_ret > 0:
                precisions.append(n_hit / n_ret)
        if precisions:
            points.append((float(np.mean(recalls)), float(np.mean(precisions))))
    return points


def oracle_case(rng, k_bits, n, nq, n_classes, all_equal):
    """Database with shuffled, non-contiguous (partly negative) ids; about half
    the queries are database members (same id, code and label), the rest are
    fresh codes whose labels may match no database item."""
    if all_equal:
        bits = np.tile(random_bits(rng, 1, k_bits), (n, 1))
    else:
        bits = random_bits(rng, n, k_bits)
    ids = rng.permutation(20 * n)[:n] * 3 - 10 * n
    labels = rng.integers(0, n_classes, n)
    idx = CodeIndex.from_bits(bits, ids=ids, labels=labels)
    members = rng.random(nq) < 0.5
    rows = rng.integers(0, n, nq)
    fresh = np.tile(bits[:1], (nq, 1)) if all_equal else random_bits(rng, nq, k_bits)
    q_bits = np.where(members[:, None], bits[rows], fresh)
    q_labels = np.where(members, labels[rows], rng.integers(0, n_classes + 1, nq))
    q_ids = np.where(members, ids[rows], 10**6 + np.arange(nq))
    return idx, q_bits, q_labels, q_ids


def relabeled_case(rng, k_bits, n, nq, n_classes, all_equal):
    """An oracle_case whose labels are sparse and negative (1000 c - 7), and
    whose queries, members included, may take another label: one of the
    database's classes, or one it lacks, below, between or above them."""
    idx, q_bits, q_labels, q_ids = oracle_case(rng, k_bits, n, nq, n_classes, all_equal)
    q_labels = np.where(rng.random(nq) < 0.5, rng.integers(-1, n_classes + 2, nq), q_labels)
    idx = CodeIndex(packed=idx.packed, ids=idx.ids, k=idx.k, labels=1000 * idx.labels - 7)
    return idx, q_bits, 1000 * q_labels - 7, q_ids


def check_against_oracle(k_bits, n, nq, n_classes, all_equal, with_ids, block_rows, seed,
                         make_case=oracle_case):
    """map_at_k, pr_curve and query_topk on one case from make_case equal the
    oracles exactly, and one evaluate sweep over every cutoff equals map_at_k
    per cutoff and pr_curve; returns the case's index."""
    rng = np.random.default_rng(seed)
    idx, q_bits, q_labels, q_ids = make_case(rng, k_bits, n, nq, n_classes, all_equal)
    # without query ids, member queries keep their own row in the results
    q_ids = q_ids if with_ids else None
    with pytest.MonkeyPatch.context() as mp:
        # blocks of block_rows queries; the last one is ragged unless it divides nq
        mp.setattr(numerics, "BLOCK_BYTES", block_rows * 8 * n)
        ks = sorted({1, 2, 5, max(1, n - 1), n, n + 1, n + 7})
        scores = {}
        for k in ks:
            want = oracle_map_at_k(q_bits, q_labels, idx, k, q_ids)
            if want is None:
                with pytest.raises(ValueError, match="no evaluable queries"):
                    map_at_k(q_bits, q_labels, idx, k, q_ids)
                continue
            scores[k] = got = map_at_k(q_bits, q_labels, idx, k, q_ids)
            assert (got.value, got.evaluated, got.skipped) == \
                (want.value, want.evaluated, want.skipped)
        points = pr_curve(q_bits, q_labels, idx, q_ids)
        assert points == oracle_pr_curve(q_bits, q_labels, idx, q_ids)
        if scores:
            assert evaluate(q_bits, q_labels, idx, ks, q_ids) == (scores, points)
        else:   # no query has a relevant item: no cutoff scores
            with pytest.raises(ValueError, match="no evaluable queries"):
                evaluate(q_bits, q_labels, idx, ks, q_ids)

    for qi in range(nq):
        exclude = q_ids[qi] if with_ids else None
        ids, dists, _ = oracle_rank_all(idx, q_bits[qi], exclude)
        code = BinaryCode(q_bits[qi])
        for k in sorted({0, min(1, ids.size), ids.size // 2, ids.size}):
            got = query_topk(idx, code, k, exclude_id=exclude)
            assert got.ids.tolist() == ids[:k].tolist()
            assert got.distances.tolist() == dists[:k].tolist()
        with pytest.raises(ValueError):
            query_topk(idx, code, ids.size + 1, exclude_id=exclude)
    return idx


# (k_bits, n, nq, n_classes, all_equal, with_ids, block_rows, seed)
ORACLE_CASES = st.tuples(st.sampled_from(WIDTHS), st.integers(1, 30), st.integers(1, 17),
                         st.integers(1, 4), st.booleans(), st.booleans(), st.integers(1, 6),
                         st.integers(0, 2**32 - 1))


class TestAgainstOracle:
    @given(ORACLE_CASES)
    @settings(max_examples=80, deadline=None)
    def test_map_pr_and_topk_match_oracle(self, case):
        assert check_against_oracle(*case).rank_of_id.dtype == np.int32

    @given(ORACLE_CASES)
    @settings(max_examples=25, deadline=None)
    def test_int64_keys_match_oracle(self, case):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retrieval, "_key_dtype", lambda k, n: np.int64)
            assert check_against_oracle(*case).rank_of_id.dtype == np.int64

    @pytest.mark.parametrize("k_bits", WIDTHS)
    def test_int64_keys_match_oracle_at_every_width(self, k_bits, monkeypatch):
        # keys are int32 at every size above; both query paths on int64 ones
        monkeypatch.setattr(retrieval, "_key_dtype", lambda k, n: np.int64)
        # (n, nq, n_classes, all_equal, with_ids, block_rows, seed)
        for case in ((23, 9, 3, False, True, 4, k_bits), (6, 5, 2, True, True, 2, k_bits + 1),
                     (17, 7, 4, False, False, 3, k_bits + 2)):
            assert check_against_oracle(k_bits, *case).rank_of_id.dtype == np.int64

    @pytest.mark.parametrize("key_dtype", [np.int32, np.int64])
    @given(ORACLE_CASES)
    @settings(max_examples=40, deadline=None)
    def test_label_table_cases_match_oracle(self, key_dtype, case):
        # query ids on: a relabeled member's own row is excluded but not relevant
        case = case[:5] + (True,) + case[6:]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retrieval, "_key_dtype", lambda k, n: key_dtype)
            idx = check_against_oracle(*case, make_case=relabeled_case)
        assert idx.rank_of_id.dtype == key_dtype

    def test_relabeled_case_covers_the_label_table_cases(self):
        rng = np.random.default_rng(14)
        idx, _, q_labels, q_ids = relabeled_case(rng, 16, 30, 40, 3, False)
        own = idx._rows_of(q_ids)
        member = own >= 0
        assert np.any(member & (idx.labels[own] != q_labels))   # relabeled member
        assert np.any(~np.isin(q_labels, idx.labels))           # label absent
        assert np.all(idx.labels % 1000 == 993) and np.any(idx.labels < 0)

    def test_ragged_query_blocks_one_distance_matrix_each(self, monkeypatch):
        rng = np.random.default_rng(10)
        idx, q_bits, q_labels, q_ids = oracle_case(rng, 65, 30, 23, 3, False)
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 5 * 8 * idx.n)  # 5, 5, 5, 5, 3
        calls = []
        kernel = retrieval.packed_distances
        monkeypatch.setattr(retrieval, "packed_distances",
                            lambda db, q, dtype: calls.append(q.shape[0]) or kernel(db, q, dtype))
        for k in (1, 5, 29, 30, 31):
            got = map_at_k(q_bits, q_labels, idx, k, q_ids)
            want = oracle_map_at_k(q_bits, q_labels, idx, k, q_ids)
            assert (got.value, got.evaluated, got.skipped) == \
                (want.value, want.evaluated, want.skipped)
        points = pr_curve(q_bits, q_labels, idx, q_ids)
        assert points == oracle_pr_curve(q_bits, q_labels, idx, q_ids)
        assert calls == [5, 5, 5, 5, 3] * 6

        # one sweep over every cutoff, one past n included, and the PR curve
        calls.clear()
        maps, got_points = evaluate(q_bits, q_labels, idx, (1, 5, 29, 30, 31), q_ids)
        assert calls == [5, 5, 5, 5, 3]
        assert got_points == points
        for k, score in maps.items():
            assert score == map_at_k(q_bits, q_labels, idx, k, q_ids)
            assert score.skipped > 0   # some query's class is not in the database

    @pytest.mark.parametrize("k_bits", WIDTHS)
    def test_packed_distances_matrix(self, k_bits):
        rng = np.random.default_rng(k_bits)
        db, q = random_bits(rng, 9, k_bits), random_bits(rng, 4, k_bits)
        db_words, q_words = CodeIndex.from_bits(db).words, CodeIndex.from_bits(q).words
        n_bytes = -(-k_bits // 8)   # the narrowest of 1-, 4- and 8-byte words that holds a row
        word = {1: np.uint8, 2: np.uint32, 3: np.uint32, 4: np.uint32}.get(n_bytes, np.uint64)
        for words in (db_words, q_words):
            assert words.dtype == word
            assert words.shape[1] == -(-n_bytes // words.itemsize)
        want = [[oracle_hamming(a, b) for b in db] for a in q]
        for dtype in (np.int32, np.int64):   # the key dtypes, and the PR sweep's
            got = retrieval.packed_distances(db_words, q_words, dtype)
            assert got.dtype == dtype
            assert got.tolist() == want


class TestQueryValidation:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.bits = random_bits(rng, 6, 8)
        self.idx = CodeIndex.from_bits(self.bits, ids=np.arange(6), labels=[0, 1, 0, 1, 1, 0])

    @pytest.mark.parametrize("evaluate", [
        lambda q, lab, idx, **kw: map_at_k(q, lab, idx, 3, **kw),
        lambda q, lab, idx, **kw: pr_curve(q, lab, idx, **kw),
    ], ids=["map_at_k", "pr_curve"])
    def test_bad_query_sets_raise_shape_error(self, evaluate):
        q = self.bits[:2]
        with pytest.raises(ShapeError, match="query_labels"):
            evaluate(q, [0, 1, 0, 1, 1], self.idx)      # too many labels
        with pytest.raises(ShapeError, match="query_labels"):
            evaluate(q, [0], self.idx)                  # too few labels
        with pytest.raises(ShapeError, match="query_ids"):
            evaluate(q, [0, 1], self.idx, query_ids=[0, 1, 2])
        with pytest.raises(ShapeError, match="query_ids"):
            evaluate(q, [0, 1], self.idx, query_ids=[0])
        with pytest.raises(ShapeError, match="query_bits"):
            evaluate(self.bits[0], [0], self.idx)       # one 1-D code
        with pytest.raises(ShapeError, match="query_bits"):
            evaluate(self.bits[:0], [], self.idx)       # no queries
        with pytest.raises(ShapeError, match="16 bits, index has 8"):
            evaluate(np.ones((2, 16), dtype=np.int8), [0, 1], self.idx)

    @pytest.mark.parametrize("query_ids", [[1.2, 7.0], [True, False]], ids=["float", "bool"])
    def test_query_ids_must_have_an_integer_dtype(self, query_ids):
        # the float id 1.2 once excluded database id 1 by truncation
        with pytest.raises(ValueError, match="^query_ids must have an integer dtype"):
            evaluate(self.bits[:2], [0, 1], self.idx, query_ids=query_ids)
        with pytest.raises(ValueError, match="^query_ids must have an integer dtype"):
            evaluate_packed(pack_bits(self.bits[:2]), [0, 1], self.idx, query_ids=query_ids)

    def test_bad_packed_query_rows_raise(self):
        packed = pack_bits(self.bits[:2])
        for bad in (packed.astype(np.int8), packed[:, :0], packed[:0], packed[0],
                    np.zeros((2, 2), dtype=np.uint8)):
            with pytest.raises(ShapeError, match="8-bit codes"):
                evaluate_packed(bad, [0, 1], self.idx)
        # 6-bit codes leave two pad bits in their byte, which must be zero
        idx6 = CodeIndex.from_bits(self.bits[:, :6], labels=[0, 1, 0, 1, 1, 0])
        rows = pack_bits(self.bits[:2, :6])
        assert evaluate_packed(rows, [0, 1], idx6, (3,))[0][3] == \
            map_at_k(self.bits[:2, :6], [0, 1], idx6, 3)
        rows[1, 0] |= 1 << 6
        with pytest.raises(ValueError, match="pad bits past bit 6"):
            evaluate_packed(rows, [0, 1], idx6)

    def test_map_needs_positive_k(self):
        for k in (0, -3):
            with pytest.raises(ValueError, match=f"cutoff k={k}"):
                map_at_k(self.bits[:2], [0, 1], self.idx, k)
        with pytest.raises(ValueError, match="cutoff k=0"):
            evaluate(self.bits[:2], [0, 1], self.idx, (5, 0))

    # operator.index takes a bool, but a bool is not a cutoff
    @pytest.mark.parametrize("k", [True, np.True_, 3.0, np.float64(3), "3"],
                             ids=["bool", "numpy-bool", "float", "numpy-float", "str"])
    def test_map_needs_an_integer_k(self, k):
        with pytest.raises(TypeError, match=re.escape(f"cutoff k={k!r} is not an integer")):
            map_at_k(self.bits[:2], [0, 1], self.idx, k)
        with pytest.raises(TypeError, match="is not an integer"):
            evaluate(self.bits[:2], [0, 1], self.idx, (5, k))

    def test_cutoffs_are_integers_each_scored_once(self):
        maps, points = evaluate(self.bits[:2], [0, 1], self.idx, (np.int64(3), 1, 3))
        assert list(maps) == [3, 1] and all(type(k) is int for k in maps)
        assert maps[3] == map_at_k(self.bits[:2], [0, 1], self.idx, 3)
        assert points == pr_curve(self.bits[:2], [0, 1], self.idx)

    @pytest.mark.parametrize("labels", [[0.5, 0.7, 1.5, 0.5, 0.7, 1.5], np.zeros(6),
                                        [True, False] * 3],
                             ids=["fractional", "float-integers", "bool"])
    def test_labels_must_have_an_integer_dtype(self, labels):
        # an int64 cast once stored 0.5 and 0.7 as 0, so that a query
        # labelled 0.5 matched nothing and was skipped
        with pytest.raises(ValueError, match="^labels must have an integer dtype"):
            CodeIndex.from_bits(self.bits, labels=labels)
        with pytest.raises(ValueError, match="^query_labels must have an integer dtype"):
            evaluate(self.bits[:2], labels[:2], self.idx)
        with pytest.raises(ValueError, match="^query_labels must have an integer dtype"):
            evaluate_packed(pack_bits(self.bits[:2]), labels[:2], self.idx)
        # any integer dtype is a label
        labels = np.array([0, 1, 0, 1, 1, 0], dtype=np.uint8)
        idx = CodeIndex.from_bits(self.bits, ids=np.arange(6), labels=labels)
        assert evaluate(self.bits[:2], labels[:2], idx) == \
            evaluate(self.bits[:2], [0, 1], self.idx)

    def test_index_rejects_packed_rows_of_the_wrong_width(self):
        with pytest.raises(ShapeError):
            CodeIndex(packed=np.zeros((3, 2), dtype=np.uint8), ids=np.arange(3), k=8)

    @pytest.mark.parametrize("packed", [np.array([[300, 1]]), np.zeros((3, 2), np.int64)],
                             ids=["out-of-byte", "zeros"])
    def test_index_refuses_int64_rows(self, packed):
        # a uint8 cast would store 300 as 44
        with pytest.raises(ShapeError, match="16-bit codes pack into"):
            CodeIndex(packed=packed, ids=np.arange(len(packed)), k=16)
