"""Anchor graph: k-means, sparse affinity, streaming adjacency, row labels."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkph import graph, numerics
from dkph.exceptions import DegenerateAnchorError, SamplingError
from dkph.graph import (
    AnchorSet,
    SignedGraph,
    SparseAffinity,
    _label_rows,
    adjacency_row,
    build_affinity,
    build_signed_graph,
    default_bandwidth,
    kmeans,
    sample_pairs,
)


def graph_from_rows(positives, negatives) -> SignedGraph:
    """The compressed-row SignedGraph of per-video neighbour lists."""
    assert len(positives) == len(negatives)
    rows = [np.asarray(r, dtype=np.int64) for r in [*positives, *negatives]]
    bounds = np.cumsum([0, *(r.size for r in rows)], dtype=np.int64)
    n = len(positives)
    return SignedGraph(offsets=np.stack([bounds[:n + 1], bounds[n:]]),
                       indices=np.concatenate([np.zeros(0, np.int64), *rows]))


def label_row(row_idx, row_vals, i, lambda1, lambda2):
    """(positive, negative) neighbours of video i by the threshold rule over
    its row of A, given as video indices and values: the one-row case of
    ``_label_rows``."""
    pos, neg = _label_rows(row_vals[None, :], (row_idx != i)[None, :], lambda1, lambda2)
    return row_idx[pos[0]], row_idx[neg[0]]


def dense_affinity(points, anchors, p, alpha):
    """Direct dense evaluation of the affinity formula (oracle)."""
    pts = np.asarray(points, dtype=np.float64)
    z = np.zeros((pts.shape[0], anchors.centers.shape[0]))
    for i in range(pts.shape[0]):
        d = np.linalg.norm(pts[i] - anchors.centers, axis=1)
        nearest = np.argsort(d, kind="stable")[:p]
        e = np.exp(-d[nearest] / alpha)
        z[i, nearest] = e / e.sum()
    return z


def dense_adjacency(z_dense):
    lam = np.diag(z_dense.sum(axis=0))
    return z_dense @ np.linalg.inv(lam) @ z_dense.T


def brute_force_labels(vals, pt, nt, mu):
    """The two-line labeler from the threshold rule, entry by entry."""
    return [1 if v >= pt else (-1 if nt < v < mu else 0) for v in vals]


def inertia(points, anchors):
    """Sum of squared distances of the points to their assigned centres."""
    diff = points - anchors.centers[anchors.assignments]
    return float((diff * diff).sum())


def oracle_adjacency_row(i, z):
    """Row i of A by the per-entry dict loop (oracle for the block kernel).

    Every video j whose slot holds a nonzero weight on one of i's anchors
    gets an entry, even when z_ik * z_jk underflows to 0.0.
    """
    acc = {}
    for slot in range(z.p):
        k = int(z.center_idx[i, slot])
        zik = float(z.weights[i, slot])
        if zik == 0.0:
            continue
        mass = float(z.center_mass[k])
        if mass <= 0.0:
            raise DegenerateAnchorError(k)
        for j in range(z.n):
            slots = np.nonzero(z.center_idx[j] == k)[0]
            zjk = float(z.weights[j, slots[0]]) if slots.size else 0.0
            if zjk:
                acc[j] = acc.get(j, 0.0) + zik * zjk / mass
    idx = np.array(sorted(acc), dtype=np.int64)
    return idx, np.array([acc[j] for j in idx], dtype=np.float64)


def oracle_signed_row(idx, vals, i, lambda1, lambda2):
    """Thresholds over the nonzero off-diagonal entries, then the sign rule
    over every off-diagonal entry of the row (oracle)."""
    keep = (idx != i) & (vals != 0.0)
    support = vals[keep]
    if support.size < 2:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    mu, eps = float(support.mean()), float(support.std())
    pt, nt = mu + lambda1 * eps, mu - lambda2 * eps
    off = idx != i
    idx, vals = idx[off], vals[off]
    return idx[vals >= pt], idx[(nt < vals) & (vals < mu)]


def oracle_signed_graph(z, lambda1, lambda2):
    """(positives, negatives, rows without edges) row by row (oracle)."""
    positives, negatives = [], []
    for i in range(z.n):
        idx, vals = oracle_adjacency_row(i, z)
        pos, neg = oracle_signed_row(idx, vals, i, lambda1, lambda2)
        positives.append(pos)
        negatives.append(neg)
    isolated = [i for i in range(z.n) if positives[i].size == 0 and negatives[i].size == 0]
    return positives, negatives, isolated


def assert_graph_matches_oracle(z, lambda1, lambda2):
    """build_signed_graph and adjacency_row agree exactly with the oracles."""
    want_pos, want_neg, want_iso = oracle_signed_graph(z, lambda1, lambda2)
    g = build_signed_graph(z, lambda1, lambda2)
    assert g.n == z.n
    assert g.offsets.shape == (2, z.n + 1) and g.offsets.dtype == g.indices.dtype == np.int64
    assert g.offsets[0, 0] == 0 and g.offsets[1, 0] == g.offsets[0, -1]
    assert g.offsets[1, -1] == g.indices.size
    for i in range(z.n):
        np.testing.assert_array_equal(g.positives[i], want_pos[i])
        np.testing.assert_array_equal(g.negatives[i], want_neg[i])
        idx, vals = adjacency_row(i, z)
        want_idx, want_vals = oracle_adjacency_row(i, z)
        np.testing.assert_array_equal(idx, want_idx)
        np.testing.assert_array_equal(vals, want_vals)
    assert g.isolated.tolist() == want_iso
    return g


class TestKmeans:
    def test_each_point_its_own_center_when_nc_equals_n(self):
        pts = np.random.default_rng(0).normal(size=(8, 3))
        out = kmeans(pts, 8, seed=1)
        assert inertia(pts, out) == pytest.approx(0.0, abs=1e-20)
        assert sorted(out.assignments.tolist()) == list(range(8))

    def test_two_separated_blobs_recover_blob_means(self):
        rng = np.random.default_rng(2)
        blob_a = np.array([10.0, 0.0]) + 0.1 * rng.normal(size=(30, 2))
        blob_b = np.array([-10.0, 5.0]) + 0.1 * rng.normal(size=(30, 2))
        out = kmeans(np.vstack([blob_a, blob_b]), 2, seed=3)
        means = {tuple(np.round(blob_a.mean(axis=0), 6)), tuple(np.round(blob_b.mean(axis=0), 6))}
        got = {tuple(np.round(c, 6)) for c in out.centers}
        for center in out.centers:
            best = min(np.linalg.norm(center - blob_a.mean(axis=0)),
                       np.linalg.norm(center - blob_b.mean(axis=0)))
            assert best < 1e-6
        assert len(got) == 2 and len(means) == 2

    def test_duplicate_points_reseed_keeps_zero_inertia(self):
        pts = np.tile([1.0, 2.0], (6, 1))
        out = kmeans(pts, 2, seed=4)
        assert inertia(pts, out) == 0.0
        np.testing.assert_allclose(out.centers, np.tile([1.0, 2.0], (2, 1)))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 4)

    def test_zero_centers_rejected(self):
        with pytest.raises(ValueError, match="at least 1 center, got 0"):
            kmeans(np.zeros((3, 2)), 0)

    def test_equals_broadcast_distance_copy_on_separated_blobs(self, monkeypatch):
        rng = np.random.default_rng(14)
        means = 20.0 * rng.normal(size=(6, 5))
        pts = np.repeat(means, 15, axis=0) + rng.normal(size=(90, 5))
        got = kmeans(pts, 6, seed=15)

        def broadcast_sq_dists(pts, centers):
            diff = pts[:, None, :] - centers[None, :, :]
            return (diff * diff).sum(axis=2)

        monkeypatch.setattr(graph, "_sq_dists", broadcast_sq_dists)
        want = kmeans(pts, 6, seed=15)
        np.testing.assert_array_equal(got.centers, want.centers)
        np.testing.assert_array_equal(got.assignments, want.assignments)

    def test_inertia_non_increasing(self, monkeypatch):
        pts = np.random.default_rng(5).normal(size=(60, 4))
        prev = math.inf
        for iters in (1, 2, 5, 20):
            monkeypatch.setattr(graph, "KMEANS_ITERS", iters)
            now = inertia(pts, kmeans(pts, 6, seed=6))
            assert now <= prev + 1e-12
            prev = now

    def test_expanded_sq_dists_match_broadcast_argmin_within_tolerance(self):
        # the expansion rounds differently from the explicit difference: same
        # nearest centre on tie-free data, values within 1e-12 (|x|^2 + |c|^2),
        # and never negative, also at a point that coincides with a centre
        rng = np.random.default_rng(13)
        pts, centers = 3.0 * rng.normal(size=(37, 11)), rng.normal(size=(5, 11))
        pts[7] = centers[2]
        diff = pts[:, None, :] - centers[None, :, :]
        plain = (diff * diff).sum(axis=2)
        got = graph._sq_dists(pts, centers)
        scale = (pts * pts).sum(axis=1)[:, None] + (centers * centers).sum(axis=1)
        assert np.all(np.abs(got - plain) <= 1e-12 * scale)
        assert np.all(got >= 0.0)
        np.testing.assert_array_equal(got.argmin(axis=1), plain.argmin(axis=1))
        assert got.argmin(axis=1)[7] == 2

    def test_deterministic_under_seed(self):
        pts = np.random.default_rng(7).normal(size=(40, 3))
        a = kmeans(pts, 5, seed=8)
        b = kmeans(pts, 5, seed=8)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.assignments, b.assignments)


class TestAffinity:
    def test_single_nearest_center_gets_weight_one(self):
        pts = np.random.default_rng(0).normal(size=(5, 3))
        anchors = kmeans(pts, 3, seed=1)
        z = build_affinity(pts, anchors, p=1, alpha=0.5)
        np.testing.assert_array_equal(z.weights, np.ones((5, 1)))

    def test_equidistant_centers_split_evenly_for_any_alpha(self):
        anchors = AnchorSet(centers=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                            assignments=np.zeros(1, dtype=np.int64))
        for alpha in (0.1, 1.0, 17.0):
            z = build_affinity(np.array([[0.0, 3.0]]), anchors, p=2, alpha=alpha)
            np.testing.assert_allclose(z.weights, [[0.5, 0.5]], atol=1e-15)

    def test_matches_dense_formula_oracle(self):
        pts = np.random.default_rng(2).normal(size=(3, 4))
        anchors = kmeans(pts, 2, seed=3)
        z = build_affinity(pts, anchors, p=2, alpha=1.0)
        dense = dense_affinity(pts, anchors, p=2, alpha=1.0)
        for i in range(3):
            for slot in range(2):
                assert z.weights[i, slot] == pytest.approx(
                    dense[i, z.center_idx[i, slot]], abs=1e-12
                )

    def test_rows_sum_to_one(self):
        pts = np.random.default_rng(4).normal(size=(50, 6))
        anchors = kmeans(pts, 8, seed=5)
        z = build_affinity(pts, anchors, p=4, alpha=default_bandwidth(pts, anchors, 4))
        np.testing.assert_allclose(z.weights.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(z.weights >= 0)

    def test_nearest_centers_lower_index_wins_and_distances_are_the_broadcast(self):
        # integer data make every squared distance exact, so duplicate
        # centres tie exactly and the lower index must come first
        rng = np.random.default_rng(16)
        centers = np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 0.0]])[[0, 1, 0, 1, 0]]
        pts = rng.integers(-4, 5, size=(40, 3)).astype(np.float64)
        nearest, _ = graph._nearest_centers(pts, centers, 5)
        dup = np.where(nearest % 2 == 0, 0, 1)
        for row, d in zip(nearest, dup):
            for group in (0, 1):
                assert row[d == group].tolist() == sorted(row[d == group].tolist())
        # the chosen distances carry the bits of the broadcast's entries
        pts = rng.normal(size=(40, 3))
        nearest, dists = graph._nearest_centers(pts, centers, 3)
        diff = pts[:, None, :] - centers[None, :, :]
        plain = np.sqrt((diff * diff).sum(axis=2))
        np.testing.assert_array_equal(dists, np.take_along_axis(plain, nearest, axis=1))
        np.testing.assert_array_equal(nearest, np.argsort(plain, axis=1, kind="stable")[:, :3])

    def test_default_alpha_is_the_default_bandwidth(self):
        pts = np.random.default_rng(18).normal(size=(60, 5))
        anchors = kmeans(pts, 7, seed=19)
        want = build_affinity(pts, anchors, p=3, alpha=default_bandwidth(pts, anchors, 3))
        got = build_affinity(pts, anchors, p=3)
        np.testing.assert_array_equal(got.center_idx, want.center_idx)
        np.testing.assert_array_equal(got.weights, want.weights)

    @pytest.mark.parametrize("p", [0, 6])
    def test_bandwidth_rejects_p_outside_the_centers(self, p):
        pts = np.random.default_rng(17).normal(size=(30, 2))
        anchors = AnchorSet(centers=pts[:5].copy(), assignments=np.zeros(30, dtype=np.int64))
        with pytest.raises(ValueError, match=rf"p must be in \[1, 5\], got {p}"):
            default_bandwidth(pts, anchors, p)

    def test_parameter_validation(self):
        pts = np.zeros((4, 2))
        anchors = AnchorSet(centers=np.zeros((2, 2)),
                            assignments=np.zeros(4, dtype=np.int64))
        with pytest.raises(ValueError):
            build_affinity(pts, anchors, p=3, alpha=1.0)
        with pytest.raises(ValueError):
            build_affinity(pts, anchors, p=1, alpha=0.0)

    def test_a_zero_default_bandwidth_is_refused(self):
        # every point sits on its centres: the default bandwidth is 0, and
        # its weights once came out NaN, so that the graph had no edges
        pts = np.ones((12, 3))
        anchors = kmeans(pts, 4)
        assert default_bandwidth(pts, anchors, 2) == 0.0
        with pytest.raises(ValueError, match="bandwidth must be positive, got 0.0"):
            build_affinity(pts, anchors, p=2)


class TestAdjacencyRow:
    def test_single_video_row_is_one(self):
        pts = np.array([[1.0, 2.0]])
        anchors = AnchorSet(centers=np.array([[0.0, 0.0], [5.0, 5.0]]),
                            assignments=np.zeros(1, dtype=np.int64))
        z = build_affinity(pts, anchors, p=2, alpha=1.0)
        idx, vals = adjacency_row(0, z)
        assert idx.tolist() == [0]
        assert vals[0] == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_anchor_support_gives_zero(self):
        # two far clusters, p=1: cross entries never materialize
        pts = np.vstack([np.zeros((3, 2)), 100.0 + np.zeros((3, 2))])
        pts += 0.01 * np.random.default_rng(0).normal(size=(6, 2))
        anchors = kmeans(pts, 2, seed=1)
        z = build_affinity(pts, anchors, p=1, alpha=1.0)
        idx, _ = adjacency_row(0, z)
        assert all(j < 3 for j in idx)

    @pytest.mark.parametrize("n,nc,p,seed", [(6, 3, 2, 0), (25, 5, 3, 1), (40, 8, 8, 2)])
    def test_matches_dense_product_oracle(self, n, nc, p, seed):
        pts = np.random.default_rng(seed).normal(size=(n, 5))
        anchors = kmeans(pts, nc, seed=seed + 10)
        alpha = default_bandwidth(pts, anchors, p)
        z = build_affinity(pts, anchors, p=p, alpha=alpha)
        dense = dense_adjacency(dense_affinity(pts, anchors, p, alpha))
        for i in range(n):
            idx, vals = adjacency_row(i, z)
            row = np.zeros(n)
            row[idx] = vals
            np.testing.assert_allclose(row, dense[i], atol=1e-12)
            assert vals.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_mass_center_raises_naming_the_center(self):
        pts = np.random.default_rng(3).normal(size=(4, 2))
        anchors = kmeans(pts, 2, seed=4)
        z = build_affinity(pts, anchors, p=2, alpha=1.0)
        bad = int(z.center_idx[0, 0])
        z.center_mass[bad] = 0.0
        with pytest.raises(DegenerateAnchorError) as exc:
            adjacency_row(0, z)
        assert exc.value.center == bad


# Rows whose mean and std are exact in binary: the support [0.25, 0.75] has
# mu = 0.5 and eps = 0.25, so PT = 0.5 + 0.25 * lambda1 and
# NT = 0.5 - 0.25 * lambda2 land on entries for integer lambdas.


class TestThresholds:
    def test_two_point_hand_case(self):
        # lambda1 = lambda2 = 1: PT = 0.75 and NT = 0.25, both entries of the row
        pos, neg = label_row(np.array([1, 2]), np.array([0.25, 0.75]), i=0,
                             lambda1=1.0, lambda2=1.0)
        assert pos.tolist() == [2] and neg.size == 0
        pos, neg = label_row(np.array([1, 2]), np.array([0.25, 0.75]), i=0,
                             lambda1=1.0, lambda2=2.0)  # NT = 0
        assert pos.tolist() == [2] and neg.tolist() == [1]

    def test_constant_row_collapses_thresholds_and_labels_all_positive(self):
        idx = np.array([0, 1, 2, 3])
        vals = np.array([0.25, 0.25, 0.25, 0.25])
        pos, neg = label_row(idx, vals, i=0, lambda1=2.0, lambda2=1.0)
        assert pos.tolist() == [1, 2, 3]  # self entry stripped
        assert neg.size == 0

    def test_self_and_zero_entries_excluded_from_support(self):
        # support {0.25, 0.75}: PT = 0.75 and NT = 0.375. Counting the self
        # entry 0.9 would lift PT above 0.75; counting the zero would lower
        # mu to 1/3 and NT below 0.25, making 0.25 a negative.
        idx = np.array([0, 1, 2, 3])
        vals = np.array([0.9, 0.25, 0.0, 0.75])
        pos, neg = label_row(idx, vals, i=0, lambda1=1.0, lambda2=0.5)
        assert pos.tolist() == [3] and neg.size == 0

    def test_isolated_rows_flagged(self):
        # one off-diagonal support entry: the row gets no edges
        for vals in ([0.5, 0.2], [0.5, 0.2, 0.0]):
            idx = np.arange(len(vals))
            pos, neg = label_row(idx, np.array(vals), i=0, lambda1=0.0, lambda2=9.0)
            assert pos.size == 0 and neg.size == 0
            assert pos.dtype == neg.dtype == np.int64

    def test_ordering_invariant(self):
        # NT <= mu <= PT: every positive lies above every negative
        rng = np.random.default_rng(3)
        for _ in range(100):
            vals = rng.random(10)
            pos, neg = label_row(np.arange(1, 11), vals, i=0, lambda1=1.5, lambda2=0.5)
            if pos.size and neg.size:
                assert vals[pos - 1].min() > vals[neg - 1].max()


class TestSignRow:
    def test_boundary_at_pt_is_positive(self):
        pos, neg = label_row(np.array([1, 2]), np.array([0.25, 0.75]), i=0,
                             lambda1=1.0, lambda2=0.0)  # PT = 0.75
        assert pos.tolist() == [2] and neg.size == 0
        pos, _ = label_row(np.array([1, 2]), np.array([0.25, 0.75]), i=0,
                           lambda1=1.5, lambda2=0.0)  # PT = 0.875
        assert pos.size == 0

    def test_boundary_at_mu_is_zero(self):
        # mu = 1.5 / 3 = 0.5 exactly, and the entry at mu is neither sign
        pos, neg = label_row(np.array([1, 2, 3]), np.array([0.25, 0.5, 0.75]), i=0,
                             lambda1=0.5, lambda2=9.0)
        assert pos.tolist() == [3] and neg.tolist() == [1]

    def test_boundary_at_nt_is_zero(self):
        pos, neg = label_row(np.array([1, 2]), np.array([0.25, 0.75]), i=0,
                             lambda1=9.0, lambda2=1.0)  # NT = 0.25
        assert pos.size == 0 and neg.size == 0
        _, neg = label_row(np.array([1, 2]), np.array([0.25, 0.75]), i=0,
                           lambda1=9.0, lambda2=1.5)  # NT = 0.125
        assert neg.tolist() == [1]

    def test_spec_style_hand_row(self):
        # mu = 0.2375, eps ~= 0.16724: PT ~= 0.572, NT ~= 0.070
        idx = np.array([1, 2, 3, 4])
        vals = np.array([0.5, 0.25, 0.15, 0.05])
        pos, neg = label_row(idx, vals, i=0, lambda1=2.0, lambda2=1.0)
        assert pos.size == 0
        assert neg.tolist() == [3]  # only 0.15 sits in (NT, mu)

    def test_agrees_with_brute_force_labeler_on_random_rows(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = rng.integers(2, 12)
            vals = rng.random(n)
            idx = np.arange(1, n + 1)
            l1, l2 = rng.random() * 3, rng.random() * 2
            mu, eps = float(vals.mean()), float(vals.std())
            pos, neg = label_row(idx, vals, i=0, lambda1=l1, lambda2=l2)
            expected = brute_force_labels(vals, mu + l1 * eps, mu - l2 * eps, mu)
            got = np.zeros(n, dtype=int)
            got[np.isin(idx, pos)] = 1
            got[np.isin(idx, neg)] = -1
            assert got.tolist() == expected

    def test_raising_lambda1_never_increases_positive_count(self):
        rng = np.random.default_rng(10)
        vals = rng.random(20)
        idx = np.arange(1, 21)
        prev = 21
        for l1 in (0.0, 0.5, 1.0, 2.0, 4.0):
            pos, _ = label_row(idx, vals, i=0, lambda1=l1, lambda2=1.0)
            assert pos.size <= prev
            prev = pos.size


class TestSampler:
    POSITIVES = [[1, 2], [0], [0, 3], [2]]
    NEGATIVES = [[3], [3], [1], [0, 1]]

    def make_graph(self):
        return graph_from_rows(self.POSITIVES, self.NEGATIVES)

    def test_rows_are_read_only_views_of_the_edges(self):
        g = self.make_graph()
        assert [r.tolist() for r in g.positives] == self.POSITIVES
        assert [r.tolist() for r in g.negatives] == self.NEGATIVES
        assert all(np.shares_memory(r, g.indices) for r in g.positives + g.negatives)
        with pytest.raises(ValueError):
            g.negatives[0][0] = 2

    def test_deterministic_sequence_under_seed(self):
        g = self.make_graph()
        a = sample_pairs(g, [0, 1, 2, 3], count=20, seed=5)
        b = sample_pairs(g, [0, 1, 2, 3], count=20, seed=5)
        for name in ("i", "j", "label"):
            got = getattr(a, name)
            assert got.shape == (20,) and got.dtype == np.int64
            np.testing.assert_array_equal(got, getattr(b, name))

    def test_pairs_consistent_with_graph(self):
        g = self.make_graph()
        pairs = sample_pairs(g, [0, 1, 2, 3], count=200, seed=6)
        for i, j, label in zip(pairs.i, pairs.j, pairs.label):
            edges = g.positives[i] if label == 1 else g.negatives[i]
            assert j in edges

    def test_label_frequency_near_half(self):
        g = self.make_graph()
        labels = sample_pairs(g, [0, 1, 2, 3], count=10_000, seed=7).label
        assert set(labels.tolist()) == {-1, 1}
        assert abs(np.mean(labels == 1) - 0.5) <= 0.02

    @pytest.mark.parametrize("drop_neg", [None, 1])
    def test_pair_frequencies_match_the_three_uniform_draws(self, drop_neg):
        # P(label, i, j) = 1/2 * 1/|batch videos with label edges| * 1/|edges of i|;
        # with video 1's negatives removed, three videos are negative anchors
        negatives = list(self.NEGATIVES)
        if drop_neg is not None:
            negatives[drop_neg] = []
        g = graph_from_rows(self.POSITIVES, negatives)
        batch = [0, 1, 2, 3]
        want = {}
        for label, lists in ((1, g.positives), (-1, g.negatives)):
            anchors = [v for v in batch if lists[v].size]
            for i in anchors:
                for j in lists[i]:
                    want[(label, i, int(j))] = 0.5 / len(anchors) / lists[i].size
        n = 40_000
        pairs = sample_pairs(g, batch, count=n, seed=12)
        keys, counts = np.unique(np.stack([pairs.label, pairs.i, pairs.j]), axis=1,
                                 return_counts=True)
        got = {tuple(int(x) for x in key): c / n for key, c in zip(keys.T, counts)}
        assert set(got) == set(want)
        for key, prob in want.items():
            assert abs(got[key] - prob) <= 4.5 * math.sqrt(prob * (1 - prob) / n), key

    def test_positive_only_graph_falls_back_with_warning(self, caplog):
        g = graph_from_rows([[1], [0]], [[], []])
        with caplog.at_level(logging.WARNING, logger="dkph.graph"):
            pairs = sample_pairs(g, [0, 1], count=50, seed=8)
        assert (pairs.label == 1).all()
        assert any("fell back" in r.message for r in caplog.records)

    @pytest.mark.parametrize("present", ["positives", "negatives"])
    def test_fallback_warning_counts_the_flipped_coins(self, caplog, present):
        # the coin is the first draw of the stream: u < 1/2 is a positive label
        rows = [[[1], [0]], [[], []]]
        g = graph_from_rows(*(rows if present == "positives" else rows[::-1]))
        with caplog.at_level(logging.WARNING, logger="dkph.graph"):
            sample_pairs(g, [0, 1], count=50, seed=8)
        coins = np.random.default_rng(8).random(50) < 0.5
        flipped = np.count_nonzero(~coins if present == "positives" else coins)
        [record] = [r for r in caplog.records if "fell back" in r.msg]
        assert 0 < flipped < 50
        assert record.args == (flipped, 50)

    def test_empty_batch_edges_raise(self):
        g = graph_from_rows([[]], [[]])
        with pytest.raises(SamplingError):
            sample_pairs(g, [0], count=1, seed=9)


class TestEdgePrecision:
    # labels 0 0 1 1 2: positive edges 0-1 (same), 1-0 (same), 2-4 (differ),
    # 3-2 (same); negative edges 0-3 (differ), 4-0 (differ), 2-3 (same)
    LABELS = np.array([0, 0, 1, 1, 2])

    def test_shares_of_agreeing_edges_per_side(self):
        g = graph_from_rows([[1], [0], [4], [2], []], [[3], [], [3], [], [0]])
        assert g.edge_precision(self.LABELS) == (3 / 4, 2 / 3)

    def test_a_side_without_edges_has_no_precision(self):
        assert graph_from_rows([[1], [0], [], [], []], [[]] * 5).edge_precision(self.LABELS) \
            == (1.0, None)
        assert graph_from_rows([[]] * 5, [[4], [], [], [], []]).edge_precision(self.LABELS) \
            == (None, 1.0)
        assert graph_from_rows([[]] * 5, [[]] * 5).edge_precision(self.LABELS) == (None, None)

    def test_one_label_per_video(self):
        with pytest.raises(ValueError, match="expected 5 labels"):
            graph_from_rows([[1], [0], [], [], []], [[]] * 5).edge_precision(self.LABELS[:4])


class TestBuildSignedGraph:
    def test_isolated_single_video(self):
        pts = np.array([[0.0, 0.0], [10.0, 10.0], [10.5, 10.0]])
        anchors = kmeans(pts, 2, seed=0)
        z = build_affinity(pts, anchors, p=1, alpha=1.0)
        g = build_signed_graph(z, lambda1=2.0, lambda2=1.0)
        assert 0 in g.isolated.tolist()  # alone on its anchor

    def test_labels_respect_row_rule_on_random_instance(self):
        pts = np.random.default_rng(11).normal(size=(30, 4))
        anchors = kmeans(pts, 5, seed=12)
        z = build_affinity(pts, anchors, p=3, alpha=default_bandwidth(pts, anchors, 3))
        g = build_signed_graph(z, lambda1=1.0, lambda2=1.0)
        for i in range(30):
            idx, vals = adjacency_row(i, z)
            pos, neg = label_row(idx, vals, i, 1.0, 1.0)
            np.testing.assert_array_equal(g.positives[i], pos)
            np.testing.assert_array_equal(g.negatives[i], neg)
            assert i not in g.positives[i] and i not in g.negatives[i]


def random_affinity(n, nc, p, seed, alpha_scale=1.0):
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    anchors = kmeans(pts, nc, seed=seed)
    alpha = default_bandwidth(pts, anchors, p) or 1.0  # 0 when every point is a centre
    return build_affinity(pts, anchors, p=p, alpha=alpha * alpha_scale)


@st.composite
def affinities(draw):
    n = draw(st.integers(2, 30))
    nc = draw(st.integers(1, min(n, 6)))
    p = draw(st.integers(1, nc))
    seed = draw(st.integers(0, 2**16))
    # 2e-3 and 1e-3 push some weights below 1e-154, where products underflow
    scale = draw(st.sampled_from([1.0, 0.3, 0.01, 2e-3, 1e-3]))
    return random_affinity(n, nc, p, seed, scale)


class TestBlockKernelAgainstOracle:
    @given(affinities(), st.integers(1, 31), st.sampled_from([(2.0, 1.0), (0.5, 0.5), (0.0, 3.0)]))
    @settings(max_examples=80, deadline=None)
    def test_edges_and_isolated_rows_equal_oracle(self, z, block_rows, lambdas):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(numerics, "BLOCK_BYTES", 8 * z.n * block_rows)
            assert_graph_matches_oracle(z, *lambdas)

    def test_several_blocks_with_ragged_last_block(self, monkeypatch):
        z = random_affinity(23, 5, 3, seed=4)
        monkeypatch.setattr(numerics, "BLOCK_BYTES", 8 * 23 * 5)
        starts = [lo for lo, _, _ in graph._adjacency_blocks(z, 0, z.n)]
        assert starts == [0, 5, 10, 15, 20]  # last block holds 3 rows
        assert_graph_matches_oracle(z, 2.0, 1.0)

    def test_underflowed_products_stay_in_support(self):
        # this bandwidth leaves weights below 1e-154: a pair sharing only
        # such anchors has A_ij == 0.0 exactly, yet it is support and labelled
        z = random_affinity(30, 6, 3, seed=0, alpha_scale=2e-3)
        assert np.all(z.weights != 0.0)
        zero_negatives = 0
        for i in range(z.n):
            idx, vals = oracle_adjacency_row(i, z)
            _, neg = oracle_signed_row(idx, vals, i, 2.0, 1.0)
            zero_negatives += np.isin(neg, idx[vals == 0.0]).sum()
        assert zero_negatives > 0
        assert_graph_matches_oracle(z, 2.0, 1.0)

    @pytest.mark.parametrize("p", [1, 2])
    def test_constant_rows_label_every_neighbour_positive(self, p):
        n = 8  # every entry is exactly 1/8, so the mean is too
        z = SparseAffinity(center_idx=np.tile(np.arange(p), (n, 1)),
                           weights=np.full((n, p), 1.0 / p), n_centers=p)
        g = assert_graph_matches_oracle(z, 2.0, 1.0)
        for i in range(n):
            assert g.positives[i].tolist() == [j for j in range(n) if j != i]
            assert g.negatives[i].size == 0

    def test_one_block_of_mixed_support_counts(self):
        # slots with weight 0 leave rows on one anchor: rows 0-3 share only
        # anchor 0 (constant rows, 3 support entries each), row 4 has anchor 1
        # to itself (none) and rows 5-6 share only anchor 2 (one each); rows
        # 7-9 (6 entries), 10-12 (5) and 13 (3) mix anchors 3-6 unevenly
        k = [[0, 5]] * 4 + [[1, 5]] + [[2, 5]] * 2 + [[3, 4]] * 3 + [[4, 5]] * 3 + [[6, 3]]
        w = ([[1.0, 0.0]] * 7 + [[0.7, 0.3], [0.55, 0.45], [0.9, 0.1]]
             + [[0.6, 0.4], [0.8, 0.2], [0.5, 0.5]] + [[0.5, 0.5]])
        z = SparseAffinity(center_idx=np.array(k), weights=np.array(w), n_centers=7)
        assert len(list(graph._adjacency_blocks(z, 0, z.n))) == 1
        g = assert_graph_matches_oracle(z, 1.0, 1.0)
        for i in range(4):
            assert g.positives[i].tolist() == [j for j in range(4) if j != i]
        assert g.isolated.tolist() == [4, 5, 6]

    @given(affinities(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_zero_mass_centre_matches_oracle(self, z, data):
        row = data.draw(st.integers(0, z.n - 1))
        slot = data.draw(st.integers(0, z.p - 1))
        z.center_mass[z.center_idx[row, slot]] = 0.0
        try:
            oracle_signed_graph(z, 2.0, 1.0)
        except DegenerateAnchorError as err:
            with pytest.raises(DegenerateAnchorError) as exc:
                build_signed_graph(z, 2.0, 1.0)
            assert exc.value.center == err.center
        else:
            assert_graph_matches_oracle(z, 2.0, 1.0)

    def test_zero_mass_centre_raises_from_build_naming_the_centre(self):
        z = random_affinity(12, 4, 2, seed=5)
        bad = int(z.center_idx[7, 1])
        z.center_mass[bad] = 0.0
        with pytest.raises(DegenerateAnchorError) as exc:
            build_signed_graph(z, 2.0, 1.0)
        assert exc.value.center == bad
