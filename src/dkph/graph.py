"""Gaussian-adaptive anchor similarity graph over frozen teacher embeddings.

Pipeline: k-means anchors over the N video embeddings, sparse affinity Z
(each video keeps softmax weights over its p nearest centers), rows of the
normalized anchor-graph adjacency A = Z diag(Z^T 1)^-1 Z^T (Liu, Wang,
Kumar and Chang, "Hashing with Graphs", ICML 2011), and a signed sparse
graph. ``_label_rows`` is the one labelling rule: with the per-row mean mu_i
and population std eps_i, PT_i = mu_i + lambda1*eps_i and
NT_i = mu_i - lambda2*eps_i,

    +1  if A_ij >= PT_i
    -1  if NT_i < A_ij < mu_i      (hard negatives: just below the mean)
     0  otherwise, and always for j = i

mu_i and eps_i are taken over the *nonzero* off-diagonal entries of the row;
with sparse Z most pairs share no anchor and sit at exactly 0, and folding
those zeros in would collapse the mean. A row with fewer than two such
entries gets no edges; videos without any edge are the graph's isolated
rows, which the pair sampler never draws.

A is computed in row blocks and never exists as an N x N matrix. Z is
scattered once into a dense (N, N_c) matrix; a block of B rows then holds
its values and its support (pairs sharing an anchor where both weights are
nonzero) as dense (B, N) arrays, with B from ``numerics.block_slices`` so
that one (B, N) float64 buffer fits the shared work-block budget
``numerics.BLOCK_BYTES``. Peak memory is a few such buffers plus Z. Each
entry sums the same (z_ik * z_jk) / mass_k terms in slot order as a
per-entry loop would, so the values, and hence the edges, are exact.
A block's rows are labelled together: rows with the same number of nonzero
support entries are compacted into one (rows, count) array, whose row means and
standard deviations carry the bits of the per-row ones.

Point-to-centre distances come from the expansion |x|^2 - 2 x.c + |c|^2,
one matrix product. k-means assigns by it; the affinity and the bandwidth
pick their p nearest centres by it and then recompute just those N x p
distances by explicit difference, so weights and bandwidth do not carry the
expansion's rounding.

Pairs for the student are drawn per batch as index arrays (``PairSample``):
a fair label coin, a uniform anchor among the batch videos with edges of
that sign, and a uniform partner from the anchor's edge list, each one
vectorised generator call for the whole batch. The sampler reads the
graph's compressed rows (``SignedGraph``) as ``build_signed_graph`` writes
them and ``serial.load_graph`` loads them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateAnchorError, SamplingError
from .numerics import block_slices

logger = logging.getLogger(__name__)

# Lloyd iterations of kmeans before it stops short of an assignment fixpoint.
KMEANS_ITERS = 100


@dataclass
class AnchorSet:
    centers: np.ndarray       # (N_c, d)
    assignments: np.ndarray   # (N,) nearest-center index per point


def kmeans(points: np.ndarray, n_centers: int, seed: int = 0) -> AnchorSet:
    """Lloyd's algorithm with k-means++ seeding.

    Empty clusters are re-seeded to the point currently farthest from its
    center, which never increases the inertia. Stops at an assignment
    fixpoint or after ``KMEANS_ITERS`` iterations.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n_centers < 1:
        raise ValueError(f"need at least 1 center, got {n_centers}")
    if n < n_centers:
        raise ValueError(f"need at least {n_centers} points, got {n}")
    rng = np.random.default_rng(seed)

    centers = _kmeans_pp_init(pts, n_centers, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    for _ in range(KMEANS_ITERS):
        new_assign = _sq_dists(pts, centers).argmin(axis=1)
        # re-seed empty clusters from the worst-served points
        victim_order = None
        for c in range(n_centers):
            if not np.any(new_assign == c):
                if victim_order is None:
                    diff = pts - centers[new_assign]
                    victim_order = np.argsort(-(diff * diff).sum(axis=1), kind="stable")
                for v in victim_order:
                    if np.count_nonzero(new_assign == new_assign[v]) > 1 or new_assign[v] == c:
                        centers[c] = pts[v]
                        new_assign[v] = c
                        break
        if np.array_equal(new_assign, assignments):
            break
        assignments = new_assign
        for c in range(n_centers):
            members = pts[assignments == c]
            if members.size:
                centers[c] = members.mean(axis=0)
    return AnchorSet(centers=centers, assignments=_sq_dists(pts, centers).argmin(axis=1))


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]), dtype=np.float64)
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # all points coincide with chosen centers
        centers[i] = pts[idx]
        d2 = np.minimum(d2, ((pts - centers[i]) ** 2).sum(axis=1))
    return centers


def _sq_dists(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(N, N_c) squared distances |x|^2 - 2 x.c + |c|^2 from one matrix
    product, clamped at 0. Rounding differs from the explicit difference, so
    near-ties may order differently from it."""
    d2 = pts @ centers.T
    d2 *= -2.0
    d2 += np.einsum("ij,ij->i", pts, pts)[:, None]
    d2 += np.einsum("ij,ij->i", centers, centers)
    return np.maximum(d2, 0.0, out=d2)


def _nearest_centers(pts: np.ndarray, centers: np.ndarray,
                     p: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, distance), each (N, p): every point's p nearest centres, nearest
    first, and their Euclidean distances.

    The centres are chosen on ``_sq_dists`` by a stable sort, so the lower
    index wins ties. Only the chosen distances are then computed, by
    explicit difference over the row blocks of ``numerics.block_slices``,
    one float64 (B, p, d) buffer each; each reduces the same contiguous
    d-vector as the full (N, N_c, d) broadcast would, and carries its bits.
    """
    n_centers = centers.shape[0]
    if not 1 <= p <= n_centers:
        raise ValueError(f"p must be in [1, {n_centers}], got {p}")
    nearest = np.argsort(_sq_dists(pts, centers), axis=1, kind="stable")[:, :p]
    d2 = np.empty(nearest.shape)
    for rows in block_slices(pts.shape[0], 8 * p * pts.shape[1]):
        diff = pts[rows, None, :] - centers[nearest[rows]]
        d2[rows] = (diff * diff).sum(axis=2)
    return nearest, np.sqrt(d2)


@dataclass
class SparseAffinity:
    """Per-video affinity to its p nearest anchors; rows sum to 1."""

    center_idx: np.ndarray    # (N, p) selected center per slot
    weights: np.ndarray       # (N, p) softmax weights, nonnegative
    n_centers: int
    center_mass: np.ndarray = field(init=False)      # (N_c,) column sums of Z

    def __post_init__(self):
        mass = np.zeros(self.n_centers)
        np.add.at(mass, self.center_idx.reshape(-1), self.weights.reshape(-1))
        self.center_mass = mass

    @property
    def n(self) -> int:
        return self.center_idx.shape[0]

    @property
    def p(self) -> int:
        return self.center_idx.shape[1]


def default_bandwidth(points: np.ndarray, anchors: AnchorSet, p: int) -> float:
    """Mean distance of each point to its p-th nearest center."""
    _, dists = _nearest_centers(np.asarray(points, dtype=np.float64), anchors.centers, p)
    return _default_alpha(dists)


def _default_alpha(dists: np.ndarray) -> float:
    """The default bandwidth from ``_nearest_centers``' (N, p) distances:
    the mean distance to the p-th nearest centre."""
    return float(dists[:, -1].mean())


def build_affinity(points: np.ndarray, anchors: AnchorSet, p: int,
                   alpha: float | None = None) -> SparseAffinity:
    """Softmax affinity exp(-dist/alpha) over each video's p nearest centers.

    The exponent uses the plain Euclidean distance, not its square. Ties in
    the nearest-center selection break toward the lower center index.
    ``alpha=None`` takes :func:`default_bandwidth`'s value from the same
    distances, so the nearest centres are found once. A bandwidth, given or
    computed, that is not > 0 raises ValueError: the default one is 0 when
    every point sits on its p nearest centres, and would divide 0 by 0.
    """
    nearest, sel = _nearest_centers(np.asarray(points, dtype=np.float64), anchors.centers, p)
    if alpha is None:
        alpha = _default_alpha(sel)
    if not alpha > 0:
        raise ValueError(f"bandwidth must be positive, got {alpha}")
    logits = -(sel - sel.min(axis=1, keepdims=True)) / alpha
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    return SparseAffinity(center_idx=nearest, weights=w, n_centers=anchors.centers.shape[0])


def _adjacency_blocks(z: SparseAffinity, start: int, stop: int):
    """Yield (first row, values, support) for rows [start, stop) of A.

    values and support are dense (B, N) arrays, over the row blocks of
    ``numerics.block_slices`` of one float64 (B, N) buffer each. support
    marks the videos sharing an anchor with the row where both weights are
    nonzero, so it keeps entries whose product underflowed to 0.0. A centre
    without positive mass under a nonzero weight of these rows raises
    DegenerateAnchorError, before any block is computed.
    """
    bad = (z.weights[start:stop] != 0.0) & (z.center_mass[z.center_idx[start:stop]] <= 0.0)
    if bad.any():
        raise DegenerateAnchorError(int(z.center_idx[start:stop][bad][0]))
    zd = np.zeros((z.n, z.n_centers))
    np.put_along_axis(zd, z.center_idx, z.weights, axis=1)
    zd_t = np.ascontiguousarray(zd.T)
    nonzero = (zd != 0.0).astype(np.float64)
    # past the check, a centre without mass is reached only through zero
    # weights, whose terms are 0 for any finite divisor
    mass = np.where(z.center_mass > 0.0, z.center_mass, 1.0)
    for rows in block_slices(stop - start, 8 * z.n):
        lo, hi = start + rows.start, start + rows.stop
        k, w = z.center_idx[lo:hi], z.weights[lo:hi]
        acc = np.zeros((hi - lo, z.n))
        for s in range(z.p):
            acc += w[:, s, None] * zd_t[k[:, s]] / mass[k[:, s]][:, None]
        yield lo, acc, nonzero[lo:hi] @ nonzero.T > 0.0


def adjacency_row(i: int, z: SparseAffinity) -> tuple[np.ndarray, np.ndarray]:
    """Row i of A = Z Lambda^-1 Z^T without forming the N x N matrix.

    Returns (video indices, values) sorted by index; only videos sharing at
    least one anchor with i appear (others are exactly zero).
    """
    _, acc, support = next(_adjacency_blocks(z, i, i + 1))
    idx = np.flatnonzero(support[0])
    return idx, acc[0, idx]


def _label_rows(vals: np.ndarray, support: np.ndarray, lambda1: float,
                lambda2: float) -> tuple[np.ndarray, np.ndarray]:
    """(positive, negative) (B, K) masks by the threshold rule (module
    docstring) over the rows of ``vals``, whose entries in ``support`` are
    the row's off-diagonal neighbours.

    Rows with the same number of nonzero support entries are compacted to one
    (rows, count) array; its row-wise mean and std reduce each row as the
    1-D ``mean`` and ``std`` would. A row with fewer than two such entries
    keeps NaN thresholds, which label nothing.
    """
    stats = support & (vals != 0.0)
    count = np.count_nonzero(stats, axis=1)
    mu = np.full(vals.shape[0], np.nan)
    eps = np.full(vals.shape[0], np.nan)
    for c in np.unique(count[count >= 2]):
        rows = np.flatnonzero(count == c)
        group = vals[rows][stats[rows]].reshape(rows.size, c)
        mu[rows] = group.mean(axis=1)
        eps[rows] = group.std(axis=1)  # population std
    pt, nt, mu = (mu + lambda1 * eps)[:, None], (mu - lambda2 * eps)[:, None], mu[:, None]
    return support & (vals >= pt), support & (nt < vals) & (vals < mu)


@dataclass(frozen=True)
class SignedGraph:
    """The signed edges as compressed rows. Side 0 holds the positive and
    side 1 the negative edges; video v's side-s neighbours, ascending, are
    ``indices[offsets[s, v]:offsets[s, v + 1]]``, and side 1 continues where
    side 0 ends (``offsets[1, 0] == offsets[0, N]``)."""

    offsets: np.ndarray   # (2, N + 1) int64
    indices: np.ndarray   # (E,) int64

    @property
    def n(self) -> int:
        return self.offsets.shape[1] - 1

    def _rows(self, side: int) -> list[np.ndarray]:
        flat = self.indices.view()
        flat.flags.writeable = False
        bounds = self.offsets[side].tolist()
        return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    @property
    def positives(self) -> list[np.ndarray]:
        """Per video, a read-only view of its positive neighbours."""
        return self._rows(0)

    @property
    def negatives(self) -> list[np.ndarray]:
        """Per video, a read-only view of its negative neighbours."""
        return self._rows(1)

    @property
    def isolated(self) -> np.ndarray:
        """Videos with no positive and no negative edge; sample_pairs never
        draws them."""
        return np.flatnonzero(np.diff(self.offsets, axis=1).sum(axis=0) == 0)

    def edge_precision(self, labels) -> tuple[float | None, float | None]:
        """The share of positive edges that join two videos of one label,
        and of negative edges that join two of different labels, against
        ``labels``, one per video; None for a side without edges. The edges
        are the stored ones, each direction of a pair counting once."""
        labels = np.asarray(labels)
        if labels.shape != (self.n,):
            raise ValueError(f"expected {self.n} labels, got shape {labels.shape}")
        # each edge's source label, row by row of both sides, against its target's
        degrees = (self.offsets[:, 1:] - self.offsets[:, :-1]).ravel()
        same = np.repeat(np.concatenate((labels, labels)), degrees) == labels[self.indices]
        shares = []
        for side in (0, 1):
            lo, hi = self.offsets[side, [0, -1]].tolist()
            agree = int(np.count_nonzero(same[lo:hi]))
            if side == 1:
                agree = hi - lo - agree   # a negative edge agrees where the labels differ
            shares.append(agree / (hi - lo) if hi > lo else None)
        return shares[0], shares[1]


def build_signed_graph(z: SparseAffinity, lambda1: float, lambda2: float) -> SignedGraph:
    # per side, each block's row degrees and its rows' columns
    degrees, columns = ([], []), ([], [])
    for lo, acc, support in _adjacency_blocks(z, 0, z.n):
        rows = np.arange(acc.shape[0])
        support[rows, lo + rows] = False  # a video is not its own neighbour
        for side, mask in enumerate(_label_rows(acc, support, lambda1, lambda2)):
            degrees[side].append(np.count_nonzero(mask, axis=1))
            # row-major, so each row's columns come ascending; a 2-D nonzero
            # would keep the row indices alive under its column view
            columns[side].append(np.flatnonzero(mask) % mask.shape[1])
    bounds = np.zeros(2 * z.n + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.zeros(0, np.int64), *degrees[0], *degrees[1]]), out=bounds[1:])
    return SignedGraph(offsets=np.stack([bounds[:z.n + 1], bounds[z.n:]]),
                       indices=np.concatenate([np.zeros(0, np.int64), *columns[0], *columns[1]]))


@dataclass
class PairSample:
    """Sampled pairs as parallel (count,) int64 arrays: pair p joins anchor
    video ``i[p]`` to partner ``j[p]`` with ``label[p]`` = +1 or -1."""

    i: np.ndarray
    j: np.ndarray
    label: np.ndarray


def sample_pairs(g: SignedGraph, batch, count: int, seed) -> PairSample:
    """Draw ``count`` labeled pairs: a fair coin for the label, then a
    uniform anchor video among the batch members having edges of that label,
    then a uniform partner from that edge list.

    Each of the three draws is one vectorised call on the generator, for all
    pairs at once. If one label class is absent across the whole batch, its
    coins flip to the other class (logged once, with the flip count first);
    if both are absent, sampling fails. A video listed twice in ``batch`` is
    twice as likely an anchor.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    degree = np.diff(g.offsets, axis=1)
    batch = np.asarray(batch, dtype=np.int64).reshape(-1)
    with_pos, with_neg = (batch[degree[s, batch] > 0] for s in (0, 1))
    if not with_pos.size and not with_neg.size:
        raise SamplingError("no positive or negative edges in this batch")

    side = (rng.random(count) >= 0.5).astype(np.int64)  # 0: positive, 1: negative
    fallbacks = 0
    if not with_pos.size or not with_neg.size:
        present = 0 if with_pos.size else 1
        fallbacks = int(np.count_nonzero(side != present))
        side[:] = present
    sizes = np.array([with_pos.size, with_neg.size])
    i = np.concatenate([with_pos, with_neg])[side * with_pos.size + rng.integers(sizes[side])]
    j = g.indices[g.offsets[side, i] + rng.integers(degree[side, i])]
    if fallbacks:
        logger.warning("pair sampler fell back to the other label class %d/%d times",
                       fallbacks, count)
    return PairSample(i=i, j=j, label=1 - 2 * side)
