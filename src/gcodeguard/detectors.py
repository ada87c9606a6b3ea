"""Unsupervised detectors that flag compromised files in a corpus.

Five detectors share one input, the corpus ``FeatureMatrix``:

    single_stat        modified z-score on the G1 count, two-sided
    combined_stat      one-sided G1-low / G0-high z-scores plus the
                       E-decimal anomaly count
    pca_agglomerative  standardize -> 2-component PCA -> Ward clustering,
                       flag tiny clusters
    pca_meanshift      standardize -> 2-component PCA -> flat-kernel mean
                       shift, flag tiny clusters
    dbscan             density scan on the standardized 11-dim vectors,
                       flag noise and tiny clusters

None of them uses ground truth, a reference model, or fitted state from
other corpora; everything is relative to the corpus at hand. Each runs with
this module's constants, so no setting moves a verdict; mean shift's
bandwidth (the 30th percentile of pairwise distances) and DBSCAN's eps
(``knee_epsilon``) come from the corpus. Another threshold, eps or
bandwidth is a call to the function that takes it. Clustering is
implemented here directly so the only numerical dependency is numpy; one
chunked kernel, ``_sq_dists``, gives every clustering step its distances.
Each clustering step works on the distinct rows of its input, weighted by
how often they repeat (``_distinct``), and maps its labels back to every
row, so its cost grows with the number of distinct count vectors, not with
the number of files.
``run_detectors`` standardizes and projects a corpus once for all detectors
and returns that projection and the Ward labels for ``pca_scatter.csv``.

Each verdict rule lives in one function that returns the mask with the
score it judged by. ``outliers`` is the stat detectors' rule: modified
z-scores, 0.6745 * (x - median) / MAD, over threshold 3.5, falling back to
Tukey fences at 1.5 IQR with score 0 when the MAD is zero.
``flags_from_clusters`` is the clustering detectors' small-cluster rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._json import read_record, write_json
from .features import FeatureMatrix, standardize

__all__ = [
    "DETECTOR_NAMES",
    "FlagSet",
    "modified_zscores",
    "outliers",
    "detect_single_stat",
    "detect_combined_stat",
    "PCAModel",
    "fit_pca",
    "cluster_agglomerative",
    "cluster_meanshift",
    "cluster_dbscan",
    "knee_epsilon",
    "flags_from_clusters",
    "check_detectors",
    "run_detector",
    "run_detectors",
]

Z_THRESHOLD = 3.5
Z_SCALE = 0.6745
SMALL_CLUSTER_FRACTION = 0.01
DBSCAN_MIN_SAMPLES = 5
MEANSHIFT_TOL = 1e-6
MEANSHIFT_MAX_ITER = 300
# Scalars per difference block in _sq_dists: 8 MB of float64 whatever the
# dimension, so peak memory is the n*m result, not an n*m*d tensor.
_CHUNK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class FlagSet:
    """One detector's verdict on a corpus.

    ``flagged`` holds the paths judged compromised, sorted. ``scores`` maps
    every path to that detector's suspicion score (see ``parameters`` for
    the score's meaning; higher is always more suspicious).
    """

    detector: str
    parameters: dict
    flagged: tuple[str, ...]
    scores: dict[str, float]

    def save(self, path: str | Path) -> None:
        write_json(path, self)

    @staticmethod
    def load(path: str | Path) -> "FlagSet":
        return read_record(path, FlagSet._from_json)

    @staticmethod
    def _from_json(data: dict) -> "FlagSet":
        detector, parameters = data["detector"], data["parameters"]
        flagged, scores = data["flagged"], data["scores"]
        if not (isinstance(detector, str) and detector):
            raise ValueError("detector must be a non-empty string")
        if not isinstance(parameters, dict):
            raise ValueError("parameters must be a JSON object")
        if not (isinstance(flagged, list) and all(isinstance(p, str) for p in flagged)):
            raise ValueError("flagged must be a list of path strings")
        if not (isinstance(scores, dict) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in scores.values()
        )):
            raise ValueError("scores must map paths to numbers")
        scores = {k: float(v) for k, v in scores.items()}
        return FlagSet(detector, parameters, tuple(flagged), scores)


def modified_zscores(values: np.ndarray) -> np.ndarray | None:
    """0.6745 * (x - median) / MAD, or None when the MAD is zero."""
    values = np.asarray(values, dtype=np.float64)
    med = np.median(values)
    mad = np.median(np.abs(values - med))
    if mad == 0.0:
        return None
    return Z_SCALE * (values - med) / mad


def outliers(
    values: np.ndarray, side: str, threshold: float = Z_THRESHOLD
) -> tuple[np.ndarray, np.ndarray]:
    """The package's outlier rule on one value series: (mask, score).

    ``side`` is ``"low"``, ``"high"`` or ``"both"``, and the score is ``-z``,
    ``z`` or ``|z|`` of the modified z-score ``z``; the mask is
    ``score > threshold``. When the MAD is zero the score is 0 and the mask
    comes from 1.5 IQR Tukey fences, which flag nothing when the IQR is zero
    as well (a near-constant series).
    """
    values = np.asarray(values, dtype=np.float64)
    z = modified_zscores(values)
    if z is not None:
        score = -z if side == "low" else z if side == "high" else np.abs(z)
        return score > threshold, score
    score = np.zeros(len(values))
    q1, q3 = np.percentile(values, [25, 75])
    iqr = q3 - q1
    if iqr == 0.0:
        return np.zeros(len(values), dtype=bool), score
    low = values < q1 - 1.5 * iqr
    high = values > q3 + 1.5 * iqr
    return (low if side == "low" else high if side == "high" else low | high), score


def _flagset(name: str, parameters: dict, fm: FeatureMatrix, mask: np.ndarray,
             scores: np.ndarray) -> FlagSet:
    flagged = tuple(sorted(p for p, m in zip(fm.paths, mask) if m))
    return FlagSet(
        detector=name,
        parameters=parameters,
        flagged=flagged,
        scores={p: float(s) for p, s in zip(fm.paths, scores)},
    )


def detect_single_stat(fm: FeatureMatrix, threshold: float = Z_THRESHOLD) -> FlagSet:
    """Two-sided modified z-score test on the G1 count alone."""
    mask, scores = outliers(fm.column("G1"), "both", threshold)
    return _flagset(
        "single_stat",
        {"statistic": "G1 count", "threshold": threshold, "score": "abs modified z"},
        fm,
        mask,
        scores,
    )


def detect_combined_stat(fm: FeatureMatrix, threshold: float = Z_THRESHOLD) -> FlagSet:
    """G1-count drop, G0-count spike, or any off-mode E-decimal token.

    The attacks this rule models remove extruding moves (G1 goes down,
    sometimes G0 goes up) or rewrite E values with a different number of
    decimal places, so each branch is one-sided.
    """
    g1_low, g1_score = outliers(fm.column("G1"), "low", threshold)
    g0_high, g0_score = outliers(fm.column("G0"), "high", threshold)
    anomalies = fm.e_decimal_anomalies
    mask = g1_low | g0_high | (anomalies > 0)
    scores = np.maximum(np.maximum(np.zeros(len(anomalies)), g1_score), g0_score)
    scores += anomalies
    return _flagset(
        "combined_stat",
        {
            "statistics": ["G1 count low", "G0 count high", "E-decimal anomalies"],
            "threshold": threshold,
            "e_decimal_mode": fm.e_decimal_mode,
            "score": "max(g0 z, -g1 z) + anomaly count",
        },
        fm,
        mask,
        scores,
    )


@dataclass(frozen=True)
class PCAModel:
    """Top principal components of a standardized matrix.

    Components are rows, ordered by decreasing explained variance, each
    signed so its largest-magnitude entry is positive (eigenvectors are
    otherwise sign-ambiguous and runs would not be comparable).
    """

    components: np.ndarray
    explained_variance: np.ndarray
    mean: np.ndarray

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        return (matrix - self.mean) @ self.components.T


def fit_pca(matrix: np.ndarray, n_components: int = 2) -> PCAModel:
    """Eigendecomposition of the population covariance matrix."""
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-d matrix with at least 2 rows")
    if not 1 <= n_components <= x.shape[1]:
        raise ValueError(f"n_components out of range: {n_components}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = (centered.T @ centered) / x.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_components]
    components = eigvecs[:, order].T.copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PCAModel(
        components=components,
        explained_variance=np.maximum(eigvals[order], 0.0),
        mean=mean,
    )


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` and ``b``.

    ``a`` is taken in row blocks, which give the same bits as one block.
    """
    out = np.empty((len(a), len(b)))
    step = max(1, _CHUNK_ELEMENTS // max(b.size, 1))
    for start in range(0, len(a), step):
        diff = a[start : start + step, None, :] - b[None, :, :]
        out[start : start + step] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, weight, inverse): the distinct rows of ``x`` in order of first
    occurrence, how often each occurs (as floats), and the index into ``rows``
    of every row of ``x``, so ``rows[inverse]`` equals ``x``.

    Copies of a row are at distance zero from each other and at the same
    distance from everything else, so the clustering steps work on the
    distinct rows and their multiplicities and map labels back through
    ``inverse``. Keeping first-occurrence order keeps labels that are
    numbered in order of first member unchanged.
    """
    uniq, first, inverse, counts = np.unique(
        x, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return uniq[order], counts[order].astype(np.float64), rank[inverse]


def cluster_agglomerative(points: np.ndarray) -> np.ndarray:
    """Ward-linkage agglomeration, cut before the most separated merge.

    Pairwise merge costs follow the Lance-Williams recurrence on squared
    Euclidean distances; merge heights are the square roots of the costs.
    Raw heights are a poor cut signal: Ward inflates them by cluster size,
    so the routine junctions of a large corpus tower over the merge that
    absorbs a genuine outlier. Each merge is therefore scored by its
    prominence, the height divided by sqrt(ni*nj/(ni+nj)), which is the
    plain centroid separation of the two sides. The dendrogram is cut just
    before the earliest merge whose prominence reaches half the maximum:
    everything at least half as forced as the most forced merge stays
    unmerged. For well separated groups the group junction dominates and
    the cut recovers them exactly; isolated points keep their own clusters.
    Copies of one point merge first at zero cost and never reach the cut,
    so the agglomeration starts from one cluster per distinct point.
    Returns one label per point.
    """
    pts = np.asarray(points, dtype=np.float64)
    rows, sizes, inverse = _distinct(pts)
    n = len(rows)
    if n <= 1:
        return np.zeros(len(pts), dtype=np.int64)

    # The cost Lance-Williams reaches between clusters of copies of a and b,
    # 2*ma*mb/(ma+mb) * |a - b|^2; exactly |a - b|^2 between single points.
    work = _sq_dists(rows, rows) * (
        2.0 * np.outer(sizes, sizes) / np.add.outer(sizes, sizes)
    )
    np.fill_diagonal(work, np.inf)
    active = np.ones(n, dtype=bool)
    merges: list[tuple[int, int]] = []
    prominence: list[float] = []
    for _ in range(n - 1):
        flat = np.argmin(work)
        i, j = divmod(int(flat), n)
        if i > j:
            i, j = j, i
        cost = work[i, j]
        ni, nj = sizes[i], sizes[j]
        # Ward height = sqrt(ni*nj/(ni+nj)) * centroid distance; divide the size
        # factor back out so merges are compared by separation alone.
        prominence.append(float(np.sqrt(cost) / np.sqrt(ni * nj / (ni + nj))))
        merges.append((i, j))
        # Lance-Williams update for Ward: cluster j folds into cluster i.
        others = active.copy()
        others[i] = others[j] = False
        nk = sizes[others]
        work[i, others] = (
            (ni + nk) * work[i, others] + (nj + nk) * work[j, others] - nk * cost
        ) / (ni + nj + nk)
        work[others, i] = work[i, others]
        sizes[i] = ni + nj
        active[j] = False
        work[j, :] = np.inf
        work[:, j] = np.inf

    pmax = max(prominence)
    if pmax <= 0.0:
        return np.zeros(len(pts), dtype=np.int64)
    # Stop before the earliest merge at least half as separated as the most
    # separated one; performing merges[:first] leaves n - first clusters.
    first = next(k for k, p in enumerate(prominence) if p >= pmax / 2.0)
    # A merge keeps the lower index of the pair as its cluster's id.
    roots = np.arange(n)
    for i, j in merges[:first]:
        roots[roots == j] = i
    # Number the clusters in order of their first member.
    _, first_member, labels = np.unique(roots, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first_member))[labels][inverse]


def _pair_percentile(sq: np.ndarray, weight: np.ndarray, q: float) -> float:
    """``np.percentile(pairs, q)`` over the distances of all n*(n-1)/2 point
    pairs, from the squared distances ``sq`` between distinct rows and their
    multiplicities ``weight``; coincident pairs count as zeros.

    Takes the two order statistics by weighted rank and interpolates between
    them with numpy's "linear" rule, so the result has the same bits without
    the n*(n-1)/2 list being built.
    """
    upper = np.triu_indices(len(weight), k=1)
    values = np.concatenate(([0.0], sq[upper]))
    counts = np.concatenate(
        ([np.sum(weight * (weight - 1.0)) / 2.0], np.outer(weight, weight)[upper])
    )
    order = np.argsort(values)
    values, ends = values[order], np.cumsum(counts[order])
    pairs = ends[-1]
    at = (pairs - 1.0) * (q / 100)
    lo = np.floor(at)
    # ends[j] is one past the last rank that holds values[j]
    ranks = [lo, min(lo + 1.0, pairs - 1.0)]
    a, b = np.sqrt(values[np.searchsorted(ends, ranks, side="right")])
    t = float(at - lo)
    if t >= 0.5:
        return float(b - (b - a) * (1.0 - t))
    return float(a + (b - a) * t)


def cluster_meanshift(points: np.ndarray, bandwidth: float | None = None) -> np.ndarray:
    """Flat-kernel mean shift.

    Default bandwidth is the 30th percentile of pairwise distances. Every
    point ascends to the mean of its bandwidth-neighbours until it moves
    less than ``MEANSHIFT_TOL`` (or for ``MEANSHIFT_MAX_ITER`` steps);
    converged positions within ``bandwidth / 2`` of each other collapse to
    one mode, scanned in point order. Copies of one point ascend together,
    so each distinct point ascends once and weighs in its neighbours' means
    by its multiplicity. Modes meet as they climb; once they have met, each
    step measures distances from the distinct modes only, and the collapse
    scans each distinct mode once. A bandwidth of zero, which the default
    gives when at least about 30% of the point pairs coincide, is an error,
    and so is an explicit one that is not finite and > 0, however few the
    points.
    """
    pts = np.asarray(points, dtype=np.float64)
    rows, weight, inverse = _distinct(pts)
    if bandwidth is None and len(pts) > 1:
        sq = _sq_dists(rows, rows)
        bandwidth = _pair_percentile(sq, weight, 30)
        if bandwidth <= 0.0:
            n = len(pts)
            coincident = int(weight @ (sq == 0.0) @ weight - n) // 2
            raise ValueError(
                f"bandwidth is zero: {coincident} of {n * (n - 1) // 2} point pairs"
                " coincide, so the 30th percentile of pairwise distances is 0"
            )
    if bandwidth is not None and not 0.0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    if len(pts) <= 1:
        return np.zeros(len(pts), dtype=np.int64)

    modes = rows.copy()
    for _ in range(MEANSHIFT_MAX_ITER):
        # Modes that have met share one row of distances. The means stay one
        # product over every mode: BLAS gives other bits on a subset of rows.
        met, _, back = _distinct(modes)
        within = (_sq_dists(met, rows) <= bandwidth * bandwidth)[back]
        new_modes = ((within * weight) @ rows) / (within @ weight)[:, None]
        shift = np.linalg.norm(new_modes - modes, axis=1)
        modes = new_modes
        if shift.max() < MEANSHIFT_TOL:
            break

    # Copies of a mode always join the same center.
    modes, _, back = _distinct(modes)
    centers: list[np.ndarray] = []
    assignment = np.empty(len(modes), dtype=np.int64)
    half = bandwidth / 2.0
    for i in range(len(modes)):
        for c, center in enumerate(centers):
            if np.linalg.norm(modes[i] - center) <= half:
                assignment[i] = c
                break
        else:
            centers.append(modes[i])
            assignment[i] = len(centers) - 1
    return assignment[back][inverse]


def knee_epsilon(matrix: np.ndarray, k: int = 4) -> float:
    """Eps from the sorted k-th-nearest-neighbour curve.

    The primary pick is the knee: the point of the ascending curve farthest
    from the chord between its endpoints. On a corpus with genuine outliers
    the curve has an elbow right before the outlier tail and the knee sits
    there. On a clean corpus the curve is featureless and the knee lands at
    an arbitrary small value, which would spray noise labels over perfectly
    normal files; so the result is floored at a robust fence over the same
    k-NN distances (median + 3.5/0.6745 MADs, the package-wide outlier
    threshold in distance space) and additionally at 3x the median k-NN
    distance. The latter matters when counts quantize the distances so
    tightly that the MAD collapses to zero; it keeps the floor at the scale
    of the dense field. Genuine outlier distances run one to two orders of
    magnitude past the field median, so neither floor can hide a real tail.
    A point's other copies are neighbours at distance zero.
    """
    x = np.asarray(matrix, dtype=np.float64)
    n = len(x)
    if n <= k:
        raise ValueError(f"need more than {k} points, got {n}")
    rows, weight, inverse = _distinct(x)
    dist = np.sqrt(_sq_dists(rows, rows))
    # A point's own row stands for its m - 1 other copies at distance 0 and
    # every other row for at least one neighbour, so the k nearest
    # neighbours lie among the k + 1 nearest distinct rows.
    near = np.argpartition(dist, min(k, len(rows) - 1), axis=1)[:, : k + 1]
    near = np.take_along_axis(
        near, np.argsort(np.take_along_axis(dist, near, axis=1), axis=1), axis=1
    )
    copies = weight[near] - (near == np.arange(len(rows))[:, None])
    hit = np.argmax(np.cumsum(copies, axis=1) >= k, axis=1)
    kth = dist[np.arange(len(rows)), near[np.arange(len(rows)), hit]][inverse]
    curve = np.sort(kth)
    m = len(curve)
    x0, y0 = 0.0, curve[0]
    x1, y1 = float(m - 1), curve[-1]
    span = np.hypot(x1 - x0, y1 - y0)
    if span == 0.0:
        return float(curve[0])
    idx = np.arange(m, dtype=np.float64)
    # Perpendicular distance from each curve point to the chord.
    offset = np.abs((y1 - y0) * idx - (x1 - x0) * curve + x1 * y0 - y1 * x0) / span
    knee = float(curve[int(np.argmax(offset))])

    med = float(np.median(kth))
    mad = float(np.median(np.abs(kth - med)))
    if mad > 0.0:
        fence = med + (Z_THRESHOLD / Z_SCALE) * mad
    else:
        q1, q3 = np.percentile(kth, [25, 75])
        fence = float(q3 + 1.5 * (q3 - q1)) or med
    return max(knee, fence, 3.0 * med)


def cluster_dbscan(
    matrix: np.ndarray, eps: float | None = None, min_samples: int = DBSCAN_MIN_SAMPLES
) -> tuple[np.ndarray, float]:
    """Density clustering; returns (labels, eps). Noise points get -1.

    Neighbourhoods use closed balls of radius ``eps`` (self included in the
    core-point count). Expansion is breadth-first in point order, so labels
    are deterministic. Copies of one point share a neighbourhood and a
    label, so the scan runs over distinct points and a point's neighbours
    count with their multiplicities.
    """
    x = np.asarray(matrix, dtype=np.float64)
    if eps is None:
        eps = knee_epsilon(x, k=min_samples - 1)
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")

    rows, weight, inverse = _distinct(x)
    within = _sq_dists(rows, rows) <= eps * eps
    neighbors = [np.flatnonzero(row) for row in within]
    core = within @ weight >= min_samples

    labels = np.full(len(rows), -2, dtype=np.int64)  # -2: unvisited
    cluster = 0
    for i in range(len(rows)):
        if labels[i] != -2:
            continue
        if not core[i]:
            labels[i] = -1
            continue
        labels[i] = cluster
        queue = list(neighbors[i])
        head = 0
        while head < len(queue):
            j = queue[head]
            head += 1
            if labels[j] == -1:
                labels[j] = cluster
            if labels[j] != -2:
                continue
            labels[j] = cluster
            if core[j]:
                queue.extend(neighbors[j])
        cluster += 1
    return labels[inverse], float(eps)


def flags_from_clusters(
    labels: np.ndarray, min_fraction: float = SMALL_CLUSTER_FRACTION
) -> tuple[np.ndarray, np.ndarray, float]:
    """The small-cluster rule: (mask, scores, threshold).

    A cluster is tiny when its size is at most ``max(2, min_fraction * n)``;
    noise (label -1) and the members of tiny clusters are flagged. A point
    scores 1 / the size of its cluster, and noise scores 1.
    """
    labels = np.asarray(labels)
    threshold = max(2.0, min_fraction * len(labels))
    _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    size = counts[inverse]
    noise = labels == -1
    return noise | (size <= threshold), np.where(noise, 1.0, 1.0 / size), threshold


DETECTOR_NAMES = ("single_stat", "combined_stat", "pca_agglomerative", "pca_meanshift", "dbscan")


@dataclass(frozen=True)
class _Projection:
    """A corpus's standardized counts and 2-component PCA, each made on first use."""

    fm: FeatureMatrix

    @cached_property
    def z(self) -> np.ndarray:
        return standardize(self.fm.matrix)

    @cached_property
    def pca(self) -> PCAModel:
        return fit_pca(self.z, n_components=2)

    @cached_property
    def pts(self) -> np.ndarray:
        return self.pca.transform(self.z)


def check_detectors(names: tuple[str, ...]) -> None:
    """Raise ``ValueError`` unless ``names`` names at least one detector, each
    one known and named once."""
    if not names:
        raise ValueError("detectors must be a non-empty list of names")
    for i, name in enumerate(names):
        if name not in DETECTOR_NAMES:
            raise ValueError(f"unknown detector: {name!r}")
        if name in names[:i]:
            raise ValueError(f"detector named twice: {name!r}")


def _detect(name: str, space: _Projection) -> tuple[FlagSet, np.ndarray | None]:
    """One detector's flag set, plus its cluster labels when it clusters."""
    check_detectors((name,))
    fm = space.fm
    if name in ("single_stat", "combined_stat"):
        stat = detect_single_stat if name == "single_stat" else detect_combined_stat
        return stat(fm), None

    if name in ("pca_agglomerative", "pca_meanshift"):
        parameters = {
            "space": "pca2 of standardized counts",
            "explained_variance": [float(v) for v in space.pca.explained_variance],
        }
        if name == "pca_agglomerative":
            labels = cluster_agglomerative(space.pts)
        else:
            labels = cluster_meanshift(space.pts)
            parameters["bandwidth"] = "p30 pairwise"
    else:
        labels, eps = cluster_dbscan(space.z)
        parameters = {"space": "standardized counts", "eps": eps, "min_samples": DBSCAN_MIN_SAMPLES}
    mask, scores, threshold = flags_from_clusters(labels)
    parameters.update(
        small_cluster_max=threshold,
        clusters=int(labels.max()) + 1 if len(labels) else 0,
        score="1/cluster size (noise: 1)",
    )
    return _flagset(name, parameters, fm, mask, scores), labels


def run_detector(name: str, fm: FeatureMatrix) -> FlagSet:
    """Run one of ``DETECTOR_NAMES`` on ``fm`` with the module's constants."""
    return _detect(name, _Projection(fm))[0]


def run_detectors(
    fm: FeatureMatrix, names: tuple[str, ...]
) -> tuple[list[FlagSet], np.ndarray, np.ndarray]:
    """Run detectors on one standardization and one PCA of ``fm``.

    Returns the flag sets in ``names`` order, the PCA projection (no rows
    for a corpus of one file, which PCA cannot fit), and the Ward labels of
    ``pca_agglomerative`` (all -1 when it was not requested).
    """
    space = _Projection(fm)
    flag_sets = []
    ward = np.full(len(fm.paths), -1, dtype=np.int64)
    for name in names:
        fs, labels = _detect(name, space)
        if name == "pca_agglomerative":
            ward = labels
        flag_sets.append(fs)
    return flag_sets, space.pts if len(fm.paths) > 1 else np.empty((0, 2)), ward
