"""Statistical outlier tests, from-scratch clustering, and the detector registry."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gcodeguard import detectors
from gcodeguard.detectors import (
    DETECTOR_NAMES,
    FlagSet,
    Z_THRESHOLD,
    cluster_agglomerative,
    cluster_dbscan,
    cluster_meanshift,
    detect_combined_stat,
    detect_single_stat,
    fit_pca,
    flags_from_clusters,
    knee_epsilon,
    modified_zscores,
    outliers,
    run_detector,
)
from gcodeguard.features import FeatureVector, build_matrix, standardize


def make_fm(g1_counts, g0_counts=None, histograms=None):
    """FeatureMatrix with controlled G0/G1 columns and E-decimal histograms."""
    n = len(g1_counts)
    g0_counts = g0_counts if g0_counts is not None else [200] * n
    vectors = []
    for i in range(n):
        counts = (
            g0_counts[i], g1_counts[i], 1, 1, 1, 1, 1, 1, 1, 1,
            g0_counts[i] + g1_counts[i] + 20,
        )
        hist = histograms[i] if histograms is not None else ((5, int(g1_counts[i])),)
        vectors.append(
            FeatureVector(
                path=f"file_{i:03d}.gcode",
                counts=counts,
                layer_count=10,
                bounds=(0.0, 50.0, 0.0, 20.0, 0.0, 4.0),
                total_extruded=30.0,
                e_decimal_histogram=hist,
            )
        )
    return build_matrix(vectors)


def planted_disks(seed, sizes=(20, 20), sep=10.0, radius=1.0):
    """Two uniform-disk blobs: bounded support keeps a density floor everywhere."""
    rng = np.random.default_rng(seed)
    blobs = []
    for k, count in enumerate(sizes):
        ang = rng.uniform(0.0, 2.0 * np.pi, count)
        rad = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
        blobs.append(
            np.column_stack([k * sep + rad * np.cos(ang), rad * np.sin(ang)])
        )
    truth = np.repeat(np.arange(len(sizes)), sizes)
    return np.vstack(blobs), truth


def partition_errors(labels, truth):
    """Mislabeled count under the best of the two binary relabelings."""
    if len(set(labels.tolist())) != 2:
        return len(truth)
    m0 = labels == labels[0]
    return min(int((m0 != (truth == 0)).sum()), int((m0 != (truth == 1)).sum()))


def broadcast_sq_dists(a, b):
    """The one-block formula the chunked kernel must reproduce bit for bit."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


class TestSqDists:
    @pytest.mark.parametrize("n", [1, 511, 512, 513])
    def test_square_matches_one_block(self, n):
        # at d = 4 a block holds 512 rows of a 512-row input: 511 and 512 fit
        # in one block, 513 needs two
        x = np.random.default_rng(n).normal(size=(n, 4)) * [1.0, 10.0, 1e3, 1e-3]
        x[n // 2] = x[0]
        assert np.array_equal(detectors._sq_dists(x, x), broadcast_sq_dists(x, x))

    @pytest.mark.parametrize("n", [1, 435, 436, 437, 873])
    def test_rectangular_matches_one_block(self, n):
        # a 300x8 right side gives blocks of 436 rows
        rng = np.random.default_rng(n)
        b = rng.normal(size=(300, 8))
        a = rng.normal(size=(n, 8))
        a[-1] = b[3]
        a[: n // 3] = a[0]
        got = detectors._sq_dists(a, b)
        assert got.shape == (n, 300)
        assert np.array_equal(got, broadcast_sq_dists(a, b))

    @pytest.mark.parametrize("budget", [1, 3, 7, 64, 1000])
    def test_any_block_size_gives_the_same_bits(self, budget, monkeypatch):
        rng = np.random.default_rng(budget)
        a = np.round(rng.normal(size=(40, 3)), 1)
        b = np.vstack([a[:10], rng.normal(size=(15, 3))])
        monkeypatch.setattr(detectors, "_CHUNK_ELEMENTS", budget)
        assert np.array_equal(detectors._sq_dists(a, b), broadcast_sq_dists(a, b))
        assert np.array_equal(detectors._sq_dists(a, a), broadcast_sq_dists(a, a))

    @pytest.mark.parametrize(
        "run", [knee_epsilon, cluster_dbscan], ids=["knee_epsilon", "cluster_dbscan"]
    )
    def test_peak_memory_does_not_grow_with_dimension(self, run):
        peaks = []
        for d in (2, 32):
            x = np.random.default_rng(d).normal(size=(800, d))
            tracemalloc.start()
            try:
                run(x)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] / peaks[0] < 2


class TestModifiedZscores:
    def test_known_values(self):
        z = modified_zscores(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
        # median 3, MAD 1
        assert z == pytest.approx([-1.349, -0.6745, 0.0, 0.6745, 65.4265])

    def test_zero_mad_returns_none(self):
        assert modified_zscores(np.array([5.0, 5.0, 5.0, 5.0, 9.0])) is None


class TestOutlierMask:
    def test_sides(self):
        values = np.array([100.0, 99, 101, 100, 102, 98, 100, 99, 101, 100, 40])
        assert outliers(values, "low")[0].tolist() == [False] * 10 + [True]
        assert not outliers(values, "high")[0].any()
        assert outliers(values, "both")[0].tolist() == [False] * 10 + [True]

    def test_tukey_fallback_when_mad_is_zero(self):
        # median 5 with MAD 0 but IQR 1.5: fences at 1.25 and 7.25
        values = np.array([1.0, 2, 3, 5, 5, 5, 5, 5, 5, 100])
        assert outliers(values, "both")[0].tolist() == (
            [True] + [False] * 8 + [True]
        )
        assert outliers(values, "high")[0].tolist() == [False] * 9 + [True]
        assert outliers(values, "low")[0].tolist() == [True] + [False] * 9

    def test_constant_series_flags_nothing(self):
        assert not outliers(np.full(20, 7.0), "both")[0].any()

    def test_score_is_the_sided_z(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        z = modified_zscores(values)
        for side, score in [("low", -z), ("high", z), ("both", np.abs(z))]:
            mask, got = outliers(values, side)
            assert np.array_equal(got, score)
            assert np.array_equal(mask, score > Z_THRESHOLD)

    def test_score_is_zero_when_mad_is_zero(self):
        values = np.array([1.0, 2, 3, 5, 5, 5, 5, 5, 5, 100])
        for side in ("low", "high", "both"):
            assert outliers(values, side)[1].tolist() == [0.0] * 10

    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            min_size=5,
            max_size=40,
        )
    )
    def test_property_flags_respect_the_median(self, raw):
        values = np.array(raw)
        med = np.median(values)
        assert np.all(values[outliers(values, "low")[0]] < med)
        assert np.all(values[outliers(values, "high")[0]] > med)


class TestStatDetectors:
    BASELINE = [100, 99, 101, 100, 102, 98, 100, 99, 101, 100, 100, 101, 99, 100, 100]

    def test_single_stat_flags_both_directions(self):
        fm = make_fm(self.BASELINE + [40])
        assert detect_single_stat(fm).flagged == ("file_015.gcode",)
        fm = make_fm(self.BASELINE + [160])
        assert detect_single_stat(fm).flagged == ("file_015.gcode",)

    def test_single_stat_scores_cover_every_path(self):
        fm = make_fm(self.BASELINE + [40])
        flags = detect_single_stat(fm)
        assert set(flags.scores) == set(fm.paths)
        assert flags.scores["file_015.gcode"] > Z_THRESHOLD

    def test_combined_ignores_high_g1(self):
        # extra extruding moves alone are not an attack signature here
        fm = make_fm(self.BASELINE + [160])
        assert detect_combined_stat(fm).flagged == ()

    def test_combined_flags_low_g1(self):
        fm = make_fm(self.BASELINE + [40])
        assert detect_combined_stat(fm).flagged == ("file_015.gcode",)

    def test_combined_flags_high_g0(self):
        g0 = [200, 201, 199, 200, 202, 198, 200, 199, 201, 200, 200, 201, 199, 200, 200, 260]
        fm = make_fm(self.BASELINE + [100], g0_counts=g0)
        assert detect_combined_stat(fm).flagged == ("file_015.gcode",)
        assert not detect_single_stat(fm).flagged

    def test_combined_flags_decimal_anomalies(self):
        hists = [((5, 100),)] * 15 + [((5, 97), (2, 3))]
        fm = make_fm(self.BASELINE + [100], histograms=hists)
        flags = detect_combined_stat(fm)
        assert flags.flagged == ("file_015.gcode",)
        assert flags.scores["file_015.gcode"] >= 3.0

    def test_uniform_corpus_is_clean(self):
        fm = make_fm([100] * 16)
        assert not detect_single_stat(fm).flagged
        assert not detect_combined_stat(fm).flagged

    def test_threshold_override(self):
        values = self.BASELINE + [94]  # z = -0.6745 * 6 ~ -4.05
        fm = make_fm(values)
        assert detect_single_stat(fm).flagged
        assert not detect_single_stat(fm, threshold=10.0).flagged


class TestPCA:
    def test_components_orthonormal(self):
        rng = np.random.default_rng(11)
        model = fit_pca(rng.normal(size=(60, 7)))
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(2)).max() < 1e-9

    def test_projected_variance_matches_eigenvalues(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(80, 6)) @ rng.normal(size=(6, 6))
        model = fit_pca(x)
        proj = model.transform(x)
        total = proj.var(axis=0).sum()
        cov = np.cov(x, rowvar=False, bias=True)
        top2 = np.sort(np.linalg.eigvalsh(cov))[-2:].sum()
        assert abs(total - top2) < 1e-9

    def test_mean_maps_to_origin(self):
        rng = np.random.default_rng(13)
        x = rng.normal(3.0, 2.0, size=(30, 4))
        model = fit_pca(x)
        assert np.abs(model.transform(x.mean(axis=0)[None, :])).max() < 1e-12

    def test_rank_one_data(self):
        t = np.linspace(-3.0, 3.0, 25)[:, None]
        direction = np.array([[3.0, -4.0]]) / 5.0
        model = fit_pca(t @ direction)
        assert model.explained_variance[1] == pytest.approx(0.0, abs=1e-12)
        assert abs(float(model.components[0] @ direction[0])) == pytest.approx(1.0)

    def test_sign_convention(self):
        rng = np.random.default_rng(14)
        model = fit_pca(rng.normal(size=(40, 5)))
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(25, 6))
        a, b = fit_pca(x), fit_pca(x)
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.explained_variance, b.explained_variance)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            fit_pca(np.zeros((1, 4)))
        with pytest.raises(ValueError):
            fit_pca(np.zeros((5, 3)), n_components=4)


class TestAgglomerative:
    @pytest.mark.parametrize("seed", range(5))
    def test_two_blob_recovery(self, seed):
        pts, truth = planted_disks(seed)
        assert partition_errors(cluster_agglomerative(pts), truth) == 0

    def test_asymmetric_blobs(self):
        pts, truth = planted_disks(77, sizes=(8, 40), sep=6.0, radius=0.6)
        assert partition_errors(cluster_agglomerative(pts), truth) == 0

    def test_singleton_outlier_isolated(self):
        pts, _ = planted_disks(5, sizes=(12,), radius=0.5)
        pts = np.vstack([pts, [[40.0, 0.0]]])
        labels = cluster_agglomerative(pts)
        assert labels[-1] != labels[0]
        assert (labels == labels[-1]).sum() == 1
        assert (labels == labels[0]).sum() == 12

    def test_tiny_inputs(self):
        assert cluster_agglomerative(np.zeros((0, 2))).tolist() == []
        assert cluster_agglomerative(np.array([[1.0, 2.0]])).tolist() == [0]
        assert cluster_agglomerative(np.array([[0.0, 0.0], [5.0, 0.0]])).tolist() == [0, 1]
        assert cluster_agglomerative(np.ones((2, 2))).tolist() == [0, 0]

    def test_identical_points_form_one_cluster(self):
        labels = cluster_agglomerative(np.ones((6, 2)))
        assert labels.tolist() == [0] * 6

    def test_labels_are_contiguous_from_zero(self):
        pts, _ = planted_disks(9, sizes=(10, 10, 10), sep=15.0)
        labels = cluster_agglomerative(pts)
        assert set(labels.tolist()) == set(range(labels.max() + 1))

    def test_deterministic(self):
        pts, _ = planted_disks(21)
        assert np.array_equal(cluster_agglomerative(pts), cluster_agglomerative(pts))


class TestMeanshift:
    @pytest.mark.parametrize("seed", range(5))
    def test_two_blob_recovery(self, seed):
        pts, truth = planted_disks(seed)
        assert partition_errors(cluster_meanshift(pts), truth) == 0

    def test_single_blob(self):
        # bandwidth covering the blob radius leaves exactly one mode
        pts, _ = planted_disks(31, sizes=(25,))
        assert set(cluster_meanshift(pts, bandwidth=1.0).tolist()) == {0}

    def test_wide_bandwidth_merges_everything(self):
        pts, _ = planted_disks(32)
        assert set(cluster_meanshift(pts, bandwidth=50.0).tolist()) == {0}

    def test_identical_points_rejected(self):
        with pytest.raises(ValueError):
            cluster_meanshift(np.ones((5, 2)))

    def test_rejects_nonpositive_bandwidth(self):
        x = np.random.default_rng(3).normal(size=(12, 2))
        for bandwidth in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"^bandwidth must be positive and finite, got"):
                cluster_meanshift(x, bandwidth=bandwidth)

    def test_zero_bandwidth_message_counts_coincident_pairs(self):
        # 9 copies of one point and 1 other: 36 of the 45 pairs coincide, so
        # the 30th-percentile distance is 0 although the points differ
        pts = np.vstack([np.zeros((9, 2)), [[1.0, 1.0]]])
        with pytest.raises(ValueError, match=r"^bandwidth is zero: 36 of 45 point pairs coincide"):
            cluster_meanshift(pts)

    def test_tiny_inputs(self):
        assert cluster_meanshift(np.zeros((0, 2))).tolist() == []
        assert cluster_meanshift(np.array([[3.0, 4.0]])).tolist() == [0]

    def test_deterministic(self):
        pts, _ = planted_disks(33)
        assert np.array_equal(cluster_meanshift(pts), cluster_meanshift(pts))


def naive_dbscan(x, eps, min_samples):
    """Independent formulation: core graph components, then border adoption.

    Cores are points with at least min_samples neighbours in a closed eps
    ball (self included). Clusters are connected components of the core-core
    adjacency, numbered by their lowest core index. A non-core point joins
    the lowest-numbered cluster owning a core within eps of it, else noise.
    """
    n = len(x)
    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    neigh = [np.flatnonzero(dist[i] <= eps) for i in range(n)]
    core = np.array([len(neigh[i]) >= min_samples for i in range(n)])

    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        if not core[i]:
            continue
        for j in neigh[i]:
            if j > i and core[j]:
                parent[find(int(j))] = find(i)

    first_core: dict[int, int] = {}
    for i in range(n):
        if core[i]:
            first_core.setdefault(find(i), i)
    cluster_id = {
        root: k
        for k, root in enumerate(sorted(first_core, key=first_core.__getitem__))
    }
    labels = np.full(n, -1, dtype=np.int64)
    for i in range(n):
        if core[i]:
            labels[i] = cluster_id[find(i)]
        else:
            owners = [cluster_id[find(int(j))] for j in neigh[i] if core[j]]
            if owners:
                labels[i] = min(owners)
    return labels


class TestDBSCAN:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_naive_reference(self, seed):
        rng = np.random.default_rng(seed)
        blobs = [
            rng.normal(center, 0.6, size=(rng.integers(8, 20), 2))
            for center in [(0, 0), (6, 0), (0, 6)]
        ]
        scatter = rng.uniform(-4, 10, size=(12, 2))
        x = np.vstack(blobs + [scatter])
        eps = 0.9
        min_samples = int(rng.integers(2, 7))
        labels, _ = cluster_dbscan(x, eps=eps, min_samples=min_samples)
        assert np.array_equal(labels, naive_dbscan(x, eps, min_samples))

    def test_connected_grid_is_one_cluster(self):
        g = np.arange(7, dtype=np.float64)
        x = np.array([(a, b) for a in g for b in g])
        labels, _ = cluster_dbscan(x, eps=1.1, min_samples=1)
        assert set(labels.tolist()) == {0}

    def test_closed_ball_boundary(self):
        # distance exactly eps counts as a neighbour
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        labels, _ = cluster_dbscan(x, eps=1.0, min_samples=2)
        assert labels.tolist() == [0, 0, 0]

    def test_default_eps_comes_from_knee(self):
        pts, _ = planted_disks(41, sizes=(30, 30), sep=8.0)
        labels, eps = cluster_dbscan(pts, min_samples=5)
        assert eps == pytest.approx(knee_epsilon(pts, k=4))
        assert eps > 0
        assert labels.min() >= -1

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            cluster_dbscan(np.zeros((10, 2)), eps=0.0)
        x = np.random.default_rng(3).normal(size=(12, 2))
        for eps in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"^eps must be positive and finite, got"):
                cluster_dbscan(x, eps=eps)

    def test_deterministic(self):
        pts, _ = planted_disks(42)
        a, _ = cluster_dbscan(pts, eps=1.0, min_samples=4)
        b, _ = cluster_dbscan(pts, eps=1.0, min_samples=4)
        assert np.array_equal(a, b)


class TestKneeEpsilon:
    def test_quantized_distances_floor_at_three_medians(self):
        # unit-spaced line: every 1st-NN distance is exactly 1, MAD is 0
        x = np.arange(10, dtype=np.float64)[:, None]
        assert knee_epsilon(x, k=1) == pytest.approx(3.0)

    def test_never_below_floors(self):
        rng = np.random.default_rng(55)
        x = rng.normal(size=(80, 3))
        diff = x[:, None, :] - x[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        np.fill_diagonal(dist, np.inf)
        kth = np.sort(dist, axis=1)[:, 3]
        med = np.median(kth)
        mad = np.median(np.abs(kth - med))
        eps = knee_epsilon(x, k=4)
        assert eps >= 3.0 * med - 1e-12
        assert eps >= med + (3.5 / 0.6745) * mad - 1e-12

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            knee_epsilon(np.zeros((4, 2)), k=4)


class TestFlagsFromClusters:
    def test_small_cluster_threshold_is_inclusive(self):
        labels = np.array([0] * 290 + [1] * 3 + [-1] * 7)
        mask, _, threshold = flags_from_clusters(labels)
        assert threshold == 3.0
        assert mask.sum() == 10
        assert mask[290:].all()
        assert not mask[:290].any()

    def test_cluster_above_threshold_not_flagged(self):
        labels = np.array([0] * 296 + [1] * 4)
        mask, _, _ = flags_from_clusters(labels)
        assert not mask.any()

    def test_minimum_threshold_is_two(self):
        labels = np.array([0] * 8 + [1] * 2)
        mask, _, threshold = flags_from_clusters(labels)
        assert threshold == 2.0
        assert mask.tolist() == [False] * 8 + [True] * 2

    def test_min_fraction_override(self):
        labels = np.array([0] * 90 + [1] * 10)
        mask, _, _ = flags_from_clusters(labels, min_fraction=0.15)
        assert mask.sum() == 10

    def test_scores_are_inverse_cluster_sizes(self):
        labels = np.array([2, 0, -1, 0, 2, 0, 1, -1])
        _, scores, _ = flags_from_clusters(labels)
        assert scores.tolist() == [1 / 2, 1 / 3, 1.0, 1 / 3, 1 / 2, 1 / 3, 1.0, 1.0]


def plain_z(values):
    """The modified z-score, or None when the MAD is zero."""
    med = np.median(values)
    mad = np.median(np.abs(values - med))
    return None if mad == 0.0 else 0.6745 * (values - med) / mad


def count_values(draw, n):
    """n counts near 100, often tied so that the MAD can be zero, with strays."""
    near = st.one_of(st.just(100), st.integers(98, 102), st.integers(0, 300))
    return draw(st.lists(near, min_size=n, max_size=n))


@st.composite
def small_corpora(draw):
    """A FeatureMatrix of 8 to 24 files with drawn G0 and G1 counts and some
    files carrying off-mode E-decimal tokens."""
    n = draw(st.integers(8, 24))
    g1, g0 = count_values(draw, n), count_values(draw, n)
    odd = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    histograms = [((5, g1[i] + 4),) + (((4, odd[i]),) if odd[i] else ()) for i in range(n)]
    return make_fm(g1, g0_counts=g0, histograms=histograms)


# Degenerate corpora with no default bandwidth or eps: ROADMAP item 1.
DEGENERATE = r"^(bandwidth is zero|eps must be positive)"


class TestScoresFollowTheFormulas:
    @given(small_corpora())
    def test_scores(self, fm):
        calls, labels = [], {}
        real_z = detectors.modified_zscores

        def counting_z(values):
            calls.append(len(values))
            return real_z(values)

        def keeping(name, run):
            def wrapped(*args, **kwargs):
                out = run(*args, **kwargs)
                labels[name] = out[0] if isinstance(out, tuple) else out
                return out
            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detectors, "modified_zscores", counting_z)
            single = detect_single_stat(fm)
            assert len(calls) == 1
            calls.clear()
            combined = detect_combined_stat(fm)
            assert len(calls) == 2
            for name, func in [
                ("pca_agglomerative", "cluster_agglomerative"),
                ("pca_meanshift", "cluster_meanshift"),
                ("dbscan", "cluster_dbscan"),
            ]:
                mp.setattr(detectors, func, keeping(name, getattr(detectors, func)))
            clustered = {}
            for name in ("pca_agglomerative", "pca_meanshift", "dbscan"):
                try:
                    clustered[name] = run_detector(name, fm)
                except ValueError as exc:
                    assert re.match(DEGENERATE, str(exc)), exc

        def scores(flags):
            return np.array([flags.scores[p] for p in fm.paths])

        g1, g0 = fm.column("G1"), fm.column("G0")
        z1, z0 = plain_z(g1), plain_z(g0)
        expected = np.abs(z1) if z1 is not None else np.zeros(len(g1))
        assert np.array_equal(scores(single), expected)

        parts = [np.zeros(len(g1))]
        parts += [-z1] if z1 is not None else []
        parts += [z0] if z0 is not None else []
        expected = np.max(parts, axis=0) + fm.e_decimal_anomalies
        assert np.array_equal(scores(combined), expected)
        # no -0.0 reaches the flag-set JSON
        assert not np.signbit(scores(combined)).any()

        for name, flags in clustered.items():
            lab = labels[name]
            sizes = np.array([np.sum(lab == label) for label in lab])
            expected = np.where(lab == -1, 1.0, 1.0 / sizes)
            assert np.array_equal(scores(flags), expected), name


@pytest.fixture(scope="module")
def jittered_fm():
    rng = np.random.default_rng(123)
    g1 = (100 + rng.integers(-2, 3, size=24)).tolist()
    g0 = (200 + rng.integers(-2, 3, size=24)).tolist()
    g1[-1] = 40
    g0[-1] = 260
    return make_fm(g1, g0_counts=g0)


class TestRunDetector:
    @pytest.mark.parametrize("name", DETECTOR_NAMES)
    def test_every_detector_runs_and_scores_all_paths(self, name, jittered_fm):
        flags = run_detector(name, jittered_fm)
        assert flags.detector == name
        assert set(flags.scores) == set(jittered_fm.paths)
        assert flags.flagged == tuple(sorted(flags.flagged))

    def test_stat_detectors_find_the_planted_victim(self, jittered_fm):
        assert "file_023.gcode" in run_detector("single_stat", jittered_fm).flagged
        assert "file_023.gcode" in run_detector("combined_stat", jittered_fm).flagged

    def test_unknown_name_rejected(self, jittered_fm):
        with pytest.raises(ValueError):
            run_detector("voodoo", jittered_fm)

    @pytest.mark.parametrize(
        "name,params,leftover",
        [
            ("dbscan", {"epsilon": 0.5, "eps": 2.5}, "'epsilon'"),
            ("single_stat", {"min_fraction": 0.1}, "'min_fraction'"),
            ("pca_agglomerative", {"bandwidth": 1.0, "nosuch": 0}, "'bandwidth', 'nosuch'"),
        ],
    )
    def test_unknown_override_rejected(self, name, params, leftover, jittered_fm):
        with pytest.raises(ValueError) as exc:
            run_detector(name, jittered_fm, params)
        assert str(exc.value) == f"{name}: unknown parameter override(s): {leftover}"

    @pytest.mark.parametrize(
        "name,key,value",
        [
            ("single_stat", "threshold", None),
            ("combined_stat", "threshold", float("inf")),
            ("single_stat", "threshold", True),
            ("single_stat", "threshold", 0),
            ("single_stat", "threshold", "3.5"),
            ("pca_meanshift", "bandwidth", float("nan")),
            ("pca_meanshift", "bandwidth", -1.0),
            ("dbscan", "eps", float("nan")),
            ("dbscan", "eps", float("-inf")),
            ("pca_agglomerative", "min_fraction", 1.0),
            ("pca_meanshift", "min_fraction", float("nan")),
            ("dbscan", "min_fraction", -0.01),
            ("dbscan", "min_samples", 2.5),
            ("dbscan", "min_samples", 5.0),
            ("dbscan", "min_samples", 0),
            ("dbscan", "min_samples", True),
            # would pass, then fail to save as JSON in the flag set
            ("dbscan", "min_samples", np.int64(5)),
            ("single_stat", "threshold", np.float32(3.5)),
        ],
    )
    def test_out_of_range_override_rejected(self, name, key, value, jittered_fm):
        with pytest.raises(ValueError, match=f"^{name}: {key} must be "):
            run_detector(name, jittered_fm, {key: value})
        with pytest.raises(ValueError, match=f"^{name}: {key} must be "):
            detectors.check_detector_params({name: {key: value}})

    def test_in_range_overrides_accepted(self, jittered_fm):
        params = {
            "single_stat": {"threshold": 3},
            "combined_stat": {"threshold": np.float64(3.5)},
            "pca_agglomerative": {"min_fraction": 0},
            "pca_meanshift": {"bandwidth": 2.0, "min_fraction": 0.5},
            "dbscan": {"eps": 2.5, "min_samples": 1},
        }
        detectors.check_detector_params(params)
        for name, overrides in params.items():
            assert run_detector(name, jittered_fm, overrides).detector == name

    def test_dbscan_overrides_echoed(self, jittered_fm):
        flags = run_detector("dbscan", jittered_fm, {"eps": 2.5, "min_samples": 3})
        assert flags.parameters["eps"] == 2.5
        assert flags.parameters["min_samples"] == 3

    def test_flagset_round_trip(self, jittered_fm, tmp_path):
        flags = run_detector("combined_stat", jittered_fm)
        path = tmp_path / "flags.json"
        flags.save(path)
        loaded = FlagSet.load(path)
        assert loaded.detector == flags.detector
        assert loaded.flagged == flags.flagged
        assert loaded.scores == pytest.approx(flags.scores)


def plain_ward(pts):
    """Ward agglomeration over every point, one cluster per point at the start."""
    n = len(pts)
    work = broadcast_sq_dists(pts, pts)
    np.fill_diagonal(work, np.inf)
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    merges, prominence = [], []
    for _ in range(n - 1):
        i, j = sorted(divmod(int(np.argmin(work)), n))
        cost = work[i, j]
        ni, nj = sizes[i], sizes[j]
        prominence.append(float(np.sqrt(cost) / np.sqrt(ni * nj / (ni + nj))))
        merges.append((i, j))
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
        return np.zeros(n, dtype=np.int64)
    first = next(k for k, p in enumerate(prominence) if p >= pmax / 2.0)
    roots = np.arange(n)
    for i, j in merges[:first]:
        roots[roots == j] = i
    _, first_member, inverse = np.unique(roots, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first_member))[inverse]


def plain_meanshift(pts):
    """Flat-kernel mean shift moving every point, bandwidth from the full pair list."""
    n = len(pts)
    pairs = np.sqrt(broadcast_sq_dists(pts, pts)[np.triu_indices(n, k=1)])
    bandwidth = float(np.percentile(pairs, 30))
    if bandwidth <= 0.0:
        raise ValueError("bandwidth is zero")
    modes = pts.copy()
    for _ in range(detectors.MEANSHIFT_MAX_ITER):
        within = broadcast_sq_dists(modes, pts) <= bandwidth * bandwidth
        new_modes = (within.astype(np.float64) @ pts) / within.sum(axis=1)[:, None]
        shift = np.linalg.norm(new_modes - modes, axis=1)
        modes = new_modes
        if shift.max() < detectors.MEANSHIFT_TOL:
            break
    centers, labels = [], []
    for mode in modes:
        near = [
            c for c, center in enumerate(centers)
            if np.linalg.norm(mode - center) <= bandwidth / 2.0
        ]
        if not near:
            centers.append(mode)
        labels.append(near[0] if near else len(centers) - 1)
    return np.array(labels)


def plain_knee_epsilon(x, k):
    """knee_epsilon from every point's k-th nearest other point."""
    if len(x) <= k:
        raise ValueError(f"need more than {k} points, got {len(x)}")
    dist = np.sqrt(broadcast_sq_dists(x, x))
    np.fill_diagonal(dist, np.inf)
    kth = np.sort(dist, axis=1)[:, k - 1]
    curve = np.sort(kth)
    m = len(curve)
    x0, y0 = 0.0, curve[0]
    x1, y1 = float(m - 1), curve[-1]
    span = np.hypot(x1 - x0, y1 - y0)
    if span == 0.0:
        return float(curve[0])
    idx = np.arange(m, dtype=np.float64)
    offset = np.abs((y1 - y0) * idx - (x1 - x0) * curve + x1 * y0 - y1 * x0) / span
    knee = float(curve[int(np.argmax(offset))])
    med = float(np.median(kth))
    mad = float(np.median(np.abs(kth - med)))
    if mad > 0.0:
        fence = med + (Z_THRESHOLD / 0.6745) * mad
    else:
        q1, q3 = np.percentile(kth, [25, 75])
        fence = float(q3 + 1.5 * (q3 - q1)) or med
    return max(knee, fence, 3.0 * med)


@st.composite
def repeated_rows(draw):
    """(x, owner): random rows, each repeated 1 to 4 times and shuffled into
    ``x``; ``x[i]`` is a copy of row ``owner[i]``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(6, 20))
    rows = rng.normal(size=(n, draw(st.sampled_from([2, 11]))))
    reps = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    owner = rng.permutation(np.repeat(np.arange(n), reps))
    return rows[owner], owner


def copies_share_labels(labels, owner):
    """True when every copy of a row has the label of that row's first copy."""
    first = np.unique(owner, return_index=True)[1]
    return np.array_equal(labels, labels[first][owner])


class TestRepeatedRows:
    """Copies of a row are clustered once, weighted by their number, with the
    labels and eps of the computation over every point."""

    @given(repeated_rows())
    def test_agglomerative(self, case):
        x, owner = case
        labels = cluster_agglomerative(x)
        assert np.array_equal(labels, plain_ward(x))
        assert copies_share_labels(labels, owner)

    @given(repeated_rows())
    def test_meanshift(self, case):
        x, owner = case
        labels = cluster_meanshift(x)
        assert np.array_equal(labels, plain_meanshift(x))
        assert copies_share_labels(labels, owner)

    @given(repeated_rows(), st.integers(1, 5))
    def test_knee_epsilon(self, case, k):
        x, _ = case
        assert knee_epsilon(x, k=k) == plain_knee_epsilon(x, k)

    @given(repeated_rows(), st.floats(0.2, 3.0), st.integers(1, 8))
    # six single rows with min_samples 7: too few points for the k-NN knee
    @example((np.random.default_rng(0).normal(size=(6, 2)), np.arange(6)), 1.0, 7)
    def test_dbscan(self, case, eps, min_samples):
        x, owner = case
        labels, _ = cluster_dbscan(x, eps=eps, min_samples=min_samples)
        assert np.array_equal(labels, naive_dbscan(x, eps, min_samples))
        assert copies_share_labels(labels, owner)
        if min_samples == 1:
            return
        if len(x) <= min_samples - 1:
            with pytest.raises(ValueError, match="need more than"):
                plain_knee_epsilon(x, min_samples - 1)
            with pytest.raises(ValueError, match="need more than"):
                cluster_dbscan(x, min_samples=min_samples)
            return
        expected = plain_knee_epsilon(x, min_samples - 1)
        if expected > 0.0:
            assert cluster_dbscan(x, min_samples=min_samples)[1] == expected
        else:
            with pytest.raises(ValueError, match="eps must be positive"):
                cluster_dbscan(x, min_samples=min_samples)

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=40),
        st.sampled_from([0, 30, 50, 97, 100]),
    )
    def test_pair_percentile_has_the_bits_of_numpy(self, grid, q):
        x = np.array(grid, dtype=np.float64)
        rows, weight, inverse = detectors._distinct(x)
        assert np.array_equal(rows[inverse], x)
        pairs = np.sqrt(broadcast_sq_dists(x, x)[np.triu_indices(len(x), k=1)])
        got = detectors._pair_percentile(detectors._sq_dists(rows, rows), weight, q)
        assert got == np.percentile(pairs, q)


def sweep_matrix(count=1440, step=0.25, seed=3):
    """Count vectors of a rotation sweep, as in the benchmark's cluster-1440.

    Each of 30 layers adds floor(30 * (|cos a| + |sin a|) + u) infill
    segments, a being the part angle minus the layer's infill direction and
    u a per-layer jitter; every segment is one G0 and one G1, the other
    codes are constant. Neighbouring angles share most count vectors.
    """
    rng = np.random.default_rng(seed)
    angles = np.radians(np.arange(count) * step)[:, None]
    directions = np.radians(np.resize([45.0, -45.0, 30.0], 30))[None, :]
    a = angles - directions
    s = np.floor(30.0 * (np.abs(np.cos(a)) + np.abs(np.sin(a))) + rng.random((count, 30)))
    s = s.sum(axis=1)
    g0, g1 = 31 + s, 3904 + s
    const = np.array([1, 1, 1, 2, 1, 1, 1, 2], dtype=np.float64)
    return np.column_stack([g0, g1, np.tile(const, (count, 1)), g0 + g1 + 43])


def test_distances_are_taken_between_distinct_rows_only(monkeypatch):
    z = standardize(sweep_matrix())
    pts = fit_pca(z).transform(z)
    shapes = []
    real = detectors._sq_dists

    def recording(a, b):
        shapes.append((len(a), len(b)))
        return real(a, b)

    monkeypatch.setattr(detectors, "_sq_dists", recording)
    for run, arg in [
        (cluster_agglomerative, pts),
        (cluster_meanshift, pts),
        (knee_epsilon, z),
        (cluster_dbscan, z),
    ]:
        shapes.clear()
        run(arg)
        distinct = len(np.unique(arg, axis=0))
        assert distinct < len(arg) / 2
        assert shapes and max(max(s) for s in shapes) <= distinct


def full_batch_meanshift(pts, bandwidth=None):
    """(final modes, labels) of the weighted ascent that measures every mode
    against every distinct row at every step and scans every mode when it
    collapses them."""
    rows, weight, inverse = detectors._distinct(pts)
    if bandwidth is None:
        bandwidth = detectors._pair_percentile(detectors._sq_dists(rows, rows), weight, 30)
    modes = rows.copy()
    for _ in range(detectors.MEANSHIFT_MAX_ITER):
        within = broadcast_sq_dists(modes, rows) <= bandwidth * bandwidth
        new_modes = ((within * weight) @ rows) / (within @ weight)[:, None]
        shift = np.linalg.norm(new_modes - modes, axis=1)
        modes = new_modes
        if shift.max() < detectors.MEANSHIFT_TOL:
            break
    centers, labels = [], []
    for mode in modes:
        near = [
            c for c, center in enumerate(centers)
            if np.linalg.norm(mode - center) <= bandwidth / 2.0
        ]
        if not near:
            centers.append(mode)
        labels.append(near[0] if near else len(centers) - 1)
    return modes, np.array(labels)[inverse]


def meanshift_and_modes(pts, bandwidth=None):
    """(final modes, labels) of ``cluster_meanshift``: its last ``_distinct``
    call takes the final modes."""
    seen = []
    real = detectors._distinct

    def recording(x):
        seen.append(x.copy())
        return real(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detectors, "_distinct", recording)
        labels = cluster_meanshift(pts, bandwidth=bandwidth)
    return seen[-1], labels


@st.composite
def blobs(draw):
    """Points scattered around 2 to 5 centres, then sampled with repeats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([2, 11]))
    sizes = draw(st.lists(st.integers(3, 40), min_size=2, max_size=5))
    centres = rng.normal(scale=draw(st.floats(2.0, 20.0)), size=(len(sizes), dim))
    pts = np.concatenate([c + rng.normal(size=(s, dim)) for c, s in zip(centres, sizes)])
    return pts[rng.integers(0, len(pts), size=2 * len(pts))]


class TestMeanshiftAscent:
    """Modes that have met are measured once per step, with the same bits."""

    @given(st.one_of(repeated_rows().map(lambda case: case[0]), blobs()))
    def test_same_bits_as_the_full_batch_ascent(self, x):
        rows, weight, _ = detectors._distinct(x)
        if detectors._pair_percentile(broadcast_sq_dists(rows, rows), weight, 30) == 0.0:
            # at least about 30% of the pairs coincide: no default bandwidth
            with pytest.raises(ValueError, match=r"^bandwidth is zero"):
                cluster_meanshift(x)
            return
        modes, labels = meanshift_and_modes(x)
        expected_modes, expected_labels = full_batch_meanshift(x)
        assert np.array_equal(modes, expected_modes)
        assert np.array_equal(labels, expected_labels)

    def test_work_shrinks_with_the_distinct_modes(self, monkeypatch):
        rng = np.random.default_rng(11)
        centres = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
        pts = np.concatenate([c + rng.normal(size=(100, 2)) for c in centres])
        measured = []
        real = detectors._sq_dists

        def recording(a, b):
            measured.append(len(a))
            return real(a, b)

        monkeypatch.setattr(detectors, "_sq_dists", recording)
        cluster_meanshift(pts, bandwidth=2.0)
        monkeypatch.undo()
        modes, _ = full_batch_meanshift(pts, bandwidth=2.0)
        steps, distinct = len(measured), len(pts)
        assert measured[0] == distinct
        assert measured[-1] == len(np.unique(modes, axis=0))
        assert sum(measured) < steps * distinct / 2
