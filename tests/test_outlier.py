"""Outlier measures: exact oracle equality and greedy approximation."""

import numpy as np
import pytest
from helpers import blobs_dataset, correlated_data, loads_numpy_ma

import forestfuse as ff


def spreadsheet_oracle(prox, classes):
    """Plain-loop raw and MAD scores, kept independent of the library.

    A class with MAD 0 whose finite raws differ is scaled by their mean
    absolute deviation from the median; otherwise MAD 0 scores 0.
    """
    n = len(classes)
    raw = [0.0] * n
    for i in range(n):
        mass = 0.0
        nj = 0
        for j in range(n):
            if classes[j] == classes[i]:
                nj += 1
                if j != i:
                    mass += prox[i][j] ** 2
        raw[i] = nj / mass if mass > 0 else float("inf")
    score = [0.0] * n
    for c in set(classes):
        members = [i for i in range(n) if classes[i] == c]
        vals = sorted(raw[i] for i in members)
        med = (vals[len(vals) // 2] if len(vals) % 2 else
               0.5 * (vals[len(vals) // 2 - 1] + vals[len(vals) // 2]))
        devs = sorted(abs(raw[i] - med) for i in members)
        mad = (devs[len(devs) // 2] if len(devs) % 2 else
               0.5 * (devs[len(devs) // 2 - 1] + devs[len(devs) // 2]))
        scale = mad
        if mad == 0:
            finite = [raw[i] for i in members if raw[i] != float("inf")]
            scale = sum(abs(r - med) for r in finite) / len(finite)
        for i in members:
            score[i] = (raw[i] - med) / scale if scale > 0 else 0.0
    return np.array(raw), np.array(score)


def ten_sample_matrix():
    """Symmetric 10x10 proximity with one obvious outlier per class."""
    rng = np.random.default_rng(77)
    base = rng.uniform(0.3, 0.9, size=(10, 10))
    prox = (base + base.T) / 2
    np.fill_diagonal(prox, 1.0)
    classes = np.array([0] * 5 + [1] * 5)
    # sample 4 is barely connected to class 0, sample 9 to class 1
    for j in range(5):
        if j != 4:
            prox[4, j] = prox[j, 4] = 0.02
    for j in range(5, 10):
        if j != 9:
            prox[9, j] = prox[j, 9] = 0.03
    return prox, classes


class TestOutlierExact:
    def test_symmetric_class_raw_and_scores(self):
        p = 0.6
        prox = np.full((3, 3), p)
        np.fill_diagonal(prox, 1.0)
        report = ff.outlier_exact(prox, [0, 0, 0])
        np.testing.assert_allclose(report.raw, 3 / (2 * p * p), atol=1e-15)
        np.testing.assert_array_equal(report.score, 0.0)
        assert all(ff.outlier.FLAG_DEGENERATE_MAD in f for f in report.flags)

    def test_isolated_sample_scores_highest(self):
        rng = np.random.default_rng(11)
        base = rng.uniform(0.5, 0.9, size=(6, 6))
        prox = (base + base.T) / 2
        np.fill_diagonal(prox, 1.0)
        prox[5, :5] = prox[:5, 5] = 0.01
        report = ff.outlier_exact(prox, [0] * 6)
        assert report.score[5] > max(report.score[:5])

    def test_ten_sample_spreadsheet_oracle(self):
        prox, classes = ten_sample_matrix()
        report = ff.outlier_exact(prox, classes)
        raw, score = spreadsheet_oracle(prox.tolist(), classes.tolist())
        np.testing.assert_allclose(report.raw, raw, atol=1e-12)
        np.testing.assert_allclose(report.score, score, atol=1e-12)

    def test_tied_majority_uses_mean_deviation(self):
        # class 0: samples 0-2 have identical proximity profiles, so a bare
        # majority ties and the MAD is 0 while samples 3 and 4 still differ
        prox = np.eye(9)
        prox[:3, :3] = 0.5
        prox[:3, 3] = prox[3, :3] = 0.6
        prox[:3, 4] = prox[4, :3] = 0.2
        prox[3, 4] = prox[4, 3] = 0.3
        rng = np.random.default_rng(5)
        base = rng.uniform(0.3, 0.9, size=(4, 4))
        prox[5:, 5:] = (base + base.T) / 2
        np.fill_diagonal(prox, 1.0)
        classes = np.array([0] * 5 + [1] * 4)
        report = ff.outlier_exact(prox, classes)
        raw, score = spreadsheet_oracle(prox.tolist(), classes.tolist())
        np.testing.assert_allclose(report.raw, raw, atol=1e-12)
        np.testing.assert_allclose(report.score, score, atol=1e-12)
        assert report.class_mad[0] == 0.0 and report.class_mad[1] > 0.0
        assert all(ff.outlier.FLAG_DEGENERATE_MAD in report.flags[i]
                   for i in range(5))
        assert not any(ff.outlier.FLAG_DEGENERATE_MAD in report.flags[i]
                       for i in range(5, 9))
        np.testing.assert_array_equal(report.score[:3], 0.0)
        # sample 4, weakly tied to its class, is the class-0 outlier;
        # sample 3 has more within-class mass than the tied trio
        assert report.score[4] > 0.0 > report.score[3]

    def test_class_median_score_is_zero(self):
        prox, classes = ten_sample_matrix()
        report = ff.outlier_exact(prox, classes)
        for c in (0, 1):
            assert np.median(report.score[classes == c]) == pytest.approx(
                0.0, abs=1e-15)

    def test_zero_mass_gives_inf_and_flag(self):
        prox = np.eye(4)
        prox[2:, 2:] = np.array([[1.0, 0.5], [0.5, 1.0]])
        report = ff.outlier_exact(prox, [0, 0, 1, 1])
        assert np.isinf(report.raw[0]) and np.isinf(report.raw[1])
        assert ff.outlier.FLAG_INF_RAW in report.flags[0]
        # a class made entirely of inf raws cannot be MAD-normalized
        assert ff.outlier.FLAG_DEGENERATE_MAD in report.flags[0]
        assert report.score[0] == 0.0

    def test_single_inf_in_healthy_class_scores_inf(self):
        rng = np.random.default_rng(19)
        base = rng.uniform(0.4, 0.8, size=(5, 5))
        prox = (base + base.T) / 2
        np.fill_diagonal(prox, 1.0)
        prox[4, :4] = prox[:4, 4] = 0.0
        report = ff.outlier_exact(prox, [0] * 5)
        assert np.isinf(report.score[4])
        assert np.all(np.isfinite(report.score[:4]))

    def test_singleton_class_rejected(self):
        prox = np.eye(3)
        with pytest.raises(ff.ClassSizeError):
            ff.outlier_exact(prox, [0, 0, 1])

    def test_equivariance_under_row_permutation(self):
        prox, classes = ten_sample_matrix()
        perm = np.random.default_rng(3).permutation(10)
        report = ff.outlier_exact(prox, classes)
        permuted = ff.outlier_exact(prox[np.ix_(perm, perm)], classes[perm])
        np.testing.assert_allclose(permuted.raw, report.raw[perm], atol=1e-15)
        np.testing.assert_allclose(permuted.score, report.score[perm],
                                   atol=1e-12)

    def test_relabeling_invariance(self):
        prox, classes = ten_sample_matrix()
        a = ff.outlier_exact(prox, classes)
        b = ff.outlier_exact(prox, 5 - classes)  # labels {5,4} instead of {0,1}
        np.testing.assert_array_equal(a.raw, b.raw)
        np.testing.assert_array_equal(a.score, b.score)


@pytest.fixture(scope="module")
def trained_two_class():
    ds = blobs_dataset(60, seed=9, sep=4.0)
    forest = ff.train(ds, ff.ForestConfig(mode="classification", n_trees=30,
                                          seed=5))
    return ds, forest


class TestOutlierGreedy:
    def test_full_cap_equals_exact(self, trained_two_class):
        ds, forest = trained_two_class
        classes = ds.target.astype(int)
        prox = ff.compute_proximity(forest, ds)
        exact = ff.outlier_exact(prox, classes)
        greedy = ff.outlier_greedy(forest, classes, m_cap=ds.n_rows)
        np.testing.assert_array_equal(greedy.raw, exact.raw)
        np.testing.assert_array_equal(greedy.score, exact.score)
        assert greedy.mode == "greedy"
        assert greedy.greedy_m == ds.n_rows

    def test_cap_one_stays_positive_finite(self, trained_two_class):
        ds, forest = trained_two_class
        classes = ds.target.astype(int)
        greedy = ff.outlier_greedy(forest, classes, m_cap=1)
        assert np.all(greedy.raw > 0)
        assert np.all(np.isfinite(greedy.raw))

    def test_truncation_monotonicity(self, trained_two_class):
        ds, forest = trained_two_class
        classes = ds.target.astype(int)
        prev_raw = None
        for cap in (1, 2, 4, 16, 64, ds.n_rows):
            raw = ff.outlier_greedy(forest, classes, m_cap=cap).raw
            if prev_raw is not None:
                assert np.all(raw <= prev_raw + 1e-12)
            prev_raw = raw

    def test_greedy_correlates_with_exact(self):
        spearmanr = pytest.importorskip("scipy.stats").spearmanr
        rng = np.random.default_rng(33)
        X = correlated_data(400, seed=33, n_features=4, noise=0.3)
        y = (X[:, 0] + rng.normal(scale=0.5, size=400) > 0).astype(float)
        ds = ff.Dataset.from_dense(X, target=y)
        forest = ff.train(ds, ff.ForestConfig(mode="classification",
                                              n_trees=40, seed=8))
        classes = ds.target.astype(int)
        prox = ff.compute_proximity(forest, ds)
        exact = ff.outlier_exact(prox, classes)
        greedy = ff.outlier_greedy(forest, classes, m_cap=64)
        rho = spearmanr(greedy.score, exact.score).statistic
        assert rho >= 0.95

    def test_bad_cap(self, trained_two_class):
        ds, forest = trained_two_class
        with pytest.raises(ff.ArgumentError):
            ff.outlier_greedy(forest, ds.target.astype(int), m_cap=0)


def test_scores_do_not_import_numpy_ma():
    # every one-shot `forestfuse outliers` process would pay numpy.ma
    assert not loads_numpy_ma([
        "rng = np.random.default_rng(0)",
        "X = rng.normal(size=(60, 3))",
        "y = (X[:, 0] > 0).astype(np.int64)",
        "ds = ff.Dataset.from_dense(X, target=y)",
        "forest = ff.train(ds, ff.ForestConfig(mode='classification',"
        " n_trees=5, seed=1))"], [
        "ff.outlier_exact(forest, y)",
        "ff.outlier_greedy(forest, y, m_cap=4)"])
