"""Prototype extraction from hand-built proximities."""

import numpy as np
import pytest
from helpers import loads_numpy_ma

import forestfuse as ff


def block_proximity(sizes, inner=0.9, outer=0.05):
    """Block-diagonal proximity: tight within blocks, weak across."""
    n = sum(sizes)
    prox = np.full((n, n), outer)
    start = 0
    for s in sizes:
        prox[start:start + s, start:start + s] = inner
        start += s
    np.fill_diagonal(prox, 1.0)
    return prox


class TestFindPrototypes:
    def test_single_row_class(self):
        prox = block_proximity([1, 3])
        values = np.array([[5.0, 1.0], [0.0, 0.0], [0.1, 0.0], [0.2, 0.1]])
        ds = ff.Dataset.from_dense(values)
        classes = [0, 1, 1, 1]
        protos = ff.find_prototypes(prox, ds, classes, k=2)
        p = protos[0][0]
        np.testing.assert_array_equal(p.median, values[0])
        np.testing.assert_array_equal(p.q25, values[0])
        np.testing.assert_array_equal(p.q75, values[0])
        assert p.center_row == 0
        np.testing.assert_array_equal(p.support, [0])

    @staticmethod
    def two_cluster_proximity():
        """Class 0 = tight 8-cluster (rows 0-7) + tight 3-cluster (8-10);
        class 1 (rows 11-14) sits between them in proximity.

        Within-cluster 0.9; class-0 clusters barely related (0.02); the
        class-1 block is moderately close to everything (0.1), so kNN
        fill-ins come from class 1, not from the sibling cluster.
        """
        prox = np.full((15, 15), 0.1)
        prox[:11, :11] = 0.02
        prox[:8, :8] = 0.9
        prox[8:11, 8:11] = 0.9
        prox[11:, 11:] = 0.9
        np.fill_diagonal(prox, 1.0)
        return prox

    def test_two_clusters_found_in_size_order(self):
        prox = self.two_cluster_proximity()
        rng = np.random.default_rng(2)
        values = np.vstack([
            rng.normal(0.0, 0.01, size=(8, 2)),
            rng.normal(5.0, 0.01, size=(3, 2)),
            rng.normal(9.0, 0.01, size=(4, 2)),
        ])
        ds = ff.Dataset.from_dense(values)
        classes = [0] * 11 + [1] * 4
        protos = ff.find_prototypes(prox, ds, classes, k=5, n_protos=2)[0]
        assert len(protos) == 2
        assert protos[0].center_row in range(8)
        assert protos[1].center_row in range(8, 11)
        assert abs(protos[0].median[0]) < 0.1
        assert abs(protos[1].median[0] - 5.0) < 0.1

    def test_hand_derived_knn_counts(self):
        # by hand with k=5: any big-cluster row sees 5 class-0 neighbors
        # (count 5), a small-cluster row sees its 2 mates then class-1
        # fill-ins (count 2) -> first prototype centered at row 0 (tie ->
        # lowest id), support 0..5. Afterwards rows 6,7 only keep one
        # strong mate each (count 1) while row 8 keeps 9,10 (count 2) ->
        # second prototype is the small cluster.
        prox = self.two_cluster_proximity()
        values = np.arange(15.0)[:, None]
        ds = ff.Dataset.from_dense(values)
        classes = [0] * 11 + [1] * 4
        protos = ff.find_prototypes(prox, ds, classes, k=5, n_protos=2)[0]
        assert protos[0].center_row == 0
        np.testing.assert_array_equal(protos[0].support, [0, 1, 2, 3, 4, 5])
        assert protos[1].center_row == 8
        np.testing.assert_array_equal(protos[1].support, [8, 9, 10])

    def test_identical_rows_give_flat_quartiles(self):
        prox = block_proximity([4, 2])
        values = np.vstack([np.full((4, 3), 2.5), np.zeros((2, 3))])
        ds = ff.Dataset.from_dense(values)
        protos = ff.find_prototypes(prox, ds, [0, 0, 0, 0, 1, 1], k=3)
        p = protos[0][0]
        np.testing.assert_array_equal(p.q25, 2.5)
        np.testing.assert_array_equal(p.median, 2.5)
        np.testing.assert_array_equal(p.q75, 2.5)

    def test_quartile_ordering(self):
        rng = np.random.default_rng(5)
        n = 20
        base = rng.uniform(0.2, 0.8, size=(n, n))
        prox = (base + base.T) / 2
        np.fill_diagonal(prox, 1.0)
        ds = ff.Dataset.from_dense(rng.normal(size=(n, 4)))
        classes = rng.integers(0, 2, size=n)
        protos = ff.find_prototypes(prox, ds, classes, k=4, n_protos=3)
        for plist in protos.values():
            for p in plist:
                assert np.all(p.q25 <= p.median)
                assert np.all(p.median <= p.q75)

    def test_disjoint_supports(self):
        rng = np.random.default_rng(7)
        n = 24
        base = rng.uniform(0.2, 0.8, size=(n, n))
        prox = (base + base.T) / 2
        np.fill_diagonal(prox, 1.0)
        ds = ff.Dataset.from_dense(rng.normal(size=(n, 2)))
        classes = np.zeros(n, dtype=int)
        protos = ff.find_prototypes(prox, ds, classes, k=4, n_protos=4)[0]
        seen = set()
        for p in protos:
            assert not (seen & set(p.support.tolist()))
            seen |= set(p.support.tolist())

    def test_deterministic(self):
        prox = block_proximity([5, 5])
        ds = ff.Dataset.from_dense(np.arange(20.0).reshape(10, 2))
        classes = [0] * 5 + [1] * 5
        a = ff.find_prototypes(prox, ds, classes, k=3, n_protos=2)
        b = ff.find_prototypes(prox, ds, classes, k=3, n_protos=2)
        for c in a:
            for pa, pb in zip(a[c], b[c]):
                assert pa.center_row == pb.center_row
                np.testing.assert_array_equal(pa.median, pb.median)

    def test_k_zero_rejected(self):
        prox = block_proximity([2, 2])
        ds = ff.Dataset.from_dense(np.zeros((4, 1)))
        with pytest.raises(ff.ArgumentError):
            ff.find_prototypes(prox, ds, [0, 0, 1, 1], k=0)

    def test_stops_when_class_exhausted(self):
        prox = block_proximity([3, 3])
        ds = ff.Dataset.from_dense(np.arange(6.0)[:, None])
        protos = ff.find_prototypes(prox, ds, [0, 0, 0, 1, 1, 1], k=2,
                                    n_protos=10)
        assert 1 <= len(protos[0]) <= 3


class TestSortBased:
    """Prototypes sort instead of calling np.unique and np.percentile,
    whose first calls import numpy.ma; the results are theirs."""

    @staticmethod
    def forest_and_data(seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(90, 4)) * [1e-3, 1.0, 1e3, 1.0]
        X[rng.uniform(size=X.shape) < 0.2] = 0.0
        X[:, 3] = rng.integers(0, 3, size=90)
        classes = rng.integers(0, 3, size=90)
        forest = ff.train(ff.Dataset.from_dense(X, target=classes * 1.0),
                          ff.ForestConfig(mode="classification", n_trees=7,
                                          seed=seed))
        return forest, X, classes

    @pytest.mark.parametrize("seed", [1, 2])
    def test_bands_are_np_percentile_bit_for_bit(self, seed):
        forest, X, classes = self.forest_and_data(seed)
        missing = np.zeros(X.shape, dtype=bool)
        missing[::9, 1] = True
        holes = ff.Dataset.from_dense(np.where(missing, np.nan, X),
                                      missing_mask=missing)
        prox = ff.compute_proximity(forest, ff.Dataset.from_dense(X))
        for source, ds in ((forest, ff.Dataset.from_dense(X)),
                           (prox, holes), (prox.values, holes)):
            for k in (1, 2, 4, 7):
                protos = ff.find_prototypes(source, ds, classes, k=k,
                                            n_protos=3)
                assert sorted(protos) == [0, 1, 2]
                for p in (p for plist in protos.values() for p in plist):
                    assert np.array_equal(p.support, np.unique(p.support))
                    rows = ds.read_cells(p.support[:, None], np.arange(4))
                    want = np.percentile(rows, [25, 50, 75], axis=0)
                    got = np.array([p.q25, p.median, p.q75])
                    assert got.tobytes() == want.tobytes()

    def test_prototypes_do_not_import_numpy_ma(self):
        # a one-shot `forestfuse prototypes` would pay numpy.ma's import
        assert not loads_numpy_ma([
            "rng = np.random.default_rng(1)",
            "X = rng.normal(size=(90, 4)).round(1)",
            "classes = rng.integers(0, 3, size=90)",
            "ds = ff.Dataset.from_dense(X)",
            "forest = ff.train(ff.Dataset.from_dense(X, target=classes * 1.0),"
            " ff.ForestConfig(mode='classification', n_trees=7, seed=1))",
            "prox = ff.compute_proximity(forest, ds)"], [
            "ff.find_prototypes(forest, ds, classes, k=4, n_protos=2)",
            "ff.find_prototypes(prox, ds, classes, k=4, n_protos=2)"])
