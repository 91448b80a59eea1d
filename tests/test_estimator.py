import numpy as np
import pytest

from qusc import ScaledPoint, brute_nearest, nearest_centers
from qusc.estimator import ScatteringNeighbors


class TestScatteringNeighbors:
    def test_fit_builds_codebook(self):
        est = ScatteringNeighbors(lambda_rows=(2, 1, 1), levels=1).fit()
        assert est.n_centers_ == 42

    def test_kneighbors_matches_brute(self):
        est = ScatteringNeighbors(lambda_rows=(3, 2, 1), levels=1).fit()
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 4, size=(30, 4))
        dist, idx = est.kneighbors(X, n_neighbors=3)
        for row, d, i in zip(X, dist, idx):
            ref = brute_nearest(tuple(row), est.scattering_, 3)
            assert list(i) == ref.indices
            assert list(d) == pytest.approx(ref.distances)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_kneighbors_and_predict_make_no_points(self, metric, monkeypatch):
        est = ScatteringNeighbors(lambda_rows=(3, 2, 1), levels=2,
                                  metric=metric).fit()
        X = np.random.default_rng(3).uniform(-1, 4, size=(50, 4))
        made = []
        post_init = ScaledPoint.__post_init__

        def counted(self):
            made.append(self)
            post_init(self)

        monkeypatch.setattr(ScaledPoint, "__post_init__", counted)
        est.kneighbors(X, n_neighbors=4)
        est.predict(X)
        assert made == []
        # the count sees the points a caller reads
        res = nearest_centers(X[:2], est.scattering_, 3, metric)
        assert made == []
        assert res[1].points == made

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    def test_kneighbors_cut_codebook_matches_brute(self, metric):
        est = ScatteringNeighbors(lambda_rows=(3, 2, 1), levels=2,
                                  metric=metric, max_points=200).fit()
        assert est.n_centers_ == 200
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 4, size=(30, 4))
        dist, idx = est.kneighbors(X, n_neighbors=4)
        for row, d, i in zip(X, dist, idx):
            ref = brute_nearest(tuple(row), est.scattering_, 4, metric)
            assert (list(i), list(d)) == (ref.indices, ref.distances)

    def test_predict_single_row(self):
        est = ScatteringNeighbors(lambda_rows=(2, 1, 1), levels=0).fit()
        assert est.predict([2.0, 1.0, 1.0, 0.0])[0] == 0

    def test_transform_shape(self):
        est = ScatteringNeighbors(lambda_rows=(2, 1, 1), levels=0).fit()
        out = est.transform([[1.0, 1.0, 1.0, 1.0], [2.0, 1.0, 1.0, 0.0]])
        assert out.shape == (2, 1)
        assert out[1, 0] == 0.0

    def test_cosine_metric(self):
        est = ScatteringNeighbors(lambda_rows=(2, 1, 1), levels=1,
                                  metric="cosine").fit()
        _, idx = est.kneighbors([[4.0, 2.0, 2.0, 0.0]], n_neighbors=1)
        assert est.scattering_.centers[idx[0, 0]].numerators == (2, 1, 1, 0)

    @pytest.mark.parametrize("rows", [(2.9, 1.5), (2, 1.0), ("2", 1),
                                      (True, 1)])
    def test_fit_refuses_non_integer_rows(self, rows):
        with pytest.raises(ValueError, match="^row length must be an integer"):
            ScatteringNeighbors(lambda_rows=rows).fit()

    def test_get_set_params(self):
        est = ScatteringNeighbors()
        params = est.get_params()
        clone = ScatteringNeighbors(**params)
        assert clone.get_params() == params
        est.set_params(levels=2, metric="cosine")
        assert est.levels == 2 and est.metric == "cosine"
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_query_before_fit(self):
        with pytest.raises(ValueError):
            ScatteringNeighbors().kneighbors([[1, 1, 1, 1]])

    @pytest.mark.parametrize("n", [2.0, True, "3", None])
    def test_n_neighbors_must_be_an_integer(self, n):
        est = ScatteringNeighbors(lambda_rows=(2, 1, 1), levels=1).fit()
        with pytest.raises(ValueError, match="k must be an integer"):
            est.kneighbors([[1.0, 1.0, 1.0, 1.0]], n_neighbors=n)

    def test_numpy_integer_n_neighbors(self):
        est = ScatteringNeighbors(lambda_rows=(2, 1, 1), levels=1).fit()
        X = [[1.9, 1.1, 0.9, 0.1], [0.0, 0.5, 1.0, 2.0]]
        dist, idx = est.kneighbors(X, n_neighbors=np.int64(3))
        want = est.kneighbors(X, n_neighbors=3)
        assert (dist == want[0]).all() and (idx == want[1]).all()
        assert idx.shape == (2, 3)

    def test_bad_input(self):
        est = ScatteringNeighbors(lambda_rows=(2, 1, 1), levels=0).fit()
        with pytest.raises(ValueError):
            est.kneighbors([[1.0, 2.0]])
        with pytest.raises(ValueError):
            est.kneighbors([[np.nan, 1.0, 1.0, 1.0]])
