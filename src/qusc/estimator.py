"""Estimator-style facade so the scattering codebook plugs into pipelines
that expect the fit/predict protocol (duck-typed, no sklearn dependency)."""

from __future__ import annotations

import numpy as np

from .core import EUCLIDEAN, YoungDiagram, check_metric
from .scattering import build_scattering
from .search import nearest_centers


def _check_matrix(X):
    """X as a query block: a single query becomes a block of one.  The search
    converts the block to floats and checks its shape and values."""
    return [X] if np.ndim(X) == 1 else X


class ScatteringNeighbors:
    """Nearest-center index over a generated scattering.

    Parameters follow the estimator convention: construction stores them,
    ``fit`` builds the center sequence (training data is ignored, the
    codebook is fully determined by the diagram), ``kneighbors`` and
    ``predict`` answer exact nearest-center queries.
    """

    def __init__(self, lambda_rows=(2, 1, 1), levels=1, metric=EUCLIDEAN,
                 max_points=None):
        self.lambda_rows = lambda_rows
        self.levels = levels
        self.metric = metric
        self.max_points = max_points

    def get_params(self, deep=True):
        return {
            "lambda_rows": self.lambda_rows,
            "levels": self.levels,
            "metric": self.metric,
            "max_points": self.max_points,
        }

    def set_params(self, **params):
        for key, value in params.items():
            if key not in self.get_params():
                raise ValueError(f"unknown parameter {key!r}")
            setattr(self, key, value)
        return self

    def fit(self, X=None, y=None):
        check_metric(self.metric)
        diagram = YoungDiagram.from_rows(self.lambda_rows)
        self.scattering_ = build_scattering(diagram, self.levels,
                                            max_points=self.max_points)
        self.n_centers_ = len(self.scattering_)
        return self

    def kneighbors(self, X, n_neighbors=1):
        """Distances and center indices of the n_neighbors nearest centers
        per query row."""
        if not hasattr(self, "scattering_"):
            raise ValueError("call fit() before querying")
        # the search checks n_neighbors and answers at most n_centers_ each
        results = nearest_centers(_check_matrix(X), self.scattering_,
                                  n_neighbors, self.metric)
        k = min(n_neighbors, self.n_centers_)
        dist = np.array([res.distances for res in results], dtype=float)
        idx = np.array([res.indices for res in results], dtype=np.int64)
        return dist.reshape(len(results), k), idx.reshape(len(results), k)

    def predict(self, X):
        """Index of the nearest center for each query row."""
        _, idx = self.kneighbors(X, 1)
        return idx[:, 0]

    def transform(self, X):
        """Distance to the nearest center for each query row."""
        dist, _ = self.kneighbors(X, 1)
        return dist
