"""Quasi-uniform scatterings on weight polytope boundaries, with exact
nearest-center search."""

from .core import (BOUNDARY, COSINE, EUCLIDEAN, INTERIOR, METRICS, OUTSIDE,
                   Permutation, ScaledPoint, YoungDiagram, distance,
                   dominant_sort, membership, polytope_center)
from .enumeration import (LevelSet, enumerate_dominant_boundary,
                          enumerate_level)
from .oracle import (OracleConfig, brute_boundary, brute_nearest,
                     brute_nn_distances, brute_nn_sq_numerators,
                     sample_queries)
from .scattering import (PrefixStats, Scattering, UniformityReport,
                         build_scattering, embed_diagram, iota_embed,
                         is_subsequence, orbit_size, verify_scattering,
                         weyl_orbit)
from .search import QueryResult, cosine_nearest, nearest_center, nearest_centers

__version__ = "0.1.0"

__all__ = [
    "BOUNDARY", "COSINE", "EUCLIDEAN", "INTERIOR", "METRICS", "OUTSIDE",
    "Permutation", "ScaledPoint", "YoungDiagram", "distance", "dominant_sort",
    "membership", "polytope_center",
    "LevelSet", "enumerate_dominant_boundary", "enumerate_level",
    "OracleConfig", "brute_boundary", "brute_nearest", "brute_nn_distances",
    "brute_nn_sq_numerators", "sample_queries",
    "PrefixStats", "Scattering", "UniformityReport", "build_scattering",
    "embed_diagram", "iota_embed", "is_subsequence", "orbit_size",
    "verify_scattering", "weyl_orbit",
    "QueryResult", "cosine_nearest", "nearest_center", "nearest_centers",
    "__version__",
]
