"""Quasi-uniform scatterings on weight polytope boundaries, with exact
nearest-center search."""

from .core import (COSINE, EUCLIDEAN, METRICS, ScaledPoint, YoungDiagram,
                   polytope_center)
from .oracle import brute_nearest
from .scattering import (PrefixStats, Scattering, UniformityReport,
                         build_scattering, embed_diagram, iota_embed,
                         is_subsequence, verify_scattering)
from .search import QueryResult, cosine_nearest, nearest_center, nearest_centers

__version__ = "0.1.0"

__all__ = [
    "COSINE", "EUCLIDEAN", "METRICS", "ScaledPoint", "YoungDiagram",
    "polytope_center",
    "brute_nearest",
    "PrefixStats", "Scattering", "UniformityReport", "build_scattering",
    "embed_diagram", "iota_embed", "is_subsequence", "verify_scattering",
    "QueryResult", "cosine_nearest", "nearest_center", "nearest_centers",
    "__version__",
]
