"""Visual and text mining over the document space (Fig. 2).

:mod:`.features` (tokens and metadata features, stdlib only) is what
search imports; the text miner and the document map load numpy and
networkx, so their names are imported on first access.
"""

from importlib import import_module
from typing import TYPE_CHECKING

from .features import DocumentFeatures, FeatureExtractor, tokenize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .textmine import (
        TfIdfModel,
        cosine_similarity_matrix,
        fit_tfidf,
        kmeans_clusters,
        similar_documents,
        top_terms,
    )
    from .visual import DIMENSIONS, DocumentMap, MapPoint, VisualMiner

#: Names -> the module that defines them (numpy, networkx).
_ON_FIRST_USE = {
    **dict.fromkeys(("TfIdfModel", "cosine_similarity_matrix", "fit_tfidf",
                     "kmeans_clusters", "similar_documents", "top_terms"),
                    ".textmine"),
    **dict.fromkeys(("DIMENSIONS", "DocumentMap", "MapPoint",
                     "VisualMiner"), ".visual"),
}

__all__ = [
    "DIMENSIONS",
    "DocumentFeatures",
    "DocumentMap",
    "FeatureExtractor",
    "MapPoint",
    "TfIdfModel",
    "VisualMiner",
    "cosine_similarity_matrix",
    "fit_tfidf",
    "kmeans_clusters",
    "similar_documents",
    "tokenize",
    "top_terms",
]


def __getattr__(name: str) -> object:
    """Import a mining name on first access (PEP 562)."""
    if name not in _ON_FIRST_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_ON_FIRST_USE[name], __name__), name)
    globals()[name] = value
    return value
