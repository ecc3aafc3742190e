"""CommitDistill: mine git history into typed knowledge units and retrieve
them with a boosted, length-normalized TF-IDF ranker that knows when to stay
silent. Every other name is imported from its module."""

from .retrieval import build_index, query
from .store import load

__all__ = ["build_index", "extract_repository", "load", "query"]


def __getattr__(name: str):
    # Extraction is imported on first use, so that loading and querying a
    # store does not pay for the rule table.
    if name == "extract_repository":
        from .extraction import extract_repository

        return extract_repository
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
