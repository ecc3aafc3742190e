"""CommitDistill: mine git history into typed knowledge units and retrieve
them with a boosted, length-normalized TF-IDF ranker that knows when to stay
silent. Every other name is imported from its module."""

from .extraction import extract_repository
from .retrieval import build_index, query
from .store import load

__all__ = ["build_index", "extract_repository", "load", "query"]
