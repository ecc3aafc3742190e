"""CommitDistill: mine git history into typed knowledge units and retrieve
them with a boosted, length-normalized TF-IDF ranker that knows when to stay
silent."""

from .extraction import (
    DEFAULT_RULES,
    HeuristicRule,
    KnowledgeUnit,
    extract_commits,
    extract_repository,
    extract_units,
    normalize,
    subject_fallback_unit,
    unit_id,
)
from .gitio import Commit, GitError, clean_subject, list_commits
from .retrieval import (
    BoostTable,
    RankedHit,
    RetrievalIndex,
    build_index,
    query,
    tokenize,
)
from .store import KnowledgeStore, load, merge, save, strip_attribution

__version__ = "0.1.0"

__all__ = [
    "BoostTable",
    "Commit",
    "DEFAULT_RULES",
    "GitError",
    "HeuristicRule",
    "KnowledgeStore",
    "KnowledgeUnit",
    "RankedHit",
    "RetrievalIndex",
    "build_index",
    "clean_subject",
    "extract_commits",
    "extract_repository",
    "extract_units",
    "list_commits",
    "load",
    "merge",
    "normalize",
    "query",
    "save",
    "strip_attribution",
    "subject_fallback_unit",
    "tokenize",
    "unit_id",
]
