"""The package root: README's library example runs on the names it exports."""
from __future__ import annotations

import re
from pathlib import Path

import commitdistill
from commitdistill import extraction, retrieval

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_snippet_runs_on_the_four_root_names(oracle_repo, capsys):
    repo, _ = oracle_repo
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert '"path/to/checkout"' in snippet
    exec(snippet.replace('"path/to/checkout"', repr(str(repo))), {})
    hits = retrieval.query(
        retrieval.build_index(extraction.extract_repository(repo, max_count=5000)),
        "redirect loop", k=3, theta=2.5,
    )  # silent on this fixture: "redirect loop" scores 1.98, below theta 2.5
    assert capsys.readouterr().out == "".join(
        f"{hit.score} {hit.unit.unit_type} {hit.unit.content}\n" for hit in hits
    )
    assert commitdistill.__all__ == ["build_index", "extract_repository", "load", "query"]
