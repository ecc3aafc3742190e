"""Print the make-up of one workload's generated input, as JSON.

    python3 bench/describe.py --workload timetravel --seed 1

Reports the shares that later optimisations depend on: how many commit x rule
pairs hold one of the rule's keywords (a single-pass extractor skips the
rest), distinct words against word tokens (a per-word memo pays off when few
words are distinct) and how much consecutive time-travel windows overlap (a
sliding window reuses that share). The silent-query share needs the store,
so the traced run records it in its span file instead.
"""
from __future__ import annotations

import argparse
import json
import statistics
from collections import Counter

import checks
import layers
import run


def describe(workload: str, seed: int) -> dict:
    spec = run.WORKLOADS[workload].main
    history = spec.generate(seed)
    newest = history.newest_first()
    texts = [checks.strip_markup(c.message).lower() for c in newest]
    keyword_hits = sum(
        any(word in text for word in keywords)
        for text in texts
        for keywords in layers.RULE_KEYWORDS.values()
    )
    tokens = [w.lower() for c in newest for w in checks.words(c.message)]

    plan_ids = [str(c.index) for c in history.newest_first()]
    cases = checks.time_travel_cases(history, plan_ids, spec.fixes, spec.window)
    windows = [{sha for sha, _ in earlier} for _, earlier, _ in cases]
    overlaps = [len(a & b) / len(a) for a, b in zip(windows, windows[1:])]
    return {
        "workload": workload,
        "seed": seed,
        "commits": len(history.commits),
        "subject_styles": dict(Counter(c.kind for c in history.commits)),
        "planted_sentences": dict(Counter(p.rule for c in history.commits for p in c.planted)),
        "trigger_hit_share": keyword_hits / (len(texts) * len(layers.RULE_KEYWORDS)),
        "word_tokens": len(tokens),
        "distinct_words": len(set(tokens)),
        "time_travel_cases": len(windows),
        "window_overlap": {
            "mean": statistics.mean(overlaps),
            "min": min(overlaps),
            "max": max(overlaps),
        } if overlaps else None,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(run.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(json.dumps(describe(args.workload, args.seed), indent=2, ensure_ascii=False))


if __name__ == "__main__":
    main()
