"""Single command-line entry point: extraction, querying, store management,
and the evaluation drivers as subcommands.

Exit codes: 0 on success (a silent query is success), 1 on usage errors,
2 on environment or git failures.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Each command imports the other modules it runs, so that a cold ``query``
# process loads no extraction, git or evaluation code.
from . import retrieval, store

DEFAULT_MAX_COMMITS = 5000
DEFAULT_OUT_DIR = "evaluation"


class CliParser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {raw}")
    return value


def _theta(raw: str) -> float:
    value = float(raw)
    if not value >= 0:  # NaN fails this too
        raise argparse.ArgumentTypeError(f"must be >= 0, got {raw}")
    return value


def _comma_list(check):
    """Parser of a comma-separated list of distinct values, each passed through ``check``."""
    def comma_list(raw: str) -> list:
        values = [check(piece) for piece in raw.split(",") if piece.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"needs at least one value, got {raw!r}")
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"repeats a value: {raw}")
        return values

    return comma_list


def _write_result(out_dir: str, filename: str, payload) -> Path:
    return store.write_canonical(Path(out_dir) / filename, payload)


def _verify_manifest_arg(manifest_path: str | None) -> None:
    if manifest_path is None:
        return
    from . import evaluation

    verified = evaluation.verify_manifest(evaluation.load_manifest(manifest_path))
    for entry in verified:
        print(f"pinned snapshot ok: {entry.get('name', entry['path'])} @ {entry['head'][:12]}")


def cmd_extract(args: argparse.Namespace) -> int:
    from . import extraction, gitio

    with gitio.CommitLog(args.repo, args.max_commits) as commits:
        units = extraction.extract_commits(commits, fallback_enabled=args.fallback == "on")
    try:
        existing = store.load(args.repo)
        stored = True
    except FileNotFoundError:
        existing, stored = store.KnowledgeStore(), False
    before = len(existing.units)
    merged = store.merge(existing, units)
    if not stored or len(merged.units) > before:  # an unchanged store is not rewritten
        store.save(merged, args.repo)
    counts = merged.counts_by_type()
    total = len(merged.units)
    per_kc = (total / commits.count * 1000.0) if commits.count else 0.0
    print(f"facts: {counts['fact']}")
    print(f"skills: {counts['skill']}")
    print(f"patterns: {counts['pattern']}")
    print(f"total: {total} units from {commits.count} commits ({per_kc:.1f} per 1000 commits)")
    print(f"new: {total - before}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    snapshot = store.load(args.repo)
    index = retrieval.build_index(snapshot.sorted_units())
    hits = retrieval.query(index, args.query, k=args.k, theta=args.theta)
    if args.format == "json":
        payload = [{"score": hit.score, "unit": hit.unit.to_dict()} for hit in hits]
        print(store.canonical_json(payload), end="")
        return 0
    for hit in hits:
        unit = hit.unit
        print(f"{hit.score:.3f}\t{unit.unit_type}\t{unit.content}\t{unit.meta.get('commit', '')}")
    return 0


def cmd_strip_attribution(args: argparse.Namespace) -> int:
    snapshot = store.load(args.repo)
    scrubbed = store.strip_attribution(snapshot)
    store.save(scrubbed, args.repo)
    print(f"redacted authors on {len(scrubbed.units)} units")
    return 0


def _commits_and_indexes(args: argparse.Namespace):
    """The commits, distilled-store index and BM25 index that ``eval baseline``
    and ``eval budget`` search, built once from ``--repo``, ``--max-commits``
    and ``--fallback``."""
    from . import baselines, extraction, gitio

    commits = gitio.list_commits(args.repo, args.max_commits)
    index = retrieval.build_index(extraction.extract_commits(commits, args.fallback == "on"))
    return commits, index, baselines.build_bm25_index(commits)


def _benchmark_queries(path: str) -> list:
    """The benchmark's ``evaluation.BenchQuery`` list; an empty benchmark is
    refused, as ``eval budget`` refuses one without answer spans."""
    from . import evaluation

    queries = evaluation.load_benchmark(path)
    if not queries:
        raise ValueError(f"benchmark {path} holds no queries")
    return queries


def cmd_eval_baseline(args: argparse.Namespace) -> int:
    from . import baselines

    _verify_manifest_arg(args.manifest)
    queries = _benchmark_queries(args.benchmark)
    commits, index, bm25_index = _commits_and_indexes(args)
    rows = []
    answered = {"commitdistill": 0, "grep": 0, "bm25": 0}
    for bench in queries:
        cd_hits = retrieval.query(index, bench.query, k=args.k, theta=args.theta)
        grep_hits = baselines.grep_search(commits, bench.query, k=args.k)
        bm25_hits = baselines.bm25_query(bm25_index, bench.query, k=args.k)
        answered["commitdistill"] += bool(cd_hits)
        answered["grep"] += bool(grep_hits)
        answered["bm25"] += bool(bm25_hits)
        rows.append(
            {
                "query": bench.query,
                "query_class": bench.query_class,
                "commitdistill": [
                    {"score": hit.score, "content": hit.unit.content, "commit": hit.unit.meta.get("commit", "")}
                    for hit in cd_hits
                ],
                "grep": [{"rank": rank, "subject": c.subject, "commit": c.short_sha} for c, rank in grep_hits],
                "bm25": [{"score": s, "subject": c.subject, "commit": c.short_sha} for c, s in bm25_hits],
            }
        )
    payload = {"n_queries": len(queries), "answered": answered, "results": rows}
    out = _write_result(args.out, "baseline_results.json", payload)
    print(f"wrote {out}")
    for name in ("commitdistill", "grep", "bm25"):
        print(f"{name:>13}: answered {answered[name]}/{len(queries)}")
    return 0


def cmd_eval_budget(args: argparse.Namespace) -> int:
    from . import baselines, evaluation

    budgets = list(evaluation.DEFAULT_BUDGETS) if args.budgets is None else args.budgets
    _verify_manifest_arg(args.manifest)
    queries = [q for q in evaluation.load_benchmark(args.benchmark) if q.answer_span]
    if not queries:
        raise ValueError(f"benchmark {args.benchmark} has no queries with answer spans")
    commits, index, bm25_index = _commits_and_indexes(args)
    k = retrieval.EVAL_K
    retrievers = {
        "commitdistill": lambda text: [
            hit.unit.content for hit in retrieval.query(index, text, k=k, theta=args.theta)
        ],
        "grep": lambda text: [c.message for c, _ in baselines.grep_search(commits, text, k=k)],
        "bm25": lambda text: [c.message for c, _ in baselines.bm25_query(bm25_index, text, k=k)],
    }
    results = evaluation.budget_sweep(queries, retrievers, budgets)
    payload: dict = {"n_queries": len(queries), "budgets": list(budgets), "retrievers": {}}
    for name, result in results.items():
        entry = {
            "rows": [
                {"budget": budget, "hit_rate": rate}
                for budget, rate in result["hit_rate_by_budget"].items()
            ],
            "unconstrained_hit_at_10": result["unconstrained_hit_at_10"],
            "median_top1_length": result["median_top1_length"],
        }
        if 256 in result["per_query_hits"] and len(queries) >= 2:
            entry["jackknife_min_at_256"] = evaluation.jackknife_min(result["per_query_hits"][256])
        payload["retrievers"][name] = entry
    out = _write_result(args.out, "budget_table.json", payload)
    print(f"wrote {out}")
    header = "budget".rjust(8) + "".join(name.rjust(15) for name in results)
    print(header)
    for budget in budgets:
        cells = "".join(f"{results[name]['hit_rate_by_budget'][budget]:15.3f}" for name in results)
        print(f"{budget:8d}{cells}")
    return 0


def cmd_eval_sweep(args: argparse.Namespace) -> int:
    from . import evaluation, gitio

    thetas = list(evaluation.DEFAULT_THETA_GRID) if args.thetas is None else args.thetas
    queries = _benchmark_queries(args.benchmark)
    commits = gitio.list_commits(args.repo, args.max_commits)
    documents = evaluation.CommitDocuments()
    v1_rows = evaluation.threshold_sweep(documents.index(commits, False), queries, thetas)
    v2_rows = evaluation.threshold_sweep(documents.index(commits, True), queries, thetas)
    payload = {"cd_v1": v1_rows, "cd_v2": v2_rows, "n_queries": len(queries)}
    out = _write_result(args.out, "threshold_sweep.json", payload)
    print(f"wrote {out}")
    classes = sorted({bench.query_class for bench in queries})
    for label, rows in (("cd-v1", v1_rows), ("cd-v2", v2_rows)):
        print(label)
        print("   theta" + "".join(cls.rjust(15) for cls in classes))
        for row in rows:
            cells = "".join(f"{row.get(cls, 0.0):15.3f}" for cls in classes)
            print(f"{row['theta']:8.2f}{cells}")
    return 0


def cmd_eval_timetravel(args: argparse.Namespace) -> int:
    from . import evaluation

    window = evaluation.DEFAULT_WINDOW if args.window is None else args.window
    _verify_manifest_arg(args.manifest)
    cases = evaluation.time_travel_cases(args.repo, args.fixes, window)
    retrievers = {
        "grep": evaluation.grep_retriever(),
        "bm25": evaluation.bm25_retriever(),
        **evaluation.cd_retrievers(theta=args.theta),
    }
    methods = {name: evaluation.score_cases(cases, r) for name, r in retrievers.items()}
    payload = {"n_fixes": args.fixes, "window": window, "methods": methods}
    out = _write_result(args.out, "time_travel_results.json", payload)
    print(f"wrote {out}")
    print("method".rjust(8) + "hit@1".rjust(9) + "hit@3".rjust(9) + "hit@10".rjust(9) + "mrr".rjust(9))
    for name, metrics in payload["methods"].items():
        print(
            f"{name:>8}{metrics['hit_at_1']:9.3f}{metrics['hit_at_3']:9.3f}"
            f"{metrics['hit_at_10']:9.3f}{metrics['mrr']:9.3f}"
        )
    return 0


def cmd_eval_kappa(args: argparse.Namespace) -> int:
    from . import evaluation

    records = evaluation.load_labels(args.labels)
    if not records:
        raise ValueError(f"labels file {args.labels} holds no records")
    kappa = evaluation.cohen_kappa(
        [r.annotator_a for r in records], [r.annotator_b for r in records]
    )
    agreement = sum(1 for r in records if r.annotator_a == r.annotator_b) / len(records)
    useful = [1.0 if r.adjudicated == "useful" else 0.0 for r in records]
    precision = sum(useful) / len(useful)
    lo, hi = evaluation.bootstrap_ci(
        useful,
        lambda sample: sum(sample) / len(sample),
        resamples=args.resamples,
        seed=args.seed,
    )
    payload = {
        "n": len(records),
        "kappa": kappa,
        "raw_agreement": agreement,
        "useful_precision": precision,
        "useful_precision_ci95": [lo, hi],
        "resamples": args.resamples,
        "seed": args.seed,
    }
    out = _write_result(args.out, "kappa_results.json", payload)
    print(f"wrote {out}")
    print(f"kappa: {kappa:.3f} (raw agreement {agreement:.3f}, n={len(records)})")
    print(f"useful precision: {precision:.3f} [{lo:.3f}, {hi:.3f}]")
    return 0


def _add_repo_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--repo", required=True, help="path to the target git repository")


def _add_fallback_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fallback",
        choices=("on", "off"),
        default="off" if os.environ.get("COMMITDISTILL_SUBJECT_FALLBACK") == "0" else "on",
        help="subject-fallback mode (default: on unless COMMITDISTILL_SUBJECT_FALLBACK=0)",
    )


def build_parser() -> CliParser:
    parser = CliParser(prog="commitdistill", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    extract = commands.add_parser("extract", help="mine the repository into .knowledge/units.json")
    _add_repo_arg(extract)
    extract.add_argument("--max-commits", type=_positive_int, default=DEFAULT_MAX_COMMITS)
    _add_fallback_arg(extract)
    extract.set_defaults(func=cmd_extract)

    query_cmd = commands.add_parser("query", help="query the knowledge store")
    _add_repo_arg(query_cmd)
    query_cmd.add_argument("--k", type=_positive_int, default=retrieval.DEFAULT_K)
    query_cmd.add_argument("--theta", type=_theta, default=retrieval.DEFAULT_THETA)
    query_cmd.add_argument("--format", choices=("human", "json"), default="human")
    query_cmd.add_argument("query", help="query text")
    query_cmd.set_defaults(func=cmd_query)

    store_cmd = commands.add_parser("store", help="store management")
    store_actions = store_cmd.add_subparsers(dest="store_command", required=True)
    strip = store_actions.add_parser("strip-attribution", help="redact author fields in place")
    _add_repo_arg(strip)
    strip.set_defaults(func=cmd_strip_attribution)

    eval_cmd = commands.add_parser("eval", help="evaluation drivers")
    experiments = eval_cmd.add_subparsers(dest="experiment", required=True)

    baseline = experiments.add_parser("baseline", help="three-retriever comparison on a benchmark")
    _add_repo_arg(baseline)
    baseline.add_argument("--benchmark", required=True)
    baseline.add_argument("--max-commits", type=_positive_int, default=DEFAULT_MAX_COMMITS)
    baseline.add_argument("--k", type=_positive_int, default=retrieval.EVAL_K)
    baseline.add_argument("--theta", type=_theta, default=retrieval.DEFAULT_THETA)
    baseline.add_argument("--out", default=DEFAULT_OUT_DIR)
    baseline.add_argument("--manifest", default=None, help="pinned-SHA snapshot manifest (JSON)")
    _add_fallback_arg(baseline)
    baseline.set_defaults(func=cmd_eval_baseline)

    budget = experiments.add_parser("budget", help="budget-constrained hit-rate table")
    _add_repo_arg(budget)
    budget.add_argument("--benchmark", required=True)
    budget.add_argument("--max-commits", type=_positive_int, default=DEFAULT_MAX_COMMITS)
    budget.add_argument("--budgets", type=_comma_list(_positive_int), default=None)
    budget.add_argument("--theta", type=_theta, default=retrieval.DEFAULT_THETA)
    budget.add_argument("--out", default=DEFAULT_OUT_DIR)
    budget.add_argument("--manifest", default=None, help="pinned-SHA snapshot manifest (JSON)")
    _add_fallback_arg(budget)
    budget.set_defaults(func=cmd_eval_budget)

    sweep = experiments.add_parser("sweep", help="silence-threshold sweep, CD-v1 vs CD-v2")
    _add_repo_arg(sweep)
    sweep.add_argument("--benchmark", required=True)
    sweep.add_argument("--max-commits", type=_positive_int, default=DEFAULT_MAX_COMMITS)
    sweep.add_argument("--thetas", type=_comma_list(_theta), default=None)
    sweep.add_argument("--out", default=DEFAULT_OUT_DIR)
    sweep.set_defaults(func=cmd_eval_sweep)

    timetravel = experiments.add_parser("timetravel", help="time-travel regression finding")
    _add_repo_arg(timetravel)
    timetravel.add_argument("--fixes", type=_positive_int, default=40)
    timetravel.add_argument("--window", type=_positive_int, default=None)
    timetravel.add_argument("--theta", type=_theta, default=retrieval.DEFAULT_THETA)
    timetravel.add_argument("--out", default=DEFAULT_OUT_DIR)
    timetravel.add_argument("--manifest", default=None, help="pinned-SHA snapshot manifest (JSON)")
    timetravel.set_defaults(func=cmd_eval_timetravel)

    kappa = experiments.add_parser("kappa", help="inter-annotator agreement statistics")
    kappa.add_argument("--labels", required=True)
    kappa.add_argument("--seed", type=int, default=42)
    kappa.add_argument("--resamples", type=_positive_int, default=10000)
    kappa.add_argument("--out", default=DEFAULT_OUT_DIR)
    kappa.set_defaults(func=cmd_eval_kappa)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # gitio.GitError is an OSError, InsufficientFixes a ValueError
        try:
            print(f"commitdistill: error: {exc}", file=sys.stderr)
        except BrokenPipeError:  # stderr is closed too; the exit code still tells
            pass
        if isinstance(exc, BrokenPipeError):
            # The interpreter flushes stdout again at exit: point it at
            # devnull so that flush cannot raise ("Note on SIGPIPE" in the
            # docs of the signal module).
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 2


def entry() -> None:
    sys.exit(main())
