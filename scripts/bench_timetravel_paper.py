"""Time paper-scale ``eval timetravel`` in-process, for one or two checkouts.

    python3 scripts/bench_timetravel_paper.py --after . [--before ../parent] \
        --rounds 5 --out .

The protocol is fixed, so that every entry of the file compares with every
other: the history is the benchmark's ``query`` workload (10k commits)
generated with ``bench/gen.py`` at seed 1, and the run takes 40 cases with
windows of 5,000 commits, as the paper's protocol does, at theta 2.5.
Each round starts one fresh interpreter per checkout, the side that runs
first alternating from round to round. The interpreter times building the
cases and each of the four retrievers, in the order and with the sharing
that ``eval timetravel`` uses (the CD pair shares one extraction, which the
first of them pays for), and prints the metrics it scored. ``cd_s`` is the
CD-v1 plus CD-v2 time: what the CD pair costs, wherever its shared
extraction falls.

The script appends one entry to ``<out>/BENCH_timetravel_paper.json``: per
checkout its commit sha, every round's timings and, per timing, the median
and quartiles; with two checkouts also the number of rounds in which the
after side was faster, and whether both sides scored the same metrics.
Standard library only. Exits 1 when a side fails or the sides disagree.
"""
from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_record import _describe, _machine, _summary

SEED = 1
FIXES = 40
WINDOW = 5000
THETA = 2.5

MEASURE = r"""
import json, sys, time
from commitdistill import evaluation

repo, fixes, window, theta = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
started = time.perf_counter()
cases = evaluation.time_travel_cases(repo, fixes, window)
timings = {"cases_s": time.perf_counter() - started}
retrievers = {
    "grep": evaluation.grep_retriever(),
    "bm25": evaluation.bm25_retriever(),
    **evaluation.cd_retrievers(theta=theta),
}
methods = {}
for name, retriever in retrievers.items():
    started = time.perf_counter()
    methods[name] = evaluation.score_cases(cases, retriever)
    timings[name + "_s"] = time.perf_counter() - started
timings["retrievers_s"] = sum(timings[name + "_s"] for name in retrievers)
print(json.dumps({"timings": timings, "methods": methods}, sort_keys=True))
"""


def _generate(checkout: Path, work: Path) -> tuple[Path, dict[str, str]]:
    """The ``query`` workload's history, written by the checkout's generator."""
    sys.path.insert(0, str(checkout / "bench"))
    import run  # bench/run.py: the workload table and the git environment

    env = run.program_env(work)
    spec = run.WORKLOADS["query"].main
    return run.gen.write_repo(spec.generate(SEED), work / "repo", env), env


def _measure(checkout: Path, repo: Path, env: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", MEASURE, str(repo), str(FIXES), str(WINDOW), str(THETA)],
        env={**env, "PYTHONPATH": str(checkout / "src")}, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()
        raise RuntimeError(f"{checkout}: {tail[-1] if tail else f'exit {proc.returncode}'}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    timings = result["timings"]
    timings["cd_s"] = timings["cd_v1_s"] + timings["cd_v2_s"]
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--after", type=Path, required=True, help="checkout under test")
    parser.add_argument("--before", type=Path, help="checkout to compare with, e.g. the parent")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True, help="directory of the BENCH file")
    args = parser.parse_args(argv)

    sides = {"after": args.after.resolve()}
    if args.before is not None:
        sides["before"] = args.before.resolve()
    work = Path(tempfile.mkdtemp(prefix="bench-timetravel-paper-"))
    try:
        repo, env = _generate(sides["after"], work)
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for position in range(args.rounds):
            order = ["before", "after"] if position % 2 == 0 else ["after", "before"]
            for side in (side for side in order if side in sides):
                result = _measure(sides[side], repo, env)
                runs[side].append(result)
                print(f"round {position} {side}: "
                      + " ".join(f"{k}={v:.3f}" for k, v in result["timings"].items()), file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    methods = {json.dumps(run["methods"], sort_keys=True) for side in runs.values() for run in side}
    entry = {
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "history": "query workload", "seed": SEED, "fixes": FIXES,
        "window": WINDOW, "theta": THETA, "rounds": args.rounds,
        "machine": _machine(),
        "same_methods": len(methods) == 1,
        "methods": runs["after"][0]["methods"],
    }
    for side, checkout in sides.items():
        timings = [run["timings"] for run in runs[side]]
        entry[side] = {**_describe(checkout), "summary": _summary(timings), "runs": timings}
    if "before" in sides:
        entry["after_faster"] = {
            name: sum(
                a["timings"][name] < b["timings"][name] for a, b in zip(runs["after"], runs["before"])
            )
            for name in runs["after"][0]["timings"]
        }
    path = args.out / "BENCH_timetravel_paper.json"
    history = json.loads(path.read_text()) if path.exists() else {"entries": []}
    history["entries"].append(entry)
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0 if entry["same_methods"] else 1


if __name__ == "__main__":
    sys.exit(main())
