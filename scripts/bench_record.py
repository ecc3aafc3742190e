"""Record benchmark runs of one or two checkouts into BENCH_<workload>.json.

    python3 scripts/bench_record.py --after . [--before ../parent] \
        --workloads query,timetravel --seeds 1,2,3 --seconds 27 --out .

Each (workload, seed) runs ``python3 bench/run.py`` once in every checkout,
one process at a time; with two checkouts the side that runs first
alternates from seed to seed. For each workload the script appends one
entry to ``<out>/BENCH_<workload>.json``: per checkout its commit sha, every
run's metrics and, per metric, the median and quartiles over the seeds; with
two checkouts also, per metric, the number of seed pairs in which the after
side read better. The entry names the Python and git versions and the core
count of the machine. Standard library only. Exits 1 when a run fails or
reports ``"correct": false``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=checkout, check=True, capture_output=True, text=True
    ).stdout.strip()


def _describe(checkout: Path) -> dict:
    """Commit sha and whether tracked files differ from it."""
    try:
        sha = _git(checkout, "rev-parse", "HEAD")
        dirty = bool(_git(checkout, "status", "--porcelain", "--untracked-files=no"))
    except (subprocess.CalledProcessError, FileNotFoundError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": dirty}


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    wall_s = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()
        return {"seed": seed, "exit": proc.returncode, "correct": False, "wall_s": wall_s,
                "error": tail[-1] if tail else "no output"}
    return {
        "seed": seed,
        "exit": proc.returncode,
        "correct": result.get("correct") is True,
        "attempted": result.get("attempted"),
        "failed": result.get("failed"),
        "wall_s": wall_s,
        "metrics": {name: entry["value"] for name, entry in result.get("metrics", {}).items()},
    }


def _summary(runs: list[dict[str, float]]) -> dict:
    """Median and quartiles of every name over the runs, each a name-to-value
    dict, that hold it."""
    summary = {}
    for name in sorted({name for run in runs for name in run}):
        values = sorted(run[name] for run in runs if name in run)
        q1, _, q3 = (
            statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        )
        summary[name] = {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
    return summary


def _pairs(before: list[dict], after: list[dict], better: dict[str, str]) -> dict:
    """Per metric: pairs run, pairs the after side read better, ties."""
    comparison = {}
    for name, direction in better.items():
        pairs = [
            (b["metrics"][name], a["metrics"][name])
            for b, a in zip(before, after)
            if name in b.get("metrics", {}) and name in a.get("metrics", {})
        ]
        sign = 1 if direction == "lower" else -1
        comparison[name] = {
            "pairs": len(pairs),
            "after_better": sum(1 for b, a in pairs if sign * (b - a) > 0),
            "ties": sum(1 for b, a in pairs if a == b),
        }
    return comparison


def _machine() -> dict:
    git = subprocess.run(["git", "--version"], capture_output=True, text=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "git": git.removeprefix("git version "),
        "cores": os.cpu_count(),
        "platform": platform.platform(),
    }


def _seed_list(raw: str) -> list[int]:
    seeds = [int(piece) for piece in raw.split(",") if piece.strip()]
    if not seeds:
        raise argparse.ArgumentTypeError("needs at least one seed")
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--after", type=Path, required=True, help="checkout under test")
    parser.add_argument("--before", type=Path, help="checkout to compare with, e.g. the parent")
    parser.add_argument("--workloads", type=lambda raw: raw.split(","), required=True)
    parser.add_argument("--seeds", type=_seed_list, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory of the BENCH files")
    args = parser.parse_args(argv)

    sides = {"after": args.after.resolve()}
    if args.before is not None:
        sides["before"] = args.before.resolve()
    for checkout in sides.values():
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"no bench/run.py in {checkout}")
    better = {
        metric["name"]: metric["better"]
        for metric in json.loads((sides["after"] / "BENCHMARK.json").read_text())["end_to_end"]
    }
    args.out.mkdir(parents=True, exist_ok=True)
    machine = _machine()
    ok = True
    for workload in args.workloads:
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for position, seed in enumerate(args.seeds):
            order = ["before", "after"] if position % 2 == 0 else ["after", "before"]
            for side in (side for side in order if side in sides):
                run = _run(sides[side], workload, seed, args.seconds)
                run["ran_first"] = len(sides) == 1 or side == order[0]
                runs[side].append(run)
                ok = ok and run["correct"] and run["exit"] == 0
                print(f"{workload} seed {seed} {side}: correct={run['correct']} "
                      + " ".join(f"{k}={v:.4g}" for k, v in run.get("metrics", {}).items()),
                      file=sys.stderr)
        entry = {
            "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "seconds": args.seconds,
            "seeds": args.seeds,
            "machine": machine,
        }
        for side, checkout in sides.items():
            entry[side] = {
                **_describe(checkout),
                "summary": _summary([run.get("metrics", {}) for run in runs[side]]),
                "runs": runs[side],
            }
        if "before" in sides:
            entry["pairs"] = _pairs(runs["before"], runs["after"], better)
        path = args.out / f"BENCH_{workload}.json"
        history = json.loads(path.read_text()) if path.exists() else {"workload": workload, "entries": []}
        history["entries"].append(entry)
        path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
