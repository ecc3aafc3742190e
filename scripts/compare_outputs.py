"""Check that two checkouts give the same CLI outputs, byte for byte.

    python3 scripts/compare_outputs.py --before ../parent --after . [--seeds 1,2]

For each seed, the after checkout's benchmark generator (``bench/run.py``)
writes the histories of the ``extract``, ``query`` and ``timetravel``
workloads and the small side history. Each checkout gets its own copy of
each history, since ``extract`` writes its store into it, and runs every
command below on it in a fresh interpreter, from the copy's directory and
with relative paths, so that the paths a command prints are the same on both
sides:

- ``extract`` with ``--fallback off`` and then ``on``, each into an empty
  store: the store's bytes;
- ``query --format json`` on the ``on`` store, for an answerable, a near-miss
  and an out-of-vocabulary query of the benchmark's, at the default theta
  and at theta 0;
- ``eval timetravel`` at theta 2.5 and 0, with the workload's fixes and
  window;
- ``eval baseline`` and ``eval budget``, each with ``--fallback on`` and
  ``off``, on ``tests/data/benchmark_budget.json``;
- ``eval sweep`` on ``tests/data/benchmark_classes.json``.

The benchmark files are the after checkout's, on both sides. Every run's
exit code, stdout, stderr and written files are compared. The script prints
the number of comparisons and differences, names each difference, and exits 1
if there is any. Standard library only.
"""
from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_record import _seed_list

CLI = "from commitdistill.cli import entry; entry()"
HISTORIES = ("extract", "query", "timetravel", "side")
BENCHMARKS = ("benchmark_budget.json", "benchmark_classes.json")


def _histories(after: Path, seed: int, work: Path) -> tuple[dict[str, tuple[Path, object, list[str]]], dict]:
    """Per history, its repository, its ``bench/run.py`` input and three
    queries; and the environment the commands run in."""
    sys.path.insert(0, str(after / "bench"))
    import run  # bench/run.py: the workload table, the generator and the queries

    histories = {}
    env = run.program_env(work)
    for name in HISTORIES:
        spec = run.SIDE if name == "side" else run.WORKLOADS[name].main
        history = spec.generate(seed)
        repo = run.gen.write_repo(history, work / f"seed{seed}" / name, env)
        queries = [text for _, text in run.make_queries(history, seed)[:3]]
        histories[name] = repo, spec, queries
    return histories, env


def _commands(spec, queries: list[str]) -> list[tuple[str, list[str], str | None]]:
    """(label, CLI arguments, directory of written files or None), in order."""
    commits = ["--max-commits", str(spec.commits)]
    runs: list[tuple[str, list[str], str | None]] = []
    for fallback in ("off", "on"):
        runs.append((f"extract --fallback {fallback}", ["extract", "--repo", "repo", *commits, "--fallback", fallback], "repo/.knowledge"))
    for position, text in enumerate(queries):
        for theta in (None, "0"):
            extra = [] if theta is None else ["--theta", theta, "--k", "50"]
            runs.append((f"query {position} theta {theta or 'default'}", ["query", "--repo", "repo", "--format", "json", *extra, text], None))
    for theta in ("2.5", "0"):
        runs.append((f"eval timetravel theta {theta}", [
            "eval", "timetravel", "--repo", "repo", "--fixes", str(spec.fixes), "--window", str(spec.window),
            "--theta", theta, "--out", "out"], "out"))
    for command in ("baseline", "budget"):
        for fallback in ("on", "off"):
            runs.append((f"eval {command} --fallback {fallback}", [
                "eval", command, "--repo", "repo", *commits, "--benchmark", BENCHMARKS[0],
                "--fallback", fallback, "--out", "out"], "out"))
    runs.append(("eval sweep", ["eval", "sweep", "--repo", "repo", *commits, "--benchmark", BENCHMARKS[1], "--out", "out"], "out"))
    return runs


def _outputs(checkout: Path, place: Path, argv: list[str], written: str | None, env: dict) -> dict[str, object]:
    """One command's exit code, stdout, stderr and written files."""
    if written is not None:
        shutil.rmtree(place / written, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, "-c", CLI, *argv], cwd=place, capture_output=True,
        env={**env, "PYTHONPATH": str(checkout / "src")},
    )
    outputs: dict[str, object] = {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    if written is not None and (place / written).is_dir():
        for path in sorted((place / written).iterdir()):
            outputs[f"{written}/{path.name}"] = path.read_bytes()
    return outputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, required=True, help="checkout to compare with, e.g. the parent")
    parser.add_argument("--after", type=Path, required=True, help="checkout under test")
    parser.add_argument("--seeds", type=_seed_list, default=[1, 2])
    args = parser.parse_args(argv)

    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    comparisons, differences, failed_runs = 0, [], 0
    work = Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    try:
        for seed in args.seeds:
            histories, env = _histories(sides["after"], seed, work)
            for name, (repo, spec, queries) in histories.items():
                places = {}
                for side in sides:
                    place = work / side / f"seed{seed}" / name
                    shutil.copytree(repo, place / "repo")
                    for benchmark in BENCHMARKS:
                        shutil.copyfile(sides["after"] / "tests" / "data" / benchmark, place / benchmark)
                    places[side] = place
                for label, cli_args, written in _commands(spec, queries):
                    got = {
                        side: _outputs(checkout, places[side], cli_args, written, env)
                        for side, checkout in sides.items()
                    }
                    failed_runs += got["after"]["exit code"] != 0
                    for key in sorted(got["before"].keys() | got["after"].keys()):
                        comparisons += 1
                        if got["before"].get(key) != got["after"].get(key):
                            differences.append(f"seed {seed} {name}: {label}: {key}")
                print(f"seed {seed} {name}: {comparisons} comparisons, {len(differences)} differences so far",
                      file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for difference in differences:
        print(f"differs: {difference}")
    print(f"{comparisons} comparisons, {len(differences)} differences, {failed_runs} nonzero exits on the after side")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
