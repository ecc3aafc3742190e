"""Benchmark runner: runs one workload of the commitdistill CLI and library.

    python3 bench/run.py --workload extract --seed 1 --seconds 27 --trace 0

Set-up generates two seeded git histories (bench/gen.py), the workload's
main one and a small side one, imports them with git fast-import, extracts
each store once through the CLI and builds a library index over the main
store. The timed part then repeats whole rounds, one process at a time, until
--seconds have passed: the workload's own CLI operation (extract, cold query
or time travel) on the main history, each other CLI operation on the side
history, a batch of warm library queries after every CLI call, and a speed
probe after every slot of calls, by which every time is scaled (see PROBE).
Afterwards every output is checked against computations made apart from the
program (bench/checks.py). The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With --trace 1 the rounds instead call the program's public functions
in-process, layer by layer, and report the per-layer metrics (bench/layers.py).
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import gen  # noqa: E402

CLI = "from commitdistill.cli import entry; entry()"


# The paper reports 1,167 units from 25,000 commits. At this density, with 4 %
# fix commits, the generator's history gives about as many rule units per
# commit (the measured figure is in bench/README.md).
PAPER_DENSITY = 0.012


@dataclass(frozen=True)
class Input:
    """One generated history and the time-travel run made on it."""

    commits: int
    fix_share: float
    hot_files: int
    density: float  # scales the generator's planted-sentence rates
    fixes: int
    window: int

    def generate(self, seed: int) -> gen.History:
        return gen.generate(seed, self.commits, self.fix_share, self.hot_files, self.density)


@dataclass(frozen=True)
class Workload:
    """The history the workload's own operation runs on, and how often each
    operation runs per round: the workload's own on the main history, every
    other one on the side history."""

    main: Input
    target: str  # one of KINDS
    per_round: dict[str, int]  # by kind


KINDS = ("extract", "cold", "timetravel")

# Every other operation of a workload runs on this small history, so each
# workload reports every metric while its own operation gets most of the run.
# Rounds are short (3-5 s on a slow machine), so a run holds many of them and
# every metric is a median of at least five samples.
SIDE = Input(commits=500, fix_share=0.25, hot_files=24, density=1.0, fixes=4, window=150)

WORKLOADS = {
    "extract": Workload(
        Input(commits=10000, fix_share=0.04, hot_files=40, density=PAPER_DENSITY, fixes=6, window=400),
        target="extract", per_round={"extract": 1, "cold": 3, "timetravel": 2},
    ),
    "query": Workload(
        Input(commits=10000, fix_share=0.12, hot_files=40, density=1.0, fixes=4, window=200),
        target="cold", per_round={"extract": 2, "cold": 2, "timetravel": 2},
    ),
    "timetravel": Workload(
        Input(commits=4000, fix_share=0.25, hot_files=24, density=1.0, fixes=6, window=600),
        target="timetravel", per_round={"extract": 2, "cold": 3, "timetravel": 1},
    ),
}

QUERY_K = 10

# The machine's speed drifts, machine-wide, by up to 2.4x from one spell of
# minutes to the next, and every operation of the program slows with it. So
# the timed part interleaves its calls with a speed probe: a fixed piece of
# work shaped like the program's own, run as its own interpreter like a CLI
# call: `git log` over a fixed generated history (seed PROBE_SEED, whatever
# --seed is), then regex tokenizing, dict counting and a sort in Python. The
# program never runs it, so a change to the program leaves its time alone.
# Each time metric is reported at the speed at which the probe takes
# PROBE_REF_S: its median wall time times PROBE_REF_S over the median probe
# of the run. A probe next to each call would follow faster changes too, but
# its own noise outweighs them for calls shorter than a second.
PROBE = r"""
import re, subprocess, sys
out = subprocess.run(
    ["git", "-C", sys.argv[1], "log", "--format=%H%x00%an%x00%at%x00%B%x00", "--name-only"],
    capture_output=True, check=True, text=True,
).stdout
df = {}
for field in out.split("\x00"):
    for term in set(re.findall(r"[a-z0-9]+", field.lower())):
        df[term] = df.get(term, 0) + 1
ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))
assert ranked
"""
PROBE_SEED = 0
PROBE_INPUT = Input(commits=1000, fix_share=0.25, hot_files=24, density=1.0, fixes=0, window=0)
PROBE_REF_S = 0.1

# Calls are grouped into slots of at least this much wall time; a slot ends
# with a probe, and so does every round.
SLOT_S = 0.6


class Failed(Exception):
    pass


def program_env(work: Path) -> dict[str, str]:
    gitconfig = work / "gitconfig"
    gitconfig.touch()
    return dict(
        os.environ,
        PYTHONPATH=str(SRC),
        PYTHONIOENCODING="utf-8",
        GIT_CONFIG_NOSYSTEM="1",
        GIT_CONFIG_GLOBAL=str(gitconfig),
    )


class Program:
    """Runs CLI commands one at a time, each returning its wall time, its
    standard output and its own peak RSS in KiB."""

    def __init__(self, work: Path):
        self.work = work
        self.env = program_env(work)

    def run(self, *args: str) -> tuple[float, str, int]:
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", CLI, *args], stdout=out, stderr=err,
                env=self.env, cwd=self.work,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            lines = err_path.read_text(encoding="utf-8", errors="replace").splitlines()
            raise Failed(f"{args[0]} exited {proc.returncode}: {lines[-1] if lines else ''}")
        return elapsed, out_path.read_text(encoding="utf-8"), usage.ru_maxrss

    def make_probe_repo(self) -> None:
        self.probe_repo = gen.write_repo(PROBE_INPUT.generate(PROBE_SEED), self.work / "probe", self.env)

    def probe(self) -> float:
        """Wall time of one run of the speed probe. ``-I`` keeps the program's
        source off its import path."""
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-I", "-c", PROBE, str(self.probe_repo)],
            check=True, env=self.env, cwd=self.work,
        )
        return time.perf_counter() - started


# The candidate sets of frequent words dominate what a query costs, so the
# frequent part of every query is the same for all seeds: near misses pair
# two of the eight most frequent words, and each answerable query adds one
# fixed mid-frequency word to two rare words of a planted sentence.
NEAR_MISS_PAIRS = ((0, 4), (1, 5), (2, 6), (3, 7), (0, 5), (1, 6), (2, 7), (3, 4))
ANSWERABLE_COMMON = range(8, 16)
_RANK = {word: rank for rank, word in enumerate(gen.VOCABULARY)}


def make_queries(history: gen.History, seed: int) -> list[tuple[str, str]]:
    """Eight answerable, eight near-miss and eight out-of-vocabulary queries,
    interleaved. Out-of-vocabulary words use letters the generator never puts
    together."""
    rng = random.Random(seed * 7919 + 1)
    planted = [p for c in history.commits for p in c.planted]
    mix = []
    for (a, b), common in zip(NEAR_MISS_PAIRS, ANSWERABLE_COMMON):
        while True:
            core = rng.choice(planted).core
            rare = [w for w in checks.words(core) if _RANK.get(w, 0) >= len(gen.DOMAIN_WORDS)]
            if len(set(rare)) >= 2:
                break
        rare = sorted(set(rare), key=lambda w: (-_RANK[w], w))[:2]
        mix.append(("answerable", f"{rare[0]} {rare[1]} {gen.DOMAIN_WORDS[common]}"))
        mix.append(("near-miss", f"{gen.DOMAIN_WORDS[a]} {gen.DOMAIN_WORDS[b]}"))
        oov = ("".join(rng.choice("qxjwz") for _ in range(6)) for _ in range(2))
        mix.append(("oov", " ".join(oov)))
    return mix


class Corpus:
    """A generated repository, its store, and what the CLI calls on it gave."""

    def __init__(self, work: Path, spec: Input, seed: int, program: Program):
        self.spec = spec
        self.work = work
        self.program = program
        self.repo = work / "repo"
        self.store_file = self.repo / ".knowledge" / "units.json"
        self.tt_out = work / "eval"
        self.history = spec.generate(seed)
        gen.write_repo(self.history, self.repo, program.env)
        self.queries = make_queries(self.history, seed)
        self.outputs: dict = {}
        self.peaks_kb: dict[str, list[int]] = {}  # by operation kind
        _, self.setup_extract_stdout, _ = self.extract_run()
        self.store_bytes = self.store_file.read_bytes()

    def extract_run(self) -> tuple[float, str, int]:
        return self.program.run(
            "extract", "--repo", str(self.repo), "--max-commits", str(self.spec.commits)
        )

    def timed(self, kind: str, *args: str) -> tuple[float, str]:
        elapsed, out, peak_kb = self.program.run(*args)
        self.peaks_kb.setdefault(kind, []).append(peak_kb)
        return elapsed, out

    # -- timed operations --------------------------------------------------

    def op_extract(self) -> float:
        """Every commit into an empty store."""
        shutil.rmtree(self.store_file.parent)
        elapsed, out = self.timed(
            "extract", "extract", "--repo", str(self.repo), "--max-commits", str(self.spec.commits)
        )
        self.outputs.setdefault("extract", set()).add(
            (hashlib.sha1(self.store_file.read_bytes()).hexdigest(), out)
        )
        return elapsed

    def op_cold_query(self, text: str) -> float:
        elapsed, out = self.timed(
            "cold", "query", "--repo", str(self.repo), "--format", "json", "--k", str(QUERY_K), text
        )
        self.outputs.setdefault("cold", {}).setdefault(text, set()).add(out)
        return elapsed

    def op_timetravel(self) -> float:
        elapsed, _ = self.timed(
            "timetravel", "eval", "timetravel", "--repo", str(self.repo), "--fixes", str(self.spec.fixes),
            "--window", str(self.spec.window), "--out", str(self.tt_out),
        )
        result = (self.tt_out / "time_travel_results.json").read_bytes()
        self.outputs.setdefault("timetravel", set()).add(result)
        return elapsed

    # -- output checks -----------------------------------------------------

    def check(self, label: str) -> list[str]:
        shas = subprocess.run(
            ["git", "-C", str(self.repo), "log", "--format=%H"],
            check=True, capture_output=True, text=True, env=self.program.env,
        ).stdout.split()
        problems = checks.check_store(self.store_bytes, self.history, shas)
        units = json.loads(self.store_bytes)["units"]
        total = f"total: {len(units)} units from {self.spec.commits} commits"
        if total not in self.setup_extract_stdout:
            problems.append(f"extract summary does not say {total!r}")
        digest = hashlib.sha1(self.store_bytes).hexdigest()
        for store_digest, out in self.outputs.get("extract", ()):
            if store_digest != digest:
                problems.append("a timed extract wrote a store that differs from the set-up one")
            if total not in out:
                problems.append(f"timed extract summary does not say {total!r}")
        brute = checks.BruteForceTfidf(units)
        for text, outs in self.outputs.get("cold", {}).items():
            if len(outs) != 1:
                problems.append(f"query {text!r} gave different outputs across runs")
            want = brute.rank(text, QUERY_K)
            for out in outs:
                problems += checks.check_ranking(checks.parse_query_json(out), want, f"cli {text!r}")
        for text, results in self.outputs.get("warm", {}).items():
            want = brute.rank(text, QUERY_K)
            for hits in results:
                problems += checks.check_ranking(list(hits), want, f"library {text!r}")
        for cls, text in self.queries:
            if cls != "oov":
                continue
            if checks.tokenize(text).keys() & brute.df.keys():
                problems.append(f"out-of-vocabulary query {text!r} shares a term with the store")
            if any(out != "[]\n" for out in self.outputs.get("cold", {}).get(text, ())):
                problems.append(f"out-of-vocabulary query {text!r} was answered")
        tt = self.outputs.get("timetravel", set())
        if len(tt) > 1:
            problems.append("time travel gave different outputs across runs")
        for raw in tt:
            problems += checks.check_time_travel(
                json.loads(raw), self.history, shas, self.spec.fixes, self.spec.window
            )
        return [f"{label}: {problem}" for problem in problems]


class Bench:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.spec = WORKLOADS[name]
        self.work = WORK / name

    def setup(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.program = Program(self.work)
        self.program.make_probe_repo()
        self.main = Corpus(self.work / "main", self.spec.main, self.seed, self.program)
        self.side = Corpus(self.work / "side", SIDE, self.seed, self.program)
        sys.path.insert(0, str(SRC))
        import commitdistill

        self.lib = commitdistill
        self.index = commitdistill.build_index(commitdistill.load(self.main.repo).sorted_units())
        # The generated plans and the index stay alive for the whole run; the
        # cyclic collector need not rescan them during the warm queries.
        gc.collect()
        gc.freeze()

    def op_warm_queries(self, texts: list[str]) -> float:
        query = self.lib.query
        started = time.perf_counter()
        results = [query(self.index, text, k=QUERY_K) for text in texts]
        elapsed = time.perf_counter() - started
        warm = self.main.outputs.setdefault("warm", {})
        for text, hits in zip(texts, results):
            warm.setdefault(text, set()).add(tuple((h.unit.id, h.score) for h in hits))
        return elapsed

    def round_calls(self, rounds: int) -> list[tuple[str, object, tuple]]:
        """The workload's own operation on the main history, then each other
        operation on the side history, each ``per_round`` times."""
        spec = self.spec
        calls = []
        for kind in KINDS:
            corpus = self.main if kind == spec.target else self.side
            count = spec.per_round[kind]
            for i in range(count):
                if kind == "cold":
                    text = corpus.queries[(rounds * count + i) % len(corpus.queries)][1]
                    calls.append((kind, corpus.op_cold_query, (text,)))
                elif kind == "extract":
                    calls.append((kind, corpus.op_extract, ()))
                else:
                    calls.append((kind, corpus.op_timetravel, ()))
        return calls

    def timed_rounds(self, seconds: float) -> dict:
        """Whole rounds until ``seconds`` pass. A warm batch follows each CLI
        call, so the library queries sample the whole run, and a probe ends
        each slot of calls."""
        raw: dict[str, list[float]] = {kind: [] for kind in KINDS}
        warm: list[float] = []
        attempted = failed = rounds = 0
        warm_texts = [text for _, text in self.main.queries]
        probes = [self.program.probe()]
        started = time.perf_counter()
        while True:
            slot = 0.0
            calls = self.round_calls(rounds)
            for i, (kind, op, op_args) in enumerate(calls):
                attempted += 1
                try:
                    elapsed = op(*op_args)
                    raw[kind].append(elapsed)
                    slot += elapsed
                except Failed as exc:
                    print(f"operation failed: {exc}", file=sys.stderr)
                    failed += 1
                attempted += len(warm_texts)
                warm.append(self.op_warm_queries(warm_texts))
                slot += warm[-1]
                if slot >= SLOT_S or i == len(calls) - 1:
                    probes.append(self.program.probe())
                    slot = 0.0
            rounds += 1
            elapsed = time.perf_counter() - started
            if elapsed + elapsed / rounds > seconds:  # the next round would run past the end
                break
        scale = PROBE_REF_S / median(probes)
        return {
            "times": {kind: median(values) * scale for kind, values in raw.items()},
            "warm_qps": len(warm_texts) / (median(warm) * scale),
            "raw": {**raw, "warm": warm}, "probes": probes,
            "attempted": attempted, "failed": failed, "rounds": rounds,
        }

    def check(self) -> list[str]:
        return self.main.check("main") + self.side.check("side")

    def peak_rss_mb(self) -> float:
        """Peak RSS of the operation that needs the most memory: the median over
        that operation's processes, since the same process can peak a few MB
        apart from one run to the next."""
        return max(
            median(peaks) for corpus in (self.main, self.side) for peaks in corpus.peaks_kb.values()
        ) / 1024.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "commitdistill" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'commitdistill'}", file=sys.stderr)
        return 2
    if shutil.which("git") is None:
        print("bench: git is not on PATH", file=sys.stderr)
        return 2

    # A terminated run still stops its program process and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bench = Bench(args.workload, args.seed)
    try:
        bench.setup()
        setup_s = time.perf_counter() - PROCESS_START
        if args.trace:
            import layers

            result = layers.traced_run(bench, args.seconds, OUT)
        else:
            run = bench.timed_rounds(args.seconds)
            timed_s = time.perf_counter() - PROCESS_START - setup_s
            problems = bench.check()
            for problem in problems[:20]:
                print(f"check failed: {problem}", file=sys.stderr)
            times = run["times"]
            result = {
                "correct": not problems,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {
                    "setup_s": {"value": setup_s, "unit": "s"},
                    "peak_rss_mb": {"value": bench.peak_rss_mb(), "unit": "MB"},
                    "extract_s": {"value": times["extract"], "unit": "s"},
                    "query_cold_s": {"value": times["cold"], "unit": "s"},
                    "query_warm_qps": {"value": run["warm_qps"], "unit": "queries/s"},
                    "timetravel_s": {"value": times["timetravel"], "unit": "s"},
                },
            }
            check_s = time.perf_counter() - PROCESS_START - setup_s - timed_s
            print(
                f"rounds: {run['rounds']}; set-up {setup_s:.1f} s, timed {timed_s:.1f} s,"
                f" checks {check_s:.1f} s; probe median {median(run['probes']):.4f} s"
                f" over {len(run['probes'])}; unscaled medians: "
                + ", ".join(
                    f"{kind} {median(values):.4f} s ({len(values)})"
                    for kind, values in run["raw"].items()
                ),
                file=sys.stderr,
            )
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
