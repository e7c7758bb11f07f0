#!/usr/bin/env python3
"""Benchmark of the sigperm CLI: its three counting routes, end to end and
per layer.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20 --trace 1

Run it from anywhere inside a source checkout; it imports ``sigperm`` from
the checkout's ``src/`` and nothing else.  A run repeats its workload's
round of CLI commands, each in a fresh interpreter as a CLI user pays for
it, until ``--seconds`` would be exceeded, and checks every output (see
``bench_checks``).  ``--trace 0`` prints the end-to-end metrics (medians
over rounds, scaled to a reference host speed: see ``HostSpeed``);
``--trace 1`` adds a traced round and prints the per-layer
metrics (see ``bench_trace``).  The seed only sets the order of commands in
each round and the order of workloads for ``--workload all``; the problems
themselves are fixed and exact.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import multiprocessing
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_checks import check_round  # noqa: E402
from bench_trace import summarize  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "bench_trace.py"
WORK = ROOT / ".perfbench_work"
# The `sigperm` console script, plus a last stderr line with the peak RSS.
# VmHWM is read because rusage's ru_maxrss of an exec'd child starts from
# the RSS of the process that spawned it; forked pool workers do not have
# that problem, so RUSAGE_CHILDREN covers them.
RSS_MARK = "perfbench-peak-rss-kb"
LAUNCH = f"""\
import resource, sys
from sigperm.cli import main
try:
    sys.exit(main())
finally:
    with open("/proc/self/status") as status:
        hwm = max(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    sys.stderr.write("\\n{RSS_MARK} %d\\n" % max(hwm, workers))
"""
COMMAND_TIMEOUT_S = 60
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))
PROBE_INTERVAL_S = 0.05
PIN_PROBES = 8
# A typical mean `host_probe` CPU time over a run on the machine the baseline
# was taken on (2 vCPUs of a shared Intel Xeon virtual machine, Python 3.11):
# reported times are seconds at a host speed that gives this mean.
PROBE_REF_S = 3.5e-4
MIN_SETUP_PROBES = 15
SETUP_PROBES_PER_ROUND = 3

WORKLOADS = {
    "scan": "exhaustive route on a length-5 pattern no tree covers: core kernel on whole words, oracle enumeration and its process pool",
    "tree-walk": "explicit generating trees dumped as JSON: kernel on one-point insertions, gentree children/stats and the largest CLI output",
    "exact-rows": "routes past brute force: gf signature sums (most of the time) and the gentree label DP; no kernel, no pool",
    "verify": "the everyday command: short pooled scans, the serial type-D scan and per-signature series on the equality grid",
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "core.kernel_calls": "count",
    "core.kernel_s": "s",
    "core.kernel_us_per_call": "us",
    "oracle.scan_s": "s",
    "oracle.scan_self_s": "s",
    "oracle.words_scanned": "count",
    "oracle.scan_useful_ratio": "ratio",
    "oracle.pools_started": "count",
    "oracle.pool_s": "s",
    "oracle.parallel_efficiency": "ratio",
    "gentree.children_calls": "count",
    "gentree.children_s": "s",
    "gentree.stats_calls": "count",
    "gentree.stats_s": "s",
    "gentree.kernel_calls_per_node": "calls/node",
    "gentree.insert_accept_ratio": "ratio",
    "gentree.level_counts_s": "s",
    "gentree.successor_calls": "count",
    "gf.row_s": "s",
    "gf.signatures_enumerated": "count",
    "gf.series_calls": "count",
    "gf.series_s": "s",
    "cli.emit_s": "s",
    "cli.output_bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def workload_commands(name: str, workers: int) -> dict[str, list[str]]:
    """The fixed problem of each workload, keyed by a short command name.

    Sizes keep a round to a few seconds, so a run holds several rounds,
    while the layer the workload is about still does most of the work.
    """
    threads = ["--threads", str(workers), "--format", "json"]
    if name == "scan":
        return {
            "conjecture": ["conjecture", "--p1", "12345", "--p2", "21354", "--max-n", "6", *threads],
            "brute": ["count", "--n", "6", "--pattern", "1234", "--method", "brute", *threads],
        }
    if name == "tree-walk":
        return {
            f"tree-{p}-{j}": ["tree", "--pattern", p, "--j", str(j), "--depth", "4", "--format", "json"]
            for p in ("1234", "2143") for j in (0, 1, 2)
        }
    if name == "exact-rows":
        cmds = {}
        for p in ("1234", "2143"):
            cmds[f"gf-9-{p}"] = ["count", "--method", "gf", "--n", "9", "--pattern", p, "--format", "json"]
            cmds[f"tree-14-{p}"] = ["count", "--method", "tree", "--n", "14", "--pattern", p, "--format", "json"]
            cmds[f"tree-9-{p}"] = ["count", "--method", "tree", "--n", "9", "--pattern", p, "--format", "json"]
        cmds["formula-14"] = ["count", "--method", "formula", "--n", "14", "--pattern", "1234", "--format", "json"]
        return cmds
    if name == "verify":
        return {"verify": ["verify", "--max-n", "6", *threads]}
    raise ValueError(f"unknown workload {name!r}")


def host_probe() -> None:
    """A fixed sliver of pure-Python work (tuples, sorting, dict updates),
    about 0.25 ms on an idle CPU of the machine the benchmark was written on.
    It imports nothing from sigperm, so no change to the program moves it."""
    seen: dict[tuple[int, ...], int] = {}
    for perm in itertools.islice(itertools.permutations(range(7)), 400):
        key = tuple(sorted(perm[:4]))
        seen[key] = seen.get(key, 0) + 1


def time_probe() -> float:
    """CPU seconds of one ``host_probe`` in this thread.  CPU time, not wall
    time, so that the probe does not count the time it waits while the
    measured processes hold every CPU; it still counts the spells in which
    the host runs this vCPU slowly, though not the time the host takes the
    vCPU away altogether (steal, see ``stolen_s``)."""
    start = time.thread_time()
    host_probe()
    return time.thread_time() - start


class HostSpeed:
    """Times ``host_probe`` every ``PROBE_INTERVAL_S`` while a measured
    process runs, on the CPUs that process may use.

    On a shared virtual machine the speed of each vCPU moves with the load
    the host's other tenants put beside it: it flips between two levels
    about a factor of two apart several times a second, and the share of
    slow time drifts by ±20 % over tens of seconds; at times the host also
    takes a quarter of each vCPU's time away.  The mean probe time over the
    processes of a round measures the slow share, and dividing by it (after
    taking the stolen time off wall times) cancels the drift while a change
    to sigperm's own speed passes through.
    The sampling thread wakes for ``host_probe`` alone, under 1 % of a CPU.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._cpus: frozenset[int] | None = None  # None: nothing is measured
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-speed", daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        pinned = None
        while not self._stop.wait(PROBE_INTERVAL_S):
            cpus = self._cpus
            if cpus is None:
                continue
            if cpus != pinned:
                os.sched_setaffinity(0, cpus)  # this thread only
                pinned = cpus
            self.samples.append(time_probe())

    def watch(self, cpus: frozenset[int] | None) -> int:
        """Sample on ``cpus`` from now (stop with None); returns the mark
        that ``since`` takes."""
        self._cpus = cpus
        return len(self.samples)

    def since(self, mark: int) -> list[float]:
        return self.samples[mark:]

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


def speed_factor(samples: list[float]) -> float:
    """Seconds measured on a host whose mean probe time was that of
    ``samples``, as seconds at the reference probe time; 1 with no samples."""
    return PROBE_REF_S / statistics.fmean(samples) if samples else 1.0


def stolen_s(cpus: frozenset[int]) -> float:
    """Seconds the host has held ``cpus`` back from this machine since boot,
    summed over them: the ``steal`` column of ``/proc/stat``, 0 where there
    is none."""
    try:
        with open("/proc/stat") as stat:
            rows = [line.split() for line in stat if line.startswith("cpu")]
    except OSError:
        return 0.0
    ticks = sum(int(row[8]) for row in rows
                if row[0][3:].isdigit() and int(row[0][3:]) in cpus and len(row) > 8)
    return ticks / os.sysconf("SC_CLK_TCK")


def pin_to_fastest_cpu(cpus: frozenset[int]) -> int:
    """Move this process to the CPU of ``cpus`` that runs ``host_probe``
    fastest right now, and return it.  A child spawned next inherits it."""
    best = (float("inf"), min(cpus))
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        best = min(best, (sum(time_probe() for _ in range(PIN_PROBES)), cpu))
    os.sched_setaffinity(0, {best[1]})
    return best[1]


def pooled(argv: list[str]) -> bool:
    return "--threads" in argv and int(argv[argv.index("--threads") + 1]) > 1


def with_threads(argv: list[str], threads: int) -> list[str]:
    i = argv.index("--threads")
    return argv[: i + 1] + [str(threads)] + argv[i + 2:]


@dataclass
class Outcome:
    """One finished process: wall and CPU seconds, peak RSS, exit code,
    and the host's probe times and stolen seconds (per CPU it could use)
    while it ran."""

    wall_s: float
    cpu_s: float
    rss_kb: int
    code: int
    text: str
    probes: list[float] = field(default_factory=list)
    stolen_s: float = 0.0


def spawn(cmd: list[str], out_path: Path) -> Outcome:
    """Run ``cmd`` to completion with stdout in ``out_path``.

    ``wait4`` gives the CPU time of this child together with the children
    it reaped itself (the pool workers).  The peak RSS comes from the
    launcher's last stderr line when there is one.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("SIGPERM_THREADS", None)
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
                                start_new_session=True)
        # a hung command is killed with its pool workers
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    marks = [line for line in out_path.with_suffix(".err").read_text(errors="replace").splitlines()
             if line.startswith(RSS_MARK)]
    rss_kb = int(marks[-1].split()[1]) if marks else usage.ru_maxrss
    return Outcome(wall, usage.ru_utime + usage.ru_stime, rss_kb, proc.returncode,
                   out_path.read_text(encoding="utf-8", errors="replace"))


def run_cli(argv: list[str], out_path: Path, trace: list[str] | None = None,
            host: HostSpeed | None = None) -> Outcome:
    """Run one CLI command.  A serial command runs on the allowed CPU that
    is fastest at the time, with the host's speed sampled on that CPU; one
    that starts a pool gets, and is sampled on, every allowed CPU."""
    cpus = ALLOWED_CPUS if pooled(argv) else frozenset({pin_to_fastest_cpu(ALLOWED_CPUS)})
    mark = host.watch(cpus) if host else 0
    stolen = stolen_s(cpus)
    try:
        if trace is None:
            outcome = spawn([sys.executable, "-c", LAUNCH, *argv], out_path)
        else:
            outcome = spawn([sys.executable, str(TRACER), *trace, "--", *argv], out_path)
    finally:
        if host:
            host.watch(None)
        os.sched_setaffinity(0, ALLOWED_CPUS)
    if host:
        outcome.probes = host.since(mark)
    outcome.stolen_s = (stolen_s(cpus) - stolen) / len(cpus)
    return outcome


@dataclass
class Round:
    """One round: wall and CPU seconds as measured (``raw_``) and at the
    reference host speed, peak RSS, outcomes and check errors."""

    raw_wall_s: float = 0.0
    raw_cpu_s: float = 0.0
    stolen_s: float = 0.0
    rss_kb: int = 0
    probes: list[float] = field(default_factory=list)
    outcomes: dict[str, Outcome] = field(default_factory=dict)
    errors: dict[str, list[str]] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return (self.raw_wall_s - self.stolen_s) * speed_factor(self.probes)

    @property
    def cpu_s(self) -> float:
        return self.raw_cpu_s * speed_factor(self.probes)


def run_round(commands: dict[str, list[str]], order: list[str], work: Path, host: HostSpeed,
              trace: dict[str, list[str]] | None = None) -> Round:
    """Run each command once in ``order`` and check the outputs together."""
    rnd = Round()
    for key in order:
        outcome = run_cli(commands[key], work / f"{key}.out",
                          None if trace is None else trace[key], host)
        rnd.outcomes[key] = outcome
        rnd.raw_wall_s += outcome.wall_s
        rnd.raw_cpu_s += outcome.cpu_s
        rnd.stolen_s += outcome.stolen_s
        rnd.probes += outcome.probes
        rnd.rss_kb = max(rnd.rss_kb, outcome.rss_kb)
    rnd.errors = check_round({k: (commands[k], o.code, o.text) for k, o in rnd.outcomes.items()})
    return rnd


def setup_probe(work: Path, host: HostSpeed) -> Outcome:
    """Interpreter start, ``import sigperm`` and parser build: ``--version``."""
    outcome = run_cli(["--version"], work / "version.out", host=host)
    if outcome.code != 0:
        raise RuntimeError(f"sigperm --version exited {outcome.code}")
    return outcome


def load_trace(path: Path) -> dict | None:
    """A command's trace, or None when the command died before writing it
    (its failure is already counted by the output check)."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def manifest_wall(outcome: Outcome) -> float:
    return json.loads(outcome.text)["manifest"]["wall_time_s"]


def checkout_facts(seed: int, workers: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sigperm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "affinity_cpus": len(ALLOWED_CPUS),
        "workers": workers,
        "start_method": multiprocessing.get_start_method(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns the result object."""
    workers = min(2, len(ALLOWED_CPUS))
    commands = workload_commands(name, workers)
    rng = random.Random(f"{seed}:{name}")
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    host = HostSpeed()
    try:
        setup_probe(work, host)  # compiles the .pyc files; not timed
        rounds: list[Round] = []
        setups: list[Outcome] = []
        start = time.perf_counter()
        while True:
            setups += [setup_probe(work, host) for _ in range(SETUP_PROBES_PER_ROUND)]
            rounds.append(run_round(commands, rng.sample(list(commands), len(commands)), work, host))
            elapsed = time.perf_counter() - start
            if elapsed * (len(rounds) + 0.5) / len(rounds) > seconds:
                break  # the next round would end, on average, past --seconds
        while len(setups) < MIN_SETUP_PROBES:
            setups.append(setup_probe(work, host))

        failed = sum(1 for r in rounds for errs in r.errors.values() if errs)
        attempted = sum(len(r.outcomes) for r in rounds)
        good = [r for r in rounds if not any(r.errors.values())] or rounds
        # a round's times are scaled by the host speed sampled during that
        # round, its wall time less the time stolen from its CPUs; set-up
        # probes are too short for their own samples, so they are scaled by
        # the speed over the whole run
        host_probes = [p for o in [*setups, *(o for r in rounds for o in r.outcomes.values())]
                       for p in o.probes]
        run_factor = speed_factor(host_probes)
        probe_ms = statistics.fmean(host_probes) * 1e3 if host_probes else None
        samples = {
            "wall_s": [r.wall_s for r in good],
            "cpu_s": [r.cpu_s for r in good],
            "setup_s": [(o.wall_s - o.stolen_s) * run_factor for o in setups],
            "peak_rss_mb": [r.rss_kb / 1024 for r in good],
        }
        unscaled = {
            "wall_s": [r.raw_wall_s for r in good],
            "cpu_s": [r.raw_cpu_s for r in good],
            "setup_s": [o.wall_s for o in setups],
        }
        metrics = {label: statistics.median(values) for label, values in samples.items()}
        lines = [f"# {name}: {len(rounds)} rounds of {len(commands)} commands, "
                 f"{len(good)} correct, {len(setups)} setup probes",
                 f"# host speed: {len(host_probes)} probes, mean "
                 f"{'-' if probe_ms is None else f'{probe_ms:.4g}'} ms "
                 f"against the reference {PROBE_REF_S * 1e3:.4g} ms; median "
                 f"{statistics.median(r.stolen_s for r in good):.4g} s stolen per round; "
                 f"times below are scaled to the reference (unscaled medians in brackets)"]
        for label, values in samples.items():
            q1, q2, q3 = quartiles(values)
            raw = f" [{statistics.median(unscaled[label]):.6g}]" if label in unscaled else ""
            lines.append(f"{label} = {q2:.6g} {END_TO_END[label]}{raw}  "
                         f"(median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g}, "
                         f"min {min(values):.6g}, max {max(values):.6g})")
        if trace:
            traced, extra_failed, extra_attempted, notes = trace_layers(
                commands, rounds, metrics["wall_s"], rng, work, workers, host)
            failed += extra_failed
            attempted += extra_attempted
            lines += notes
            metrics = traced
        lines.append(f"error_rate = {failed / attempted:.6g} ratio  ({failed} of {attempted} commands)")
        for label, errs in sorted({(k, e) for r in rounds for k, es in r.errors.items() for e in es}):
            lines.append(f"# FAILED {label}: {errs}")
        units = PER_LAYER if trace else END_TO_END
        return {
            "lines": lines,
            "facts": {**checkout_facts(seed, workers), "workload": name, "seconds": seconds,
                      "trace": int(trace), "rounds": len(rounds),
                      "host_probe_mean_ms": probe_ms},
            "result": {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
            },
        }
    finally:
        host.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def trace_layers(commands, rounds, untraced_wall, rng, work, workers, host):
    """The traced round, its in-process-pool companions and the serial sweep
    for parallel efficiency.  Returns (metrics, failed, attempted, notes)."""
    order = rng.sample(list(commands), len(commands))
    tfiles = {k: work / f"{k}.trace.json" for k in commands}
    timed = run_round(commands, order, work, host, {
        k: ["--out", str(tfiles[k]), "--run-id", str(i)] for i, k in enumerate(order)})
    timing = {k: load_trace(tfiles[k]) for k in order}
    work_traces = dict(timing)
    checked = [timed]
    companions = {k: argv for k, argv in commands.items() if pooled(argv)}
    if companions:
        cfiles = {k: work / f"{k}.serial.json" for k in companions}
        serial = run_round(companions, list(companions), work, host, {
            k: ["--out", str(cfiles[k]), "--run-id", str(len(order) + i), "--in-process-pool"]
            for i, k in enumerate(companions)})
        checked.append(serial)
        for k in companions:
            work_traces[k] = load_trace(cfiles[k])
    metrics = summarize([t for t in work_traces.values() if t],
                        [t for t in timing.values() if t])
    metrics["cli.output_bytes"] = sum(len(o.text.encode()) for o in timed.outcomes.values())
    metrics["trace.overhead_s"] = timed.wall_s - untraced_wall

    efficiency = 0.0
    sweeps = [k for k, argv in commands.items() if argv[0] == "conjecture"]
    if sweeps:
        serial_sweep = run_round({k: with_threads(commands[k], 1) for k in sweeps}, sweeps, work, host)
        checked.append(serial_sweep)
        pooled_walls = [sum(manifest_wall(r.outcomes[k]) for k in sweeps) for r in rounds
                        if not any(r.errors[k] for k in sweeps)]
        if pooled_walls and not any(serial_sweep.errors.values()):
            t1 = sum(manifest_wall(serial_sweep.outcomes[k]) for k in sweeps)
            efficiency = t1 / (workers * statistics.median(pooled_walls))
    metrics["oracle.parallel_efficiency"] = efficiency

    failed = sum(1 for r in checked for errs in r.errors.values() if errs)
    attempted = sum(len(r.outcomes) for r in checked)
    notes = [f"# traced round: {timed.wall_s:.6g} s against the untraced median "
             f"{untraced_wall:.6g} s; in-process companions for {sorted(companions) or 'none'}"]
    notes += [f"{k} = {metrics[k]:.6g} {u}" for k, u in PER_LAYER.items()]
    for r in checked:
        for k, errs in r.errors.items():
            notes += [f"# FAILED traced {k}: {e}" for e in errs]
    return metrics, failed, attempted, notes


def main() -> int:
    parser = argparse.ArgumentParser(description="sigperm end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "sigperm" / "cli.py").is_file():
        print(f"error: no sigperm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    found = subprocess.run([sys.executable, "-c", "import sigperm; print(sigperm.__file__)"],
                           env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                           capture_output=True, text=True, timeout=60).stdout.strip()
    if not found or Path(found).resolve().parent != (SRC / "sigperm").resolve():
        print(f"error: sigperm imports from {found!r}, not from {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    results = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(out["lines"]))
        print(json.dumps({"facts": out["facts"]}, sort_keys=True))
        results[name] = out["result"]
        if args.workload == "all":
            print(json.dumps({"workload": name, **out["result"]}, sort_keys=True))
        sys.stdout.flush()
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
