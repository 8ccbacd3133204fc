#!/usr/bin/env python3
"""File-to-report benchmark for dagsched.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `dagsched` CLI and the benchmark's own binaries into
.bench_build/, generates the workload's inputs from --seed with
`dagsched generate`, then runs the workload's CLI command as a child
process, one repetition after another, for --seconds.  Every repetition is
checked; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end-to-end metrics;
--trace 1 also makes the traced in-process run (e2ebench_traced) and
reports the per-layer metrics.  See e2ebench/README.md.
"""

import argparse
import collections
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
TARGETS = ["dagsched_cli", "e2ebench_traced", "e2ebench_wrapper_test"]

THREADS = max(1, min(4, len(os.sched_getaffinity(0))))
SETUP_REPS = 3
MIN_REPS = 3
MAX_REPS = 50
CHILD_TIMEOUT_S = 150.0

# Each input is sized by job count, not horizon.  The generator sets its
# arrival rate from a small-sample estimate of the mean job work, so at a
# fixed --load and --horizon the job count and the real offered load drift
# by +-15% between seeds, and wall time with them.  A first generate at the
# nominal --load and --horizon measures the seed's count and real load; the
# input is then generated at the --load and --horizon that give the target
# job count and the nominal real load.  Arrival times are a unit-rate
# Poisson process scaled by rate, so the count depends on rate x horizon
# only, and the second count misses the target only by the first count's
# Poisson error (about 1/sqrt(jobs)).
INPUTS = {
    "ingest": dict(scenario="thm2", load=4.0, m=16, jobs=80881,
                   nominal_horizon=40000.0),
    # 0.9, not 1.0: at a real load of 1.0 EDF sits at its critical point,
    # where the profit earned and the simulation work swing widely between
    # seeds.
    "edf64": dict(scenario="thm2", load=0.9, m=64, jobs=40698,
                  nominal_horizon=20000.0),
    "grid": dict(scenario="thm2", load=0.9, m=16, jobs=5000,
                 nominal_horizon=10000.0),
    "profit": dict(scenario="profit", load=0.9, m=16, jobs=600,
                   nominal_horizon=3000.0),
}

GRID_SCHEDULERS = ["s", "s-wc", "edf", "llf", "hdf", "fcfs", "federated",
                   "equi"]
CHURN = "mtbf=400,mttr=40,horizon={horizon},seed=7,min-procs=4,restart=resume"

WORKLOADS = {
    "ingest-s-80k": dict(kind="run", input="ingest", scheduler="s",
                         events=True),
    "sim-edf-m64": dict(kind="run", input="edf64", scheduler="edf",
                        events=False),
    "sweep-grid": dict(kind="sweep", inputs=["grid", "profit"]),
}

END_TO_END = {
    "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
    "profit_frac": "ratio", "ok_frac": "ratio",
}

PER_LAYER = {
    "workload.load_s": "s", "workload.bytes": "B", "workload.jobs": "count",
    "workload.nodes": "count", "workload.edges": "count",
    "workload.mb_per_s": "MB/s",
    "dag.build_s": "s", "dag.build_share": "ratio",
    "sim.run_s": "s", "sim.self_s": "s", "sim.decisions": "count",
    "sim.ns_per_decision": "ns", "sim.rss_delta_mb": "MB",
    "sched.decide_s": "s", "sched.decide_calls": "count",
    "sched.decide_p50_ns": "ns", "sched.decide_p99_ns": "ns",
    "sched.arrival_s": "s", "sched.arrival_calls": "count",
    "sched.event_s": "s",
    "select.s": "s", "select.calls": "count",
    "obs.events": "count", "obs.bytes": "B", "obs.write_s": "s",
    "report.metrics_s": "s",
    "fault.setup_s": "s", "fault.transitions": "count",
    "sweep.cells": "count", "sweep.serial_s": "s", "sweep.parallel_s": "s",
    "sweep.parallel_eff": "ratio", "sweep.slowest_cell_s": "s",
    "trace.covered_frac": "ratio", "trace.overhead_frac": "ratio",
}

INJECTIONS = ("exit", "cell", "summary", "digest")


class BenchError(Exception):
    """A set-up or build failure: the run cannot produce a result."""


def log(message):
    print(f"e2ebench: {message}", file=sys.stderr, flush=True)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def dagsched():
    return BUILD / "tools" / "dagsched"


def bench_binary(name):
    return BUILD / "e2ebench" / name


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def read_cache(key):
    cache = BUILD / "CMakeCache.txt"
    if not cache.exists():
        return None
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def build():
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt",
                   "tools/dagsched_cli.cpp"):
        if not (ROOT / needed).exists():
            raise BenchError(f"no dagsched sources here: {ROOT / needed} is "
                             "missing (run from the root of a checkout)")
    if read_cache("CMAKE_HOME_DIRECTORY") not in (None, str(ROOT)):
        shutil.rmtree(BUILD)  # a cache from another checkout path
    BUILD.mkdir(exist_ok=True)
    build_log = BUILD / "e2ebench-build.log"
    with open(build_log, "w") as out:
        if read_cache("CMAKE_HOME_DIRECTORY") is None:
            configure = ["cmake", "-S", str(ROOT), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                         "-DDAGSCHED_BUILD_TESTS=OFF",
                         "-DDAGSCHED_BUILD_BENCH=OFF",
                         "-DDAGSCHED_BUILD_EXAMPLES=OFF",
                         "-DCMAKE_PROJECT_dagsched_INCLUDE="
                         + str(BENCH_DIR / "hook.cmake")]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"cmake configure failed, see {build_log}")
        command = ["cmake", "--build", str(BUILD), "-j", str(THREADS),
                   "--target", *TARGETS]
        if subprocess.run(command, stdout=out,
                          stderr=subprocess.STDOUT).returncode != 0:
            raise BenchError(f"build failed, see {build_log}")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

GENERATED = re.compile(r"wrote (\d+) jobs to .* \(offered load ([0-9.eE+-]+)\)")


def generate(scenario, load, m, horizon, seed, path):
    command = [str(dagsched()), "generate", "--scenario", scenario,
               "--load", repr(load), "--m", str(m), "--horizon",
               repr(horizon), "--seed", str(seed), "--out", str(path)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    match = GENERATED.search(done.stdout)
    if done.returncode != 0 or not match:
        raise BenchError(f"generate failed: {' '.join(command)}\n"
                         f"{done.stderr}")
    return int(match.group(1)), float(match.group(2))


def make_input(name, seed, directory):
    """Generates input `name`; returns its stamp (seed, size, sha256...)."""
    spec = INPUTS[name]
    path = directory / f"{name}.wl"
    nominal_jobs, nominal_load = generate(
        spec["scenario"], spec["load"], spec["m"], spec["nominal_horizon"],
        seed, path)
    correction = nominal_load / spec["load"]
    load = spec["load"] / correction
    horizon = float(round(spec["nominal_horizon"] * correction * spec["jobs"]
                          / nominal_jobs))
    jobs, offered = generate(spec["scenario"], load, spec["m"], horizon, seed,
                             path)
    return dict(path=str(path.relative_to(ROOT)), scenario=spec["scenario"],
                seed=seed, m=spec["m"], load_arg=load, horizon=horizon,
                jobs=jobs, offered_load=offered, bytes=path.stat().st_size,
                sha256=sha256_file(path))


def write_cells(inputs, path, inject=None):
    """Writes the sweep's explicit cell list; `inject` perturbs it."""
    def cell(cell_id, data, scheduler, engine, fault="none"):
        spec = dict(id=cell_id, workload=data["path"], scheduler=scheduler,
                    engine=engine, m=data["m"])
        if fault == "churn":
            spec.update(fault="churn",
                        faults=CHURN.format(horizon=data["horizon"]))
        return spec

    grid, profit = inputs["grid"], inputs["profit"]
    cells = [cell(f"{scheduler}_{engine}_{fault}", grid, scheduler, engine,
                  fault)
             for scheduler in GRID_SCHEDULERS
             for engine in ("event", "slot")
             for fault in ("none", "churn")]
    cells += [cell(f"profit_slot_{fault}", profit, "profit", "slot", fault)
              for fault in ("none", "churn")]
    if inject == "cell":  # the §5 scheduler needs the slot engine
        cells.append(cell("profit_event_bad", profit, "profit", "event"))
    elif inject == "summary":
        cells[0]["scheduler"] = "fcfs"
    with open(path, "w") as out:
        for spec in cells:
            out.write(json.dumps(spec) + "\n")


def setup(workload, seed, directory):
    """Generates every input of `workload` once; returns their stamps."""
    spec = WORKLOADS[workload]
    names = spec["inputs"] if spec["kind"] == "sweep" else [spec["input"]]
    inputs = {name: make_input(name, seed, directory) for name in names}
    if spec["kind"] == "sweep":
        write_cells(inputs, directory / "cells.jsonl")
    return inputs


# ---------------------------------------------------------------------------
# Running and checking the CLI
# ---------------------------------------------------------------------------

def run_child(command, stdout_path):
    """Runs one child to completion: (exit code, wall s, cpu s, peak MB)."""
    with open(stdout_path, "wb") as out, \
            open(str(stdout_path) + ".err", "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(command, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    rss_mb = usage.ru_maxrss / 1024.0
    return os.waitstatus_to_exitcode(status), wall, cpu, rss_mb


def run_command(workload, inputs, directory, events_path=None,
                events_dir=None, inject=None):
    spec = WORKLOADS[workload]
    if spec["kind"] == "run":
        data = inputs[spec["input"]]
        command = [str(dagsched()), "run", data["path"], "--scheduler",
                   spec["scheduler"], "--m",
                   str(data["m"] - 1 if inject == "summary" else data["m"])]
        if events_path:
            command += ["--events", str(events_path)]
    else:
        cells = directory / "cells.jsonl"
        if inject in ("cell", "summary"):
            cells = directory / f"cells-{inject}.jsonl"
            write_cells(inputs, cells, inject)
        command = [str(dagsched()), "sweep", "--cells", str(cells),
                   "--sweep-jobs", str(THREADS), "--out",
                   str(directory / "sweep.jsonl"), "--quiet"]
        if events_dir:
            command += ["--events-dir", str(events_dir)]
    if inject == "exit":
        command.append("--no-such-flag")
    return command


RUN_FIELDS = {
    "jobs": re.compile(r"^jobs:\s+(\d+)$", re.M),
    "completed": re.compile(r"^completed:\s+(\d+)$", re.M),
    "profit": re.compile(r"^profit:\s+(\S+) / (\S+) \((\S+)%\)$", re.M),
    "decisions": re.compile(r"^decisions:\s+(\d+)$", re.M),
}


def parse_run_summary(text):
    """The CLI's summary lines as a comparable tuple, or None."""
    found = {key: pattern.search(text) for key, pattern in RUN_FIELDS.items()}
    if not all(found.values()):
        return None
    profit = found["profit"]
    return (int(found["jobs"].group(1)), int(found["completed"].group(1)),
            profit.group(1), profit.group(2), profit.group(3),
            int(found["decisions"].group(1)))


def run_summary_valid(summary, expected_jobs):
    jobs, completed, profit, peak, percent, _ = summary
    profit, peak, percent = float(profit), float(peak), float(percent)
    return (jobs == expected_jobs and 0 <= completed <= jobs
            and 0.0 <= profit <= peak
            and abs(100.0 * profit / peak - percent) <= 1e-4 * percent + 1e-9)


CELL_FIELDS = ("jobs", "completed", "decisions", "profit", "fraction")


def parse_sweep_report(path):
    """(cells, failed_cells): cells maps id -> metrics of a sweep report."""
    cells, failed = {}, None
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            if record["kind"] == "cell":
                # A cell with a configuration error has no metrics.
                metrics = record.get("metrics", dict.fromkeys(CELL_FIELDS, 0))
                cells[record["id"]] = dict(
                    ok=record["ok"], workload=record["workload"],
                    **{key: metrics[key] for key in CELL_FIELDS})
            elif record["kind"] == "summary":
                failed = record["failed_cells"]
    return cells, failed


def sweep_summary(cells):
    return tuple(sorted((cid, c["jobs"], c["completed"], c["decisions"],
                         c["profit"]) for cid, c in cells.items()))


def check_sweep(cells, failed_cells, inputs):
    """'' if the report is sound, else the failure reason."""
    if failed_cells != 0 or not all(c["ok"] for c in cells.values()):
        return "cell"
    for cell in cells.values():
        jobs = inputs[cell["workload"]]["jobs"]
        if (cell["jobs"] != jobs or not 0 <= cell["completed"] <= jobs
                or cell["profit"] < 0.0):
            return "invalid"
    return ""


def measure_repetition(workload, inputs, directory, index, inject=None):
    """One timed CLI repetition, checked on its own."""
    spec = WORKLOADS[workload]
    events = directory / "events.jsonl" if spec.get("events") else None
    rep_inject = inject if index == 1 else None
    command = run_command(workload, inputs, directory, events_path=events,
                          inject=rep_inject)
    stdout_path = directory / "stdout.txt"
    code, wall, cpu, rss = run_child(command, stdout_path)
    rep = dict(index=index, exit=code, wall_s=wall, cpu_s=cpu,
               peak_rss_mb=rss, summary=None, digest=None, reason="",
               injected=rep_inject)
    if spec["kind"] == "run":
        text = stdout_path.read_text()
        summary = parse_run_summary(text)
        if summary is not None:
            rep["summary"] = summary
            rep["profit_frac"] = float(summary[4]) / 100.0
            if not run_summary_valid(summary, inputs[spec["input"]]["jobs"]):
                rep["reason"] = "invalid"
        if events is not None and events.exists():
            if rep_inject == "digest":
                corrupt(events)
            rep["digest"] = sha256_file(events)
    else:
        report = directory / "sweep.jsonl"
        if report.exists():
            cells, failed_cells = parse_sweep_report(report)
            rep["summary"] = sweep_summary(cells)
            rep["reason"] = check_sweep(cells, failed_cells, inputs)
            jobs = sum(c["jobs"] for c in cells.values())
            rep["profit_frac"] = sum(c["fraction"] * c["jobs"]
                                     for c in cells.values()) / jobs
            report.unlink()
    if code != 0 and rep["reason"] != "cell":
        rep["reason"] = "exit"
    elif rep["summary"] is None and not rep["reason"]:
        rep["reason"] = "summary"
    return rep


def classify(reps, reference=None):
    """Marks repetitions that disagree with the reference.

    The reference is the traced run's (summary, digest) when there is one,
    else the most common (summary, digest) among repetitions that have not
    already failed.  Every repetition keeps its timing either way.
    """
    if reference is None:
        votes = collections.Counter(
            (rep["summary"], rep["digest"]) for rep in reps
            if not rep["reason"])
        reference = votes.most_common(1)[0][0] if votes else (None, None)
    summary, digest = reference
    for rep in reps:
        if rep["reason"]:
            continue
        if rep["summary"] != summary:
            rep["reason"] = "summary"
        elif rep["digest"] != digest:
            rep["reason"] = "digest"
    return reps


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def run_traced(workload, inputs, directory, events_path=None,
               events_dir=None):
    spec = WORKLOADS[workload]
    if spec["kind"] == "run":
        data = inputs[spec["input"]]
        command = [str(bench_binary("e2ebench_traced")), "run", data["path"],
                   "--scheduler", spec["scheduler"], "--m", str(data["m"])]
        if events_path:
            command += ["--events", str(events_path)]
    else:
        command = [str(bench_binary("e2ebench_traced")), "sweep",
                   str(directory / "cells.jsonl"), "--threads", str(THREADS)]
        if events_dir:
            command += ["--events-dir", str(events_dir)]
    stdout_path = directory / "traced.json"
    code, _, _, _ = run_child(command, stdout_path)
    if code != 0:
        return None
    return json.loads(stdout_path.read_text().splitlines()[-1])


def traced_reference(workload, traced):
    """The traced run's result in the form the CLI repetitions are compared
    in, or None if the traced run itself is inconsistent."""
    if WORKLOADS[workload]["kind"] == "run":
        s = traced["summary"]
        if not s["outcomes_consistent"] or s["failure"] != "none":
            return None
        return (s["jobs"], s["completed"], s["profit_text"], s["peak_text"],
                s["percent_text"], s["decisions"])
    if traced["parity_mismatches"]:
        return None
    return sweep_summary({c["id"]: c for c in traced["cells"]})


def corrupt(path):
    """Self-test injection: changes a decision log after the fact."""
    with open(path, "ab") as handle:
        handle.write(b"\n")


def digests_in(directory):
    return {path.name: sha256_file(path)
            for path in sorted(Path(directory).glob("*.jsonl"))}


def event_parity(workload, inputs, directory, inject=None):
    """Checks that the traced wrappers reproduce the CLI's decision log.

    The timed command of a workload with "events" already writes its log,
    so its traced run writes one too and the digests are compared like
    summaries.  The other workloads get one extra, untimed pair of runs
    here: the CLI and the traced binary, both writing their logs.  Returns
    True if the pair agrees.
    """
    spec = WORKLOADS[workload]
    if spec["kind"] == "run":
        cli_events = directory / "parity-cli.jsonl"
        traced_events = directory / "parity-traced.jsonl"
        command = run_command(workload, inputs, directory,
                              events_path=cli_events)
        code, _, _, _ = run_child(command, directory / "parity.txt")
        traced = run_traced(workload, inputs, directory,
                            events_path=traced_events)
        if code != 0 or traced is None:
            return False
        if inject == "digest":
            corrupt(cli_events)
        summary = parse_run_summary((directory / "parity.txt").read_text())
        return (summary == traced_reference(workload, traced)
                and sha256_file(cli_events) == sha256_file(traced_events))
    cli_dir = directory / "parity-cli"
    traced_dir = directory / "parity-traced"
    for stale in (cli_dir, traced_dir):
        shutil.rmtree(stale, ignore_errors=True)
    command = run_command(workload, inputs, directory, events_dir=cli_dir)
    code, _, _, _ = run_child(command, directory / "parity.txt")
    traced = run_traced(workload, inputs, directory, events_dir=traced_dir)
    if code != 0 or traced is None:
        return False
    if inject == "digest":
        corrupt(next(cli_dir.glob("*.jsonl")))
    cli_digests = digests_in(cli_dir)
    return (len(cli_digests) == len(traced["cells"])
            and cli_digests == digests_in(traced_dir))


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------

def source_digest():
    digest = hashlib.sha256()
    paths = [ROOT / "CMakeLists.txt"]
    for tree in ("src", "tools", BENCH_DIR.name):
        paths += sorted(p for p in (ROOT / tree).rglob("*") if p.is_file())
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def commit():
    """HEAD of the checkout when it is itself a git work tree, else None."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def environment(inputs):
    info = subprocess.run([str(bench_binary("e2ebench_traced")), "info"],
                          capture_output=True, text=True, timeout=30)
    build_type = read_cache("CMAKE_BUILD_TYPE")
    flags = read_cache("CMAKE_CXX_FLAGS_" + (build_type or "").upper())
    return dict(
        nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
        threads=THREADS, compiler=read_cache("CMAKE_CXX_COMPILER"),
        binary=json.loads(info.stdout) if info.returncode == 0 else None,
        build_type=build_type, cxx_flags=flags,
        generator=read_cache("CMAKE_GENERATOR"), commit=commit(),
        source_sha256=source_digest(), python=sys.version.split()[0],
        inputs=inputs)


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def bench(args):
    build()
    directory = OUT / args.workload
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)

    setup_times, stamps = [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        inputs = setup(args.workload, args.seed, directory)
        setup_times.append(time.perf_counter() - start)
        stamps.append({name: data["sha256"] for name, data in inputs.items()})
    setup_deterministic = all(stamp == stamps[0] for stamp in stamps)

    reps = []
    start = time.perf_counter()
    while len(reps) < MAX_REPS:
        reps.append(measure_repetition(args.workload, inputs, directory,
                                       len(reps), args.inject))
        # Stop before a repetition that would end past --seconds.
        elapsed = time.perf_counter() - start
        if (len(reps) >= MIN_REPS
                and elapsed + reps[-1]["wall_s"] > args.seconds):
            break
    wall = median([rep["wall_s"] for rep in reps])

    attempted, failed, layers, reference = len(reps), 0, {}, None
    if args.trace:
        traced_events = (directory / "traced-events.jsonl"
                         if WORKLOADS[args.workload].get("events") else None)
        traced = run_traced(args.workload, inputs, directory,
                            events_path=traced_events)
        attempted += 1
        summary = traced_reference(args.workload, traced) if traced else None
        if summary is None:
            failed += 1
        else:
            digest = sha256_file(traced_events) if traced_events else None
            reference = (summary, digest)
            layers = traced["layers"]
            layers["trace.overhead_frac"] = (
                traced["traced_total_s"] - wall) / wall
        if not WORKLOADS[args.workload].get("events"):
            attempted += 1
            failed += not event_parity(args.workload, inputs, directory,
                                       args.inject)
        parity_test = subprocess.run(
            [str(bench_binary("e2ebench_wrapper_test"))],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        attempted += 1
        failed += parity_test.returncode != 0
    classify(reps, reference)
    failed += sum(1 for rep in reps if rep["reason"])

    ok_reps = [rep for rep in reps if not rep["reason"]]
    profit_frac = median([rep["profit_frac"] for rep in ok_reps
                          if "profit_frac" in rep])
    correct = failed == 0 and setup_deterministic
    if args.trace:
        metrics = {name: dict(value=layers.get(name, 0), unit=unit)
                   for name, unit in PER_LAYER.items()}
    else:
        values = dict(
            wall_s=wall, cpu_s=median([rep["cpu_s"] for rep in reps]),
            peak_rss_mb=median([rep["peak_rss_mb"] for rep in reps]),
            setup_s=median(setup_times), profit_frac=profit_frac,
            ok_frac=(attempted - failed) / attempted)
        metrics = {name: dict(value=values[name], unit=unit)
                   for name, unit in END_TO_END.items()}

    detail = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, inject=args.inject,
        environment=environment(inputs), setup_s=setup_times,
        setup_deterministic=setup_deterministic,
        fail_frac=failed / attempted,
        repetitions=[{k: v for k, v in rep.items() if k != "summary"}
                     for rep in reps],
        metrics=metrics)
    (directory / "result.json").write_text(json.dumps(detail, indent=1))
    print(f"env: {json.dumps(detail['environment'])}")
    print(f"{args.workload}: {len(reps)} repetitions, "
          f"{failed}/{attempted} failed "
          f"(fail_frac {failed / attempted:.4f}), detail in "
          f"{(directory / 'result.json').relative_to(ROOT)}")
    for name, metric in metrics.items():
        print(f"  {name:24s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(dict(correct=correct, attempted=attempted,
                          failed=failed, metrics=metrics)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--inject", choices=INJECTIONS,
                        help="self-test: make repetition 1 fail this way")
    args = parser.parse_args()
    kind = WORKLOADS[args.workload]["kind"]
    if args.inject == "cell" and kind != "sweep":
        parser.error("--inject cell needs the sweep-grid workload")
    if args.inject == "digest" and not (
            WORKLOADS[args.workload].get("events") or args.trace):
        parser.error("--inject digest needs an event log: ingest-s-80k, "
                     "or --trace 1")
    try:
        bench(args)
    except (BenchError, subprocess.SubprocessError, OSError) as error:
        log(str(error))
        sys.exit(2)


if __name__ == "__main__":
    main()
