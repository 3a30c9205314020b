"""Loupe's end-to-end campaign benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run it from the repository root; it measures the program under
``src/``. Workloads (see README.md for why each exists):

* ``corpus``  — the paper's pipeline: analyze all 116 corpus apps with
  ``parallel=2``, then plan unikraft support for the corpus;
* ``store``   — the corpus serially through a fresh SQLite run cache: a
  cold pass writes every run, a warm pass in a new interpreter reads
  them all back;
* ``service`` — two closed-loop clients against ``loupe serve
  --workers 2``, submitting the 15 cloud apps;
* ``ptrace``  — a real ptrace campaign over a few coreutils commands.

Each iteration runs in fresh interpreters with a fresh scratch
directory under ``.perfbench/``. Iterations repeat until ``--seconds``
is used up. Each pass times its requests (and its session set-up and
plan) as segments, scaled to a reference CPU speed by a calibration
loop (see iteration.py). ``campaign_s`` and ``cpu_s`` sum the
lowest time each segment took in any iteration, so a burst of host
slowness costs a run nothing as long as every segment also ran once
outside it; ``setup_s`` is the median over passes, latencies are
percentiles over every request. Every report is checked against a
serial in-process reference, built once per source tree and kept in
``.perfbench/``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics of the
median traced one. The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 after a run (whatever it found), 1 when the reference
cannot be built, 2 when there is no program to measure, 77 when the
``ptrace`` workload is skipped because ptrace(2) is not permitted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SOURCE = ROOT / "src"
STATE = ROOT / ".perfbench"

#: A run must end within 180 s; no pass is started past this budget.
RUN_BUDGET_S = 165.0
REFERENCE_TIMEOUT_S = 600.0

#: Units of the end-to-end metrics the JSON line carries.
END_TO_END = {
    "setup_s": "s",
    "campaign_s": "s",
    "analysis_p50_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(workloads.PASSES)
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_child(argv: list, scratch: Path, log: Path, timeout: float) -> int:
    """Run one child interpreter in its own process group (stdout to
    /dev/null: traced commands write there) and stop the whole group
    if it outlives *timeout* or this harness is interrupted. Its
    temporary files go to *scratch*, inside the checkout."""
    env = dict(os.environ, PYTHONPATH=str(SOURCE), TMPDIR=str(scratch))
    with open(log, "wb") as stderr:
        env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
        child = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=stderr,
            start_new_session=True,
        )
        try:
            return child.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return -1
        finally:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()


def _tail(path: Path, lines: int = 15) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


# -- the reference ---------------------------------------------------------------


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    for name in ("reference.py", "workloads.py"):
        digest.update((HERE / name).read_bytes())
    return digest.hexdigest()[:16]


def load_reference() -> "dict | None":
    """The serial in-process reference for this source tree, built on
    first use and kept under ``.perfbench/``."""
    path = STATE / f"reference-{_source_hash()}.json"
    if not path.exists():
        scratch = STATE / f"tmp-reference-{os.getpid()}"
        scratch.mkdir(parents=True)
        try:
            code = _run_child(
                [str(HERE / "reference.py"), str(path), str(scratch)],
                scratch, STATE / "reference.log", REFERENCE_TIMEOUT_S,
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if code != 0 or not path.exists():
            print("perfbench: building the reference failed:\n"
                  + _tail(STATE / "reference.log"), file=sys.stderr)
            return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# -- iterations -------------------------------------------------------------------


def run_iteration(
    workload: str, inputs: dict, reference: dict, traced: bool,
    index: int, deadline: float,
) -> "list[dict] | str":
    """Every pass of one iteration; a list of pass results, or the
    reason the iteration failed."""
    scratch = STATE / f"tmp-{os.getpid()}-{index}"
    scratch.mkdir(parents=True)
    try:
        results = []
        for name in workloads.PASSES[workload]:
            spec = {
                "workload": workload, "pass": name, "trace": traced,
                "inputs": inputs, "scratch": str(scratch),
                "digests": {
                    app: entry["digest"]
                    for app, entry in reference["apps"].items()
                },
                "plan": reference["plan"],
                "out": str(scratch / f"{name}.json"),
            }
            spec_path = scratch / f"{name}-spec.json"
            spec_path.write_text(json.dumps(spec))
            log = scratch / f"{name}.log"
            code = _run_child(
                [str(HERE / "iteration.py"), str(spec_path)], scratch, log,
                deadline - time.monotonic(),
            )
            if code != 0 or not Path(spec["out"]).exists():
                reason = "timed out" if code == -1 else f"exit code {code}"
                return f"{workload}/{name} pass {reason}:\n{_tail(log)}"
            with open(spec["out"], encoding="utf-8") as handle:
                results.append(json.load(handle))
            if traced:
                STATE.joinpath("traces").mkdir(exist_ok=True)
                shutil.copyfile(
                    scratch / "spans.jsonl",
                    STATE / "traces" / f"{workload}-{name}.jsonl",
                )
        return results
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_latency(values: list) -> "tuple[float, float] | None":
    """The highest ladder percentile with at least ten samples beyond
    it, as ``(percentile, value)``; None when there are too few."""
    for q in TAIL_LADDER:
        if len(values) * (1.0 - q / 100.0) >= 10.0:
            return q, percentile(values, q)
    return None


def fastest(results: list, key: str) -> float:
    """Sum, over the segments of one pass, of the lowest *key* each
    segment took in any iteration of the run."""
    best: dict = {}
    for result in results:
        for segment in result["segments"]:
            label = segment["label"]
            best[label] = min(best.get(label, math.inf), segment[key])
    return sum(best.values())


def end_to_end(workload: str, iterations: list) -> dict:
    """Every end-to-end metric of the issue, as ``name -> (value,
    unit, note)``; the JSON line carries the ones in END_TO_END."""
    # The store's first (cold) pass is its campaign and its warm pass
    # the rerun. Its request latencies pool both passes, so a slower
    # write path and a slower read path both move the median.
    latencies = [
        value for passes in iterations for p in passes
        for value in p["latencies_ms"]
    ]
    by_pass = list(zip(*iterations))
    metrics = {
        "setup_s": (statistics.median(
            p["setup_s"] for passes in iterations for p in passes
        ), "s", ""),
        "campaign_s": (fastest(by_pass[0], "wall_s"), "s", ""),
    }
    if workload == "store":
        metrics["rerun_s"] = (fastest(by_pass[1], "wall_s"), "s", "")
    metrics["analysis_p50_ms"] = (
        statistics.median(latencies) if latencies else math.nan, "ms",
        f"n={len(latencies)}",
    )
    tail = tail_latency(latencies)
    if tail is not None:
        metrics["analysis_tail_ms"] = (
            tail[1], "ms", f"p{tail[0]:g} of n={len(latencies)}"
        )
    metrics["cpu_s"] = (
        sum(fastest(results, "cpu_s") for results in by_pass), "s", ""
    )
    metrics["peak_rss_mb"] = (statistics.median(
        max(p["peak_rss_mb"] for p in passes) for passes in iterations
    ), "MiB", "")
    return metrics


def per_layer(traced: list, untraced: list, serial_runs: dict) -> dict:
    """Per-layer metrics of the traced iteration with the median traced
    wall time, plus the tracing overhead over the untraced ones."""
    summaries = sorted(
        (tracing.merge([p["trace"] for p in passes]) for passes in traced),
        key=lambda summary: summary["wall_s"],
    )
    metrics = tracing.derive(
        summaries[(len(summaries) - 1) // 2], serial_runs
    )

    def campaign(passes):
        return sum(p["phase_s"] for p in passes)

    metrics["tracing.overhead_s"] = {
        "value": statistics.median(map(campaign, traced))
        - statistics.median(map(campaign, untraced)),
        "unit": "s",
    }
    return metrics


def _terminate(signum: int, frame: object) -> None:
    # Unwind through the finally clauses that stop the children and
    # remove the scratch directories.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    signal.signal(signal.SIGTERM, _terminate)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SOURCE / 'repro'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    reference = load_reference()
    if reference is None:
        return 1
    if args.workload == "ptrace" and not reference["ptrace_works"]:
        print("perfbench: ptrace workload skipped: this environment does "
              "not permit ptrace(2)")
        return 77
    inputs = workloads.generate(args.workload, args.seed, reference)
    expected = workloads.attempts(args.workload, inputs)
    serial_runs = {
        app: entry["runs_executed"]
        for app, entry in reference["apps"].items()
    }
    serial_runs.update(reference["ptrace"])

    # The measured window starts now: reference building is one-off.
    began = time.monotonic()
    deadline = began + args.seconds
    budget = started + RUN_BUDGET_S
    runs = {False: [], True: []}
    attempted = failed = 0
    problems: list[str] = []
    durations: list[float] = []
    index = 0
    while True:
        traced = bool(args.trace) and index % 2 == 1
        iteration_start = time.monotonic()
        outcome = run_iteration(
            args.workload, inputs, reference, traced, index, budget
        )
        durations.append(time.monotonic() - iteration_start)
        index += 1
        if isinstance(outcome, str):
            attempted += expected
            failed += expected
            problems.append(outcome)
            break
        runs[traced].append(outcome)
        for result in outcome:
            attempted += result["attempted"]
            failed += len(result["failures"])
            problems.extend(result["failures"])
        # Start another iteration while at least half of one still fits,
        # so a run measures --seconds on average.
        estimate = statistics.median(durations)
        enough = bool(runs[False]) and (not args.trace or bool(runs[True]))
        now = time.monotonic()
        if now + estimate > budget or (
            enough and now + estimate / 2 > deadline
        ):
            break

    for problem in problems[:10]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    correct = failed == 0 and bool(runs[False])
    metrics: dict = {}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"iterations {len(runs[False])} untraced, {len(runs[True])} traced  "
          f"measured {time.monotonic() - began:.1f} s")
    if runs[False]:
        print("  first pass per iteration, scaled s: " + " ".join(
            f"{fastest(passes[:1], 'wall_s'):.3f}" for passes in runs[False]
        ))
        issue_metrics = end_to_end(args.workload, runs[False])
        issue_metrics["error_rate"] = (
            failed / attempted, "ratio", f"{failed} of {attempted}"
        )
        for name, (value, unit, note) in issue_metrics.items():
            print(f"  {name:<18} {value:14.4f} {unit:<6} {note}")
        if not args.trace:
            metrics = {
                name: {"value": issue_metrics[name][0], "unit": unit}
                for name, unit in END_TO_END.items()
            }
    if args.trace and runs[True]:
        metrics = per_layer(runs[True], runs[False], serial_runs)
        gap = tracing.additive_gap(metrics)
        if gap > 1e-6 * max(1.0, metrics["traced.wall_s"]["value"]):
            correct = False
            print(f"perfbench: layer self times miss the traced wall time "
                  f"by {gap:.6f} s", file=sys.stderr)
        for name, entry in metrics.items():
            print(f"  {name:<32} {entry['value']:14.4f} {entry['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
