"""Benchmark for the gacfas CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each round starts a fresh single-threaded
Python process (perfbench/child.py) that runs the workload's CLI calls
in-process through gacfas.cli.main on configs generated from --seed. Rounds
repeat until S seconds have passed, and every round's outputs are checked
apart from the program (perfbench/checks.py).

--trace 0 reports, as medians over the rounds:
  setup_s       process start to the first optimizer step
  steps_per_s   optimizer steps / wall seconds from the first step to the end
  peak_rss_mib  peak resident memory of the round's process
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of perfbench/tracer.py (medians over the traced rounds) and
trace.overhead_pct, the median slowdown in steps_per_s of each traced round
against the untraced round before it.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. An operation is one training run (one
leave-one-out cell); it fails when its CLI call exits non-zero or its output
check fails, and a failed output check also makes correct false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# The package is single-threaded; a second BLAS thread only adds contention
# on a small machine. Set before numpy is imported here or in any child.
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".perfbench_runs"
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
CHILD_TIMEOUT_S = 120


def _spawn(root: str, out: str, argvs, trace: bool) -> tuple[float, dict | None]:
    """Run one round's process; return its spawn time and its result."""
    spec_path = os.path.join(out, "round.json")
    result_path = os.path.join(out, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"root": root, "trace": trace, "calls": argvs, "result": result_path}, fh)
    with open(os.path.join(out, "child.log"), "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, spec_path], stdout=log, stderr=subprocess.STDOUT, cwd=root)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not os.path.exists(result_path):
        return spawned, None
    with open(result_path, encoding="utf-8") as fh:
        return spawned, json.load(fh)


def check_call(checker, workload: str, call) -> list[str]:
    """Check one CLI call's outputs; return one error per failed operation."""
    cfg = call.config
    errors = []
    cell_rows = {}
    for cell_dir, held, seed in call.cells:
        try:
            cell_rows[(held, seed)] = checker.check_cell(cfg, cell_dir, held)
        except checks.CheckError as exc:
            errors.append(str(exc))
    if errors:
        return errors
    try:
        if workload == "loo_baselines":
            checker.check_loo(cfg, cell_rows)
        elif workload == "convergence_fullset":
            run_dir, held, _ = call.cells[0]
            checker.check_convergence(
                cfg, run_dir, held, workloads.CONVERGENCE_WINDOW, workloads.CONVERGENCE_TRACE_EVERY
            )
    except checks.CheckError as exc:
        return [str(exc)] * len(call.cells)
    return []


def run_round(root: str, checker, workload: str, seed: int, trace: bool) -> dict:
    out = os.path.join(root, OUT_DIR, workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    calls = workloads.calls_for(workload, seed, out)
    argvs = [workloads.write_config(call, os.path.join(out, f"config{i}.json")) for i, call in enumerate(calls)]
    spawned, result = _spawn(root, out, argvs, trace)

    round_ = {"attempted": sum(len(c.cells) for c in calls), "failed": 0, "wrong": 0, "timing": None, "traced": trace}
    exit_codes = result["exit_codes"] if result else [None] * len(calls)
    for call, code in zip(calls, exit_codes):
        if code != 0:
            round_["failed"] += len(call.cells)
            print(f"{workload}: `gacfas {call.argv[0]}` exited {code}; see {out}/child.log", file=sys.stderr)
            continue
        errors = check_call(checker, workload, call)
        for err in errors:
            print(f"{workload}: check failed: {err}", file=sys.stderr)
        round_["failed"] += len(errors)
        round_["wrong"] += len(errors)
    if result and all(code == 0 for code in exit_codes) and result["first_step"] is not None:
        round_["timing"] = {
            "setup_s": result["first_step"] - spawned,
            "steps_per_s": sum(c.steps for c in calls) / (result["end"] - result["first_step"]),
            "peak_rss_mib": result["peak_rss_mib"],
        }
        round_["layers"] = result["layers"]
    return round_


def _median(rounds, key, field):
    return statistics.median(r[field][key] for r in rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gacfas", "cli.py")):
        print(f"error: {root} holds no gacfas source (src/gacfas); run from the repository root", file=sys.stderr)
        return 2

    checker = checks.Checker()
    rounds = []
    start = time.monotonic()
    while True:
        round_ = run_round(root, checker, args.workload, args.seed, bool(args.trace) and len(rounds) % 2 == 1)
        rounds.append(round_)
        timing = round_["timing"]
        print(
            f"{args.workload} seed {args.seed} round {len(rounds)}{' (traced)' if round_['traced'] else ''}: "
            + (", ".join(f"{k} {v:.4g}" for k, v in timing.items()) if timing else "no timing")
            + f", {round_['failed']} of {round_['attempted']} operations failed",
            file=sys.stderr,
        )
        if time.monotonic() - start >= args.seconds and (not args.trace or len(rounds) % 2 == 0):
            break

    untraced = [r for r in rounds if r["timing"] and not r["traced"]]
    traced = [r for r in rounds if r["timing"] and r["traced"]]
    # Each traced round follows an untraced one. Comparing neighbours, not
    # medians over the whole run, keeps the machine's slow drift out of the
    # tracing overhead.
    slowdowns = [
        plain["timing"]["steps_per_s"] / traced_round["timing"]["steps_per_s"] - 1.0
        for plain, traced_round in zip(rounds[0::2], rounds[1::2])
        if traced_round["traced"] and plain["timing"] and traced_round["timing"]
    ]
    if not untraced or (args.trace and not slowdowns):
        print(f"error: no round of {args.workload} completed; see {OUT_DIR}/", file=sys.stderr)
        return 1
    if args.trace:
        metrics = {
            name: {"value": _median(traced, name, "layers"), "unit": unit} for name, unit, _ in tracer.PER_LAYER
        }
        metrics["trace.overhead_pct"] = {"value": 100.0 * statistics.median(slowdowns), "unit": "%"}
    else:
        units = {"setup_s": "s", "steps_per_s": "steps/s", "peak_rss_mib": "MiB"}
        metrics = {name: {"value": _median(untraced, name, "timing"), "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not any(r["wrong"] for r in rounds),
                "attempted": sum(r["attempted"] for r in rounds),
                "failed": sum(r["failed"] for r in rounds),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
