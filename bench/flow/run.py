#!/usr/bin/env python3
"""Builds bench_flow from source and runs one workload of the flow benchmark.

    python3 bench/flow/run.py --workload <name> [--seed <n>] [--seconds <s>]
                              [--trace 0|1] [--out <results.json>]
    python3 bench/flow/run.py                      # every workload in turn
    python3 bench/flow/run.py --update-reference   # rewrite reference.json

Workloads: table1 and signoff, the two BENCHMARK.json lists, and
random_flow and defect_yield, which run only on request (see README.md).

The program is configured and built under $CARGO_TARGET_DIR/flow (default
.bench_build/flow) with CMake in Release mode; the first run builds, later
runs only check that the build is current. The program builds the
workload's inputs and makes one warm-up pass (its set-up), runs the workload
for --seconds and checks every output; this script compares the outputs with
reference.json. setup_s is the median set-up time of that run and of two
fresh processes that only set up, one just before it and one just after.

Prints `workload metric value unit` for every metric, then, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones (from untraced passes);
with --trace 1 they are the per-layer ones, and a Chrome trace-event file
is written next to the build. Exits 0 when every output is correct, 1 when
some output is wrong, 2 when the benchmark cannot run.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"  # names and units of the reported metrics
WORKLOADS = ["table1", "signoff", "random_flow", "defect_yield"]
DEFAULT_SEED = 0xBE57A611
SETUPS_AROUND = 1  # set-up-only processes before and after the measured run


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "flow"


def build():
    """Configures (once) and builds bench_flow; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a full source checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring bench_flow failed")
    jobs = str(min(4, os.cpu_count() or 1))
    command = ["cmake", "--build", str(out), "--target", "bench_flow", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("building bench_flow failed")
    return out / "bench_flow"


def setup_seconds(binary, workload):
    """Set-up time of a fresh process that only sets the workload up."""
    done = subprocess.run([str(binary), f"--workload={workload}", f"--root={ROOT}", "--setup-only"],
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        fail(f"set-up of {workload} failed")
    return float(done.stdout)


def reference_mismatches(results, reference):
    """Items whose pinned outputs differ from reference.json, as messages."""
    expected = reference.get(results["workload"])
    if expected is None:
        return [f"{results['workload']}: no reference (run with --update-reference)"]
    produced = {item["id"]: item["pinned"] for item in results["outputs"]}
    messages = []
    for item_id in sorted(set(expected) | set(produced)):
        if expected.get(item_id) != produced.get(item_id):
            messages.append(f"{item_id}: expected {expected.get(item_id)}, got {produced.get(item_id)}")
    return messages


def run_workload(binary, workload, seed, seconds, trace, reference):
    """Runs one workload; returns the full results with the check verdicts.
    A reference of None skips the comparison with reference.json."""
    # set-up is timed before, in and after the measured run, so that one burst
    # of load from other tenants of the machine does not move every sample
    setup = [] if trace else [setup_seconds(binary, workload) for _ in range(SETUPS_AROUND)]
    results_path = build_dir() / f"results-{workload}.json"
    trace_path = build_dir() / f"trace-{workload}.json"
    results_path.unlink(missing_ok=True)
    command = [str(binary), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
               f"--root={ROOT}", f"--out={results_path}"]
    if trace:
        command.append(f"--trace={trace_path}")
    code = subprocess.run(command).returncode
    if code not in (0, 1) or not results_path.is_file():
        fail(f"bench_flow exited with code {code} on {workload}")
    results = json.loads(results_path.read_text())
    mismatches = [] if reference is None else reference_mismatches(results, reference)
    for message in mismatches:
        print(f"run.py: {workload}: reference mismatch: {message}", file=sys.stderr)
    results["reference_mismatches"] = mismatches
    results["correct"] = code == 0 and results["ok"] and not mismatches
    if trace:
        values = results["per_layer"]
        results["reported"] = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                               for m in json.loads(SPEC.read_text())["per_layer"]}
        print(f"run.py: trace written to {trace_path}", file=sys.stderr)
    else:
        setup.append(results["setup_s"])
        setup += [setup_seconds(binary, workload) for _ in range(SETUPS_AROUND)]
        results["setup_runs_s"] = setup
        results["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                              **results["metrics"]}
        results["reported"] = results["metrics"]
    return results


def summary_line(results):
    return json.dumps({"correct": results["correct"],
                       "attempted": results["attempted"],
                       "failed": results["failed"],
                       "metrics": results["reported"]})


def print_metrics(results):
    for name, metric in results["reported"].items():
        print(f"{results['workload']} {name} {metric['value']:.6g} {metric['unit']}")


def update_reference(binary):
    """Rewrites reference.json with one line per item."""
    lines = ["{", f' "corpus_seed": "{hex(DEFAULT_SEED)}",']
    for w, workload in enumerate(WORKLOADS):
        results = run_workload(binary, workload, DEFAULT_SEED, 1, False, None)
        if not results["correct"]:
            fail(f"{workload} failed its own checks; reference not written")
        items = sorted((item["id"], item["pinned"]) for item in results["outputs"])
        lines.append(f" {json.dumps(workload)}: {{")
        for i, (item_id, pinned) in enumerate(items):
            comma = "," if i + 1 < len(items) else ""
            lines.append(f"  {json.dumps(item_id)}: {json.dumps(pinned, sort_keys=True)}{comma}")
        lines.append(" }," if w + 1 < len(WORKLOADS) else " }")
    lines.append("}")
    REFERENCE.write_text("\n".join(lines) + "\n")
    print(f"run.py: wrote {REFERENCE}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, help="write the full results JSON here")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite reference.json from the default seed")
    args = parser.parse_args()
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    binary = build()
    if args.update_reference:
        update_reference(binary)
        return 0
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    status = 0
    # each workload runs in its own bench_flow process, so peak RSS is per workload
    for workload in [args.workload] if args.workload else WORKLOADS:
        results = run_workload(binary, workload, args.seed, args.seconds, args.trace == 1,
                               reference)
        if args.out is not None:
            out = args.out if args.workload else args.out.with_name(f"{args.out.stem}-{workload}.json")
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(results, indent=1) + "\n")
        print_metrics(results)
        print(summary_line(results))
        status = max(status, 0 if results["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
