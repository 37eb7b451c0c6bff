"""Run the aqvq benchmark: each workload in a fresh process with pinned BLAS threads.

    python3 perfbench/run.py --workload dense-w64 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                      # every workload, one table

Run it from anywhere inside a source checkout; the package is imported
from the checkout's ``src`` directory. For one workload the last line of
standard output is the result JSON of ``workload.py``. With ``--out`` the
full records (host, sample counts, metrics) are written to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("dense-w64", "dense-w65536", "conv-w64")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
# time a workload process may take beyond --seconds: imports, the
# reference run, first calls, unit minimums and, with --trace 1, the
# untraced/traced reference pairs
CHILD_SLACK_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """This process's environment with ``src`` importable and BLAS pinned
    to one thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    return env


def run_workload(workload: str, seed: int, seconds: int, trace: int):
    """Run one workload in its own process; returns (exit code, stdout, stderr)."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    timeout = seconds + CHILD_SLACK_S
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        return 124, err.stdout or "", f"{workload}: no result within {timeout} s\n"
    return proc.returncode, proc.stdout, proc.stderr


def parse_record(stdout: str) -> dict:
    """The record line and the result line that a workload prints last."""
    lines = stdout.strip().splitlines()
    record = next(json.loads(line[len("record "):]) for line in reversed(lines)
                  if line.startswith("record "))
    record["result"] = json.loads(lines[-1])
    return record


def print_table(records) -> None:
    for record in records:
        result = record["result"]
        share = result["failed"] / result["attempted"]
        print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
              f"samples {json.dumps(record['samples'])}")
        for name, entry in result["metrics"].items():
            print(f"   {name:<46} {entry['value']:>16.6g} {entry['unit']}")
        print(f"   {'failed_ops_share':<46} {share:>16.6g} "
              f"({result['failed']} of {result['attempted']})")
        for failure in record["failures"]:
            print(f"   FAILED: {failure}")
    print("host " + json.dumps(records[0]["host"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full records to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "aqvq" / "__init__.py").is_file():
        print(f"error: no aqvq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        code, out, err = run_workload(workload, args.seed, args.seconds, args.trace)
        if code != 0:
            sys.stderr.write(out + err)
            print(f"error: workload {workload} exited with code {code}", file=sys.stderr)
            return code
        records.append(parse_record(out))
        if args.workload != "all":
            sys.stdout.write(out)
    if args.out is not None:
        args.out.write_text(
            json.dumps({"seconds": args.seconds, "records": records}, indent=1) + "\n")
    if args.workload == "all":
        print_table(records)
    if args.workload == "all" and not all(r["result"]["correct"] for r in records):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
