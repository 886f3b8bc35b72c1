#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at tiny size, untraced and traced, and
checks that each prints every metric BENCHMARK.json names, with its unit, and
passes its output checks. Also checks that perfbench/workloads.json covers
every workload and per-layer metric, and that a directory holding only
BENCHMARK.json and perfbench/ fails without printing a result.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]


def run(cwd, workload, trace):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(workload, trace, proc, expected):
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        sys.exit(f"{where}: exit {proc.returncode}\n{proc.stdout[-3000:]}"
                 f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        sys.exit(f"{where}: checks failed\n{proc.stdout[-3000:]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        sys.exit(f"{where}: attempted = {result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        sys.exit(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
    printed = "\n".join(lines[:-1])
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        if not isinstance(value, (int, float)):
            sys.exit(f"{where}: {name} is not a number")
        if not re.search(rf"^{re.escape(name)} = \S+ {re.escape(unit)}$", printed,
                         re.MULTILINE):
            sys.exit(f"{where}: {name} not printed with unit {unit}")


def check_record(bench):
    record = json.loads((ROOT / "perfbench" / "workloads.json").read_text())
    names = {w["name"] for w in bench["workloads"]}
    if set(record["workloads"]) != names:
        sys.exit(f"workloads.json covers {sorted(record['workloads'])}, "
                 f"BENCHMARK.json has {sorted(names)}")
    patterns = [re.compile("^" + re.escape(p).replace("<s>", r"[\w-]+") + "$")
                for p in record["layer_to_end_to_end"]]
    for m in bench["per_layer"]:
        if not any(p.match(m["name"]) for p in patterns):
            sys.exit(f"workloads.json does not map per-layer metric {m['name']}")


def check_bare_directory():
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    proc = run(bare, "replay", 0)
    shutil.rmtree(bare)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        sys.exit("a directory without the simulator sources did not fail")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_record(bench)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            check_result(w["name"], trace, run(ROOT, w["name"], trace), expected)
            print(f"ok {w['name']} --trace {trace}")
    check_bare_directory()
    print("ok bare directory fails without a result")
    print("smoke test passed")


if __name__ == "__main__":
    main()
