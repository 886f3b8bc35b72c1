#!/usr/bin/env python3
"""Gates streamed trace replay against the same replay loaded whole.

    python3 scripts/replay_gate.py build/bench/bench_micro_engine

Runs BM_ReplayThroughput (chunked ingest) and BM_ReplayThroughputInMemory
back to back in each of ROUNDS rounds, in separate processes, alternating
which goes first. Each round yields one ratio of streamed to in-memory time
per item, measured within seconds of each other, so a host that drifts
during the run moves both sides of a ratio instead of one. Exits 1 unless
the median ratio shows the streamed replay at 0.9x the in-memory
throughput or better.
"""

import json
import statistics
import subprocess
import sys

STREAMED = "BM_ReplayThroughput"
IN_MEMORY = "BM_ReplayThroughputInMemory"
MIN_THROUGHPUT_RATIO = 0.9
ROUNDS = 5
MIN_TIME = 0.2  # --benchmark_min_time of each sample, in seconds


def time_per_item(bench, name):
    """Runs one benchmark in its own process; returns its real time."""
    out = subprocess.run(
        [bench, f"--benchmark_filter=^{name}$",
         f"--benchmark_min_time={MIN_TIME}", "--benchmark_format=json"],
        check=True, capture_output=True, text=True).stdout
    runs = [b for b in json.loads(out)["benchmarks"] if b["name"] == name]
    if len(runs) != 1:
        sys.exit(f"replay_gate: expected one {name} result, got {len(runs)}")
    return runs[0]["real_time"]


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} path/to/bench_micro_engine")
    bench = sys.argv[1]

    ratios = []
    for r in range(ROUNDS):
        order = (STREAMED, IN_MEMORY) if r % 2 == 0 else (IN_MEMORY, STREAMED)
        times = {name: time_per_item(bench, name) for name in order}
        ratios.append(times[STREAMED] / times[IN_MEMORY])
        print(f"round {r + 1} ({order[0]} first): streamed "
              f"{times[STREAMED]:.0f}, in-memory {times[IN_MEMORY]:.0f} "
              f"-> {ratios[-1]:.3f}x time")
    median = statistics.median(ratios)
    print(f"{STREAMED} vs in-memory (median of {ROUNDS} paired rounds): "
          f"{median:.3f}x time")
    if median > 1.0 / MIN_THROUGHPUT_RATIO:
        print(f"  FAIL: streaming replay slower than {MIN_THROUGHPUT_RATIO}x "
              "in-memory")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
