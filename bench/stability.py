"""Run-to-run spread of the end-to-end metrics, raw and calibrated.

    python3 bench/stability.py --workload log-stream --seeds 1 2 3 4 5
    python3 bench/stability.py --seeds $(seq 101 110)      # every workload

Each seed is one ``run.py`` process.  For every metric this prints the
median over the runs, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the interquartile
distance as a share of the median, for the calibrated value that the
benchmark reports and for the raw value printed beside it.  Results are
appended as JSON lines to ``.bench_out/stability.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".bench_out"
WORKLOADS = ("aircraft", "long-horizon", "plant-sweep", "log-stream")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = {}
    for line in lines:
        parts = line.lstrip("# ").split()
        if len(parts) >= 4 and parts[0] in result["metrics"]:
            raw[parts[0]] = float(parts[3])
    return {"workload": workload, "seed": seed, "result": result, "raw": raw}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    status = 0
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in args.seeds:
            run = one_run(workload, seed, args.seconds)
            runs.append(run)
            with open(OUT / "stability.jsonl", "a") as fh:
                fh.write(json.dumps(run) + "\n")
        res = [r["result"] for r in runs]
        fail_share = {r["failed"] / r["attempted"] for r in res}
        ok = all(r["correct"] for r in res) and len(fail_share) == 1
        status |= 0 if ok else 1
        print(f"== {workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in res)}, "
              f"failed shares: {sorted(fail_share)}")
        print(f"   {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'raw iqr/med':>12}")
        for name in res[0]["metrics"]:
            med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in res])
            raw_rel = spread([r["raw"][name] for r in runs])[3] if name in runs[0]["raw"] else float("nan")
            print(f"   {name:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.3f} {raw_rel:>12.3f}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
