"""Run workloads over several seeds and report each metric's spread.

    python3 bench/prove.py --seeds 1-10 [--workloads screen-kiba,...] [--out FILE]

Runs bench/run.py once per (workload, seed), one after another, with
BENCHMARK.json's run_seconds and --trace 0. For every end-to-end metric
it reports the median, the quartiles from statistics.quantiles(n=4), and
the spread: (third quartile - first quartile) / median, next to the
metric's bound. The summary also keeps the first run's environment
record. Runs are sequential so they do not compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--out", help="also write the summary here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit code {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            summary.setdefault("environment", json.loads(lines[-2])["detail"]["environment"])
            ok &= result["correct"] and result["failed"] == 0
            runs.append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            metrics[metric["name"]] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": (q3 - q1) / statistics.median(values), "bound": metric["bound"],
                "unit": metric["unit"]}
        summary["workloads"][name] = {"seeds": seed_list(args.seeds),
                                      "all_correct": all(r["correct"] for r in runs),
                                      "metrics": metrics}
        for metric, s in metrics.items():
            print(f"  {metric:14s} median {s['median']:.5g} {s['unit']:4s} spread "
                  f"{s['spread']:.4f} (bound {s['bound']})", flush=True)
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
