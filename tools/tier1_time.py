"""Time the tier-1 test suite: the median wall time over two runs, with
acceptance criteria 7 and 8 timed on their own.

    python3 tools/tier1_time.py [SRC_DIR]

Runs the tier-1 command of ROADMAP.md,

    PYTHONPATH=SRC_DIR/src python -m pytest -q --continue-on-collection-errors

from SRC_DIR (default: this checkout), twice, one run after the other.
Each run writes a JUnit XML report to a temporary file, from which the
script reads the pass and fail counts and the time of
tests/test_acceptance.py::test_criterion_7_pretraining_sanity and
::test_criterion_8_finetune_overfit (setup, call and teardown). It prints
one line per run, then one JSON object with every run and the medians of
the wall time and of both criteria. The exit code is 0 when every run
passed, else 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 2
CRITERIA = {"criterion_7_s": "test_criterion_7_pretraining_sanity",
            "criterion_8_s": "test_criterion_8_finetune_overfit"}


def run_once(src_dir: Path) -> dict:
    """One tier-1 run: its wall time, outcome counts and criterion times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_dir / "src"),
                                                      env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             f"--junitxml={report}"],
            cwd=src_dir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        suite = ET.parse(report).getroot()
    suite = suite if suite.tag == "testsuite" else suite.find("testsuite")
    failed = int(suite.get("failures", 0)) + int(suite.get("errors", 0))
    skipped = int(suite.get("skipped", 0))
    out = {"wall_s": round(wall, 2), "exit_code": proc.returncode,
           "passed": int(suite.get("tests", 0)) - failed - skipped,
           "failed": failed, "skipped": skipped}
    times = {case.get("name"): float(case.get("time", "nan"))
             for case in suite.iter("testcase")
             if case.get("classname", "").endswith("test_acceptance")}
    for key, name in CRITERIA.items():
        out[key] = round(times.get(name, float("nan")), 2)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_dir", nargs="?", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    runs = []
    for i in range(RUNS):
        runs.append(run_once(args.src_dir.resolve()))
        print(f"run {i + 1}: {json.dumps(runs[-1])}", flush=True)
    medians = {key: round(statistics.median(r[key] for r in runs), 2)
               for key in ("wall_s", *CRITERIA)}
    print(json.dumps({"src_dir": str(args.src_dir.resolve()), "runs": runs,
                      "median": medians}))
    return 0 if all(r["exit_code"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
