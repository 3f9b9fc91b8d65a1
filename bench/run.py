"""moldta benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload pretrain-tiny --seed 1 --seconds 20 --trace 0

Run it from the repository root. It imports moldta from ./src, generates
the workload's inputs from --seed, measures for about --seconds, checks the
outputs, and prints two JSON lines: a detail record (environment, the
workload's own metric names, counts, checks), then the result object
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list; with --trace 1 the run repeats the
pass with layer spans on and reports the per_layer list, including the
tracing overhead. Records and spans go to .perfbench/ under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

from tracing import Patches, Tracer, install_layers, layer_metrics, self_times

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, at most nproc. Idle OpenBLAS workers spin: with two threads
# batch-1 inference used twice the CPU time at the same wall time, and every
# timing then depended on what else ran on the second core.
BLAS_THREADS = 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "moldta").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": BLAS_THREADS, "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_commit": git_commit(ROOT), "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_pass(m, workload, seconds, traced, checks):
    tracer = Tracer() if traced else None
    patches = Patches()
    try:
        if traced:
            install_layers(tracer, patches, m)
        result = workload.run(seconds, tracer, patches, checks)
    finally:
        patches.restore()
    result.peak_rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.finish()
    return result, tracer, workload.check(checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "moldta" / "__init__.py").is_file():
        print(f"bench: no moldta source tree at {ROOT / 'src' / 'moldta'}", file=sys.stderr)
        return 2

    # BLAS reads its thread count when numpy loads, so pin before any import.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import MODULES, WORKLOADS, Checks
    m = SimpleNamespace(**{name: importlib.import_module("moldta." + name) for name in MODULES})
    moldta = sys.modules["moldta"]
    if not Path(moldta.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: imported moldta from {moldta.__file__}, not ./src", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        workload = WORKLOADS[args.workload](m, args.seed, str(workdir))
        workload.warm_up()
        base, _, notes = run_pass(m, workload, args.seconds, False, checks)
        e2e = base.end_to_end()
        detail = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                  "environment": environment(args.seed),
                  "end_to_end": e2e, "named": workload.named(base, e2e),
                  "import_samples_s": base.imports, "setup_samples_s": base.setup,
                  "units": len(base.units)}
        passes = [base]
        if args.trace:
            traced, tracer, notes_traced = run_pass(m, workload, args.seconds, True, checks)
            notes.update(notes_traced)
            passes.append(traced)
            values = layer_metrics(tracer, traced.norm)
            traced_e2e = traced.end_to_end()
            for name, value in traced_e2e.items():
                values[f"trace.overhead.{name}"] = value - e2e[name]
            trace_path = OUT / "traces" / f"{tag}.jsonl"
            tracer.write(str(trace_path))
            detail.update({"traced_end_to_end": traced_e2e, "unit_counts": traced.norm,
                           "self_ms_per_unit": self_times(tracer, traced.norm),
                           "spans": len(tracer.spans), "trace_file": str(trace_path)})
            declared = spec["per_layer"]
        else:
            values = e2e
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != {d["name"] for d in declared}:
        raise RuntimeError(f"metrics {sorted(set(values) ^ {d['name'] for d in declared})} "
                           "differ from BENCHMARK.json")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    skipped = sum(p.expected_skips for p in passes)
    detail.update({
        "attempted": attempted, "failed": failed, "expected_skips": skipped,
        # the workload-level share in which a skipped rank candidate counts as failed
        "failed_share": {"value": (failed + skipped) / attempted if attempted else 0.0,
                         "unit": "ratio", "attempted": attempted,
                         "failed": failed + skipped},
        "checks": {"count": checks.count, "failures": checks.failures}, "notes": notes,
    })
    result = {"correct": not checks.failures and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
                          for d in declared}}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps({"detail": detail, "result": result},
                                                            indent=1))
    for failure in checks.failures:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
