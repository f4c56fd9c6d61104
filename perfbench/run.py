"""Run one rydchain benchmark workload and print its metrics.

    python3 perfbench/run.py --workload disorder-table --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --seed 0      # all three workloads in turn

Run from the root of a checkout.  The program is imported from ./src, its
outputs go under ./.bench_build/perfbench.  This process starts every
workload process itself: SETUP_SAMPLES fresh processes time set-up, the
last of them goes on to the timed passes.  With --trace 1 one process makes
an untraced pass and then traced passes, and the per-layer metrics are
printed instead of the end-to-end ones.

Standard output: each metric by name and unit, the environment, and as its
last line one JSON object with the keys correct, attempted, failed and
metrics, holding the metrics BENCHMARK.json names.  The full result is also
written to .bench_build/perfbench/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("disorder-table", "large-chain", "cli-pipeline")

#: Fresh processes that time set-up; setup_s is their median.
SETUP_SAMPLES = 3

#: Everything, set-up included, ends within this many seconds.
TIME_LIMIT_S = 170.0

#: BLAS/OpenMP threads per process.  cli-pipeline runs a pool of 2, so
#: processes x threads stays within 2 cores.
BLAS_THREADS = 1
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

#: Failed operations that are known defects of the program at the commit
#: the benchmark was defined on.  They count in `failed` and error_rate but
#: do not make a run incorrect.  workload -> operation -> reason prefix.
KNOWN_DEFECTS = {
    # NaN slips past `disagreement > 1e-8` in cli.cmd_mps_areas, so the
    # command prints "methods agree within nan" and exits 0.
    "cli-pipeline": {"mps-areas": "cross_method_disagreement nan"},
}

UNITS = {
    "wall_s": "s", "realizations_per_s": "1/s", "amp_updates_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MiB", "error_rate": "ratio",
}


class BenchError(Exception):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all three in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    code = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            run(args, workload)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            code = 1
    return code


def run(args, workload: str) -> None:
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "rydchain" / "__init__.py").is_file():
        raise BenchError(f"no program source at {ROOT / 'src' / 'rydchain'}")
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {spec_path}: {exc}") from None
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # write nothing into src/; import cost is the same every run
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})

    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    child_args = ["--workload", workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    for i in range(0 if args.trace else SETUP_SAMPLES - 1):
        sample = _child(child_args + ["--setup-only"], out_dir / f"{stem}.setup{i}.json", env, deadline)
        setups.append(sample["setup_s"])
    main = _child(child_args, out_dir / f"{stem}.json", env, deadline)
    setups.append(main["setup_s"])

    attempted = len(main["ops"])
    known = KNOWN_DEFECTS.get(workload, {})
    unexpected = {
        op: reasons for op, reasons in main["failed"].items()
        if not (op in known and all(r.startswith(known[op]) for r in reasons))
    }
    correct = not unexpected and not main["problems"]
    metrics = per_layer(main) if args.trace else end_to_end(main, setups)
    names = spec["per_layer" if args.trace else "end_to_end"]

    summary = {
        "workload": workload, "seed": args.seed, "master_seed": main["master_seed"],
        "trace": args.trace, "seconds": args.seconds, "env": main["env"],
        "correct": correct, "attempted": attempted, "failed": main["failed"],
        "problems": main["problems"], "counts": main["counts"], "metrics": metrics,
        "setup_samples": setups, "passes": main["passes"],
    }
    (out_dir / f"{stem}.summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")

    print(f"workload {workload}  seed {args.seed}  master_seed {main['master_seed']}  "
          f"trace {args.trace}  seconds {args.seconds:g}")
    print("env " + json.dumps(main["env"], sort_keys=True))
    for name, m in metrics.items():
        extra = "".join(f"  {k} {v:.6g}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{extra}")
    for op, reasons in sorted(main["failed"].items()):
        tag = "known defect" if op not in unexpected else "FAILED"
        print(f"  {tag}: {op}: {'; '.join(reasons)}")
    for problem in main["problems"]:
        print(f"  PROBLEM: {problem}")
    if args.trace:
        print(f"  spans: {main['span_count']} in {main['spans_file']}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(main["failed"]),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]} for m in names
        },
    }
    print(json.dumps(result))


def _child(child_args, result_path: Path, env, deadline) -> dict:
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), *child_args, "--result", str(result_path)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before {' '.join(child_args)}")
    try:
        # the workload's own stdout would mix with the result line
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=True, timeout=remaining)
        return json.loads(result_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process did not finish within {TIME_LIMIT_S:g} s") from None
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"workload process exited with {exc.returncode}") from None
    except (OSError, ValueError) as exc:
        raise BenchError(f"no result from workload process: {exc}") from None


def _spread(values) -> dict:
    """Median, quartiles and sample count."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(main: dict, setups: list[float]) -> dict:
    walls = [p["wall_s"] for p in main["passes"]]
    counts = main["counts"]
    metrics = {
        "wall_s": _spread(walls),
        "realizations_per_s": _spread([counts["realizations"] / w for w in walls]),
        "amp_updates_per_s": _spread([counts["amp_updates"] / w for w in walls]),
        "setup_s": _spread(setups),
        "peak_rss_mb": {"value": main["peak_rss_kib"] / 1024.0},
        "error_rate": {"value": len(main["failed"]) / len(main["ops"]),
                       "failed": len(main["failed"]), "attempted": len(main["ops"])},
    }
    for name, m in metrics.items():
        m["unit"] = UNITS[name]
    return metrics


def per_layer(main: dict) -> dict:
    """Medians over the traced passes, with the run's exact counts."""
    traced = [p for p in main["passes"] if p["traced"]]
    base = [p["wall_s"] for p in main["passes"] if not p["traced"]]
    metrics = {}
    for name in traced[0]:
        if name != "wall_s" and (name.endswith("_s") or name.endswith("_s.calls")):
            unit = "s" if name.endswith("_s") else "count"
            metrics[name] = {"value": statistics.median(p[name] for p in traced), "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(p["wall_s"] for p in traced) - statistics.median(base), "unit": "s",
    }
    counts = main["counts"]
    for name in ("pulses", "amp_updates", "bytes_computed"):
        metrics[f"protocols.{name}"] = {"value": counts[name], "unit": "B" if name.startswith("bytes") else "count"}
    metrics["montecarlo.realizations"] = {"value": counts["realizations"], "unit": "count"}
    # sweep workloads write no CLI output, so their CLI counts are 0
    for name, unit in (("montecarlo.nan_cells", "count"), ("cli.bytes_written", "B"), ("cli.nonzero_exits", "count")):
        metrics[name] = {"value": max(p.get(name, 0) for p in traced), "unit": unit}
    if "montecarlo.csv_identical" in traced[0]:
        metrics["montecarlo.csv_identical"] = {
            "value": min(p["montecarlo.csv_identical"] for p in traced), "unit": "count",
        }
    cache = main["digits_cache"]
    looked_up = cache["hits"] + cache["misses"]
    metrics["statekit.digits_hit_ratio"] = {
        "value": cache["hits"] / looked_up if looked_up else 0.0, "unit": "ratio",
    }
    return metrics


if __name__ == "__main__":
    sys.exit(main())
