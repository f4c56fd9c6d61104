"""One workload process: set-up, timed passes, output checks.

run.py starts this file in a fresh process once per set-up sample.  Set-up
is timed from the first line: the import of rydchain and of the modules the
workload uses, plus one warm-up pass at 1 realization per cell, which fills
the basis_digits and pair-index caches and initialises BLAS.  The timed
passes that follow run warm.  The result goes to the JSON file named by
--result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    import rydchain

    if not Path(rydchain.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"rydchain was imported from {rydchain.__file__}, not from {ROOT / 'src'}")
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.result.parent)
    wl.run_pass(warm=True)
    result = {"setup_s": time.perf_counter() - T0}
    if not args.setup_only:
        result.update(measure(wl, args))
    rss = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    result["peak_rss_kib"] = rss
    result["env"] = environment()
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")


def measure(wl, args) -> dict:
    """Timed passes within --seconds (at least one), each checked after its timer stops."""
    from rydchain import statekit
    from spans import Tracer
    from workloads import NO_TRACE

    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    counts = wl.counts()
    failed: dict[str, list[str]] = {}
    passes = []

    def one_pass(traced: bool) -> None:
        if tracer is not None:
            tracer.active = traced
        before = dict(tracer.executed) if traced else None
        lo = tracer.span_count if traced else 0
        start = time.perf_counter()
        res = wl.run_pass(tracer=tracer if traced else NO_TRACE)
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        for op, reasons in wl.check(res, expected).items():
            failed.setdefault(op, reasons)
        rec = {"wall_s": wall, "traced": traced, **res.stats}
        if traced:
            rec.update(tracer.layer_metrics(lo, tracer.span_count))
            rec["executed"] = {k: v - before[k] for k, v in tracer.executed.items()}
            rec["spans"] = [lo, tracer.span_count]
        passes.append(rec)

    # a traced run alternates untraced and traced passes, so that
    # trace.overhead_s compares passes made under the same conditions
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    # stop before a round that would end past --seconds, so a run's length
    # does not depend on how far its last pass overshoots
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if tracer is not None:
            one_pass(traced=False)
        one_pass(traced=tracer is not None)
        now = time.perf_counter()
        if now - started + (now - round_start) > args.seconds:
            break

    problems = []
    if counts != expected["counts"][wl.name]:
        problems.append(f"computed counts {counts} differ from stored {expected['counts'][wl.name]}")
    for rec in passes:
        seen = rec.get("executed")
        if seen is not None and not wl.pooled:
            want = {"calls": counts["realizations"], **{k: counts[k] for k in seen if k != "calls"}}
            if seen != want:
                problems.append(f"traced execute counts {seen} differ from computed {want}")
    out = {
        "ops": list(wl.ops),
        "failed": failed,
        "counts": counts,
        "problems": problems,
        "passes": passes,
        "master_seed": wl.master,
    }
    if tracer is not None:
        spans_path = args.result.with_suffix(".spans.npz")
        tracer.write(spans_path, [rec["spans"] for rec in passes if rec["traced"]])
        out["spans_file"] = str(spans_path.relative_to(ROOT))
        out["span_count"] = tracer.span_count
        info = statekit.basis_digits.cache_info()
        out["digits_cache"] = {"hits": info.hits, "misses": info.misses}
    return out


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    status = Path("/proc/self/status")
    threads = None
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
        "process_threads_at_exit": threads,
    }


def _cpu_model() -> str:
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


if __name__ == "__main__":
    main()
