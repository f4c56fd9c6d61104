"""Write expected.json: the program's outputs at the default workload seed.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/record_expected.py

Run from the root of a checkout of the commit whose outputs the benchmark
should hold the program to.  The stored values are the per-cell mean
fidelities, the cli-pipeline sweep CSV digest, the nmax table and the
exact work counts of every workload.
"""

import hashlib
import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> None:
    out_dir = HERE.parent / ".bench_build" / "perfbench"
    expected = {"default_seed": workloads.DEFAULT_SEED, "means": {}, "counts": {}}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.DEFAULT_SEED, out_dir)
        expected["counts"][name] = wl.counts()
        res = wl.run_pass()
        if name == "cli-pipeline":
            body = wl.sweep_base.with_suffix(".csv").read_bytes()
            expected["cli_sweep_csv_sha256"] = hashlib.sha256(body).hexdigest()
            rows = [line.split(",") for line in body.decode().splitlines()[1:]]
            means = {workloads.cell_key(r[0], float(r[2]), r[3], int(r[1])): float(r[5]) for r in rows}
            nmax = workloads.key_values(res.outputs["nmax"].stdout.split())
            expected["nmax"] = {k: int(v) for k, v in nmax.items()}
        else:
            means = {op: res.outputs[op].mean_fidelity for op in wl.ops}
        expected["means"][name] = means
        print(f"{name}: {len(means)} means, counts {expected['counts'][name]}", file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
