"""Check that sweep CSVs are byte-identical at a git revision and in the working tree.

    python tools/sweep_identity.py REV

REV (a commit, branch or tag) is checked out into a temporary ``git
worktree``.  The fixed list of sweeps below runs there and in this working
tree, uncommitted changes included, each at ``--workers 1`` and ``2``, with
BLAS pinned to one thread.  One line per sweep and worker count gives both
CSVs' sha256 digests.  Exits 1 if any pair differs, 0 if every pair matches;
the worktree is removed either way.  A run takes about 10 s on two cores.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
from test_golden import CASES  # noqa: E402  (the golden sweeps, kept in one place)

TRANSPORT_N = ",".join(map(str, range(2, 15)))  # N = 2 (mod 4) included

#: name -> ``rydchain sweep`` arguments; the golden cases come first
SWEEPS = {
    **CASES,
    "transport_aniso": f"--protocol transport --n {TRANSPORT_N} --grid 6.9,15.5 --disorder aniso"
    " --realizations 20 --seed 5",
    "transport_iso_nn": f"--protocol transport --n {TRANSPORT_N} --grid 6.9 --disorder iso"
    " --range nn --alpha 0.6 --realizations 20 --seed 5",
    "transport_none": f"--protocol transport --n {TRANSPORT_N} --grid 4:16:4 --disorder none"
    " --alpha 0.28 --beta 0.96",
    "ghz3_iso": "--protocol ghz3 --n 2,3,4,5,6,7,8,9,10,11 --grid 6.9,15.5 --disorder iso"
    " --realizations 8 --seed 5",
    "ghz2_wide_nn": "--protocol ghz2 --n 13,14 --grid 6.9 --disorder iso --range nn"
    " --realizations 8 --seed 5",
    "mps_R2_aniso": "--protocol mps --R 2 --z 10 --n 3,5,7,9,11 --grid 10:30:3 --disorder aniso"
    " --realizations 20 --seed 5",
}

WORKERS = ("1", "2")

#: run in a tree's src/: every sweep into one directory, at one worker count
RUNNER = """
import json, sys
from rydchain import cli
out, workers, sweeps = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
for name, args in sweeps.items():
    code = cli.main(["sweep", *args.split(), "--workers", workers, "--out", f"{out}/{name}"])
    if code:
        sys.exit(f"sweep {name} exited {code}")
"""


def run_sweeps(tree: Path, out: Path, workers: str) -> dict[str, str]:
    """The sha256 of each sweep's CSV, run from ``tree``'s sources into ``out``."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", RUNNER, str(out), workers, json.dumps(SWEEPS)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"sweeps in {tree} failed:\n{done.stderr}")
    return {name: hashlib.sha256((out / f"{name}.csv").read_bytes()).hexdigest()
            for name in SWEEPS}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    rev = argv[0]
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        worktree = Path(tmp) / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(worktree), rev], check=True)
        try:
            for workers in WORKERS:
                at_rev = run_sweeps(worktree, Path(tmp) / f"rev-{workers}", workers)
                here = run_sweeps(ROOT, Path(tmp) / f"tree-{workers}", workers)
                for name in SWEEPS:
                    same = at_rev[name] == here[name]
                    differ += not same
                    print(f"{'same' if same else 'DIFF'}  workers={workers}  {name:20}"
                          f"  {at_rev[name]}  {here[name]}")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(worktree)], check=True)
    print(f"{differ} of {len(SWEEPS) * len(WORKERS)} CSVs differ from {rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
