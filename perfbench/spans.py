"""Spans around rydchain's public functions, installed from outside the program.

Each wrapped function records a span (name, start, end, parent span, and
the benchmark operation it ran under).  The wrapper replaces the function
in every rydchain module that holds it, so calls made through another
module's imported name (``protocols.interaction_diagonal``,
``cli.run_sweep``) are seen as well as calls on the defining module.
Spans stay in flat in-memory arrays and are written out when the run ends.

A layer metric is the summed self time of its functions: a span's duration
minus the time its child spans cover.  Calls nest on one thread, so child
spans never overlap and their durations simply add.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

#: layer metric -> (module, function) pairs whose self time it sums
LAYERS = {
    "lattice.seed_s": [("lattice", "realization_seed")],
    "lattice.sample_s": [("lattice", "sample_configuration"), ("lattice", "ideal_configuration")],
    "lattice.coupling_s": [("lattice", "coupling_matrix")],
    "dynamics.interaction_diag_s": [("dynamics", "interaction_diagonal")],
    "dynamics.dense_s": [("dynamics", "build_full_hamiltonian"), ("dynamics", "ground_state_dense")],
    "protocols.execute_self_s": [("protocols", "execute")],
    "protocols.plan_s": [
        ("protocols", "plan_ghz"), ("protocols", "plan_transport"), ("protocols", "plan_dimer_mps"),
        ("protocols", "mps_area_schedule"), ("protocols", "mps_area_schedule_polynomial"),
    ],
    "protocols.duration_s": [("protocols", "protocol_duration")],
    "statekit.reduce_s": [("statekit", "reduce_to_site")],
    "targets.target_s": [("targets", "ghz_target"), ("targets", "dimer_target_direct")],
    "targets.fidelity_s": [("targets", "fidelity_pure"), ("targets", "fidelity_mixed_single_qubit")],
    "analytics.fit_s": [("analytics", "fit_exponential_decay")],
    "analytics.nmax_s": [("analytics", "estimate_n_max")],
    "analytics.rk_s": [("analytics", "rk_ground_state_overlap")],
    "montecarlo.self_s": [("montecarlo", "run_sweep")],
    "cli.self_s": [("cli", "main")],
}


class Tracer:
    """Records spans while ``active``; installed wrappers pass straight through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self.op_labels: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self._stack: list[int] = []
        self._op = -1
        self.active = False
        self.executed = {"calls": 0, "pulses": 0, "amp_updates": 0, "bytes_computed": 0}

    @property
    def span_count(self) -> int:
        return len(self.start)

    @contextlib.contextmanager
    def operation(self, label: str):
        """Spans opened inside share this operation's id."""
        self.op_labels.append(label)
        outer, self._op = self._op, len(self.op_labels) - 1
        try:
            yield
        finally:
            self._op = outer

    def install(self) -> None:
        from workloads import execute_counts

        def count_execute(args, kwargs):
            plan = args[0] if args else kwargs["plan"]
            self.executed["calls"] += 1
            for key, value in execute_counts(plan, 1).items():
                if key != "realizations":
                    self.executed[key] += value

        for funcs in LAYERS.values():
            for mod_name, _ in funcs:
                importlib.import_module(f"rydchain.{mod_name}")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "rydchain"]
        for funcs in LAYERS.values():
            for mod_name, func_name in funcs:
                original = getattr(sys.modules[f"rydchain.{mod_name}"], func_name)
                hook = count_execute if func_name == "execute" else None
                wrapped = self._wrap(f"{mod_name}.{func_name}", original, hook)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

    def _wrap(self, qualname: str, fn, hook):
        name_id = len(self.names)
        self.names.append(qualname)
        start, end, parent, op, name, stack = (
            self.start, self.end, self.parent, self.op, self.name, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(start)
            parent.append(stack[-1] if stack else -1)
            op.append(self._op)
            name.append(name_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                if hook is not None:
                    hook(args, kwargs)

        return wrapper

    def layer_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer self time and call count over spans ``lo:hi`` (one pass)."""
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int64)[lo:hi]
        name = np.frombuffer(self.name, dtype=np.int64)[lo:hi]
        dur = end - start
        inside = parent >= lo
        covered = np.zeros(hi - lo)
        np.add.at(covered, parent[inside] - lo, dur[inside])
        self_time = np.bincount(name, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        index = {q: i for i, q in enumerate(self.names)}
        out = {}
        for metric, funcs in LAYERS.items():
            ids = [index[f"{m}.{f}"] for m, f in funcs]
            out[metric] = float(self_time[ids].sum())
            out[f"{metric}.calls"] = int(calls[ids].sum())
        return out

    def write(self, path: Path, pass_bounds: list[tuple[int, int]]) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            op_labels=np.array(self.op_labels),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            pass_bounds=np.array(pass_bounds, dtype=np.int64).reshape(-1, 2),
        )
