"""The benchmark's workloads: inputs made from a seed, one pass, output checks.

A pass is the unit that is timed.  An operation (a sweep cell, or one CLI
command in ``cli-pipeline``) is the unit that is checked: each failed check
marks its operation failed, and error_rate = failed / attempted operations.
The program only ever sees the generated master seed, never the workload
seed itself.

Every rydchain function is looked up on its module at call time
(``montecarlo.run_sweep``, ``cli.main``), so the wrappers that the traced
run installs on those modules see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

from rydchain import montecarlo, protocols
from rydchain.montecarlo import SweepSpec
from rydchain.protocols import ProtocolKind
from rydchain.statekit import LevelScheme

#: Workload seed whose outputs are stored in expected.json.
DEFAULT_SEED = 0

#: Largest |mean - stored mean| accepted at the default seed.
STORED_TOL = 1e-12

#: Bytes of a complex128 amplitude and of a float64 diagonal entry.
AMP_BYTES, DIAG_BYTES = 16, 8


def master_seed(workload: str, seed: int) -> int:
    """32-bit master seed handed to the program, derived from the workload seed."""
    digest = hashlib.sha256(f"rydchain-bench/{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def plan_for(protocol: ProtocolKind, n: int, z: float = 1.0):
    if protocol is ProtocolKind.GHZ2:
        return protocols.plan_ghz(n, LevelScheme.TWO_LEVEL)
    if protocol is ProtocolKind.GHZ3:
        return protocols.plan_ghz(n, LevelScheme.THREE_LEVEL)
    if protocol is ProtocolKind.DIMER_MPS:
        return protocols.plan_dimer_mps(n, z)
    return protocols.plan_transport(n, 2**-0.5, 2**-0.5)


def execute_counts(plan, runs: int) -> dict[str, int]:
    """Exact work of ``runs`` executions of ``plan`` on the realistic backend.

    bytes_computed is a model from array sizes, not a measurement: each
    pulse reads and writes the amplitudes and reads the interaction
    diagonal; each execution reads the (dim, n) occupation table once and
    writes the diagonal.
    """
    dim = plan.scheme.local_dim**plan.n_sites
    pulses = len(plan.steps)
    per_run_bytes = pulses * dim * (2 * AMP_BYTES + DIAG_BYTES) + DIAG_BYTES * dim * (plan.n_sites + 1)
    return {
        "realizations": runs,
        "pulses": runs * pulses,
        "amp_updates": runs * pulses * dim,
        "bytes_computed": runs * per_run_bytes,
    }


def sweep_counts(specs) -> dict[str, int]:
    total = {"realizations": 0, "pulses": 0, "amp_updates": 0, "bytes_computed": 0}
    for spec in specs:
        runs = 1 if spec.disorder.is_none else spec.realizations
        for n in spec.n_list:
            plan = plan_for(spec.protocol, n, spec.z)
            for key, value in execute_counts(plan, runs * len(spec.grid)).items():
                total[key] += value
    return total


def cell_key(protocol: str, ratio: float, disorder: str, n: int) -> str:
    return f"{protocol}@{ratio!r}/{disorder}/N{n}"


def unit_mean(value: float) -> str | None:
    """Reason a mean fidelity is unacceptable, or None."""
    if not math.isfinite(value):
        return "NaN row" if math.isnan(value) else "non-finite mean"
    if not 0.0 <= value <= 1.0:
        return f"mean {value!r} outside [0, 1]"
    return None


@dataclass
class PassResult:
    """Outputs of one pass, plus the exceptions raised per operation."""

    outputs: dict = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)


class _NoTrace:
    """Stand-in for a tracer in untraced passes."""

    @staticmethod
    def operation(label):
        return contextlib.nullcontext()


NO_TRACE = _NoTrace()


class SweepWorkload:
    """Sweeps through ``montecarlo.run_sweep`` in process with one worker."""

    pooled = False

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.master = master_seed(self.name, seed)
        self.specs = self.make_specs(warm=False)
        self.warm_specs = self.make_specs(warm=True)
        self.ops = [
            cell_key(s.protocol.value, r, s.disorder.kind, n)
            for s in self.specs for n in s.n_list for r in s.grid
        ]

    def counts(self) -> dict[str, int]:
        return sweep_counts(self.specs)

    def run_pass(self, warm: bool = False, tracer=NO_TRACE) -> PassResult:
        res = PassResult()
        for spec in self.warm_specs if warm else self.specs:
            label = f"sweep {spec.protocol.value}/{spec.disorder.kind}"
            with tracer.operation(label):
                try:
                    records = montecarlo.run_sweep(spec, workers=1)
                except Exception as exc:  # every cell of the sweep fails
                    for n in spec.n_list:
                        for r in spec.grid:
                            res.errors[cell_key(spec.protocol.value, r, spec.disorder.kind, n)] = repr(exc)
                    continue
            for rec in records:
                key = cell_key(rec.protocol, rec.v0_over_omega, rec.disorder, rec.n)
                res.outputs[key] = rec
        self.after_sweeps(res, tracer)
        return res

    def after_sweeps(self, res: PassResult, tracer) -> None:
        pass

    def check(self, res: PassResult, expected: dict) -> dict[str, list[str]]:
        failures = {op: [f"exception: {err}"] for op, err in res.errors.items()}
        stored = expected["means"][self.name] if self.seed == DEFAULT_SEED else None
        nan_cells = 0
        for op in self.ops:
            rec = res.outputs.get(op)
            if rec is None:
                failures.setdefault(op, []).append("no record")
                continue
            reason = unit_mean(rec.mean_fidelity)
            nan_cells += math.isnan(rec.mean_fidelity)
            if reason:
                failures.setdefault(op, []).append(reason)
            elif stored is not None and abs(rec.mean_fidelity - stored[op]) > STORED_TOL:
                failures.setdefault(op, []).append(
                    f"mean {rec.mean_fidelity!r} differs from stored {stored[op]!r}"
                )
        res.stats["montecarlo.nan_cells"] = nan_cells
        self.check_extra(res, failures)
        return failures

    def check_extra(self, res: PassResult, failures: dict[str, list[str]]) -> None:
        pass


class DisorderTable(SweepWorkload):
    """Acceptance 07's disorder fixture, followed by its 8 decay fits.

    The fixture's cells at REALIZATIONS per disordered cell, not its 1000:
    a pass then takes about 2 s, so one run holds many passes and wall_s is
    their median, not one 20 s pass that a swing in host speed moves whole.
    """

    name = "disorder-table"
    REALIZATIONS = 100
    FIXTURE = (
        (ProtocolKind.GHZ2, (2, 4, 6, 8), (6.9, 15.5)),
        (ProtocolKind.TRANSPORT, (2, 3, 4, 5, 6, 7), (6.9, 15.5)),
        (ProtocolKind.DIMER_MPS, (4, 6), (15.5,)),
    )
    DISORDERS = ("none", "iso", "aniso")
    FIT_LENGTHS = {"ghz2": (2, 4, 6, 8), "transport": (2, 3, 4, 5, 6, 7)}
    FITS = tuple((p, r, d) for p in ("ghz2", "transport") for r in (6.9, 15.5) for d in ("iso", "aniso"))
    ORDERED = (("ghz2", 6.9), ("ghz2", 15.5), ("transport", 6.9), ("transport", 15.5), ("mps", 15.5))

    def __init__(self, seed: int, out_dir: Path):
        from rydchain import analytics

        self.analytics = analytics
        super().__init__(seed, out_dir)

    def make_specs(self, warm: bool):
        return [
            SweepSpec(protocol, n_list, grid, disorder, 1 if warm else self.REALIZATIONS, self.master, z=1.0)
            for protocol, n_list, grid in self.FIXTURE
            for disorder in self.DISORDERS
        ]

    def after_sweeps(self, res: PassResult, tracer) -> None:
        for proto, ratio, disorder in self.FITS:
            keys = [cell_key(proto, ratio, disorder, n) for n in self.FIT_LENGTHS[proto]]
            with tracer.operation(f"fit {proto}@{ratio}/{disorder}"):
                try:
                    points = [(res.outputs[k].n, res.outputs[k].mean_fidelity) for k in keys]
                    fit = self.analytics.fit_exponential_decay(points)
                except Exception as exc:
                    res.outputs[("fit", proto, ratio, disorder)] = repr(exc)
                    continue
            res.outputs[("fit", proto, ratio, disorder)] = fit

    def check_extra(self, res: PassResult, failures: dict[str, list[str]]) -> None:
        def fail(op, reason):
            failures.setdefault(op, []).append(reason)

        mean = {k: v.mean_fidelity for k, v in res.outputs.items() if isinstance(k, str)}
        for ratio in (6.9, 15.5):
            key = cell_key("ghz2", ratio, "none", 2)
            if key in mean:
                exact = self.analytics.ghz_fidelity_two_atoms(ratio, 1.0)
                if not abs(mean[key] - exact) <= 1e-10:
                    fail(key, f"two-atom GHZ {mean[key]!r} vs closed form {exact!r}")
        for n in self.FIT_LENGTHS["transport"]:
            for ratio in (6.9, 15.5):
                key = cell_key("transport", ratio, "none", n)
                if key in mean and not mean[key] >= 0.999:
                    fail(key, f"disorder-free transport {mean[key]!r} < 0.999")
        for proto, ratio in self.ORDERED:
            for n in (4, 6):
                keys = [cell_key(proto, ratio, d, n) for d in self.DISORDERS]
                if all(k in mean for k in keys):
                    none, iso, aniso = (mean[k] for k in keys)
                    if not none >= iso >= aniso:
                        for k in keys[1:]:
                            fail(k, f"ordering none >= iso >= aniso broken: {none}, {iso}, {aniso}")
        for proto, ratio, disorder in self.FITS:
            fit = res.outputs.get(("fit", proto, ratio, disorder))
            ok = fit is not None and not isinstance(fit, str) and math.isfinite(fit.a) and math.isfinite(fit.b)
            if not ok:
                for n in self.FIT_LENGTHS[proto]:
                    fail(cell_key(proto, ratio, disorder, n), f"decay fit failed: {fit}")


class LargeChain(SweepWorkload):
    """Chains near the dense cap, iso disorder at V0/Omega = 15.5."""

    name = "large-chain"
    CELLS = ((ProtocolKind.GHZ2, 18, 4), (ProtocolKind.GHZ3, 11, 4), (ProtocolKind.DIMER_MPS, 16, 8))

    def make_specs(self, warm: bool):
        return [
            SweepSpec(protocol, (n,), (15.5,), "iso", 1 if warm else reps, self.master, z=1.0)
            for protocol, n, reps in self.CELLS
        ]


@dataclass
class Command:
    """What one CLI command returned: exit code (None if it raised) and stdout."""

    code: int | None
    stdout: str
    error: str | None = None


class CliPipeline:
    """One user session through ``rydchain.cli.main``, in process."""

    name = "cli-pipeline"
    pooled = True
    ops = ["sweep", "fit", "rk-check", "nmax", "mps-areas"]
    N_LIST = (4, 5, 6, 7)
    GRID = "1:30:6"
    REALIZATIONS = 200
    FIT_RATIO = 6.8
    SWEEP_ROWS = 24

    def __init__(self, seed: int, out_dir: Path):
        from rydchain import cli

        self.cli = cli
        self.seed = seed
        self.master = master_seed(self.name, seed)
        self.out_dir = out_dir / self.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.sweep_base = self.out_dir / "sweep"
        self.areas_base = self.out_dir / "areas"
        self.fit_input = self.out_dir / "fit_input.csv"
        self.first_csv: bytes | None = None

    def counts(self) -> dict[str, int]:
        grid = self.cli.parse_grid(self.GRID)
        spec = SweepSpec(ProtocolKind.TRANSPORT, self.N_LIST, grid, "iso", self.REALIZATIONS, self.master)
        return sweep_counts([spec])

    def _run(self, argv: list[str], tracer) -> Command:
        buf = io.StringIO()
        with tracer.operation(argv[0]), contextlib.redirect_stdout(buf):
            try:
                code = self.cli.main(argv)
            except Exception as exc:
                return Command(None, buf.getvalue(), repr(exc))
        return Command(code, buf.getvalue())

    def run_pass(self, warm: bool = False, tracer=NO_TRACE) -> PassResult:
        for stale in self.out_dir.iterdir():  # a failed command must not leave an old file to check
            stale.unlink()
        res = PassResult()
        out = res.outputs
        out["sweep"] = self._run([
            "sweep", "--protocol", "transport", "--n", ",".join(map(str, self.N_LIST)),
            "--grid", self.GRID, "--disorder", "iso",
            "--realizations", "1" if warm else str(self.REALIZATIONS),
            "--workers", "2", "--seed", str(self.master), "--out", str(self.sweep_base),
        ], tracer)
        # the (N, mean_fidelity) table a user would fit, cut from the sweep CSV
        try:
            lines = self.sweep_base.with_suffix(".csv").read_text(encoding="utf-8").splitlines()
            rows = [line.split(",") for line in lines[1:]]
            picked = [f"{r[1]},{r[5]}" for r in rows if float(r[2]) == self.FIT_RATIO]
            self.fit_input.write_text("N,fidelity\n" + "\n".join(picked) + "\n", encoding="utf-8")
        except (OSError, IndexError, ValueError) as exc:
            res.errors["fit"] = f"no fit input: {exc!r}"
        out["fit"] = self._run(["fit", str(self.fit_input)], tracer)
        out["rk-check"] = self._run(["rk-check", "--n", "10", "--v0-over-omega", "64"], tracer)
        out["nmax"] = self._run(
            ["nmax", "--tau-exp", "20", "--v0", "52.78", "--ratio", "6.9", "--z", "1", "10"], tracer
        )
        out["mps-areas"] = self._run(
            ["mps-areas", "--n", "320", "--z", "10", "--out", str(self.areas_base)], tracer
        )
        return res

    def check(self, res: PassResult, expected: dict) -> dict[str, list[str]]:
        written = [base.with_suffix(s) for base in (self.sweep_base, self.areas_base)
                   for s in (".csv", ".manifest.txt")]
        res.stats["cli.bytes_written"] = sum(p.stat().st_size for p in written if p.exists())
        res.stats["cli.nonzero_exits"] = sum(res.outputs[op].code not in (0, None) for op in self.ops)
        res.stats["montecarlo.nan_cells"] = 0
        res.stats["montecarlo.csv_identical"] = 0
        failures = {}
        for op in self.ops:
            cmd = res.outputs[op]
            reasons = [res.errors[op]] if op in res.errors else []
            if cmd.error is not None:
                reasons.append(f"exception: {cmd.error}")
            elif cmd.code != 0:
                reasons.append(f"exit code {cmd.code}")
            try:
                reasons += getattr(self, "_check_" + op.replace("-", "_"))(res, expected)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                reasons.append(f"unreadable output: {exc!r}")
            if reasons:
                failures[op] = reasons
        return failures

    def _check_sweep(self, res: PassResult, expected: dict) -> list[str]:
        body = self.sweep_base.with_suffix(".csv").read_bytes()
        lines = body.decode("utf-8").splitlines()
        reasons = []
        if lines[:1] != [self.cli.SWEEP_HEADER]:
            reasons.append(f"header {lines[:1]}")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != self.SWEEP_ROWS:
            reasons.append(f"{len(rows)} rows, expected {self.SWEEP_ROWS}")
        stored = expected["means"][self.name] if self.seed == DEFAULT_SEED else None
        for r in rows:
            key = cell_key(r[0], float(r[2]), r[3], int(r[1]))
            mean = float(r[5])
            res.stats["montecarlo.nan_cells"] += math.isnan(mean)
            reason = unit_mean(mean)
            if reason:
                reasons.append(f"{key}: {reason}")
            elif stored is not None and abs(mean - stored[key]) > STORED_TOL:
                reasons.append(f"{key}: mean {mean!r} differs from stored {stored[key]!r}")
        # byte identity is reported, not gated: against the stored CSV at the
        # default seed, otherwise against the first pass of this run
        if self.seed == DEFAULT_SEED:
            same = hashlib.sha256(body).hexdigest() == expected["cli_sweep_csv_sha256"]
        else:
            self.first_csv = self.first_csv or body
            same = body == self.first_csv
        res.stats["montecarlo.csv_identical"] = int(same)
        return reasons

    def _check_fit(self, res: PassResult, expected: dict) -> list[str]:
        fit = key_values(res.outputs["fit"].stdout.split())
        a, b = float(fit["a"]), float(fit["b"])
        points = [tuple(map(float, line.split(",")))
                  for line in self.fit_input.read_text(encoding="utf-8").splitlines()[1:]]
        if not points or not (math.isfinite(a) and math.isfinite(b)):
            return [f"fit a={a!r} b={b!r} on {len(points)} points"]
        rms = math.sqrt(sum((a * math.exp(-b * (n - 2)) - f) ** 2 for n, f in points) / len(points))
        return [] if rms <= 0.02 else [f"fit a={a!r} b={b!r} misses its points by rms {rms:.3g}"]

    def _check_rk_check(self, res: PassResult, expected: dict) -> list[str]:
        overlap = float(key_values(res.outputs["rk-check"].stdout.split())["overlap"])
        return [] if overlap >= 0.99 else [f"overlap {overlap!r} < 0.99"]

    def _check_nmax(self, res: PassResult, expected: dict) -> list[str]:
        nmax = {k: int(v) for k, v in key_values(res.outputs["nmax"].stdout.split()).items()}
        return [] if nmax == expected["nmax"] else [f"n_max {nmax} differs from stored {expected['nmax']}"]

    def _check_mps_areas(self, res: PassResult, expected: dict) -> list[str]:
        manifest = self.areas_base.with_suffix(".manifest.txt").read_text(encoding="utf-8")
        disagreement = float(key_values(manifest.splitlines())["cross_method_disagreement"])
        if math.isfinite(disagreement) and disagreement <= 1e-8:
            return []
        return [f"cross_method_disagreement {disagreement!r} is not finite and <= 1e-8"]


def key_values(tokens) -> dict[str, str]:
    return dict(t.split("=", 1) for t in tokens if "=" in t)


WORKLOADS = {w.name: w for w in (DisorderTable, LargeChain, CliPipeline)}
