"""Command-line front end: sweeps, area tables, fits, solvable-point checks.

Every result file is written together with a ``<name>.manifest.txt`` that
records the command, all parameters, the seed and the package version, so
the CSV body can be reproduced byte for byte.  Floats are printed with
``repr``, the shortest round-trip decimal form.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 capacity (a
sweep exits 4 after writing its CSV when any cell was over the limit).
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import estimate_n_max, fit_exponential_decay, rk_ground_state_overlap
from .dynamics import InteractionRange
from .errors import CapacityError, NumericalError
from .lattice import DISORDER_PRESETS
from .montecarlo import SweepSpec, run_sweep
from .protocols import (
    SHAPE_FIELDS,
    HyperfinePolicy,
    ProtocolKind,
    mps_area_schedule,
    mps_area_schedule_polynomial,
)

SWEEP_HEADER = "protocol,N,v0_over_omega,disorder,realizations,mean_fidelity,std_error,min,max"

#: sweep flag of each plan-shaping SweepSpec field (also its argparse dest)
_SHAPE_FLAGS = {"z": "--z", "blockade_range": "--R", "alpha": "--alpha", "beta": "--beta"}


def _fmt(x) -> str:
    return repr(float(x))


def parse_grid(text: str) -> tuple[float, ...]:
    """Either "lo:hi:count" (inclusive linspace, count >= 2) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r}: expected lo:hi:count")
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 2:  # linspace would drop hi
            raise ValueError(f"grid {text!r}: count must be >= 2; give one point as --grid {lo!r}")
        return tuple(float(v) for v in np.linspace(lo, hi, count))
    return tuple(float(v) for v in text.split(","))


def parse_n_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def write_manifest(out_base: Path, command: str, params: dict) -> Path:
    path = out_base.with_suffix(".manifest.txt")
    lines = [f"command={command}", f"version={__version__}",
             f"timestamp={datetime.now(timezone.utc).isoformat()}"]
    lines += [f"{key}={value}" for key, value in sorted(params.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def _write_csv(path: Path, header: str, rows) -> None:
    body = "\n".join([header] + list(rows)) + "\n"
    path.write_text(body, encoding="utf-8", newline="\n")


def _choices(enum) -> list[str]:
    return [member.value for member in enum]


def _shape_fields(args, kind: ProtocolKind) -> dict:
    """The plan-shaping SweepSpec fields given as flags; a flag the protocol
    ignores is rejected.  An omitted transport --beta is sqrt(1 - alpha^2)."""
    given = {dest: getattr(args, dest) for dest in _SHAPE_FLAGS if getattr(args, dest) is not None}
    ignored = [_SHAPE_FLAGS[dest] for dest in given if dest not in SHAPE_FIELDS.get(kind, ())]
    if ignored:
        raise ValueError(f"--protocol {kind.value} takes no {', '.join(ignored)}")
    if kind is ProtocolKind.TRANSPORT and "beta" not in given:
        alpha = given.get("alpha", SweepSpec.alpha)
        if not abs(alpha) <= 1.0:
            raise ValueError("--alpha must lie in [-1, 1] when --beta is omitted")
        given["beta"] = float(np.sqrt(1.0 - alpha**2))
    return given


def cmd_sweep(args) -> int:
    kind = ProtocolKind(args.protocol)
    spec = SweepSpec(
        protocol=kind,
        n_list=parse_n_list(args.n),
        grid=parse_grid(args.grid),
        disorder=args.disorder,
        realizations=args.realizations,
        master_seed=args.seed,
        interaction_range=InteractionRange(args.range),
        **_shape_fields(args, kind),
    )
    out = Path(args.out)
    if not out.parent.is_dir():  # checked before the cells run, not when the CSV is written
        raise FileNotFoundError(f"output directory {str(out.parent)!r} does not exist")
    records = run_sweep(spec, workers=args.workers)
    rows = [
        ",".join([
            r.protocol, str(r.n), _fmt(r.v0_over_omega), r.disorder, str(r.realizations),
            _fmt(r.mean_fidelity), _fmt(r.std_error), _fmt(r.fid_min), _fmt(r.fid_max),
        ])
        for r in records
    ]
    _write_csv(out.with_suffix(".csv"), SWEEP_HEADER, rows)
    write_manifest(out, "sweep", {
        "protocol": args.protocol, "n": args.n, "grid": args.grid,
        "disorder": args.disorder, "realizations": args.realizations,
        "seed": args.seed, "range": args.range, "z": _fmt(spec.z),
        "R": spec.blockade_range, "alpha": _fmt(spec.alpha.real),
        "beta": _fmt(spec.beta.real), "workers": args.workers,
    })
    print(f"wrote {out.with_suffix('.csv')} ({len(rows)} rows)")
    failed = [r for r in records if r.error is not None]
    for r in failed:
        print(f"capacity error: N={r.n} V0/Omega={_fmt(r.v0_over_omega)} is a NaN row: {r.error}",
              file=sys.stderr)
    return 4 if failed else 0


def cmd_mps_areas(args) -> int:
    thetas = mps_area_schedule(args.n, args.z, args.blockade_range)
    poly = mps_area_schedule_polynomial(args.n, args.z, args.blockade_range)
    disagreement = float(np.abs(thetas - poly).max())
    if not disagreement <= 1e-8:  # a NaN disagreement fails too; nothing is written
        raise NumericalError(
            f"recursion and polynomial schedules disagree by {disagreement:.3e}"
        )
    out = Path(args.out)
    write_manifest(out, "mps-areas", {
        "n": args.n, "z": _fmt(args.z), "R": args.blockade_range,
        "cross_method_disagreement": _fmt(disagreement),
    })
    _write_csv(
        out.with_suffix(".csv"), "k,theta", [f"{k + 1},{_fmt(th)}" for k, th in enumerate(thetas)]
    )
    print(f"wrote {out.with_suffix('.csv')}; methods agree within {disagreement:.3e}")
    return 0


def cmd_fit(args) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    lines = [(ln, raw.strip()) for ln, raw in enumerate(text.splitlines(), 1) if raw.strip()]
    if lines and any(not _is_number(f) for f in lines[0][1].split(",")[:2]):
        lines = lines[1:]  # the first non-blank line is the only header
    points = []
    for ln, raw in lines:
        fields = raw.split(",")
        try:
            points.append((float(fields[0]), float(fields[1])))
        except (ValueError, IndexError):
            raise ValueError(f"{args.input}: cannot parse line {ln}: {raw!r}") from None
    fit = fit_exponential_decay(points)
    print(f"a={_fmt(fit.a)} b={_fmt(fit.b)} sa={_fmt(fit.a_err)} sb={_fmt(fit.b_err)}")
    return 0


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def cmd_rk_check(args) -> int:
    if args.n > 10:
        raise ValueError("rk-check supports n <= 10")
    result = rk_ground_state_overlap(
        args.n, args.v0_over_omega, InteractionRange(args.range), omega=args.omega
    )
    print(f"delta={_fmt(result.delta)} z={_fmt(result.z)} overlap={_fmt(result.overlap)}")
    return 0


def cmd_nmax(args) -> int:
    policy = HyperfinePolicy(args.policy)
    if not args.ratio > 0:  # a NaN fails too
        raise ValueError("--ratio must be positive")
    omega = args.v0 / args.ratio
    rows = [
        ("transport", estimate_n_max(ProtocolKind.TRANSPORT, args.v0, omega, args.tau_exp,
                                     hyperfine_policy=policy)),
        ("ghz", estimate_n_max(ProtocolKind.GHZ3, args.v0, omega, args.tau_exp,
                               hyperfine_policy=policy)),
    ]
    for z in args.z:
        rows.append((f"mps_z{z:g}", estimate_n_max(ProtocolKind.DIMER_MPS, args.v0, omega,
                                                   args.tau_exp, z=z, hyperfine_policy=policy)))
    for name, n_max in rows:
        print(f"{name}={n_max}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rydchain",
        description="Pulsed Rydberg-chain protocol simulator and analysis tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="disorder-averaged fidelity sweep, CSV output")
    p.add_argument("--protocol", choices=_choices(ProtocolKind), required=True)
    p.add_argument("--n", required=True, help="comma list of chain lengths")
    p.add_argument("--grid", required=True, help="V0/Omega grid: lo:hi:count or comma list")
    p.add_argument("--disorder", choices=list(DISORDER_PRESETS), default="none")
    p.add_argument("--realizations", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--z", type=float, help="mps only (default 1.0)")
    p.add_argument("--R", dest="blockade_range", type=int, help="mps only (default 1)")
    p.add_argument("--alpha", type=float, help="transport only (default 2**-0.5)")
    p.add_argument("--beta", type=float, help="transport only (default sqrt(1 - alpha^2))")
    p.add_argument("--range", choices=_choices(InteractionRange), default="full")
    p.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--out", default="sweep", help="output basename")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("mps-areas", help="pulse-angle table for the dimer preparation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--R", dest="blockade_range", type=int, default=1)
    p.add_argument("--out", default="areas")
    p.set_defaults(func=cmd_mps_areas)

    p = sub.add_parser("fit", help="fit a*exp(-b(N-2)) to an (N,fidelity) CSV")
    p.add_argument("input")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("rk-check", help="ground-state overlap with the dimer target")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v0-over-omega", dest="v0_over_omega", type=float, required=True)
    p.add_argument("--range", choices=_choices(InteractionRange), default="nn")
    p.add_argument("--omega", type=float, default=1.0)
    p.set_defaults(func=cmd_rk_check)

    p = sub.add_parser("nmax", help="largest chain fitting the coherence budget")
    p.add_argument("--tau-exp", dest="tau_exp", type=float, required=True, help="budget in us")
    p.add_argument("--v0", type=float, required=True, help="interaction strength in rad/us")
    p.add_argument("--ratio", type=float, required=True, help="V0/Omega operating point")
    p.add_argument("--policy", choices=_choices(HyperfinePolicy), default="instant")
    p.add_argument("--z", type=float, nargs="*", default=[1.0, 10.0])
    p.set_defaults(func=cmd_nmax)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
