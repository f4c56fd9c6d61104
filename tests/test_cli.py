import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydchain import analytics, cli, montecarlo
from rydchain.analytics import ghz_fidelity_two_atoms
from rydchain.errors import CapacityError, NumericalError
from rydchain.protocols import mps_area_schedule


def run_cli(*argv):
    return cli.main(list(argv))


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSweepCommand:
    def test_csv_and_manifest_written(self, tmp_path):
        out = tmp_path / "run"
        code = run_cli(
            "sweep", "--protocol", "ghz2", "--n", "2", "--grid", "3.0,6.9",
            "--realizations", "5", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        csv = out.with_suffix(".csv")
        manifest = out.with_suffix(".manifest.txt")
        assert csv.exists() and manifest.exists()
        assert csv.read_text().splitlines()[0] == cli.SWEEP_HEADER
        text = manifest.read_text()
        assert "command=sweep" in text and "seed=1" in text

    def test_ghz2_curve_matches_closed_form(self, tmp_path):
        out = tmp_path / "ghz"
        run_cli(
            "sweep", "--protocol", "ghz2", "--n", "2", "--grid", "0.5:30:12",
            "--realizations", "1", "--seed", "0", "--out", str(out),
        )
        for row in read_rows(out.with_suffix(".csv")):
            ratio = float(row["v0_over_omega"])
            assert abs(float(row["mean_fidelity"]) - ghz_fidelity_two_atoms(ratio, 1.0)) < 1e-10

    def test_small_z_dimer_curve_is_flat_near_unity(self, tmp_path):
        out = tmp_path / "mps"
        run_cli(
            "sweep", "--protocol", "mps", "--z", "0.1", "--n", "2,3,4,5,6,7",
            "--grid", "1.0,6.9,20.0", "--realizations", "1", "--seed", "0",
            "--out", str(out),
        )
        fids = [float(r["mean_fidelity"]) for r in read_rows(out.with_suffix(".csv"))]
        assert min(fids) > 0.98

    def test_transport_fidelity_independent_of_input_at_peaks(self, tmp_path):
        """The input-state dependence dies out at the operating peaks; between
        peaks the curves stay close but not identical."""
        curves = {}
        for alpha in (-0.7, 0.0, 0.7):
            out = tmp_path / f"t{alpha}"
            run_cli(
                "sweep", "--protocol", "transport", "--n", "4",
                "--grid", "5.0,6.9,10.0,15.5", "--alpha", str(alpha),
                "--realizations", "1", "--seed", "0", "--out", str(out),
            )
            curves[alpha] = np.array(
                [float(r["mean_fidelity"]) for r in read_rows(out.with_suffix(".csv"))]
            )
        for alpha in (0.0, 0.7):
            dev = np.abs(curves[alpha] - curves[-0.7])
            assert dev[1] < 1e-3 and dev[3] < 1e-3  # peaks at 6.9 and 15.5
            assert dev.max() < 0.1

    def test_byte_identical_reruns_and_worker_counts(self, tmp_path):
        bodies = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / tag
            run_cli(
                "sweep", "--protocol", "transport", "--n", "2,3", "--grid", "5.0,9.0",
                "--disorder", "iso", "--realizations", "8", "--seed", "42",
                "--workers", workers, "--out", str(out),
            )
            bodies.append(out.with_suffix(".csv").read_bytes())
        assert bodies[0] == bodies[1] == bodies[2]

    @settings(max_examples=6, deadline=None)
    @given(st.data())
    def test_worker_count_never_changes_the_csv(self, data):
        protocol = data.draw(st.sampled_from(["ghz2", "ghz3", "mps", "transport"]))
        lengths = st.integers(2, 4 if protocol == "ghz3" else 6)
        n_list = data.draw(st.lists(lengths, min_size=1, max_size=3))
        grid = sorted(data.draw(st.sets(st.floats(1.0, 30.0), min_size=1, max_size=3)))
        argv = [
            "sweep", "--protocol", protocol, "--n", ",".join(map(str, n_list)),
            "--grid", ",".join(map(repr, grid)),
            "--disorder", data.draw(st.sampled_from(["none", "iso", "aniso"])),
            "--realizations", str(data.draw(st.integers(1, 8))),
            "--seed", str(data.draw(st.integers(0, 2**32 - 1))),
            "--range", data.draw(st.sampled_from(["full", "nn"])),
        ]
        if protocol == "mps":
            argv += [f"--z={data.draw(st.floats(-3.0, 3.0))!r}", f"--R={data.draw(st.integers(1, 2))}"]
        if protocol == "transport":
            argv += [f"--alpha={data.draw(st.floats(-1.0, 1.0))!r}"]
        with tempfile.TemporaryDirectory() as tmp:
            bodies = []
            for workers in ("1", "2"):
                out = Path(tmp) / workers
                assert run_cli(*argv, "--workers", workers, "--out", str(out)) == 0
                bodies.append(out.with_suffix(".csv").read_bytes())
        assert bodies[0] == bodies[1]

    def test_capacity_failure_exits_4_and_keeps_the_row(self, tmp_path, capsys):
        out = tmp_path / "cap"
        code = run_cli(
            "sweep", "--protocol", "ghz3", "--n", "2,13", "--grid", "6.9",
            "--realizations", "1", "--out", str(out),
        )
        assert code == 4
        rows = read_rows(out.with_suffix(".csv"))
        assert [r["N"] for r in rows] == ["2", "13"]
        assert float(rows[0]["mean_fidelity"]) > 0.9
        assert rows[1]["mean_fidelity"] == "nan"
        err = capsys.readouterr().err
        assert "capacity error" in err and "N=13" in err and "exceeds the cap" in err

    @pytest.mark.parametrize("alpha", ["2", "-1.5", "nan"])
    def test_alpha_outside_unit_interval_without_beta(self, tmp_path, alpha):
        out = tmp_path / "t"
        code = run_cli(
            "sweep", "--protocol", "transport", "--n", "2,3", "--grid", "6.9",
            "--alpha", alpha, "--out", str(out),
        )
        assert code == 2
        assert not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize("protocol,flag,value", [
        ("ghz2", "--z", "1"),
        ("ghz3", "--R", "2"),
        ("transport", "--z", "0.5"),
        ("transport", "--R", "1"),
        ("mps", "--alpha", "0.6"),
        ("mps", "--beta", "0.8"),
        ("ghz2", "--alpha", "1"),
    ])
    def test_flag_the_protocol_ignores_is_rejected(self, tmp_path, capsys, protocol, flag, value):
        out = tmp_path / "x"
        code = run_cli(
            "sweep", "--protocol", protocol, "--n", "2", "--grid", "6.9",
            flag, value, "--out", str(out),
        )
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not out.with_suffix(".csv").exists()

    def test_failing_sweep_leaves_no_file(self, tmp_path):
        # the (alpha, beta) pair is checked inside the sweep, after argument parsing
        code = run_cli(
            "sweep", "--protocol", "transport", "--n", "2", "--grid", "6.9",
            "--alpha", "0.6", "--beta", "0.9", "--out", str(tmp_path / "t"),
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_manifest_records_worker_count(self, tmp_path):
        out = tmp_path / "w"
        run_cli("sweep", "--protocol", "ghz2", "--n", "2", "--grid", "6.9", "--out", str(out))
        assert "workers=1" in out.with_suffix(".manifest.txt").read_text().splitlines()

    def test_default_beta_completes_alpha(self, tmp_path):
        out = tmp_path / "t"
        run_cli("sweep", "--protocol", "transport", "--n", "2", "--grid", "6.9", "--out", str(out))
        lines = out.with_suffix(".manifest.txt").read_text().splitlines()
        manifest = dict(line.split("=", 1) for line in lines)
        assert manifest["alpha"] == repr(2**-0.5)
        assert manifest["beta"] == "0.7071067811865475"  # sqrt(1 - alpha^2), not 2**-0.5

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--protocol", "bogus", "--n", "2", "--grid", "1")
        assert exc.value.code == 2

    def test_bad_grid_exit_code(self, tmp_path):
        code = run_cli(
            "sweep", "--protocol", "ghz2", "--n", "2", "--grid", "9.0,3.0",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2

    @pytest.mark.parametrize("grid", ["6.9,nan", "nan", "inf", "6.9,inf"])
    def test_non_finite_grid_exits_2_before_any_cell_runs(
        self, tmp_path, capsys, monkeypatch, grid
    ):
        # "6.9,nan" once ran the 6.9 cells, then failed on the couplings
        calls = []
        monkeypatch.setattr(montecarlo, "execute", lambda *args, **kwargs: calls.append(args))
        code = run_cli(
            "sweep", "--protocol", "ghz2", "--n", "2,4", "--grid", grid,
            "--realizations", "2", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "grid values must be finite" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("disorder", ["none", "iso"])
    def test_negative_seed_exits_2_before_any_cell_runs(self, tmp_path, capsys, monkeypatch, disorder):
        calls = []
        monkeypatch.setattr(montecarlo, "execute", lambda *args, **kwargs: calls.append(args))
        code = run_cli(
            "sweep", "--protocol", "ghz2", "--n", "2,4", "--grid", "6.9", "--disorder", disorder,
            "--realizations", "2", "--seed", "-3", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "master_seed" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_missing_output_directory_exits_2_before_any_cell_runs(
        self, tmp_path, capsys, monkeypatch
    ):
        # every cell once ran, then writing the CSV failed with [Errno 2]
        calls = []
        monkeypatch.setattr(montecarlo, "execute", lambda *args, **kwargs: calls.append(args))
        missing = tmp_path / "missing"
        code = run_cli(
            "sweep", "--protocol", "ghz2", "--n", "2,3", "--grid", "6.9", "--disorder", "iso",
            "--realizations", "3", "--out", str(missing / "x"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "does not exist" in err and str(missing) in err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag,value", [
        pytest.param("--grid", "1:30:0", id="empty-grid"),
        pytest.param("--grid", "1:30:1", id="one-point-range"),
        pytest.param("--workers", "-3", id="negative-workers"),
        pytest.param("--workers", "0", id="zero-workers"),
    ])
    def test_input_with_no_effect_exits_2(self, tmp_path, flag, value):
        args = {"--grid": "6.9", "--workers": "1", flag: value}
        code = run_cli(
            "sweep", "--protocol", "ghz2", "--n", "2", "--realizations", "2",
            *(item for pair in args.items() for item in pair), "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_dimer_cross_check_exits_3(self, tmp_path, capsys):
        code = run_cli(
            "sweep", "--protocol", "mps", "--z", "1e200", "--n", "4", "--grid", "15.5",
            "--realizations", "2", "--out", str(tmp_path / "x"),
        )
        assert code == 3
        assert "closed form" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestMpsAreasCommand:
    def test_zero_z(self, tmp_path):
        out = tmp_path / "areas"
        assert run_cli("mps-areas", "--n", "4", "--z", "0", "--out", str(out)) == 0
        rows = read_rows(out.with_suffix(".csv"))
        assert all(float(r["theta"]) == 0.0 for r in rows)

    def test_known_triple(self, tmp_path):
        out = tmp_path / "areas"
        run_cli("mps-areas", "--n", "3", "--z", "1", "--out", str(out))
        thetas = [float(r["theta"]) for r in read_rows(out.with_suffix(".csv"))]
        assert np.allclose(
            thetas, [0.6847192030022829, 0.6154797086703873, 0.7853981633974483], atol=1e-12
        )

    def test_cross_method_report(self, tmp_path, capsys):
        out = tmp_path / "areas"
        code = run_cli(
            "mps-areas", "--n", "6", "--z", "1", "--R", "2", "--out", str(out),
        )
        assert code == 0
        assert "agree within" in capsys.readouterr().out
        manifest = out.with_suffix(".manifest.txt").read_text()
        assert "cross_method_disagreement=" in manifest

    def test_method_option_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("mps-areas", "--n", "3", "--z", "1", "--method", "recursion",
                    "--out", str(tmp_path / "a"))
        assert exc.value.code == 2

    def test_disagreeing_methods_exit_3_and_write_nothing(self, tmp_path, monkeypatch, capsys):
        def shifted(n_sites, z, blockade_range=1):
            return mps_area_schedule(n_sites, z, blockade_range) + 1e-6

        monkeypatch.setattr(cli, "mps_area_schedule_polynomial", shifted)
        code = run_cli("mps-areas", "--n", "6", "--z", "1", "--out", str(tmp_path / "areas"))
        assert code == 3
        assert "disagree" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_long_chain_large_z_methods_agree(self, tmp_path):
        out = tmp_path / "areas"
        assert run_cli("mps-areas", "--n", "320", "--z", "10", "--out", str(out)) == 0
        manifest = out.with_suffix(".manifest.txt").read_text().splitlines()
        fields = dict(line.split("=", 1) for line in manifest)
        disagreement = float(fields["cross_method_disagreement"])
        assert np.isfinite(disagreement) and disagreement <= 1e-8


class TestFitCommand:
    def test_fit_output(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        ns = np.arange(2, 9)
        ys = 0.93 * np.exp(-0.04 * (ns - 2))
        data.write_text("N,fidelity\n" + "\n".join(f"{n},{float(y)!r}" for n, y in zip(ns, ys)))
        assert run_cli("fit", str(data)) == 0
        line = capsys.readouterr().out.strip()
        fields = dict(kv.split("=") for kv in line.split())
        assert float(fields["a"]) == pytest.approx(0.93, abs=1e-9)
        assert float(fields["b"]) == pytest.approx(0.04, abs=1e-9)

    def test_malformed_line_reported(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("2,0.9\n3,oops\n4,0.8\n")
        assert run_cli("fit", str(data)) == 2
        assert "line 2" in capsys.readouterr().err

    def test_header_after_leading_blank_lines(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("\n  \nN,f\n2,0.9\n3,0.85\n4,0.8\n")
        assert run_cli("fit", str(data)) == 0
        assert capsys.readouterr().out.startswith("a=")

    def test_only_the_first_line_may_be_a_header(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("N,f\nN,f\n2,0.9\n3,0.85\n4,0.8\n")
        assert run_cli("fit", str(data)) == 2
        assert "line 2" in capsys.readouterr().err

    def test_nan_fidelity_exits_2(self, tmp_path, capsys):
        # a capacity failure leaves a NaN row in a sweep CSV
        data = tmp_path / "data.csv"
        data.write_text("N,fidelity\n2,0.9\n3,nan\n4,0.8\n")
        assert run_cli("fit", str(data)) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_all_zero_fidelities_exit_3(self, tmp_path, capsys):
        # b is undetermined; this once printed a=0.0 b=0.0 sa=0.0 sb=0.0 and exited 0
        data = tmp_path / "data.csv"
        data.write_text("N,fidelity\n" + "\n".join(f"{n},0.0" for n in range(2, 8)))
        assert run_cli("fit", str(data)) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "undetermined" in captured.err


class TestRkCheckCommand:
    def test_short_range_overlap(self, capsys):
        assert run_cli("rk-check", "--n", "6", "--v0-over-omega", "64") == 0
        line = capsys.readouterr().out.strip()
        fields = dict(kv.split("=") for kv in line.split())
        assert float(fields["overlap"]) >= 0.99
        assert float(fields["z"]) == pytest.approx(-1.0)

    def test_full_range_reported_lower(self, capsys):
        run_cli("rk-check", "--n", "4", "--v0-over-omega", "64", "--range", "nn")
        nn = float(dict(kv.split("=") for kv in capsys.readouterr().out.split())["overlap"])
        run_cli("rk-check", "--n", "4", "--v0-over-omega", "64", "--range", "full")
        full = float(dict(kv.split("=") for kv in capsys.readouterr().out.split())["overlap"])
        assert full < nn

    def test_zero_omega_guard(self, capsys):
        assert run_cli("rk-check", "--n", "4", "--v0-over-omega", "64", "--omega", "0") == 2

    def test_state_cap_is_the_one_limit(self, capsys):
        # the dense-state cap (N <= 20) is the only limit on the chain
        assert run_cli("rk-check", "--n", "11", "--v0-over-omega", "64") == 0
        fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
        assert float(fields["overlap"]) >= 0.99
        assert run_cli("rk-check", "--n", "21", "--v0-over-omega", "64") == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "exceeds the cap" in captured.err

    def test_unconverged_solver_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(analytics, "LANCZOS_MAX_RESTARTS", 2)
        argv = ("rk-check", "--n", "9", "--v0-over-omega", "470.36", "--range", "full")
        assert run_cli(*argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "not converged" in captured.err

    @pytest.mark.parametrize("flag,value", [
        ("--v0-over-omega", "nan"), ("--omega", "nan"), ("--omega", "inf"),
        ("--v0-over-omega", "inf"),
    ])
    def test_non_finite_input_exits_2_before_diagonalizing(self, capsys, flag, value):
        # these once ran eigh on a NaN Hamiltonian: RuntimeWarnings, then "did not converge"
        args = {"--n": "4", "--v0-over-omega": "64", flag: value}
        assert run_cli("rk-check", *(item for pair in args.items() for item in pair)) == 2
        assert "finite and positive" in capsys.readouterr().err


class TestNmaxCommand:
    def test_report_lines(self, capsys):
        code = run_cli("nmax", "--tau-exp", "2.0", "--v0", "52.78", "--ratio", "6.9")
        assert code == 0
        out = capsys.readouterr().out
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert set(values) == {"transport", "ghz", "mps_z1", "mps_z10"}
        assert all(int(v) >= 2 for v in values.values())

    @pytest.mark.parametrize("tau", ["inf", "1e9"])
    def test_budget_past_the_search_cap_exits_4(self, capsys, tau):
        # this once printed transport=1000 ghz=1000 mps_z1=1000 mps_z10=1000 and exited 0
        assert run_cli("nmax", "--tau-exp", tau, "--v0", "52.78", "--ratio", "6.9") == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "n_cap = 1000" in captured.err

    @pytest.mark.parametrize("flag,value", [
        pytest.param("--tau-exp", "nan", id="nan-budget"),
        pytest.param("--ratio", "nan", id="nan-ratio"),
        pytest.param("--ratio", "0", id="zero-ratio"),
        pytest.param("--ratio", "-6.9", id="negative-ratio"),
        pytest.param("--v0", "inf", id="inf-v0"),
    ])
    def test_invalid_input_exits_2(self, capsys, flag, value):
        # a NaN budget or an infinite --v0 once printed =1000 on every row;
        # --ratio 0 died in a ZeroDivisionError
        args = {"--tau-exp": "2.0", "--v0": "52.78", "--ratio": "6.9", flag: value}
        assert run_cli("nmax", *(item for pair in args.items() for item in pair)) == 2
        assert capsys.readouterr().out == ""


class TestExitCodeMapping:
    def test_capacity_maps_to_4(self, monkeypatch, capsys):
        def boom(*a, **k):
            raise CapacityError("too big")

        monkeypatch.setattr(cli, "rk_ground_state_overlap", boom)
        assert run_cli("rk-check", "--n", "6", "--v0-over-omega", "64") == 4

    def test_numerical_maps_to_3(self, monkeypatch, capsys):
        def boom(*a, **k):
            raise NumericalError("cross-check failed")

        monkeypatch.setattr(cli, "rk_ground_state_overlap", boom)
        assert run_cli("rk-check", "--n", "6", "--v0-over-omega", "64") == 3


def test_grid_parsing():
    assert cli.parse_grid("1,2.5,7") == (1.0, 2.5, 7.0)
    lin = cli.parse_grid("0:10:5")
    assert lin == (0.0, 2.5, 5.0, 7.5, 10.0)
    with pytest.raises(ValueError):
        cli.parse_grid("1:2")
    # one point from a range would silently drop hi; it is written "--grid 1"
    for count in (1, 0, -2):
        with pytest.raises(ValueError, match="count must be >= 2"):
            cli.parse_grid(f"1:30:{count}")


def test_package_imports_without_scipy():
    # scipy is a test-only dependency: importing the CLI, and with it every module, must not load it
    code = (
        "import importlib, pkgutil, sys, rydchain, rydchain.cli\n"
        "for m in pkgutil.iter_modules(rydchain.__path__): importlib.import_module('rydchain.' + m.name)\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
