import tracemalloc
import warnings

import numpy as np
import pytest

from rydchain import montecarlo
from rydchain.analytics import ghz_fidelity_two_atoms
from rydchain.lattice import DisorderSpec, disorder_preset
from rydchain.montecarlo import SweepSpec, run_sweep
from rydchain.protocols import ProtocolKind


def make_spec(**kw):
    base = dict(
        protocol=ProtocolKind.GHZ2,
        n_list=(2,),
        grid=(6.9,),
        disorder=disorder_preset("none"),
        realizations=10,
        master_seed=7,
    )
    base.update(kw)
    return SweepSpec(**base)


class TestRealizationFidelity:
    """Single realizations, read off sweeps of one or two realizations per cell."""

    def test_deterministic(self):
        one = run_sweep(make_spec(disorder=disorder_preset("iso"), realizations=1))[0]
        two = run_sweep(make_spec(disorder=disorder_preset("iso"), realizations=2))[0]
        assert run_sweep(make_spec(disorder=disorder_preset("iso"), realizations=2))[0] == two
        # realization 0 draws the same configuration whatever the cell size
        assert one.mean_fidelity in (two.fid_min, two.fid_max)
        assert two.fid_min != two.fid_max

    def test_no_disorder_equals_protocol_fidelity(self):
        f = run_sweep(make_spec(realizations=1))[0].mean_fidelity
        assert f == pytest.approx(ghz_fidelity_two_atoms(6.9, 1.0), abs=1e-10)

    def test_vanishing_disorder_continuity(self):
        tiny = make_spec(disorder=DisorderSpec((1e-9, 1e-9, 1e-9)), realizations=1)
        none = make_spec(realizations=1)
        f_tiny = run_sweep(tiny)[0].mean_fidelity
        f_none = run_sweep(none)[0].mean_fidelity
        assert abs(f_tiny - f_none) < 1e-6


class TestRunSweep:
    def test_no_disorder_realization_count_irrelevant(self):
        r1 = run_sweep(make_spec(realizations=1))
        r100 = run_sweep(make_spec(realizations=100))
        assert r1[0].mean_fidelity == r100[0].mean_fidelity
        assert r100[0].std_error == 0.0

    def test_ghz2_mean_matches_closed_form(self):
        recs = run_sweep(make_spec(grid=(3.0, 6.9, 15.5)))
        for rec in recs:
            assert rec.mean_fidelity == pytest.approx(
                ghz_fidelity_two_atoms(rec.v0_over_omega, 1.0), abs=1e-10
            )

    def test_record_bounds(self):
        spec = make_spec(
            protocol=ProtocolKind.TRANSPORT,
            n_list=(3,),
            grid=(5.0, 10.0),
            disorder=disorder_preset("iso"),
            realizations=50,
        )
        for rec in run_sweep(spec):
            assert 0 <= rec.fid_min <= rec.mean_fidelity <= rec.fid_max <= 1
            assert rec.std_error >= 0

    def test_deterministic_across_worker_counts(self):
        spec = make_spec(
            protocol=ProtocolKind.TRANSPORT,
            n_list=(2, 3),
            grid=(5.0, 12.0),
            disorder=disorder_preset("aniso"),
            realizations=20,
        )
        serial = run_sweep(spec, workers=1)
        four = run_sweep(spec, workers=4)
        assert serial == four

    def test_capacity_failure_surfaces_as_nan_row(self):
        spec = make_spec(
            protocol=ProtocolKind.TRANSPORT,
            n_list=(2, 25),
            grid=(6.9,),
            realizations=1,
        )
        recs = run_sweep(spec)
        assert np.isfinite(recs[0].mean_fidelity)
        assert np.isnan(recs[1].mean_fidelity)

    def test_capacity_failure_carries_its_message(self):
        recs = run_sweep(make_spec(protocol=ProtocolKind.GHZ3, n_list=(2, 13), realizations=1))
        assert recs[0].error is None
        assert "exceeds the cap" in recs[1].error
        assert np.isnan([recs[1].mean_fidelity, recs[1].std_error, recs[1].fid_min]).all()

    def test_capacity_failure_allocates_nothing_dense(self):
        # 3^14 amplitudes would take 73 MB for the target alone
        spec = make_spec(protocol=ProtocolKind.GHZ3, n_list=(14,), realizations=1)
        tracemalloc.start()
        try:
            rec = run_sweep(spec)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isnan(rec.mean_fidelity)
        assert "exceeds the cap" in rec.error
        assert peak < 5e6

    def test_bad_chain_length_raises_before_any_cell_runs(self, monkeypatch):
        calls = []
        real = montecarlo.execute

        def counting_execute(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(montecarlo, "execute", counting_execute)
        with pytest.raises(ValueError, match="at least 2 sites"):
            run_sweep(make_spec(n_list=(3, 1), disorder=disorder_preset("iso")))
        assert calls == []

    def test_realization_warnings_reach_the_caller(self, monkeypatch):
        real = montecarlo.fidelity_pure

        def warning_fidelity(target, final):
            warnings.warn("from the realization loop", RuntimeWarning)
            return real(target, final)

        monkeypatch.setattr(montecarlo, "fidelity_pure", warning_fidelity)
        with pytest.warns(RuntimeWarning, match="realization loop"):
            run_sweep(make_spec())

    def test_odd_ghz_target_warning_stays_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = make_spec(n_list=(3,), disorder=disorder_preset("iso"), realizations=2)
            rec = run_sweep(spec)[0]
        assert 0.0 <= rec.mean_fidelity <= 1.0

    def test_strictly_increasing_grid_enforced(self):
        with pytest.raises(ValueError):
            make_spec(grid=(5.0, 5.0))


class TestSweepSpecShapeFields:
    """A field the protocol ignores must keep its default."""

    def test_ghz_with_dimer_and_transport_fields(self):
        with pytest.raises(ValueError, match="z, alpha"):
            SweepSpec(ProtocolKind.GHZ2, (3, 4), (6.9,), "iso", 5, 1, z=5.0, alpha=3.0)

    @pytest.mark.parametrize("protocol,field,value", [
        (ProtocolKind.GHZ2, "blockade_range", 2),
        (ProtocolKind.GHZ3, "beta", 0.8),
        (ProtocolKind.TRANSPORT, "z", 0.5),
        (ProtocolKind.TRANSPORT, "blockade_range", 2),
        (ProtocolKind.DIMER_MPS, "alpha", 0.6),
        (ProtocolKind.DIMER_MPS, "beta", float("nan")),
    ])
    def test_ignored_field_rejected(self, protocol, field, value):
        with pytest.raises(ValueError, match=field):
            make_spec(protocol=protocol, **{field: value})

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_defaults_pass_for_every_protocol(self, protocol):
        spec = make_spec(protocol=protocol, z=1.0, blockade_range=1, alpha=2**-0.5, beta=2**-0.5)
        assert spec.protocol is protocol


class TestDisorderPhysics:
    def test_transport_large_ratio_immune(self):
        common = dict(
            protocol=ProtocolKind.TRANSPORT,
            n_list=(4,),
            grid=(6.9, 50.0),
            realizations=200,
            master_seed=11,
        )
        none = run_sweep(make_spec(**common))
        iso = run_sweep(make_spec(disorder=disorder_preset("iso"), **common))
        # strong blockade: disorder barely matters
        assert abs(iso[1].mean_fidelity - none[1].mean_fidelity) < 0.02
        # fast-operation point: disorder hurts
        assert iso[0].mean_fidelity < none[0].mean_fidelity

    @pytest.mark.parametrize("protocol,ratio,z", [
        (ProtocolKind.GHZ2, 6.9, 1.0),
        (ProtocolKind.TRANSPORT, 6.9, 1.0),
        (ProtocolKind.DIMER_MPS, 15.5, 1.0),
    ])
    @pytest.mark.parametrize("n", [4, 6])
    def test_disorder_ordering_near_operating_points(self, protocol, ratio, z, n):
        reals = 200
        means, errs = {}, {}
        for name in ("none", "iso", "aniso"):
            spec = make_spec(
                protocol=protocol, n_list=(n,), grid=(ratio,),
                disorder=disorder_preset(name), realizations=reals, master_seed=23, z=z,
            )
            rec = run_sweep(spec)[0]
            means[name], errs[name] = rec.mean_fidelity, rec.std_error
        assert means["none"] >= means["iso"] >= means["aniso"]
        sep = means["none"] - means["aniso"]
        assert sep > 2 * np.sqrt(errs["none"] ** 2 + errs["aniso"] ** 2)

    def test_fidelity_decays_with_chain_length_under_disorder(self):
        spec = make_spec(
            protocol=ProtocolKind.TRANSPORT,
            n_list=(2, 4, 6),
            grid=(6.9,),
            disorder=disorder_preset("aniso"),
            realizations=200,
            master_seed=31,
        )
        recs = run_sweep(spec)
        fids = [r.mean_fidelity for r in recs]
        assert fids[0] > fids[1] > fids[2]
