import dataclasses
import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import sweep_cell_by_loop, two_atom_disorder_average
from rydchain import montecarlo
from rydchain.analytics import ghz_fidelity_two_atoms
from rydchain.dynamics import InteractionRange, _half_tables
from rydchain.lattice import DisorderSpec, disorder_preset
from rydchain.montecarlo import BATCH_AMPLITUDES, SweepSpec, run_sweep
from rydchain.protocols import COEF_CHUNK, ProtocolKind, plan_for


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


@pytest.fixture
def execute_calls(monkeypatch):
    """Arguments of every montecarlo.execute call, which still runs."""
    calls = []
    real = montecarlo.execute

    def counting_execute(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "execute", counting_execute)
    return calls


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
        # at V0/Omega = 6 the mean of 100 repeats once differed from the value in the last bit
        r1 = run_sweep(make_spec(grid=(6.0, 6.9), realizations=1))
        r100 = run_sweep(make_spec(grid=(6.0, 6.9), realizations=100))
        for one, hundred in zip(r1, r100):
            value = one.mean_fidelity
            assert hundred.mean_fidelity == hundred.fid_min == hundred.fid_max == value
            assert one.fid_min == one.fid_max == value
            assert hundred.std_error == 0.0

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

    def test_large_ghz_cell_holds_no_dense_target(self):
        # the target was once a dense 2^18 complex array, 4 MiB beside the
        # 4 MiB state: a cold cell then peaked at 14.4 MiB
        spec = make_spec(n_list=(18,), grid=(15.5,), disorder=disorder_preset("iso"), realizations=1)
        _half_tables.cache_clear()
        tracemalloc.start()
        try:
            rec = montecarlo._cell((spec, plan_for(ProtocolKind.GHZ2, 18), 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.error is None
        assert peak <= 11 * 2**20

    def test_single_process_sweep_loads_no_process_pool(self):
        # the pool's modules were once imported with montecarlo, whether or not a sweep used them
        code = (
            "import sys, rydchain.cli\n"
            "from rydchain.montecarlo import SweepSpec, run_sweep\n"
            "from rydchain.protocols import ProtocolKind\n"
            "run_sweep(SweepSpec(ProtocolKind.GHZ2, (2, 3), (6.9,), 'iso', 2, 7), workers=1)\n"
            "print('concurrent.futures.process' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(montecarlo.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_bad_chain_length_raises_before_any_cell_runs(self, execute_calls):
        with pytest.raises(ValueError, match="at least 2 sites"):
            run_sweep(make_spec(n_list=(3, 1), disorder=disorder_preset("iso")))
        assert execute_calls == []

    @pytest.mark.parametrize("protocol,n,runs", [
        (ProtocolKind.TRANSPORT, 7, 40),  # d K = 504: 8 realizations a pass
        (ProtocolKind.GHZ2, 4, 100),  # d K = 30: one pass holds the block
        (ProtocolKind.GHZ3, 5, 30),  # d K = 723: 5 realizations a pass
        (ProtocolKind.GHZ2, 13, 3),  # d K = 16382 > COEF_CHUNK: one realization a pass
    ])
    def test_coefficient_pass_mixes_hold_at_most_2_coef_chunk_entries(
        self, monkeypatch, protocol, n, runs
    ):
        # one pass's mixes hold at most 2 COEF_CHUNK complex entries, unless
        # one realization's alone hold more
        plan = plan_for(protocol, n)
        row_entries = 2 * plan.scheme.local_dim * len(plan.schedule.half_theta)
        widths = []
        real = montecarlo.gathered_mixes

        def recording_mixes(plan, energies, omega):
            widths.append(energies.shape[1])
            return real(plan, energies, omega)

        monkeypatch.setattr(montecarlo, "gathered_mixes", recording_mixes)
        run_sweep(make_spec(protocol=protocol, n_list=(n,), disorder=disorder_preset("iso"),
                            realizations=runs))
        per_pass = max(1, 2 * COEF_CHUNK // row_entries)
        assert widths == [per_pass] * (runs // per_pass) + [runs % per_pass] * (runs % per_pass > 0)
        assert max(widths) * row_entries <= max(row_entries, 2 * COEF_CHUNK)

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

    @pytest.mark.parametrize("grid", [
        (float("nan"),), (6.9, float("nan")), (float("nan"), 6.9),
        (float("inf"),), (6.9, float("inf")), (-float("inf"), 6.9),
    ], ids=["nan", "6.9,nan", "nan,6.9", "inf", "6.9,inf", "-inf,6.9"])
    def test_non_finite_grid_rejected(self, grid):
        # a lone NaN passed the ordering check, since NaN <= NaN is False
        with pytest.raises(ValueError, match="finite"):
            make_spec(grid=grid)

    @pytest.mark.parametrize("disorder,per_cell", [("none", 1), ("iso", 3)])
    def test_one_execute_per_realization(self, execute_calls, disorder, per_cell):
        # a disorder-free cell runs once whatever the realization count
        spec = make_spec(n_list=(2, 3), grid=(5.0, 6.9), disorder=disorder_preset(disorder),
                         realizations=3)
        assert len(run_sweep(spec)) == 4
        assert len(execute_calls) == 4 * per_cell

    @pytest.mark.parametrize("field", ["grid", "n_list"])
    def test_empty_axis_rejected(self, field):
        # an empty grid once gave a sweep of no cells and a header-only CSV
        with pytest.raises(ValueError, match="at least one value"):
            make_spec(**{field: ()})

    @pytest.mark.parametrize("field, value", [
        ("n_list", (2.7,)), ("n_list", (2, 3.0)), ("n_list", (True,)),
        ("realizations", True), ("realizations", 2.5), ("realizations", 3.0),
    ], ids=["n2.7", "n3.0", "n-true", "r-true", "r2.5", "r3.0"])
    def test_non_integer_count_rejected(self, field, value):
        # n_list=(2.7,) once ran and reported N = 2, realizations=True ran
        # once and wrote True to the CSV, and 2.5 died inside the first cell
        with pytest.raises(ValueError, match="integer"):
            make_spec(**{field: value})

    @pytest.mark.parametrize("seed", [-3, True, 2.0, "7"], ids=["negative", "true", "float", "str"])
    def test_master_seed_must_be_a_non_negative_integer(self, seed):
        # -3 once failed only inside numpy's SeedSequence, in the first
        # disordered cell; a disorder-free cell hashes no seed at all
        with pytest.raises(ValueError, match="master_seed"):
            make_spec(master_seed=seed)

    def test_numpy_integer_counts_become_ints(self):
        spec = make_spec(n_list=(np.int64(3),), realizations=np.int32(4))
        assert spec.n_list == (3,) and spec.realizations == 4
        assert type(spec.n_list[0]) is int and type(spec.realizations) is int

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        # -3 once ran serially while the manifest recorded workers=-3
        with pytest.raises(ValueError, match="workers"):
            run_sweep(make_spec(n_list=(2,)), workers=workers)


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(list(ProtocolKind)),
    st.integers(2, 7),
    st.floats(1.0, 40.0),
    st.one_of(
        st.sampled_from(["iso", "aniso"]),
        st.tuples(*[st.floats(0.02, 0.6)] * 3).map(DisorderSpec),
    ),
    st.sampled_from(list(InteractionRange)),
    st.integers(1, 6),
    st.sampled_from([BATCH_AMPLITUDES, 16, 1]),
)
# B = 2^16 // 2^14 = 4 realizations per block, so R = 5 runs a block of 4 and one of 1
@example(ProtocolKind.GHZ2, 14, 6.9, "aniso", InteractionRange.FULL, 5, BATCH_AMPLITUDES)
@example(ProtocolKind.TRANSPORT, 3, 15.5, "iso", InteractionRange.NEAREST_NEIGHBOR, 6, 16)
# transport N = 7 gathers K = 252 blocks, so its block of 40 takes
# COEF_CHUNK // (2 * 252) = 8 realizations per coefficient pass: 5 passes
@example(ProtocolKind.TRANSPORT, 7, 6.9, "aniso", InteractionRange.FULL, 40, BATCH_AMPLITUDES)
def test_blocks_equal_the_per_realization_loop(
    protocol, n, ratio, disorder, interaction_range, runs, amplitudes
):
    # a smaller BATCH_AMPLITUDES splits even short chains' cells into several blocks
    if protocol is ProtocolKind.GHZ3:
        n = min(n, 5)
    spec = make_spec(protocol=protocol, n_list=(n,), grid=(ratio,), disorder=disorder,
                     interaction_range=interaction_range, realizations=runs,
                     master_seed=runs * 1009 + n)
    with mock.patch.object(montecarlo, "BATCH_AMPLITUDES", amplitudes):
        record = run_sweep(spec)[0]
    loop = sweep_cell_by_loop(spec, plan_for(protocol, n), 0)
    for field in dataclasses.fields(record):
        got, want = getattr(record, field.name), getattr(loop, field.name)
        if isinstance(want, float):
            assert abs(got - want) <= 1e-14, field.name
        else:
            assert got == want, field.name


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

    @pytest.mark.parametrize("ratio", [6.9, 15.5])
    @pytest.mark.parametrize("disorder", ["iso", "aniso"])
    def test_two_atom_means_match_the_exact_disorder_average(self, ratio, disorder):
        sigma = disorder_preset(disorder).sigma
        exact = two_atom_disorder_average(ratio, sigma, 48)
        # doubling the nodes from 24 moves the rule by at most 7.4e-4 over these
        # cells, and from 48 to 80 by at most 1.5e-5: far inside 4 standard errors
        coarse = two_atom_disorder_average(ratio, sigma, 24)
        for protocol in (ProtocolKind.GHZ2, ProtocolKind.TRANSPORT):
            assert abs(exact[protocol] - coarse[protocol]) <= 1e-3
            spec = make_spec(protocol=protocol, grid=(ratio,), disorder=disorder,
                             realizations=1000, master_seed=2024)
            rec = run_sweep(spec)[0]
            assert abs(rec.mean_fidelity - exact[protocol]) <= 4 * rec.std_error, protocol

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
