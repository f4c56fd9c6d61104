import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydchain.errors import GeometryError
from rydchain.lattice import (
    DISORDER_PRESETS,
    DisorderSpec,
    coupling_matrix,
    disorder_preset,
    ideal_configuration,
    realization_keys,
    realization_seed,
    sample_configuration,
    truncate_couplings,
)


class TestIdealConfiguration:
    def test_reference_spacing(self):
        pos = ideal_configuration(2, 4.1)
        assert np.allclose(pos, [[0, 0, 4.1], [0, 0, 8.2]])

    def test_single_atom(self):
        pos = ideal_configuration(1, 2.0)
        assert pos.shape == (1, 3)

    def test_unit_spacing_distances(self):
        pos = ideal_configuration(5, 1.0)
        for k in range(5):
            for m in range(5):
                assert np.linalg.norm(pos[k] - pos[m]) == pytest.approx(abs(k - m))

    def test_validation(self):
        with pytest.raises(ValueError):
            ideal_configuration(0, 1.0)
        with pytest.raises(ValueError):
            ideal_configuration(2, -1.0)
        with pytest.raises(ValueError):
            ideal_configuration(2, float("nan"))
        with pytest.raises(ValueError):
            sample_configuration(0, 1.0, DISORDER_PRESETS["iso"], seed=1)


class TestDisorder:
    def test_preset_kinds(self):
        assert DISORDER_PRESETS["none"].kind == "none"
        assert DISORDER_PRESETS["iso"].kind == "iso"
        assert DISORDER_PRESETS["aniso"].kind == "aniso"
        assert DisorderSpec((0.3, 0.1, 0.2)).kind == "custom"
        assert disorder_preset("aniso").sigma == (1.0, 0.12, 0.12)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            disorder_preset("weak")

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            DisorderSpec((-0.1, 0, 0))

    def test_nan_width_rejected(self):
        # once accepted and labelled "aniso"
        with pytest.raises(ValueError):
            DisorderSpec((float("nan"), 0.12, 0.12))

    def test_zero_width_is_ideal(self):
        n, r0 = 4, 4.1
        pos = sample_configuration(n, r0, DisorderSpec((0, 0, 0)), seed=3)
        assert np.array_equal(pos, ideal_configuration(n, r0))

    def test_same_seed_bit_identical(self):
        n, r0 = 5, 4.1
        dis = DISORDER_PRESETS["iso"]
        a = sample_configuration(n, r0, dis, realization_seed(7, 1, 2, 3))
        b = sample_configuration(n, r0, dis, realization_seed(7, 1, 2, 3))
        assert np.array_equal(a, b)
        c = sample_configuration(n, r0, dis, realization_seed(7, 1, 2, 4))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("name", ["none", "iso", "aniso"])
    def test_list_of_seeds_stacks_each_seed_s_draw(self, name):
        # the stacked form takes (R, 2) Philox keys: row r of the stack is
        # bit-identical to realization r's seed drawn alone
        keys = realization_keys(7, 5, 1, np.arange(4))
        stack = sample_configuration(5, 4.1, DISORDER_PRESETS[name], keys)
        assert stack.shape == (4, 5, 3)
        for i, row in enumerate(stack):
            alone = sample_configuration(5, 4.1, DISORDER_PRESETS[name], realization_seed(7, 5, 1, i))
            assert np.array_equal(row, alone)

    @pytest.mark.parametrize("keys", [
        np.zeros((3, 2), dtype=np.int64), np.zeros((3, 3), dtype=np.uint64),
    ], ids=["int64", "three-words"])
    def test_stacked_keys_must_be_r_by_2_uint64(self, keys):
        with pytest.raises(ValueError, match="uint64"):
            sample_configuration(5, 4.1, DISORDER_PRESETS["iso"], keys)

    def test_sampled_variance_matches_widths(self):
        n, r0 = 50, 4.1
        dis = DisorderSpec((0.12, 0.12, 0.12))
        ideal = ideal_configuration(n, r0)
        disp = np.concatenate([
            sample_configuration(n, r0, dis, realization_seed(11, i)) - ideal
            for i in range(2000)
        ])
        var = disp.var(axis=0)  # 1e5 draws per axis
        assert np.all(np.abs(var - 0.12**2) < 0.02 * 0.12**2)

    def test_anisotropic_widths_land_on_their_axes(self):
        n, r0 = 50, 4.1
        dis = DISORDER_PRESETS["aniso"]
        ideal = ideal_configuration(n, r0)
        disp = np.concatenate([
            sample_configuration(n, r0, dis, realization_seed(13, i)) - ideal
            for i in range(400)
        ])
        std = disp.std(axis=0)
        assert std[0] == pytest.approx(1.0, rel=0.05)
        assert std[1] == pytest.approx(0.12, rel=0.05)
        assert std[2] == pytest.approx(0.12, rel=0.05)


class TestCouplingMatrix:
    def test_neighbor_value(self):
        pos = ideal_configuration(3, 4.1)
        V = coupling_matrix(pos, 5.0, 4.1)
        assert V[0, 1] == pytest.approx(5.0, rel=1e-12)
        assert V[1, 2] == pytest.approx(5.0, rel=1e-12)

    def test_next_nearest_suppressed_64(self):
        pos = ideal_configuration(3, 4.1)
        V = coupling_matrix(pos, 5.0, 4.1)
        assert V[0, 2] == pytest.approx(5.0 / 64, rel=1e-12)

    def test_transverse_offset(self):
        r0 = 4.1
        pos = np.array([[0, 0, 0], [r0, 0, r0]])  # distance sqrt(2) r0
        V = coupling_matrix(pos, 1.0, r0)
        assert V[0, 1] == pytest.approx(1.0 / 8, rel=1e-12)

    def test_symmetric_zero_diagonal_nonnegative(self):
        n, r0 = 5, 4.1
        pos = sample_configuration(n, r0, DISORDER_PRESETS["iso"], seed=5)
        V = coupling_matrix(pos, 2.0, 4.1)
        assert np.array_equal(V, V.T)
        assert np.all(np.diag(V) == 0)
        assert np.all(V >= 0)

    def test_rigid_motion_invariance(self, rng):
        n, r0 = 5, 4.1
        pos = sample_configuration(n, r0, DISORDER_PRESETS["iso"], seed=8)
        V = coupling_matrix(pos, 2.0, 4.1)
        for _ in range(5):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            moved = pos @ q.T + rng.normal(size=3)
            V2 = coupling_matrix(moved, 2.0, 4.1)
            assert np.allclose(V2, V, rtol=1e-10, atol=0)

    def test_monotone_in_distance(self):
        base = np.array([[0, 0, 0], [0, 0, 4.1], [0, 0, 8.2]])
        V = coupling_matrix(base, 1.0, 4.1)
        stretched = base.copy()
        stretched[2, 2] += 0.5
        V2 = coupling_matrix(stretched, 1.0, 4.1)
        assert V2[1, 2] < V[1, 2]
        assert V2[0, 2] < V[0, 2]
        assert V2[0, 1] == V[0, 1]

    def test_coincident_atoms_rejected(self):
        with pytest.raises(GeometryError):
            coupling_matrix(np.zeros((2, 3)), 1.0, 4.1)

    def test_nonfinite_rejected(self):
        pos = np.array([[0, 0, 0], [0, 0, np.inf]])
        with pytest.raises(GeometryError):
            coupling_matrix(pos, 1.0, 4.1)

    @pytest.mark.parametrize("v0, r0", [(np.inf, 4.1), (-np.inf, 4.1), (np.nan, 4.1), (1.0, np.inf)])
    def test_nonfinite_strength_or_spacing_rejected(self, v0, r0):
        with pytest.raises(ValueError, match="finite"):
            coupling_matrix(ideal_configuration(3, 4.1), v0, r0)

    @pytest.mark.parametrize("v0", [2.5, -2.5, 0.0])
    def test_pairs_by_formula_and_diagonal_positive_zero(self, v0):
        pos = sample_configuration(5, 4.1, DISORDER_PRESETS["aniso"], seed=9)
        V = coupling_matrix(pos, v0, 4.1)
        for k, m in itertools.product(range(5), repeat=2):
            if k == m:
                assert V[k, k] == 0.0 and not np.signbit(V[k, k])
            else:
                d = pos[k] - pos[m]
                assert V[k, m] == v0 * (4.1 / np.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)) ** 6


def test_stacks_couple_and_truncate_each_configuration():
    keys = realization_keys(3, 6, 0, range(4))
    configs = sample_configuration(6, 4.1, DISORDER_PRESETS["aniso"], keys)
    V = coupling_matrix(configs, 6.9, 4.1)
    assert V.shape == (4, 6, 6)
    for stacked, truncated, config in zip(V, truncate_couplings(V, 1), configs):
        assert np.array_equal(stacked, coupling_matrix(config, 6.9, 4.1))
        assert np.array_equal(truncated, truncate_couplings(stacked, 1))
    moved = configs.copy()
    moved[2, 4] = moved[2, 1]  # one coincident pair in one configuration of the stack
    with pytest.raises(GeometryError, match="coincident"):
        coupling_matrix(moved, 6.9, 4.1)


def test_truncate_couplings():
    V = np.arange(16.0).reshape(4, 4)
    out = truncate_couplings(V, 1)
    sep = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    assert np.all(out[sep > 1] == 0)
    assert np.all(out[sep <= 1] == V[sep <= 1])


class TestRealizationKeys:
    """realization_keys against numpy's SeedSequence, its oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**128]), st.integers(0, 2**130 - 1)),
        st.integers(0, 40),
        st.integers(0, 2**33),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12, unique=True),
    )
    @example(0, 2, 0, [0])
    @example(2**32 - 1, 7, 1, [9, 3, 0, 2**32 - 1])
    @example(2**128, 18, 5, [1, 0])
    def test_rows_equal_seed_sequence_keys(self, master, n, grid_index, indices):
        keys = realization_keys(master, n, grid_index, np.array(indices))
        assert keys.dtype == np.uint64 and keys.shape == (len(indices), 2)
        for row, i in zip(keys, indices):
            want = realization_seed(master, n, grid_index, i).generate_state(2, np.uint64)
            assert np.array_equal(row, want)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**64),
        st.integers(1, 12),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
        st.sampled_from(["iso", "aniso"]),
    )
    def test_stacked_rows_equal_scalar_draws(self, master, n, indices, name):
        keys = realization_keys(master, n, 3, np.array(indices))
        stack = sample_configuration(n, 4.1, DISORDER_PRESETS[name], keys)
        for row, i in zip(stack, indices):
            seed = realization_seed(master, n, 3, i)
            assert np.array_equal(row, sample_configuration(n, 4.1, DISORDER_PRESETS[name], seed))

    def test_negative_master_seed_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            realization_keys(-3, 4, 0, np.arange(2))

    @pytest.mark.parametrize("indices", [[0, 2**32], [-1, 0]], ids=["2^32", "negative"])
    def test_index_outside_one_word_raises(self, indices):
        # SeedSequence would hash 2^32 as two words; the keys' rounds read one
        with pytest.raises(ValueError, match="2\\^32"):
            realization_keys(5, 4, 0, np.array(indices))
