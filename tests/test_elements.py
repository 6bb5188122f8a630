"""Wave plates, q-plates, the hybrid encode/decode chain, and fidelity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oamturb import (
    DecodeResult,
    DomainError,
    GridSpec,
    HybridQubit,
    MUB_LABELS,
    RangeError,
    ScalarField,
    ShapeMismatchError,
    TotalLossError,
    TurbulenceParams,
    VectorField,
    apply_screen,
    decode,
    encode,
    fidelity,
    generate_screen,
    make_lg_mode,
    mub_states,
    overlap,
    qplate,
    reference_mode,
    rotate_frame,
    rotate_modal,
    waveplate,
)
from oamturb.elements import DECODE_MIX, decode_factors

GRID = GridSpec()
SMALL = GridSpec(32, 2.0)


def unit_vector_field(right, left, grid=SMALL):
    n = grid.n
    return VectorField(
        ScalarField(grid, np.full((n, n), right, dtype=complex)),
        ScalarField(grid, np.full((n, n), left, dtype=complex)),
    )


def modal_rotation_errors(f, l, thetas=(0.3, 1.1)):
    """Relative L2 distance of rotate_modal(f, theta) from e^{-i l theta} f
    at each theta: zero, up to the shear error, for a pure mode of
    azimuthal index l."""
    norm = np.linalg.norm(f.samples)
    return [float(np.linalg.norm(rotate_modal(f, t).samples
                                 - np.exp(-1j * l * t) * f.samples) / norm)
            for t in thetas]


def haar_qubits(count, seed, l=1):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
    return [HybridQubit.from_amplitudes(a, b, l) for a, b in z]


class TestHybridQubit:
    def test_normalization_enforced(self):
        with pytest.raises(DomainError):
            HybridQubit(0.9, 0.0, 1)

    @pytest.mark.parametrize("l", [0, -1, 1.5])
    def test_bad_index_rejected(self, l):
        with pytest.raises(RangeError):
            HybridQubit(1, 0, l)

    def test_from_amplitudes_normalizes(self):
        q = HybridQubit.from_amplitudes(3.0, 4.0j)
        assert abs(q.alpha) ** 2 + abs(q.beta) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert q.alpha == pytest.approx(0.6)
        assert q.beta == pytest.approx(0.8j)

    def test_from_amplitudes_rejects_null(self):
        with pytest.raises(DomainError):
            HybridQubit.from_amplitudes(0.0, 0.0)

    def test_non_finite_amplitudes_rejected(self):
        # a NaN norm fails the normalization check instead of passing it
        with pytest.raises(DomainError):
            HybridQubit(float("nan"), 0)
        with pytest.raises(DomainError):
            HybridQubit.from_amplitudes(math.inf, 1)

    def test_mub_set_structure(self):
        states = mub_states(1)
        assert len(states) == len(MUB_LABELS) == 6
        # basis mates are orthogonal, cross-basis overlaps are 1/2
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                val = fidelity(np.array([b.alpha, b.beta]), a)
                if i == j:
                    expected = 1.0
                elif i // 2 == j // 2:
                    expected = 0.0
                else:
                    expected = 0.5
                assert val == pytest.approx(expected, abs=1e-12)


class TestWaveplate:
    def test_half_wave_at_zero_swaps_components(self):
        out = waveplate("hwp", 0.0, unit_vector_field(1.0, 0.0))
        np.testing.assert_allclose(out.right.samples, 0.0, atol=1e-12)
        np.testing.assert_allclose(out.left.samples, 1j, atol=1e-12)

    def test_half_wave_is_an_involution_up_to_sign(self):
        v = unit_vector_field(0.3 + 0.4j, 0.5 - 0.2j)
        out = waveplate("hwp", 0.7, waveplate("hwp", 0.7, v))
        np.testing.assert_allclose(out.right.samples, -v.right.samples, atol=1e-12)
        np.testing.assert_allclose(out.left.samples, -v.left.samples, atol=1e-12)

    def test_quarter_wave_at_45_degrees(self):
        # frozen Jones matrix [[1, 1], [-1, 1]] / sqrt(2)
        s = 1 / math.sqrt(2)
        out = waveplate("qwp", np.pi / 4, unit_vector_field(1.0, 0.0))
        np.testing.assert_allclose(out.right.samples, s, atol=1e-12)
        np.testing.assert_allclose(out.left.samples, -s, atol=1e-12)
        out = waveplate("qwp", np.pi / 4, unit_vector_field(0.0, 1.0))
        np.testing.assert_allclose(out.right.samples, s, atol=1e-12)
        np.testing.assert_allclose(out.left.samples, s, atol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            waveplate("fwp", 0.0, unit_vector_field(1.0, 0.0))

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        st.sampled_from(["hwp", "qwp"]),
        st.floats(-np.pi, np.pi),
        st.integers(0, 2**31 - 1),
    )
    def test_unitary(self, kind, angle, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = unit_vector_field(z[0], z[1])
        out = waveplate(kind, angle, v)
        assert out.power() == pytest.approx(v.power(), rel=1e-12, abs=1e-12)


class TestQplate:
    def test_half_charge_shifts_oam_by_one(self):
        v = VectorField(
            make_lg_mode(1, GRID),
            ScalarField(GRID, np.zeros((GRID.n, GRID.n))),
        )
        out = qplate(0.5, v)
        assert out.right.power() == pytest.approx(0.0, abs=1e-15)
        assert max(modal_rotation_errors(out.left, 0)) < 1e-4

    def test_charge_must_be_half_integer(self):
        with pytest.raises(DomainError):
            qplate(0.3, unit_vector_field(1.0, 0.0))

    def test_power_preserved(self):
        v = VectorField(make_lg_mode(1, GRID), make_lg_mode(-1, GRID))
        for q in (-0.5, 0.5, 1.0):
            assert qplate(q, v).power() == pytest.approx(v.power(), rel=1e-12)


class TestEncodeDecode:
    def test_encode_places_amplitudes_on_lg_modes(self):
        q = HybridQubit(0.6, 0.8j, 1)
        v = encode(q, GRID)
        assert overlap(make_lg_mode(1, GRID), v.right) == pytest.approx(0.6, abs=1e-12)
        assert overlap(make_lg_mode(-1, GRID), v.left) == pytest.approx(0.8j, abs=1e-12)
        assert v.power() == pytest.approx(1.0, abs=1e-12)

    def test_reference_mode_is_azimuthally_flat(self):
        ref = reference_mode(1, GRID)
        assert np.max(np.abs(ref.samples.imag)) == 0.0
        assert max(modal_rotation_errors(ref, 0)) < 1e-4
        assert ref.power() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("l", [1, 2])
    def test_round_trip_is_lossless(self, l):
        for q in haar_qubits(8, seed=13, l=l):
            res = decode(encode(q, GRID), l)
            assert res.success_prob == pytest.approx(1.0, abs=1e-12)
            assert fidelity(res, q) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_through_turbulence_keeps_fidelity(self):
        params = TurbulenceParams(w_over_r0=0.8)
        q = haar_qubits(1, seed=3)[0]
        for i in range(20):
            screen = generate_screen(params, GRID, np.random.SeedSequence([5, i]))
            res = decode(apply_screen(encode(q, GRID), screen), 1)
            assert res.success_prob < 1.0
            assert fidelity(res, q) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_factored_decode_matches_literal(self, l):
        g = GridSpec(64, 6.0)
        rng = np.random.default_rng(l)
        parts = rng.normal(size=(4, 64, 64))
        f = VectorField(ScalarField(g, parts[0] + 1j * parts[1]),
                        ScalarField(g, parts[2] + 1j * parts[3]))
        proj_r, proj_l = decode_factors(l, g)
        overlaps = [np.vdot(proj_r, f.right.samples), np.vdot(proj_l, f.left.samples)]
        recovered = g.pitch**2 * DECODE_MIX @ overlaps
        literal = decode(f, l).recovered
        assert np.max(np.abs(recovered - literal)) <= 1e-12 * np.max(np.abs(literal))
        with pytest.raises(RangeError):
            decode_factors(0, g)

    def test_pure_left_state_leaves_right_port_empty(self):
        res = decode(encode(HybridQubit(0, 1, 1), GRID), 1)
        assert abs(res.recovered[0]) < 1e-10
        assert abs(res.recovered[1]) == pytest.approx(1.0, abs=1e-12)

    def test_bad_index_rejected(self):
        f = encode(HybridQubit(1, 0, 1), GRID)
        with pytest.raises(RangeError):
            decode(f, 0)


class TestDecodeResult:
    def test_recovered_read_only(self):
        res = decode(encode(HybridQubit(1, 0, 1), GRID), 1)
        with pytest.raises(ValueError):
            res.recovered[0] = 0.0

    def test_inconsistent_success_rejected(self):
        with pytest.raises(DomainError):
            DecodeResult(np.array([1.0 + 0j, 0.0j]), 0.5)

    def test_nan_success_rejected(self):
        with pytest.raises(DomainError):
            DecodeResult(np.array([1.0 + 0j, 0.0j]), float("nan"))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ShapeMismatchError):
            DecodeResult(np.zeros(3, dtype=complex), 0.0)


class TestRotateFrame:
    def test_zero_angle_is_identity(self):
        v = encode(HybridQubit(0.6, 0.8, 1), GRID)
        out = rotate_frame(v, 0.0)
        assert np.array_equal(out.right.samples, v.right.samples)
        assert np.array_equal(out.left.samples, v.left.samples)

    def test_inverse_restores(self):
        g = GridSpec(192, 12.0)
        v = encode(HybridQubit(0.6, 0.8j, 1), g)
        back = rotate_frame(rotate_frame(v, 0.9), -0.9)
        assert np.max(np.abs(back.right.samples - v.right.samples)) < 1e-9
        assert np.max(np.abs(back.left.samples - v.left.samples)) < 1e-9

    def test_unit_charge_states_are_invariant(self):
        # e^{+/- i theta} polarization factors cancel the modal phases at l=1
        g = GridSpec(192, 12.0)
        for q in haar_qubits(5, seed=21):
            v = rotate_frame(encode(q, g), 2 * np.pi / 7)
            res = decode(v, 1)
            assert fidelity(res, q) == pytest.approx(1.0, abs=1e-9)
            assert res.success_prob == pytest.approx(1.0, abs=1e-9)


class TestFidelity:
    def test_orthogonal_states_score_zero(self):
        assert fidelity(np.array([1.0, 0.0]), HybridQubit(0, 1, 1)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_scale_invariant(self):
        q = HybridQubit(0.6, 0.8, 1)
        amps = np.array([0.6, 0.8]) * (2.5 - 1j)
        assert fidelity(amps, q) == pytest.approx(1.0, abs=1e-12)

    def test_total_loss_raises(self):
        with pytest.raises(TotalLossError):
            fidelity(np.zeros(2, dtype=complex), HybridQubit(1, 0, 1))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ShapeMismatchError):
            fidelity(np.zeros(3, dtype=complex), HybridQubit(1, 0, 1))

    def test_capped_at_one(self):
        q = HybridQubit(1, 0, 1)
        assert fidelity(np.array([1 + 1e-16, 0.0]), q) <= 1.0
