"""Ensemble bookkeeping, scan engines, and seeding reproducibility."""

import dataclasses
import functools
import gc
import importlib
import inspect
import math
import pkgutil
import tracemalloc

import numpy as np
import pytest

import oamturb
from oamturb import (
    DomainError,
    EnsembleStats,
    ExperimentConfig,
    GridSpec,
    HybridQubit,
    MUB_LABELS,
    RangeError,
    StatisticsError,
    TurbulenceParams,
    coupling_coefficients,
    generate_screen,
    run_coefficient_estimate,
    run_fidelity_scan,
    run_rotation_scan,
)
from oamturb import analytic, fields, montecarlo, turbulence
from oamturb.elements import decode, decode_factors, fidelity, mub_states, rotate_frame
from oamturb.fields import (
    ScalarField, VectorField, _quarter_turns, make_lg_mode, rotate_modal,
)
from oamturb.montecarlo import (
    LOSS_THRESHOLD,
    _fidelity_samples,
    _overlaps,
    _rotation_samples,
    _score,
    _weights,
)
from oamturb.turbulence import screen_key

P06 = TurbulenceParams(w_over_r0=0.6)
SMALL = GridSpec(64, 6.0)


@pytest.fixture(scope="module")
def est_400():
    return run_coefficient_estimate(1, P06, 400, 2)


class TestEnsembleStats:
    def test_matches_numpy(self):
        x = np.array([0.2, 0.4, 0.9, 1.3])
        s = EnsembleStats.from_samples(x)
        assert s.mean == pytest.approx(x.mean())
        assert s.stderr == pytest.approx(x.std(ddof=1) / 2)
        assert (s.n, s.min, s.max) == (4, 0.2, 1.3)

    def test_single_sample(self):
        s = EnsembleStats.from_samples(np.array([0.7]))
        assert (s.mean, s.stderr, s.n) == (0.7, 0.0, 1)

    def test_empty(self):
        s = EnsembleStats.from_samples(np.array([]))
        assert s.n == 0
        assert math.isnan(s.mean) and math.isnan(s.stderr)


class TestExperimentConfig:
    def test_defaults_give_mub_cells(self):
        cfg = ExperimentConfig()
        assert len(cfg.strengths) == 14
        assert cfg.state_labels == MUB_LABELS
        assert len(cfg.states) == 6
        assert cfg.n_realizations == 500
        assert cfg.master_seed == 2

    def test_custom_states_get_generic_labels(self):
        cfg = ExperimentConfig(strengths=(0.5,), states=(HybridQubit(1, 0, 2),))
        assert cfg.state_labels == ("state0",)

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ExperimentConfig(states=(HybridQubit(1, 0, 1),), state_labels=("a", "b"))

    def test_empty_strengths_rejected(self):
        with pytest.raises(DomainError):
            ExperimentConfig(strengths=())

    def test_negative_strength_rejected(self):
        with pytest.raises(DomainError):
            ExperimentConfig(strengths=(-0.1,))

    def test_strengths_are_turbulence_params(self):
        with pytest.raises(RangeError):
            ExperimentConfig(strengths=(0.2, 2.5))
        with pytest.raises(DomainError):
            ExperimentConfig(strengths=(float("nan"),))
        assert ExperimentConfig(strengths=(2.0,)).strengths == (2.0,)

    def test_negative_seed_rejected(self):
        with pytest.raises(RangeError):
            ExperimentConfig(master_seed=-1)

    def test_zero_realizations_rejected(self):
        with pytest.raises(DomainError):
            ExperimentConfig(n_realizations=0)


def literal_samples(config, theta=0.0):
    """Per-realization (success, fidelity) of the literal chain, shaped
    (n_strengths, n_realizations, n_states): each state's screened field
    is assembled from the two screened basis profiles, rotated with
    rotate_frame unless theta is 0, and decoded on the full grid."""
    grid = config.grid
    shape = (len(config.strengths), config.n_realizations, len(config.states))
    suc = np.empty(shape)
    fid = np.full(shape, np.nan)
    for si, strength in enumerate(config.strengths):
        params = TurbulenceParams(w_over_r0=strength)
        for i in range(config.n_realizations):
            key = np.random.SeedSequence(entropy=[config.master_seed, si, i])
            u = generate_screen(params, grid, key).phase_factor
            for k, state in enumerate(config.states):
                base_r = make_lg_mode(state.l, grid).samples * u
                base_l = make_lg_mode(-state.l, grid).samples * u
                f = VectorField(ScalarField(grid, state.alpha * base_r),
                                ScalarField(grid, state.beta * base_l))
                if theta != 0.0:
                    f = rotate_frame(f, theta)
                res = decode(f, state.l)
                suc[si, i, k] = res.success_prob
                if res.success_prob >= LOSS_THRESHOLD:
                    fid[si, i, k] = fidelity(res, state)
    return suc, fid


def literal_weights(ls, grid, theta):
    """The rotation scan's weight rows built angle by angle: each decode
    projection rotated by rotate_modal(., -theta), then the frame phase."""
    frame = np.exp(1j * theta)
    rows = []
    for l in ls:
        proj_r, proj_l = decode_factors(l, grid)
        for proj, mode, phase in ((proj_r, l, np.conj(frame)), (proj_l, -l, frame)):
            if theta != 0.0:
                proj = rotate_modal(ScalarField(grid, proj), -theta).samples * phase
            rows.append((np.conj(proj) * make_lg_mode(mode, grid).samples).ravel())
    return np.array(rows)


def per_angle_samples(config):
    """_rotation_samples with literal_weights for every angle."""
    ls = sorted({s.l for s in config.states})
    params = TurbulenceParams(w_over_r0=config.strengths[0])
    screens = [generate_screen(params, config.grid,
                               np.random.SeedSequence(entropy=[config.master_seed, 0, i]))
               .phase_factor.ravel() for i in range(config.n_realizations)]
    xy = np.empty((len(config.angles), config.n_realizations, 2 * len(ls)), complex)
    for j, theta in enumerate(config.angles):
        weights = literal_weights(ls, config.grid, theta)
        for i, u in enumerate(screens):
            xy[j, i] = weights @ u
    return _score(xy, config)


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        strengths=(0.0, 0.6), n_realizations=5, master_seed=9, grid=SMALL
    )


class TestFidelityScan:
    def test_row_layout(self, tiny_config):
        rows = run_fidelity_scan(tiny_config)
        assert len(rows) == 12
        assert [r.w_over_r0 for r in rows[:6]] == [0.0] * 6
        assert tuple(r.state_label for r in rows[:6]) == MUB_LABELS

    def test_zero_strength_is_lossless_and_exact(self, tiny_config):
        rows = run_fidelity_scan(tiny_config)
        for r in rows[:6]:
            assert r.fidelity.mean == pytest.approx(1.0, abs=1e-12)
            assert r.success_prob.mean == pytest.approx(1.0, abs=1e-9)
            assert r.n_loss == 0

    def test_turbulent_cells_keep_unit_fidelity(self, tiny_config):
        rows = run_fidelity_scan(tiny_config)
        for r in rows[6:]:
            assert r.fidelity.min >= 1 - 1e-12
            assert r.fidelity.max <= 1 + 1e-12
            assert r.success_prob.mean < 1.0
            assert r.fidelity.n + r.n_loss == 5

    def test_reruns_are_bitwise(self, tiny_config):
        a = run_fidelity_scan(tiny_config)
        b = run_fidelity_scan(tiny_config)
        assert [r.fidelity.mean for r in a] == [r.fidelity.mean for r in b]
        assert [r.success_prob.mean for r in a] == [r.success_prob.mean for r in b]

    def test_worker_count_does_not_change_results(self, tiny_config):
        a = run_fidelity_scan(tiny_config, n_workers=1)
        b = run_fidelity_scan(tiny_config, n_workers=3)
        assert [r.success_prob.mean for r in a] == [r.success_prob.mean for r in b]

    def test_rejects_angles_before_any_screen(self, monkeypatch, tiny_config):
        def no_screens(*args):
            raise AssertionError("a screen was drawn")

        monkeypatch.setattr(montecarlo, "_screen_loop", no_screens)
        with pytest.raises(DomainError, match="no angles"):
            run_fidelity_scan(dataclasses.replace(tiny_config, angles=(0.0,)))

    def test_higher_charge_states(self):
        cfg = ExperimentConfig(
            strengths=(0.4,),
            states=(HybridQubit(1, 0, 2), HybridQubit(0, 1, 2)),
            n_realizations=3,
            master_seed=1,
            grid=SMALL,
        )
        for r in run_fidelity_scan(cfg):
            assert r.fidelity.mean == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("l", [1, 2])
    def test_matches_literal_decode_per_realization(self, l):
        cfg = ExperimentConfig(
            strengths=(0.0, 0.6, 1.4), states=tuple(mub_states(l)),
            n_realizations=3, master_seed=5, grid=SMALL,
        )
        suc, fid, _ = _fidelity_samples(cfg)
        ref_suc, ref_fid = literal_samples(cfg)
        np.testing.assert_allclose(suc, ref_suc, rtol=0, atol=1e-12)
        np.testing.assert_allclose(fid, ref_fid, rtol=0, atol=1e-12)

    def test_zero_strength_cells_equal_the_per_realization_loop(self):
        # a zero-strength cell is taken once and copied: the bytes of
        # drawing and projecting every realization, wherever the cell sits
        grid, n_real = SMALL, 5
        weights = _weights([1, 2], grid)
        params = [TurbulenceParams(w_over_r0=w) for w in (0.0, 0.6, 0.0)]
        want = np.array([[weights @ generate_screen(p, grid, screen_key(7, si, i))
                          .phase_factor.ravel()
                          for i in range(n_real)] for si, p in enumerate(params)])
        for workers in (1, 2, 3):
            got = _overlaps(weights, params, n_real, lambda si, i: (7, si, i), grid, workers)
            assert got.tobytes() == want.tobytes(), workers

    def test_overshoot_is_reported_unclipped(self, tiny_config):
        _, fid, raw = _fidelity_samples(tiny_config)
        assert np.nanmax(fid) <= 1.0
        over = max(r.fidelity_overshoot for r in run_fidelity_scan(tiny_config))
        assert over == max(np.nanmax(raw) - 1.0, 0.0)
        assert over < 1e-12


class TestRotationScan:
    @pytest.mark.parametrize("theta", [0.35, 2.0, 3 * np.pi / 2])
    def test_matches_literal_rotate_frame_per_realization(self, theta):
        # The weights are rotated by the exact adjoint of rotate_frame at
        # every angle (the shear first, then the quarter turn), so this
        # holds to rounding; test_exact_adjoint_on_coarse_grid pins it at
        # 1e-14 on the 64 / 6.0 grid.  The l = 2 superpositions pick up a
        # relative phase, so their fidelity drops.
        base = dict(strengths=(0.6,), n_realizations=2, master_seed=3,
                    grid=GridSpec(128, 8.0),
                    states=tuple(mub_states(1) + mub_states(2)))
        suc, fid, _ = _rotation_samples(ExperimentConfig(angles=(theta,), **base))
        ref_suc, ref_fid = literal_samples(ExperimentConfig(**base), theta)
        np.testing.assert_allclose(suc, ref_suc, rtol=0, atol=1e-10)
        np.testing.assert_allclose(fid, ref_fid, rtol=0, atol=1e-10)

    # the ties pi/4 mod pi/2 too: their residual is -pi/4, and shearing the
    # projections by rotate_modal(., pi/4), which splits as a quarter turn
    # and -pi/4, not by the pure shear pi/4, is 1e-8 to 2e-7 off here
    @pytest.mark.parametrize("theta", [2.0, 5 * np.pi / 8, 3 * np.pi / 2,
                                       *(2 * np.pi * k / 16 for k in (2, 6, 10, 14))])
    def test_exact_adjoint_on_coarse_grid(self, theta):
        # rotate_modal(., -theta) alone puts the quarter turn on the wrong
        # side of the shears (literal_weights): 1.4e-8 here.
        base = dict(strengths=(0.6,), n_realizations=2, master_seed=3, grid=SMALL,
                    states=tuple(mub_states(1) + mub_states(2)))
        suc, fid, _ = _rotation_samples(ExperimentConfig(angles=(theta,), **base))
        ref_suc, ref_fid = literal_samples(ExperimentConfig(**base), theta)
        np.testing.assert_allclose(suc, ref_suc, rtol=0, atol=1e-14)
        np.testing.assert_allclose(fid, ref_fid, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n_angles", [16, 12, 5])
    def test_grouped_shears_match_per_angle_weights(self, n_angles):
        # Measured: at most 1.5e-12 in success and 7e-16 in fidelity.
        cfg = ExperimentConfig(
            strengths=(0.6,), n_realizations=4, master_seed=2,
            angles=tuple(2 * np.pi * k / n_angles for k in range(n_angles)),
        )
        for a, b in zip(_rotation_samples(cfg)[:2], per_angle_samples(cfg)[:2]):
            np.testing.assert_allclose(a, b, rtol=0, atol=5e-12)

    # residual groups times 2 projections (l = 1): 16 angles make 3 groups,
    # the four ties pi/4 mod pi/2 one of them (-pi/4), 8 angles only that
    # one, and 5 angles 4
    @pytest.mark.parametrize("angles,shears", [
        (tuple(2 * np.pi * k / 16 for k in range(16)), 6),
        (tuple(2 * np.pi * k / 5 for k in range(5)), 8),
        (tuple(2 * np.pi * k / 8 for k in range(8)), 2),
    ])
    def test_one_shear_per_residual_and_projection(self, monkeypatch, angles, shears):
        calls = []
        rotate = fields._rotate_into

        def counting(*args):
            calls.append(args[2])
            return rotate(*args)

        monkeypatch.setattr(fields, "_rotate_into", counting)
        _rotation_samples(ExperimentConfig(
            strengths=(0.6,), n_realizations=2, grid=SMALL, angles=angles))
        assert len(calls) == shears

    def test_quarter_turn_grid_is_angle_independent(self):
        cfg = ExperimentConfig(
            strengths=(0.6,), n_realizations=4, master_seed=2, grid=SMALL,
            angles=tuple(np.pi / 2 * k for k in range(4)),
        )
        rows = run_rotation_scan(cfg)
        assert len(rows) == 24
        for label in MUB_LABELS:
            means = [r.fidelity.mean for r in rows if r.state_label == label]
            assert max(means) - min(means) < 1e-12

    def test_zero_angle_column_matches_fidelity_scan(self):
        base = dict(strengths=(0.6,), n_realizations=4, master_seed=2, grid=SMALL)
        rot = run_rotation_scan(ExperimentConfig(angles=(0.0, 0.35), **base))
        flat = run_fidelity_scan(ExperimentConfig(**base))
        zero_rows = [r for r in rot if r.theta == 0.0]
        assert [r.success_prob.mean for r in zero_rows] == [
            r.success_prob.mean for r in flat
        ]

    def test_screen_blocks_do_not_change_results(self, monkeypatch):
        cfg = ExperimentConfig(
            strengths=(0.6,), n_realizations=3, master_seed=2, grid=SMALL,
            angles=(0.0, 0.35),
        )
        whole = _rotation_samples(cfg)
        monkeypatch.setattr(montecarlo, "_SCREEN_BLOCK", 2)
        for a, b in zip(whole, _rotation_samples(cfg)):
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("theta", [0.0, 2 * np.pi / 16, 2 * np.pi * 5 / 16, np.pi,
                                       2 * np.pi * 13 / 16, 0.35, 2.0, 3 * np.pi / 2,
                                       -0.7, 1e-9, np.pi / 4 + 1e-12])
    def test_weight_rows_match_literal_build_bitwise(self, theta):
        # the rows written in place == np.conj(np.rot90(p, k) * phase) * lg
        # built per row (some of test_fields' PIN_ANGLES), for sheared and
        # unsheared projections
        grid, ls = GridSpec(64, 8.0), [1, 2]
        k, resid = _quarter_turns(theta)
        frame = np.exp(1j * theta)
        sheared = [[rotate_modal(ScalarField(grid, p), -resid).samples
                    for p in decode_factors(l, grid)] for l in ls]
        for projections in (None, sheared):
            want = []
            for l, pair in zip(ls, projections or [decode_factors(l, grid) for l in ls]):
                for p, mode, phase in zip(pair, (l, -l), (np.conj(frame), frame)):
                    if theta != 0.0:
                        p = np.rot90(p, k) * phase
                    want.append((np.conj(p) * make_lg_mode(mode, grid).samples).ravel())
            got = _weights(ls, grid, theta, projections)
            assert got.shape == (4, grid.n**2)
            assert got.tobytes() == np.array(want).tobytes()

    def test_working_set_is_below_every_angles_weight_rows(self):
        # one residual group's shears and one angle's rows are alive at a
        # time, never both: 13.1 screen sizes measured at one worker and
        # 15.4 at two (each shearing in its own band), so the bound is
        # 16.5, a margin of 1.1; rows held through the next group's shears
        # with a full 2n-row y table peaked at 19.1 and 19.3, and every
        # angle's rows stacked into one matrix at 52.1
        angles = tuple(2 * np.pi * k / 16 for k in range(16))
        cfg = ExperimentConfig(strengths=(0.6,), n_realizations=1, master_seed=2,
                               grid=GridSpec(64, 8.0), angles=angles)
        screen_bytes = cfg.grid.n**2 * np.dtype(complex).itemsize
        for workers in (1, 2):
            _rotation_samples(cfg, n_workers=workers)  # warm the mode and table caches
            tracemalloc.start()
            try:
                _rotation_samples(cfg, n_workers=workers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16.5 * screen_bytes, workers

    @pytest.mark.parametrize("n_angles", [1, 2, 4])
    def test_quarter_turn_scan_allocates_no_sheared_projections(self, n_angles):
        # no residual group, so no (l, 2, n, n) array for sheared
        # projections: 12.0 screen sizes measured at l = 1, 2 and one or two
        # workers, 16.0 with the four unused arrays allocated
        cfg = ExperimentConfig(strengths=(0.6,), n_realizations=1, master_seed=2,
                               grid=GridSpec(64, 8.0),
                               states=tuple(mub_states(1) + mub_states(2)),
                               angles=tuple(2 * np.pi * k / n_angles for k in range(n_angles)))
        screen_bytes = cfg.grid.n**2 * np.dtype(complex).itemsize
        for workers in (1, 2):
            _rotation_samples(cfg, n_workers=workers)  # warm the mode and table caches
            tracemalloc.start()
            try:
                _rotation_samples(cfg, n_workers=workers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 13 * screen_bytes, workers

    def test_bitwise_at_any_worker_count(self):
        # each residual group's four shears (l = 1, 2) split over 1-3 threads
        cfg = ExperimentConfig(strengths=(0.6,), n_realizations=3, master_seed=2,
                               grid=GridSpec(40, 6.0),
                               states=tuple(mub_states(1) + mub_states(2)),
                               angles=tuple(2 * np.pi * k / 12 for k in range(12)))
        one = _rotation_samples(cfg, n_workers=1)
        for workers in (2, 3):
            for a, b in zip(one, _rotation_samples(cfg, n_workers=workers)):
                assert a.tobytes() == b.tobytes(), workers

    def test_generic_angle_keeps_fidelity(self):
        cfg = ExperimentConfig(
            strengths=(0.6,), n_realizations=4, master_seed=2, grid=SMALL,
            angles=(0.35,),
        )
        for r in run_rotation_scan(cfg):
            assert r.fidelity.mean == pytest.approx(1.0, abs=1e-9)

    def test_requires_single_strength_and_angles(self):
        with pytest.raises(DomainError):
            run_rotation_scan(
                ExperimentConfig(strengths=(0.2, 0.6), angles=(0.0,), n_realizations=2)
            )
        with pytest.raises(DomainError):
            run_rotation_scan(ExperimentConfig(strengths=(0.6,), n_realizations=2))

    def test_rejects_non_finite_angle_before_any_screen(self, monkeypatch):
        def no_screens(*args):
            raise AssertionError("a screen was drawn")

        monkeypatch.setattr(montecarlo, "_screen_loop", no_screens)
        cfg = ExperimentConfig(strengths=(0.6,), n_realizations=2, grid=SMALL,
                               angles=(0.0, float("nan")))
        with pytest.raises(DomainError, match="rotation angle must be finite, got nan"):
            run_rotation_scan(cfg)


def literal_coefficient_samples(l, params, n, master_seed, grid):
    """run_coefficient_estimate's per-realization (c0, c2l, reverse,
    mirror deviation) from two screened profiles and four vdots."""
    lg_p = make_lg_mode(l, grid).samples
    lg_m = make_lg_mode(-l, grid).samples
    pitch_sq = grid.pitch**2
    out = np.empty((4, n))
    for i in range(n):
        u = generate_screen(
            params, grid, np.random.SeedSequence(entropy=[master_seed, i])).phase_factor
        psi_p = lg_p * u
        psi_m = lg_m * u
        keep_p = np.vdot(lg_p, psi_p) * pitch_sq
        keep_m = np.vdot(lg_m, psi_m) * pitch_sq
        out[:, i] = (abs(keep_p) ** 2, abs(np.vdot(lg_m, psi_p) * pitch_sq) ** 2,
                     abs(np.vdot(lg_p, psi_m) * pitch_sq) ** 2, abs(keep_p - keep_m))
    return out


class TestCoefficientEstimate:
    @pytest.mark.parametrize("l, w", [(1, 0.6), (1, 1.4), (2, 0.6)])
    def test_matches_literal_vdot_loop(self, l, w):
        params = TurbulenceParams(w_over_r0=w)
        est = run_coefficient_estimate(l, params, 100, 3, SMALL)
        c0, c2l, rev, dev = literal_coefficient_samples(l, params, 100, 3, SMALL)
        for got, ref in ((est.c0, c0), (est.c2l, c2l), (est.c2l_reverse, rev)):
            expected = EnsembleStats.from_samples(ref)
            for name in ("mean", "stderr", "min", "max"):
                assert getattr(got, name) == pytest.approx(
                    getattr(expected, name), rel=1e-13, abs=0), name
        assert est.mirror_dev < 1e-14 and dev.max() < 1e-14

    def test_worker_count_does_not_change_results(self):
        a = run_coefficient_estimate(1, P06, 100, 3, SMALL, n_workers=1)
        b = run_coefficient_estimate(1, P06, 100, 3, SMALL, n_workers=3)
        assert a == b

    def test_zero_turbulence(self):
        est = run_coefficient_estimate(1, TurbulenceParams(w_over_r0=0.0), 100, 1)
        assert est.c0.mean == pytest.approx(1.0, abs=1e-12)
        assert est.c0.stderr < 1e-13
        assert est.c2l.mean < 1e-12
        assert est.mirror_dev < 1e-14

    def test_agrees_with_quadrature(self, est_400):
        cc = coupling_coefficients(1, P06)
        assert abs(est_400.c0.mean - cc.c0) <= 3 * est_400.c0.stderr
        assert abs(est_400.c2l.mean - cc.c2l) <= 3 * est_400.c2l.stderr

    def test_mirror_identity_per_realization(self, est_400):
        assert est_400.mirror_dev < 1e-12

    def test_cross_terms_statistically_equal(self, est_400):
        diff = abs(est_400.c2l.mean - est_400.c2l_reverse.mean)
        band = 3 * math.hypot(est_400.c2l.stderr, est_400.c2l_reverse.stderr)
        assert diff <= band

    def test_stderr_shrinks_like_root_n(self, est_400):
        est_100 = run_coefficient_estimate(1, P06, 100, 2)
        ratio = est_100.c0.stderr / est_400.c0.stderr
        assert 1.6 < ratio < 2.5

    def test_sample_count_guard(self):
        with pytest.raises(StatisticsError):
            run_coefficient_estimate(1, P06, 50, 1)

    def test_negative_seed_rejected_before_any_screen(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a screen was drawn")

        monkeypatch.setattr(turbulence, "_unit_screen", refuse)
        with pytest.raises(RangeError, match="^master_seed must be a nonnegative integer$"):
            run_coefficient_estimate(1, P06, 100, -1, SMALL)


class TestDrawCounts:
    @pytest.fixture
    def counted(self, monkeypatch):
        """Keys of every screen stepped (the screen loop's key calls, a
        zero-strength cell's included) and l of every decode_factors call."""
        calls = {"keys": [], "ls": []}
        loop, factors = montecarlo._screen_loop, montecarlo.decode_factors

        def counting_loop(params, n_real, key, *rest):
            def counting_key(j, i):
                calls["keys"].append(key(j, i))
                return key(j, i)

            return loop(params, n_real, counting_key, *rest)

        def counting_factors(l, grid):
            calls["ls"].append(l)
            return factors(l, grid)

        monkeypatch.setattr(montecarlo, "_screen_loop", counting_loop)
        monkeypatch.setattr(montecarlo, "decode_factors", counting_factors)
        return calls

    def test_fidelity_scan_draws_each_cell_once(self, counted):
        cfg = ExperimentConfig(strengths=(0.0, 0.3, 0.6), n_realizations=4, master_seed=7,
                               grid=SMALL)
        _fidelity_samples(cfg, n_workers=2)
        # the zero-strength cell is one field, drawn once (synthesizing nothing)
        assert sorted(counted["keys"]) == [(7, 0, 0)] + [
            (7, si, i) for si in (1, 2) for i in range(4)]

    def test_zero_strength_rotation_scan_steps_one_realization(self, counted):
        # one field in every realization: realization 0 is taken and copied
        cfg = ExperimentConfig(strengths=(0.0,), n_realizations=4, master_seed=4, grid=SMALL,
                               angles=(0.0, 2.0))
        suc, fid, _ = _rotation_samples(cfg, n_workers=2)
        assert counted["keys"] == [(4, 0, 0)]
        assert (suc == suc[:, :1]).all() and (fid == fid[:, :1]).all()

    def test_coefficient_estimate_draws_each_screen_once(self, counted):
        run_coefficient_estimate(1, P06, 100, 5, SMALL, n_workers=2)
        assert sorted(counted["keys"]) == [(5, i) for i in range(100)]

    def test_rotation_scan_draws_each_screen_once_and_decodes_once_per_l(
            self, counted, monkeypatch):
        monkeypatch.setattr(montecarlo, "_SCREEN_BLOCK", 2)
        _rotation_samples(ExperimentConfig(
            strengths=(0.6,), n_realizations=5, master_seed=4, grid=SMALL,
            states=tuple(mub_states(1) + mub_states(2)),
            angles=tuple(2 * np.pi * k / 16 for k in range(16))), n_workers=2)
        assert sorted(counted["keys"]) == [(4, 0, i) for i in range(5)]
        assert sorted(counted["ls"]) == [1, 2]


# the grid-sized caches the README lists under "What each grid caches"
LISTED_CACHES = (fields._lg_mode, turbulence._tables, fields._transfer,
                 analytic._legendre_rule)


class TestRetained:
    @pytest.mark.parametrize("scan,extent", [(run_fidelity_scan, 7.125),
                                             (run_rotation_scan, 7.375)])
    def test_cold_scan_keeps_nothing_beyond_the_listed_caches(self, scan, extent):
        # a grid of its own, so that no other test warmed a cache; with
        # the listed caches cleared after the run, what is left is what the
        # engines keep elsewhere: under one screen size (7 KB and 17 KB
        # measured, the rows), where a cached q-plate pair and reference
        # mode kept 3.  A first run on another grid makes the imports the
        # engines do on first use.  Only the rotation scan takes angles.
        angles = (0.0, 0.35, 2.0) if scan is run_rotation_scan else ()
        cfg = ExperimentConfig(strengths=(0.6,), n_realizations=2, master_seed=3,
                               grid=GridSpec(32, 6.0), angles=angles)
        scan(cfg, n_workers=2)
        grid = GridSpec(64, extent)
        cfg = dataclasses.replace(cfg, grid=grid)
        for cache in LISTED_CACHES:
            cache.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            rows = scan(cfg, n_workers=2)
            for cache in LISTED_CACHES:
                cache.cache_clear()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rows
        assert retained < grid.n**2 * np.dtype(complex).itemsize

    def test_memo_set_is_pinned(self):
        """The package memoises only what a workload reads again: a new
        memo needs a workload that hits it, and a memo no workload hits is
        deleted.  Every module-level object with cache_info and every
        cached_property of a class counts."""
        found = set()
        for info in pkgutil.iter_modules(oamturb.__path__):
            module = importlib.import_module(f"oamturb.{info.name}")
            for obj in vars(module).values():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if hasattr(obj, "cache_info"):
                    found.add(f"{info.name}.{obj.__qualname__}")
                if inspect.isclass(obj):
                    found |= {f"{info.name}.{obj.__qualname__}.{name}"
                              for name, attr in vars(obj).items()
                              if isinstance(attr, functools.cached_property)}
        assert found == {"fields._lg_mode", "turbulence._tables", "fields._transfer",
                         "analytic._legendre_rule", "parallel._openblas",
                         "parallel._thread_calls", "fields.GridSpec.coords",
                         "fields.GridSpec.freqs", "turbulence.PhaseScreen.phase_factor"}
