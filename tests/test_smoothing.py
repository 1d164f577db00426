from dataclasses import replace

import numpy as np
import pytest
from scipy import signal as scipy_signal

from affectseq.errors import ConfigError, DomainError
from affectseq.smoothing import (
    SMOOTHERS,
    IIRCoefficients,
    ShortTrackWarning,
    SmootherSpec,
    butter_design,
    filtfilt,
    lfilter,
    smooth_track,
    steady_state,
    weighted_moving_average,
)
import oracles
from oracles import freq_response

ORDERS = (1, 2, 3, 4)
CUTOFFS = (0.05, 0.1, 0.25)


class TestButterDesign:
    def test_first_order_half_band_closed_form(self):
        c = butter_design(1, 0.5)
        np.testing.assert_allclose(c.b, [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(c.a, [1.0, 0.0], atol=1e-9)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("cutoff", CUTOFFS)
    def test_dc_gain_is_unity(self, order, cutoff):
        c = butter_design(order, cutoff)
        h = freq_response(c, np.array([0.0]))
        np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-9)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("cutoff", CUTOFFS)
    def test_half_power_at_cutoff(self, order, cutoff):
        c = butter_design(order, cutoff)
        h = freq_response(c, np.array([np.pi * cutoff]))
        np.testing.assert_allclose(np.abs(h), 1.0 / np.sqrt(2.0), atol=1e-6)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("cutoff", CUTOFFS)
    def test_magnitude_monotone_on_grid(self, order, cutoff):
        c = butter_design(order, cutoff)
        grid = np.linspace(0.0, np.pi, 512)
        mag = np.abs(freq_response(c, grid))
        assert np.all(np.diff(mag) <= 1e-12)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("cutoff", (0.05, 0.1, 0.25, 0.5, 0.9))
    def test_matches_scipy_design(self, order, cutoff):
        c = butter_design(order, cutoff)
        b, a = scipy_signal.butter(order, cutoff)
        np.testing.assert_allclose(c.b, b, atol=1e-12)
        np.testing.assert_allclose(c.a, a, atol=1e-12)

    def test_poles_inside_unit_circle(self):
        for order in ORDERS:
            for cutoff in (0.01, 0.5, 0.99):
                c = butter_design(order, cutoff)
                assert np.max(np.abs(np.roots(c.a))) < 1.0

    def test_cutoff_domain(self):
        with pytest.raises(DomainError):
            butter_design(2, 0.0)
        with pytest.raises(DomainError):
            butter_design(2, 1.0)
        with pytest.raises(DomainError):
            butter_design(0, 0.5)

    def test_invariants_enforced_on_construction(self):
        with pytest.raises(DomainError):
            IIRCoefficients(b=np.array([1.0, 1.0]), a=np.array([2.0, 0.0]),
                            order=1, cutoff=0.5)
        with pytest.raises(DomainError):  # pole outside the unit circle
            IIRCoefficients(b=np.array([3.0, 0.0]), a=np.array([1.0, 2.0]),
                            order=1, cutoff=0.5)
        with pytest.raises(DomainError, match="DC gain"):  # 0/0, without a warning
            IIRCoefficients(b=np.zeros(3), a=np.array([1.0, -2.0, 1.0]), order=2, cutoff=0.5)

    @pytest.mark.parametrize("order, cutoff", [(1, 1e-300), (2, 1e-9), (3, 1e-6), (4, 1e-5)])
    def test_degenerate_design_names_order_and_cutoff(self, order, cutoff):
        # (2, 1e-9) rounds to a = [1, -2, 1], b = 0: a 0/0 DC gain, and a
        # singular steady-state system if it got past the check
        with pytest.raises(DomainError, match=f"order {order}, cutoff {cutoff:g}"):
            butter_design(order, cutoff)


class TestFiltFilt:
    def test_constant_track_unchanged(self):
        c = butter_design(2, 0.05)
        x = np.full(64, 3.25)
        np.testing.assert_allclose(filtfilt(c, x), x, atol=1e-9)

    def test_symmetric_pulse_stays_symmetric(self):
        # Centered pulse with quiet ends: boundary transients decay over the
        # half-track distance, far below the tolerance.
        n = 1024
        t = np.arange(n)
        pulse = np.exp(-0.5 * ((t - (n - 1) / 2) / 8.0) ** 2)
        c = butter_design(2, 0.05)
        y = filtfilt(c, pulse)
        assert np.max(np.abs(y - y[::-1])) < 1e-9

    @pytest.mark.parametrize("order,cutoff", [(1, 0.5), (1, 0.49)])
    def test_reversal_symmetry_on_noise(self, order, cutoff):
        # Zero-state transients leak ~|pole|^(pad length) of the signal into
        # the kept region, so the raw-noise check uses filters whose poles
        # decay essentially within the pad.
        rng = np.random.default_rng(42)
        x = rng.normal(size=200)
        c = butter_design(order, cutoff)
        np.testing.assert_allclose(filtfilt(c, x[::-1])[::-1], filtfilt(c, x),
                                   atol=1e-9)

    def test_reversal_symmetry_with_quiet_ends(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=200)
        x[:20] = 0.0
        x[-20:] = 0.0
        c = butter_design(2, 0.4)
        np.testing.assert_allclose(filtfilt(c, x[::-1])[::-1], filtfilt(c, x),
                                   atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=150)
        y = rng.normal(size=150)
        c = butter_design(2, 0.05)
        lhs = filtfilt(c, 2.5 * x - 0.75 * y)
        rhs = 2.5 * filtfilt(c, x) - 0.75 * filtfilt(c, y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_high_frequency_energy_decreases(self):
        rng = np.random.default_rng(45)
        x = rng.normal(size=512)
        cutoff = 0.1
        c = butter_design(2, cutoff)
        y = filtfilt(c, x)
        freqs = np.fft.rfftfreq(512, d=1.0)  # cycles/sample; Nyquist at 0.5
        band = freqs > cutoff * 0.5
        ex = np.sum(np.abs(np.fft.rfft(x))[band] ** 2)
        ey = np.sum(np.abs(np.fft.rfft(y))[band] ** 2)
        assert ey < ex

    def test_short_track_falls_back_to_moving_average(self):
        c = butter_design(2, 0.1)  # needs length > 9
        x = np.arange(8.0)
        with pytest.warns(ShortTrackWarning):
            y = filtfilt(c, x)
        np.testing.assert_allclose(y, weighted_moving_average(x, np.ones(5)))

    def test_lfilter_is_causal_direct_form(self):
        # y[n] = b0 x[n] + b1 x[n-1] - a1 y[n-1], hand-unrolled.
        b = np.array([0.5, 0.5])
        a = np.array([1.0, -0.2])
        x = np.array([1.0, 0.0, 0.0])
        y0 = 0.5
        y1 = 0.5 + 0.2 * y0
        y2 = 0.2 * y1
        np.testing.assert_allclose(lfilter(b, a, x), [y0, y1, y2], atol=1e-15)

    @pytest.mark.parametrize("order", range(7))
    def test_lfilter_bits_match_scalar_loop(self, order):
        rng = np.random.default_rng(order)
        for length in (1, 2, 500, *rng.integers(1, 501, size=5)):
            if order:
                c = butter_design(order, rng.uniform(0.02, 0.9))
                b, a = c.b, c.a
            else:
                b, a = rng.normal(size=1), np.ones(1)
            x = rng.normal(size=length) * 10.0 ** rng.integers(-3, 4)
            zi = rng.normal(size=order)
            expected = oracles.lfilter(b, a, x, zi)
            assert lfilter(b, a, x, zi).view(np.int64).tolist() == \
                expected.view(np.int64).tolist()
            assert lfilter(b, a, x).view(np.int64).tolist() == \
                oracles.lfilter(b, a, x, np.zeros(order)).view(np.int64).tolist()

    def test_matches_scipy_lfilter(self):
        rng = np.random.default_rng(46)
        x = rng.normal(size=100)
        c = butter_design(3, 0.2)
        np.testing.assert_allclose(lfilter(c.b, c.a, x),
                                   scipy_signal.lfilter(c.b, c.a, x), atol=1e-12)

    def test_steady_state_matches_scipy_lfilter_zi(self):
        for order in ORDERS:
            c = butter_design(order, 0.13)
            np.testing.assert_allclose(steady_state(c.b, c.a),
                                       scipy_signal.lfilter_zi(c.b, c.a), atol=1e-12)

    @pytest.mark.parametrize("order,cutoff", [(1, 0.3), (2, 0.05), (3, 0.2), (4, 0.1)])
    def test_matches_scipy_filtfilt(self, order, cutoff):
        # Same padding policy and initial-state scaling as scipy's default.
        rng = np.random.default_rng(51)
        x = rng.normal(size=200)
        c = butter_design(order, cutoff)
        np.testing.assert_allclose(filtfilt(c, x),
                                   scipy_signal.filtfilt(c.b, c.a, x), atol=1e-12)


class TestWeightedMovingAverage:
    def test_identity_window(self):
        x = np.array([3.0, -1.0, 4.0])
        np.testing.assert_array_equal(weighted_moving_average(x, np.array([1.0])), x)

    def test_constant_preserved(self):
        rng = np.random.default_rng(47)
        w = rng.uniform(0.1, 2.0, size=5)
        x = np.full(20, -0.7)
        np.testing.assert_allclose(weighted_moving_average(x, w), x, atol=1e-12)

    def test_hand_computed_edges(self):
        out = weighted_moving_average(np.array([1.0, 2.0, 3.0]), np.ones(3))
        np.testing.assert_allclose(out, [1.5, 2.0, 2.5], atol=1e-15)

    def test_output_bounded_by_input(self):
        rng = np.random.default_rng(48)
        for _ in range(20):
            x = rng.normal(size=31)
            w = rng.uniform(0.1, 1.0, size=7)
            y = weighted_moving_average(x, w)
            assert y.min() >= x.min() - 1e-12
            assert y.max() <= x.max() + 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            weighted_moving_average(np.ones(10), np.ones(4))  # even window
        with pytest.raises(DomainError):
            weighted_moving_average(np.ones(3), np.ones(5))  # window > track
        with pytest.raises(DomainError):
            weighted_moving_average(np.ones(10), np.array([1.0, -1.0, 1.0]))


class TestSmoothTrack:
    def test_columns_filtered_independently(self):
        rng = np.random.default_rng(49)
        track = rng.normal(size=(100, 2))
        spec = SmootherSpec(kind="butterworth", order=2, cutoff=0.1)
        out = smooth_track(track, spec)
        c = butter_design(2, 0.1)
        np.testing.assert_array_equal(out[:, 0], filtfilt(c, track[:, 0]))
        np.testing.assert_array_equal(out[:, 1], filtfilt(c, track[:, 1]))

    def test_causal_mode_is_single_pass(self):
        rng = np.random.default_rng(50)
        track = rng.normal(size=60)
        c = butter_design(2, 0.1)
        out = smooth_track(track, SmootherSpec(order=2, cutoff=0.1), causal=True)
        expected = lfilter(c.b, c.a, track, steady_state(c.b, c.a) * track[0])
        np.testing.assert_array_equal(out, expected)

    def test_causal_moving_average_is_refused(self):
        # the centred window would answer an impulse at t=5 from t=3 on
        impulse = np.zeros(12)
        impulse[5] = 1.0
        spec = SmootherSpec(kind="moving_average")
        with pytest.raises(ConfigError, match="moving_average") as info:
            smooth_track(impulse, spec, causal=True)
        assert info.value.key == "causal"
        assert np.flatnonzero(smooth_track(impulse, spec))[0] == 3

    def test_causal_none_is_identity(self):
        track = np.arange(6.0)
        np.testing.assert_array_equal(
            smooth_track(track, SmootherSpec(kind="none"), causal=True), track)

    def test_none_is_identity(self):
        track = np.arange(12.0).reshape(6, 2)
        np.testing.assert_array_equal(smooth_track(track, SmootherSpec(kind="none")), track)

    def test_moving_average_kind(self):
        track = np.array([1.0, 2.0, 3.0])
        out = smooth_track(track, SmootherSpec(kind="moving_average", weights=(1.0, 1.0, 1.0)))
        np.testing.assert_allclose(out, [1.5, 2.0, 2.5])

    def test_each_kind_reads_only_its_fields(self):
        track = np.random.default_rng(51).normal(size=(40, 2))
        fields = {"order": 1, "cutoff": 0.3, "weights": (1.0, 2.0, 1.0)}
        own = {"butterworth": ("order", "cutoff"), "moving_average": ("weights",), "none": ()}
        for kind in SMOOTHERS:
            spec = SmootherSpec(kind=kind)
            foreign = replace(spec, **{k: v for k, v in fields.items() if k not in own[kind]})
            np.testing.assert_array_equal(smooth_track(track, foreign), smooth_track(track, spec))

    def test_spec_exactly_one_kind(self):
        with pytest.raises(ConfigError, match="unknown smoother kind"):
            SmootherSpec(kind="median")
