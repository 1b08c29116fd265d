import json
import re

import numpy as np
import pytest

from gesturepipe.augment import resample_speed
from gesturepipe.errors import (
    MalformedJson,
    NoPeriod,
    ShapeMismatch,
    TooShort,
    UnknownLabel,
)
from gesturepipe.features import Encoding, encode_sequence
from gesturepipe.skeleton import GestureLabel
from gesturepipe.speed import (
    CYCLIC_GESTURES,
    default_start_positions,
    distance_series,
    estimate_speed,
    load_start_positions,
)
from gesturepipe.synth import SynthConfig, generate


def fv(values):
    return np.asarray(values, dtype=float)


def circle_window(gesture=GestureLabel.RightHandRightCircle, period=30, n=100, noise=0.0, seed=0, fps=30.0):
    seq = generate(
        SynthConfig(gesture=gesture, n_frames=n, period_frames=period, noise_sigma=noise, fps=fps, seed=seed)
    )
    return seq, encode_sequence(seq, Encoding.COORDINATE)


class TestDistanceSeries:
    def test_self_distance_is_zero(self):
        ref = fv([0.2, 0.4, 0.6, 0.8, 1.0])
        window = [fv([0.1] * 5), ref, fv([0.3] * 5)]
        series = distance_series(window, ref)
        assert series[1] == 0.0

    def test_unit_vector_distance(self):
        ref = fv([0.0] * 5)
        series = distance_series([fv([1.0, 0.0, 0.0, 0.0, 0.0])], ref)
        assert series[0] == pytest.approx(1.0, abs=0)

    def test_encoding_mismatch(self):
        # rows carry no encoding tag; a coordinate reference for angle rows
        # shows up as a shape mismatch
        ref = fv([0.0] * 18)
        with pytest.raises(ShapeMismatch, match="does not match a reference"):
            distance_series([fv([0.0] * 5)], ref)

    def test_length_mismatch_defensive(self):
        angle_ref = fv([0.0] * 5)
        with pytest.raises(ShapeMismatch, match="does not match a reference"):
            distance_series(np.zeros((3, 4)), angle_ref)
        with pytest.raises(ShapeMismatch, match="window rows differ in length"):  # ragged rows
            distance_series([fv([0.0] * 5), fv([0.0] * 4)], angle_ref)
        with pytest.raises(ShapeMismatch, match="does not match a reference"):  # one row, not a window
            distance_series(fv([0.0] * 5), angle_ref)

    def test_metric_symmetry_under_dimension_permutation(self, rng):
        window = [fv(rng.uniform(0, 1, 5)) for _ in range(10)]
        ref = fv(rng.uniform(0, 1, 5))
        base = distance_series(window, ref)
        perm = rng.permutation(5)
        window_p = [w[perm] for w in window]
        ref_p = ref[perm]
        np.testing.assert_allclose(distance_series(window_p, ref_p), base, atol=1e-12)

    def test_synthetic_circle_autocorrelation_peak(self):
        period = 25
        _, window = circle_window(period=period, n=100)
        series = distance_series(window, window[0])
        centered = series - series.mean()
        ac = np.correlate(centered, centered, mode="full")[len(series) - 1 :]
        lo, hi = period // 2, period + period // 2
        peak = lo + int(np.argmax(ac[lo : hi + 1]))
        assert abs(peak - period) <= 1


class TestEstimateSpeed:
    def test_circle_period_recovered_exactly(self):
        _, window = circle_window(period=30, n=100)
        table = default_start_positions(Encoding.COORDINATE)
        est = estimate_speed(window, GestureLabel.RightHandRightCircle, table, fps=30.0)
        assert 28 <= est.period_frames <= 32
        assert est.cycles_per_second == pytest.approx(1.0, abs=0.07)

    def test_standstill_not_cyclic(self):
        table = default_start_positions(Encoding.COORDINATE)
        _, window = circle_window(period=30, n=100)
        with pytest.raises(UnknownLabel, match="StandStill has no start position"):
            estimate_speed(window, GestureLabel.StandStill, table, fps=30.0)

    def test_short_window_too_short(self):
        _, window = circle_window(period=30, n=100)
        table = default_start_positions(Encoding.COORDINATE)
        with pytest.raises(TooShort):
            estimate_speed(window[:10], GestureLabel.RightHandRightCircle, table, fps=30.0)

    def test_single_cycle_insufficient(self):
        _, window = circle_window(period=60, n=70)
        table = default_start_positions(Encoding.COORDINATE)
        with pytest.raises(NoPeriod):
            estimate_speed(window, GestureLabel.RightHandRightCircle, table, fps=30.0)

    def test_constant_window_has_no_period(self):
        table = default_start_positions(Encoding.COORDINATE)
        window = np.tile(table[GestureLabel.RightHandRightCircle] + 0.1, (100, 1))
        with pytest.raises(NoPeriod):
            estimate_speed(window, GestureLabel.RightHandRightCircle, table, fps=30.0)

    @pytest.mark.parametrize("encoding", list(Encoding), ids=lambda e: e.value)
    def test_noisy_standstill_has_no_period(self, encoding):
        # noise on a still pose has autocorrelation peaks too, but none as
        # clear as a cycle's
        table = default_start_positions(encoding)
        for noise in (0.005, 0.01, 0.02):
            for seed in (1, 2, 3):
                seq = generate(SynthConfig(gesture=GestureLabel.StandStill, n_frames=100,
                                           noise_sigma=noise * 100.0, subject_scale=100.0, seed=seed))
                window = encode_sequence(seq, encoding)
                for gesture in CYCLIC_GESTURES:
                    with pytest.raises(NoPeriod, match="clarity"):
                        estimate_speed(window, gesture, table, fps=30.0)

    def test_time_shift_robustness(self):
        period = 25
        _, window = circle_window(period=period, n=100)
        table = default_start_positions(Encoding.COORDINATE)
        base = estimate_speed(window, GestureLabel.RightHandRightCircle, table, fps=30.0)
        for k in (3, 11, 19):
            rolled = np.concatenate([window[k:], window[:k]])
            est = estimate_speed(rolled, GestureLabel.RightHandRightCircle, table, fps=30.0)
            assert abs(est.period_frames - base.period_frames) <= 1

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_speed_linearity_under_resampling(self, ratio):
        period = 30
        seq, _ = circle_window(period=period, n=120)
        resampled = resample_speed(seq, ratio)
        window = encode_sequence(resampled, Encoding.COORDINATE)
        table = default_start_positions(Encoding.COORDINATE)
        est = estimate_speed(window, GestureLabel.RightHandRightCircle, table, fps=30.0)
        assert abs(est.period_frames - period / ratio) <= 2

    def test_sweep_of_cyclic_gestures(self):
        # both encodings of every cyclic gesture at every period the synth CLI
        # draws from, with A7's tolerances: 2 frames noiseless, 3 with noise
        tables = {encoding: default_start_positions(encoding) for encoding in Encoding}
        misses = {encoding: [] for encoding in Encoding}
        cases = 0
        for gesture in CYCLIC_GESTURES:
            for period in range(20, 41):
                for noise, tol in ((0.0, 2), (0.01, 3), (0.02, 3)):
                    for seed in (1, 2, 3):
                        seq = generate(SynthConfig(gesture=gesture, n_frames=100, period_frames=period,
                                                   noise_sigma=noise * 100.0, subject_scale=100.0, seed=seed))
                        cases += 1
                        for encoding, table in tables.items():
                            window = encode_sequence(seq, encoding)
                            try:
                                got = estimate_speed(window, gesture, table, fps=30.0).period_frames
                            except NoPeriod:
                                got = None
                            if got is None or abs(got - period) > tol:
                                misses[encoding].append((gesture.name, period, noise, seed, got))
        assert cases == 1323
        for encoding, missed in misses.items():
            assert len(missed) <= cases // 100, (encoding.value, len(missed), missed[:10])


class TestStartPositionTable:
    def test_default_covers_cyclic_gestures_only(self):
        table = default_start_positions(Encoding.COORDINATE)
        assert set(table) == set(CYCLIC_GESTURES)
        assert GestureLabel.StandStill not in table

    def test_file_round_trip(self, tmp_path):
        table = default_start_positions(Encoding.ANGLE)
        path = tmp_path / "starts.json"
        doc = {"version": 1, "encoding": "angle",
               "positions": {label.name: row.tolist() for label, row in table.items()}}
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        loaded, encoding = load_start_positions(path)
        assert encoding is Encoding.ANGLE
        assert set(loaded) == set(table)
        for label in table:
            np.testing.assert_array_equal(loaded[label], table[label])

    def write_table(self, path, encoding, row):
        doc = {"version": 1, "encoding": encoding.value,
               "positions": {label.name: row for label in CYCLIC_GESTURES}}
        path.write_text(json.dumps(doc), encoding="utf-8")

    def test_load_rejects_wrong_length(self, tmp_path):
        path = tmp_path / "starts.json"
        self.write_table(path, Encoding.COORDINATE, [0.5] * 18)
        load_start_positions(path)
        self.write_table(path, Encoding.COORDINATE, [0.5] * 5)
        with pytest.raises(MalformedJson):
            load_start_positions(path)

    def test_load_rejects_angle_out_of_range(self, tmp_path):
        path = tmp_path / "starts.json"
        self.write_table(path, Encoding.ANGLE, [0.0, 0.2, 1.0, 0.0, 0.5])
        load_start_positions(path)
        for bad in (1.3, -0.1):
            self.write_table(path, Encoding.ANGLE, [0.1, 0.2, bad, 0.0, 0.5])
            with pytest.raises(MalformedJson):
                load_start_positions(path)

    @pytest.mark.parametrize("value", ['"0.5"', "true", "null", "NaN", "Infinity", "1" + "0" * 400],
                             ids=["string", "boolean", "null", "nan", "infinity", "huge integer"])
    def test_load_rejects_a_value_that_is_not_a_finite_number(self, tmp_path, value):
        # numpy would read "0.5" as 0.5, true as 1 and null as nan
        path = tmp_path / "starts.json"
        self.write_table(path, Encoding.COORDINATE, [0.5] * 18)
        path.write_text(path.read_text().replace("0.5", value, 1), encoding="utf-8")
        with pytest.raises(MalformedJson, match=f"{re.escape(str(path))}: RightHandLeftCircle start position is not an array "
                                                "of finite JSON numbers"):
            load_start_positions(path)

    def test_load_rejects_positions_that_are_not_an_object(self, tmp_path):
        path = tmp_path / "starts.json"
        path.write_text(json.dumps({"encoding": "coordinate", "positions": []}), encoding="utf-8")
        with pytest.raises(MalformedJson, match=f"{re.escape(str(path))}: bad start-position file: 'positions' is not an object"):
            load_start_positions(path)
