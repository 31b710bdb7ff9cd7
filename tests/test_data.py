"""Tests for the data pipeline: parsing, resampling, normalization,
splitting, windowing, synthesis, and house-directory ingestion."""

import numpy as np
import pytest

from wattsplit import data
from wattsplit.errors import DomainError, ParseError, ShapeError
from wattsplit.rng import SeededRng


# ---------------------------------------------------------------------------
# TimeSeries and channel parsing
# ---------------------------------------------------------------------------

def test_time_series_validation():
    ts = data.TimeSeries([1, 2, 3], [1.0, 2.0, 3.0])
    assert ts.timestamps.dtype == np.int64
    assert ts.values.dtype == np.float64
    assert len(ts) == 3
    with pytest.raises(DomainError):
        data.TimeSeries([3, 2, 1], [0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        data.TimeSeries([1, 1], [0.0, 0.0])
    with pytest.raises(ShapeError):
        data.TimeSeries([1, 2], [0.0])


def test_parse_channel_basic():
    ts = data.parse_channel("100 1.5\n101 2.5\n\n102 0.0\n")
    assert np.array_equal(ts.timestamps, [100, 101, 102])
    assert np.array_equal(ts.values, [1.5, 2.5, 0.0])


def test_parse_channel_cleaning_and_stats():
    stats = data.CleaningStats()
    raw = "100 5.0\n102 8.0\n101 7.0\n102 9.0\n103 -3.0\n"
    ts = data.parse_channel(raw, stats)
    assert np.array_equal(ts.timestamps, [100, 101, 102, 103])
    # duplicate timestamp 102 keeps the last value; negatives clamp to zero
    assert np.array_equal(ts.values, [5.0, 7.0, 9.0, 0.0])
    assert stats.out_of_order == 1
    assert stats.duplicate_timestamps == 1
    assert stats.negative_clamped == 1


def test_parse_channel_negative_clamped():
    ts = data.parse_channel("1 -2.5\n2 4.0\n")
    assert np.array_equal(ts.values, [0.0, 4.0])


def test_parse_channel_grammar_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        data.parse_channel("100 1.0\n101\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        data.parse_channel("100 1.0 extra\n")
    with pytest.raises(ParseError):
        data.parse_channel("abc 1.0\n")
    with pytest.raises(ParseError):
        data.parse_channel("100 watts\n")
    with pytest.raises(ParseError):
        data.parse_channel("100 nan\n")
    with pytest.raises(ParseError):
        data.parse_channel("100 inf\n")


def test_parse_channel_empty_input():
    ts = data.parse_channel("")
    assert len(ts) == 0


def test_read_labels():
    metas = data.read_labels("1 mains\n2 mains\n3 washer dryer\n")
    assert [(m.channel_id, m.label) for m in metas] == \
        [(1, "mains"), (2, "mains"), (3, "washer dryer")]
    with pytest.raises(ParseError):
        data.read_labels("1 mains\n1 oven\n")
    with pytest.raises(ParseError):
        data.read_labels("x mains\n")


# ---------------------------------------------------------------------------
# Resampling / downsampling
# ---------------------------------------------------------------------------

def test_resample_forward_fill():
    ts = data.TimeSeries([0, 3, 10], [1.0, 2.0, 3.0])
    out = data.resample_uniform(ts, 2)
    assert np.array_equal(out.timestamps, [0, 2, 4, 6, 8, 10])
    assert np.array_equal(out.values, [1.0, 1.0, 2.0, 2.0, 2.0, 3.0])


def test_resample_zero_fills_long_gaps():
    stats = data.CleaningStats()
    ts = data.TimeSeries([0, 1000], [5.0, 6.0])
    out = data.resample_uniform(ts, 100, stats=stats)
    # grid points 100..900 are > GAP_LIMIT_S after the last observation at 0
    expected = [5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 6.0]
    assert np.array_equal(out.values, expected)
    assert stats.gap_zero_filled == 8


def test_resample_explicit_start_and_count():
    ts = data.TimeSeries([10, 20], [1.0, 2.0])
    out = data.resample_uniform(ts, 5, start=0, count=6)
    assert np.array_equal(out.timestamps, [0, 5, 10, 15, 20, 25])
    # points before the first observation are zero
    assert np.array_equal(out.values, [0.0, 0.0, 1.0, 1.0, 2.0, 2.0])


def test_resample_validation():
    with pytest.raises(DomainError):
        data.resample_uniform(data.TimeSeries([], []), 1)
    with pytest.raises(DomainError):
        data.resample_uniform(data.TimeSeries([0], [1.0]), 0)


def test_downsample_mean_matches_direct_average():
    for seed in range(10):
        vals = SeededRng(seed).uniform(107, 0.0, 500.0)
        ts = data.TimeSeries(np.arange(107), vals)
        out = data.downsample(ts, 10, "mean")
        assert len(out) == 107 // 10
        for k in range(len(out)):
            assert out.values[k] == pytest.approx(vals[10 * k:10 * (k + 1)].mean(), abs=1e-12)
        assert np.array_equal(out.timestamps, np.arange(107)[:100:10])


def test_downsample_decimate_keeps_block_starts():
    ts = data.TimeSeries(np.arange(10), np.arange(10, dtype=float))
    out = data.downsample(ts, 3, "decimate")
    assert np.array_equal(out.values, [0.0, 3.0, 6.0])
    assert np.array_equal(out.timestamps, [0, 3, 6])


def test_downsample_validation():
    ts = data.TimeSeries(np.arange(5), np.ones(5))
    with pytest.raises(DomainError):
        data.downsample(ts, 0)
    with pytest.raises(DomainError):
        data.downsample(ts, 6)
    with pytest.raises(DomainError):
        data.downsample(ts, 2, "median")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_normalize_round_trip():
    vals = SeededRng(5).uniform(100, 10.0, 400.0)
    stats = data.compute_norm_stats(vals)
    norm = data.normalize(vals, stats)
    assert np.all((norm >= 0.0) & (norm <= 1.0))
    assert np.allclose(data.denormalize(norm, stats), vals, atol=1e-9)


def test_normalize_clips_out_of_range():
    stats = data.NormStats(0.0, 10.0)
    out = data.normalize(np.array([-5.0, 5.0, 15.0]), stats)
    assert np.array_equal(out, [0.0, 0.5, 1.0])


def test_normalize_degenerate_range():
    stats = data.compute_norm_stats(np.full(4, 7.0))
    assert np.array_equal(data.normalize(np.full(4, 7.0), stats), np.zeros(4))


def test_norm_stats_validation():
    with pytest.raises(DomainError):
        data.NormStats(2.0, 1.0)
    with pytest.raises(DomainError):
        data.compute_norm_stats(np.empty(0))


# ---------------------------------------------------------------------------
# Splitting / windowing
# ---------------------------------------------------------------------------

def test_split_is_chronological_disjoint_exhaustive():
    train, test = data.split_train_test(1000, 0.8, 64)
    assert (train.start, train.stop) == (0, 800)
    assert (test.start, test.stop) == (800, 1000)
    covered = np.r_[np.arange(1000)[train], np.arange(1000)[test]]
    assert np.array_equal(covered, np.arange(1000))


def test_split_uses_floor():
    train, test = data.split_train_test(999, 0.8, 10)
    assert train.stop == int(np.floor(0.8 * 999)) == 799


def test_split_validation():
    with pytest.raises(DomainError):
        data.split_train_test(100, 0.0, 10)
    with pytest.raises(DomainError):
        data.split_train_test(100, 1.0, 10)
    with pytest.raises(DomainError):
        data.split_train_test(100, 0.9, 64)  # test side too short


def test_make_windows_count_and_contents():
    n, w, stride = 100, 8, 3
    agg = data.TimeSeries(np.arange(n) * 10, SeededRng(0).uniform(n))
    app = data.TimeSeries(agg.timestamps, SeededRng(1).uniform(n))
    batch = data.make_windows(agg, [app], w, stride)
    expected_count = (n - w) // stride + 1
    assert batch.inputs.shape == (expected_count, w, 1)
    assert batch.targets.shape == (expected_count, 1)
    for k in range(expected_count):
        start = k * stride
        assert np.array_equal(batch.inputs[k, :, 0], agg.values[start:start + w])
        mid = start + w // 2
        assert batch.targets[k, 0] == app.values[mid]
        assert batch.midpoints[k] == agg.timestamps[mid]


def test_make_windows_multiple_appliances():
    agg = data.TimeSeries(np.arange(20), np.ones(20))
    apps = [data.TimeSeries(np.arange(20), np.full(20, float(j))) for j in range(3)]
    batch = data.make_windows(agg, apps, 6, 2)
    assert batch.targets.shape == (8, 3)
    assert np.array_equal(batch.targets[0], [0.0, 1.0, 2.0])


def test_make_windows_validation():
    agg = data.TimeSeries(np.arange(10), np.ones(10))
    with pytest.raises(DomainError):
        data.make_windows(agg, [], 11)
    with pytest.raises(DomainError):
        data.make_windows(agg, [], 4, stride=0)
    short = data.TimeSeries(np.arange(5), np.ones(5))
    with pytest.raises(ShapeError):
        data.make_windows(agg, [short], 4)


# ---------------------------------------------------------------------------
# Synthetic scenes
# ---------------------------------------------------------------------------

def _spec(noise=0.0, seed=0):
    return data.SynthSpec(
        appliances=[
            data.ApplianceSig("fridge", "cyclic", 150.0, period_s=600.0, duty=0.5),
            data.ApplianceSig("microwave", "spike", 1200.0, duration_s=60.0, rate_s=900.0),
            data.ApplianceSig("heater", "plateau", 1500.0, duration_s=1800.0, duty=0.4),
        ],
        noise_std=noise, duration_s=20_000.0, sample_period_s=10, seed=seed)


def test_synth_aggregate_is_exact_appliance_sum_without_noise():
    for seed in range(20):
        agg, apps, _ = data.synth_generate(_spec(noise=0.0, seed=seed))
        total = np.zeros(len(agg))
        for app in apps:
            total = total + app.values
        assert np.array_equal(agg.values, total)


def test_synth_deterministic():
    a1, apps1, _ = data.synth_generate(_spec(noise=3.0, seed=9))
    a2, apps2, _ = data.synth_generate(_spec(noise=3.0, seed=9))
    assert np.array_equal(a1.values, a2.values)
    for x, y in zip(apps1, apps2):
        assert np.array_equal(x.values, y.values)


def test_synth_appliances_are_two_level():
    _, apps, meta = data.synth_generate(_spec(seed=4))
    amplitudes = [150.0, 1200.0, 1500.0]
    for app, amp in zip(apps, amplitudes):
        assert set(np.unique(app.values)) <= {0.0, amp}
    assert [m.label for m in meta] == ["fridge", "microwave", "heater"]


def test_synth_cyclic_duty_cycle():
    spec = data.SynthSpec([data.ApplianceSig("f", "cyclic", 100.0, period_s=100.0, duty=0.3)],
                          duration_s=100_000.0, sample_period_s=10, seed=0)
    _, apps, _ = data.synth_generate(spec)
    on_fraction = float(np.mean(apps[0].values > 0))
    assert on_fraction == pytest.approx(0.3, abs=0.01)


def test_synth_ramp_softens_edges_and_keeps_levels():
    def cyclic(ramp):
        spec = data.SynthSpec(
            [data.ApplianceSig("f", "cyclic", 100.0, period_s=1000.0, duty=0.5,
                               ramp_s=ramp)],
            duration_s=50_000.0, sample_period_s=10, seed=0)
        return data.synth_generate(spec)[1][0].values

    square = cyclic(0.0)
    ramped = cyclic(60.0)
    assert np.all(ramped >= 0.0) and np.all(ramped <= 100.0 + 1e-9)
    # intermediate values appear only with a ramp
    mid = (ramped > 1.0) & (ramped < 99.0)
    assert mid.any()
    assert not ((square > 1.0) & (square < 99.0)).any()
    # plateau levels away from edges are preserved exactly
    interior_on = (square == 100.0) & (np.abs(ramped - 100.0) < 1e-9)
    interior_off = (square == 0.0) & (np.abs(ramped) < 1e-9)
    assert interior_on.sum() > 0.4 * len(square)
    assert interior_off.sum() > 0.4 * len(square)
    # edges slewed over roughly ramp_s: max step bounded by amplitude/width
    assert np.max(np.abs(np.diff(ramped))) <= 100.0 / 6 + 1e-9
    # sub-sample ramps fall back to ideal square edges
    assert np.array_equal(cyclic(5.0), square)


def test_synth_timestamps_are_uniform():
    agg, _, _ = data.synth_generate(_spec())
    assert np.array_equal(np.diff(agg.timestamps), np.full(len(agg) - 1, 10))


def test_synth_validation():
    with pytest.raises(DomainError):
        data.ApplianceSig("x", "sawtooth", 100.0)
    with pytest.raises(DomainError):
        data.ApplianceSig("x", "cyclic", -1.0)
    with pytest.raises(DomainError):
        data.ApplianceSig("x", "cyclic", 10.0, duty=1.5)
    with pytest.raises(DomainError):
        data.SynthSpec([], duration_s=100.0)
    with pytest.raises(DomainError):
        data.SynthSpec([data.ApplianceSig("x", "cyclic", 1.0)], noise_std=-1.0)


# ---------------------------------------------------------------------------
# Scene CSV round trip
# ---------------------------------------------------------------------------

def test_scene_csv_round_trip(tmp_path):
    agg, apps, meta = data.synth_generate(_spec(noise=2.0, seed=3))
    path = tmp_path / "scene.csv"
    data.write_scene_csv(path, agg, apps, [m.label for m in meta])
    agg2, apps2, names = data.read_scene_csv(path)
    assert names == ["fridge", "microwave", "heater"]
    assert np.array_equal(agg2.timestamps, agg.timestamps)
    # values survive the 6-decimal fixed-point formatting
    assert np.allclose(agg2.values, agg.values, atol=5e-7)
    for a, b in zip(apps, apps2):
        assert np.allclose(a.values, b.values, atol=5e-7)


def test_scene_csv_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,aggregate,a\n")
    with pytest.raises(ParseError):
        data.read_scene_csv(bad)
    bad.write_text("timestamp,aggregate,a\n0,1.0\n")
    with pytest.raises(ParseError) as exc:
        data.read_scene_csv(bad)
    assert exc.value.line == 2
    bad.write_text("timestamp,aggregate,a\n0,1.0,oops\n")
    with pytest.raises(ParseError):
        data.read_scene_csv(bad)


def test_scene_csv_rejects_non_finite_values(tmp_path):
    """nan or inf in any column is a parse error at its line, as in parse_channel."""
    rows = ["0,10.0,5.0,5.0", "10,12.0,6.0,6.0", "20,14.0,7.0,7.0"]
    path = tmp_path / "scene.csv"
    path.write_text("timestamp,aggregate,fridge,heater\n" + "\n".join(rows) + "\n")
    assert len(data.read_scene_csv(path)[0]) == 3
    for lineno, row in ((3, "10,nan,6.0,6.0"), (4, "20,14.0,7.0,inf")):
        bad = list(rows)
        bad[lineno - 2] = row
        path.write_text("timestamp,aggregate,fridge,heater\n" + "\n".join(bad) + "\n")
        with pytest.raises(ParseError) as exc:
            data.read_scene_csv(path)
        assert exc.value.line == lineno


def test_write_scene_csv_validation(tmp_path):
    agg = data.TimeSeries([0], [1.0])
    with pytest.raises(ShapeError):
        data.write_scene_csv(tmp_path / "x.csv", agg, [agg], ["a", "b"])


# ---------------------------------------------------------------------------
# House directory ingestion
# ---------------------------------------------------------------------------

def _write_house(root, channels, labels):
    root.mkdir(parents=True, exist_ok=True)
    (root / "labels.dat").write_text(
        "".join(f"{cid} {label}\n" for cid, label in labels))
    for cid, series in channels.items():
        (root / f"channel_{cid}.dat").write_text(
            "".join(f"{t} {v}\n" for t, v in series))


def test_load_house_sums_mains_and_same_labels(tmp_path):
    t = list(range(0, 10))
    channels = {
        1: [(s, 100.0) for s in t],
        2: [(s, 50.0) for s in t],
        3: [(s, 20.0) for s in t],
        4: [(s, 5.0) for s in t],
        5: [(s, 2.0) for s in t],
    }
    labels = [(1, "mains"), (2, "mains"), (3, "refrigerator"),
              (4, "kitchen_outlets"), (5, "kitchen_outlets")]
    _write_house(tmp_path / "house", channels, labels)
    agg, apps, names = data.load_redd_house(tmp_path / "house")
    assert names == ["refrigerator", "kitchen_outlets"]
    assert np.allclose(agg.values, 150.0)
    assert np.allclose(apps[0].values, 20.0)
    assert np.allclose(apps[1].values, 7.0)  # duplicate label summed


def test_load_house_aligns_to_overlapping_grid(tmp_path):
    channels = {
        1: [(s, 10.0) for s in range(0, 20)],
        2: [(s, 1.0) for s in range(5, 25)],
    }
    labels = [(1, "mains"), (2, "stove")]
    _write_house(tmp_path / "house", channels, labels)
    agg, apps, _ = data.load_redd_house(tmp_path / "house")
    assert agg.timestamps[0] == 5
    assert agg.timestamps[-1] == 19
    assert len(agg) == len(apps[0]) == 15


def test_load_house_errors(tmp_path):
    with pytest.raises(ParseError):
        data.load_redd_house(tmp_path / "nope")
    house = tmp_path / "h2"
    house.mkdir()
    (house / "labels.dat").write_text("1 mains\n2 oven\n")
    (house / "channel_1.dat").write_text("0 1.0\n1 1.0\n")
    with pytest.raises(ParseError):  # channel_2.dat missing
        data.load_redd_house(house)
    (house / "channel_2.dat").write_text("0 2.0\n1 2.0\n")
    data.load_redd_house(house)  # now complete

    no_mains = tmp_path / "h3"
    _write_house(no_mains, {1: [(0, 1.0), (1, 1.0)]}, [(1, "oven")])
    with pytest.raises(DomainError):
        data.load_redd_house(no_mains)

    disjoint = tmp_path / "h4"
    _write_house(disjoint, {1: [(0, 1.0), (5, 1.0)], 2: [(100, 1.0), (105, 1.0)]},
                 [(1, "mains"), (2, "oven")])
    with pytest.raises(DomainError):
        data.load_redd_house(disjoint)
