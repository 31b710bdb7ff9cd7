"""End-to-end tests of the command-line surface."""

import json
import shutil

import numpy as np
import pytest

from wattsplit import cli, data
from wattsplit.errors import ConfigError
from wattsplit.metrics import CSV_HEADER


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def test_run_config_defaults():
    cfg = cli.RunConfig()
    assert cfg.epochs == 20
    assert cfg.batch_size == 64
    assert cfg.dropout_rate == 0.25
    assert cfg.on_threshold == 0.05
    assert cfg.split_ratio == 0.8
    assert cfg.downsample_factor == 10
    assert cfg.downsample_method == "mean"


def test_load_config_missing_path_gives_defaults():
    assert cli.load_config(None) == cli.RunConfig()


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"learning_rat": 0.01}')
    with pytest.raises(ConfigError) as exc:
        cli.load_config(str(path))
    assert "learning_rat" in str(exc.value)


def test_load_config_type_checks(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"epochs": "twenty"}')
    with pytest.raises(ConfigError):
        cli.load_config(str(path))
    path.write_text('{"epochs": true}')
    with pytest.raises(ConfigError):
        cli.load_config(str(path))
    path.write_text('{"learning_rate": "fast"}')
    with pytest.raises(ConfigError):
        cli.load_config(str(path))
    path.write_text('[1, 2]')
    with pytest.raises(ConfigError):
        cli.load_config(str(path))
    path.write_text('{"epochs": 3, "learning_rate": 0.01, "data": null}')
    cfg = cli.load_config(str(path))
    assert cfg.epochs == 3 and cfg.learning_rate == 0.01 and cfg.data is None


# ---------------------------------------------------------------------------
# Exit codes and dispatch
# ---------------------------------------------------------------------------

def test_no_command_is_usage_error(capsys):
    assert run_cli() == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_usage_error():
    assert run_cli("transmogrify") == 1


def test_train_with_missing_data_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"data": str(tmp_path / "nope.csv"),
                               "out_dir": str(tmp_path / "run")}))
    assert run_cli("train", "--config", str(cfg)) == 2
    assert "data error" in capsys.readouterr().err


def test_bad_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"wat": 1}')
    assert run_cli("train", "--config", str(cfg)) == 1
    assert "config error" in capsys.readouterr().err


def test_eval_without_training_artifacts(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"data": str(tmp_path / "scene.csv"),
                               "out_dir": str(tmp_path / "empty")}))
    assert run_cli("eval", "--config", str(cfg)) == 2


# ---------------------------------------------------------------------------
# Scene synthesis
# ---------------------------------------------------------------------------

SCENE_SPEC = {
    "appliances": [
        {"name": "fridge", "kind": "cyclic", "amplitude": 150.0,
         "period_s": 400.0, "duty": 0.5},
        {"name": "heater", "kind": "plateau", "amplitude": 1500.0,
         "duration_s": 1200.0, "duty": 0.4},
    ],
    "noise_std": 2.0,
    "duration_s": 30_000.0,
    "sample_period_s": 10,
    "seed": 5,
}


def _synth(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SCENE_SPEC))
    out = tmp_path / "scene.csv"
    assert run_cli("synth", "--spec", str(spec), "--out", str(out)) == 0
    return out


def test_synth_writes_scene(tmp_path, capsys):
    out = _synth(tmp_path)
    agg, apps, names = data.read_scene_csv(out)
    assert names == ["fridge", "heater"]
    assert len(agg) == 3000
    assert "3000 samples" in capsys.readouterr().out


def test_synth_seed_override_changes_scene(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SCENE_SPEC))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("synth", "--spec", str(spec), "--out", str(a)) == 0
    assert run_cli("synth", "--spec", str(spec), "--out", str(b), "--seed", "99") == 0
    agg_a, _, _ = data.read_scene_csv(a)
    agg_b, _, _ = data.read_scene_csv(b)
    assert not np.array_equal(agg_a.values, agg_b.values)


def test_synth_rejects_unknown_spec_keys(tmp_path):
    spec = tmp_path / "spec.json"
    bad = dict(SCENE_SPEC)
    bad["wattage"] = 3
    spec.write_text(json.dumps(bad))
    assert run_cli("synth", "--spec", str(spec), "--out", str(tmp_path / "x.csv")) == 1


def test_synth_missing_spec_is_data_error(tmp_path):
    assert run_cli("synth", "--spec", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "x.csv")) == 2


# ---------------------------------------------------------------------------
# Train / eval / disaggregate round trip
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A small but real training run shared by the round-trip tests."""
    root = tmp_path_factory.mktemp("cli_run")
    scene = _synth(root)
    out_dir = root / "run"
    cfg = root / "config.json"
    cfg.write_text(json.dumps({
        "data": str(scene), "out_dir": str(out_dir), "epochs": 2,
        "window_len": 32, "conv_filters": 4, "hidden": 8, "batch_size": 32,
        "window_stride": 4, "seed": 3,
    }))
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return root, scene, out_dir, cfg


def test_train_writes_all_artifacts(trained):
    _, _, out_dir, _ = trained
    for name in ("checkpoint.bin", "loss.csv", "norm_stats.json",
                 "config.json", "manifest.json"):
        assert (out_dir / name).is_file(), name


def test_train_loss_csv_has_one_row_per_epoch(trained):
    _, _, out_dir, _ = trained
    lines = (out_dir / "loss.csv").read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert len(lines) == 3  # header + 2 epochs
    for line in lines[1:]:
        epoch, train_loss, val_loss = line.split(",")
        assert float(train_loss) > 0 and float(val_loss) > 0


def test_manifest_records_inputs_and_seed(trained):
    _, scene, out_dir, _ = trained
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 3
    assert str(scene) in manifest["inputs"]
    digest = manifest["inputs"][str(scene)]
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert manifest["config"]["epochs"] == 2


def test_eval_writes_report_and_plots(trained, capsys):
    root, _, out_dir, cfg = trained
    assert cli.main(["eval", "--config", str(cfg)]) == 0
    table = capsys.readouterr().out
    assert "fridge" in table and "heater" in table
    report = (out_dir / "report.csv").read_text().splitlines()
    assert report[0] == CSV_HEADER
    assert len(report) == 3
    assert (out_dir / "plot_fridge.csv").is_file()
    assert (out_dir / "plot_heater.csv").is_file()
    plot = (out_dir / "plot_fridge.csv").read_text().splitlines()
    assert plot[0] == "timestamp,truth_watts,estimate_watts"
    assert len(plot) > 100


def test_training_is_reproducible_across_thread_flags(trained, tmp_path):
    """Identical seed, different --threads: byte-identical artifacts."""
    root, scene, out_dir, cfg = trained
    rerun = tmp_path / "rerun"
    assert cli.main(["train", "--config", str(cfg), "--out", str(rerun),
                     "--threads", "4"]) == 0
    assert (rerun / "loss.csv").read_bytes() == (out_dir / "loss.csv").read_bytes()
    assert (rerun / "checkpoint.bin").read_bytes() == \
        (out_dir / "checkpoint.bin").read_bytes()


def test_disaggregate_writes_estimates(trained, tmp_path):
    root, scene, out_dir, cfg = trained
    est_dir = tmp_path / "estimates"
    assert cli.main(["disaggregate", "--config", str(cfg), "--input", str(scene),
                     "--checkpoint", str(out_dir / "checkpoint.bin"),
                     "--stats", str(out_dir / "norm_stats.json"),
                     "--out", str(est_dir)]) == 0
    for name in ("fridge", "heater"):
        lines = (est_dir / f"estimate_{name}.csv").read_text().splitlines()
        assert lines[0] == "timestamp,estimate_watts"
        assert len(lines) > 1000
        watts = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.all(watts >= 0.0)


def test_eval_normalizes_with_the_saved_stats(trained, tmp_path):
    """eval scales its input by the training stats, so the scene at three times
    the power gives a different report; stats recomputed from the scene would
    cancel the scale and hide the difference."""
    _, scene, out_dir, _ = trained
    agg, apps, names = data.read_scene_csv(scene)
    scaled = tmp_path / "scaled.csv"
    data.write_scene_csv(scaled, data.TimeSeries(agg.timestamps, 3.0 * agg.values),
                         [data.TimeSeries(a.timestamps, 3.0 * a.values) for a in apps], names)
    reports = []
    for name, path in (("plain", scene), ("scaled", scaled)):
        run = tmp_path / name
        run.mkdir()
        for artifact in ("checkpoint.bin", "norm_stats.json"):
            shutil.copy(out_dir / artifact, run / artifact)
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"data": str(path), "out_dir": str(run), "window_len": 32}))
        assert cli.main(["eval", "--config", str(cfg)]) == 0
        reports.append((run / "report.csv").read_text())
    assert reports[0] != reports[1]


def test_eval_rejects_mismatched_scene(trained, tmp_path):
    root, scene, out_dir, _ = trained
    other = dict(SCENE_SPEC)
    other["appliances"] = [dict(other["appliances"][0], name="oven")]
    spec = tmp_path / "other_spec.json"
    spec.write_text(json.dumps(other))
    other_scene = tmp_path / "other.csv"
    assert cli.main(["synth", "--spec", str(spec), "--out", str(other_scene)]) == 0
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps({"data": str(other_scene), "out_dir": str(out_dir),
                                "window_len": 32}))
    assert cli.main(["eval", "--config", str(cfg2)]) == 2


# ---------------------------------------------------------------------------
# House-directory preparation
# ---------------------------------------------------------------------------

def test_prepare_downsamples_a_house_directory(tmp_path, capsys):
    house = tmp_path / "house_1"
    house.mkdir()
    (house / "labels.dat").write_text(
        "1 mains\n2 mains\n3 refrigerator\n4 microwave\n")
    n = 4000
    t = np.arange(n)
    rng = np.random.default_rng(0)
    fridge = np.where((t // 300) % 2 == 0, 150.0, 0.0)
    micro = np.where(rng.random(n) < 0.01, 1100.0, 0.0)
    for cid, vals in ((1, fridge * 0.6 + micro * 0.5), (2, fridge * 0.4 + micro * 0.5),
                      (3, fridge), (4, micro)):
        (house / f"channel_{cid}.dat").write_text(
            "".join(f"{s} {v:.2f}\n" for s, v in zip(t, vals)))
    out_dir = tmp_path / "prepared"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"redd_dir": str(house), "out_dir": str(out_dir)}))
    assert cli.main(["prepare", "--config", str(cfg)]) == 0
    agg, apps, names = data.read_scene_csv(out_dir / "scene.csv")
    assert names == ["refrigerator", "microwave"]
    assert len(agg) == n // 10  # 1 Hz -> 0.1 Hz
    assert np.allclose(agg.values, apps[0].values + apps[1].values, atol=1e-6)


def test_prepare_without_house_dir_is_data_error(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"redd_dir": str(tmp_path / "missing")}))
    assert cli.main(["prepare", "--config", str(cfg)]) == 2


# ---------------------------------------------------------------------------
# Gradient check command
# ---------------------------------------------------------------------------

def test_gradcheck_command_reports_all_ops(capsys):
    assert cli.main(["gradcheck", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    for op in ("conv1d", "maxpool1d", "lstm", "bilstm", "attention",
               "dense", "dropout", "model"):
        assert op in out
    assert "FAIL" not in out
    assert out.count("PASS") == 8
