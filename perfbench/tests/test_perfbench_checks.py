"""The benchmark's own checks accept right output and reject corrupted output.

    python3 -m pytest perfbench/tests -q

Each corruption is one a real fault would produce: swapped LSTM gate
blocks or directions, estimates shifted by one row off their midpoints, a
duplicate reading kept first instead of last, and a truncated loss.csv.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "..", "src"), os.path.join(HERE, "..")]

import checks  # noqa: E402
import gen  # noqa: E402
import reference  # noqa: E402
from wattsplit import cli  # noqa: E402
from wattsplit.checkpoint import checkpoint_save  # noqa: E402
from wattsplit.model import ModelConfig, model_forward_batch, params_from_dict  # noqa: E402


def wattsplit(*argv) -> str:
    """Run a wattsplit command in the current directory; returns its stderr."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(list(argv))
    assert code == 0, err.getvalue()
    return err.getvalue()


# ---------------------------------------------------------------------------
# reference forward
# ---------------------------------------------------------------------------

def test_reference_forward_matches_layers_on_tiny_shapes():
    sizes = dict(filters=3, kernel=3, hidden=4, attention_width=5, appliances=2)
    params = reference.random_params(0, reference.param_shapes(**sizes))
    config = ModelConfig(n_appliances=2, window_len=12, conv_filters=3, conv_kernel=3,
                         hidden=4, attention_width=5)
    x = np.random.default_rng(1).uniform(0.0, 1.0, (7, 12))
    y, _, _ = model_forward_batch(x[:, :, None], params_from_dict(params), config, train=False)
    np.testing.assert_allclose(reference.forward(x, params), y, rtol=0, atol=1e-12)


def _swap_gates(params, block):
    """Exchange the input and forget gate rows of one LSTM."""
    out = dict(params)
    for key in ("w_x", "w_h", "b"):
        arr = params[f"{block}.{key}"].copy()
        hid = arr.shape[0] // 4
        arr[:hid], arr[hid:2 * hid] = params[f"{block}.{key}"][hid:2 * hid], arr[:hid].copy()
        out[f"{block}.{key}"] = arr
    return out


def _swap_directions(params, layer):
    out = dict(params)
    for key in ("w_x", "w_h", "b"):
        out[f"{layer}.fwd.{key}"] = params[f"{layer}.bwd.{key}"]
        out[f"{layer}.bwd.{key}"] = params[f"{layer}.fwd.{key}"]
    return out


@pytest.fixture
def disaggregated(tmp_path, monkeypatch):
    """Reference params for a short aggregate, and a function that runs
    `wattsplit disaggregate` with the params given (default: the reference
    ones) and returns the check's problems."""
    monkeypatch.chdir(tmp_path)
    scene = gen.make_scene(0, 240)
    gen.write_scene("aggregate.csv", scene, with_appliances=False)
    stats = {"aggregate": {"vmin": float(scene.aggregate.min()),
                           "vmax": float(scene.aggregate.max())},
             "appliances": {k: {"vmin": float(v.min()), "vmax": float(v.max())}
                            for k, v in scene.appliances.items()},
             "names": list(scene.appliances)}
    with open("norm_stats.json", "w") as fh:
        json.dump(stats, fh)
    params = reference.random_params(0, reference.param_shapes())
    sample = np.arange(0, 240 - checks.WINDOW + 1, 7)

    def run(saved=None, corrupt_files=None):
        checkpoint_save(params_from_dict(saved or params), ModelConfig(n_appliances=3),
                        "checkpoint.bin")
        wattsplit("disaggregate", "--input", "aggregate.csv", "--checkpoint", "checkpoint.bin",
                  "--stats", "norm_stats.json", "--out", "est")
        if corrupt_files:
            corrupt_files()
        return checks.check_disaggregate("est", scene, stats, params, sample)
    return run, params


def test_disaggregate_check_accepts_the_toolkit(disaggregated):
    run, _ = disaggregated
    assert run() == []


@pytest.mark.parametrize("corrupt", [
    lambda p: _swap_gates(p, "bilstm1.fwd"),
    lambda p: _swap_gates(p, "bilstm2.bwd"),
    lambda p: _swap_directions(p, "bilstm1"),
    lambda p: _swap_directions(p, "bilstm2"),
], ids=["gates-bilstm1", "gates-bilstm2", "directions-bilstm1", "directions-bilstm2"])
def test_disaggregate_check_rejects_swapped_blocks(disaggregated, corrupt):
    run, params = disaggregated
    assert any("reference" in p for p in run(corrupt(params)))


def _stamp_one_row_late(path):
    """Estimates stamped one sample late, as from a midpoint offset of W//2 + 1."""
    with open(path) as fh:
        header, *rows = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(f"{int(r.split(',')[0]) + gen.SCENE_PERIOD_S},{r.split(',')[1]}\n"
                      for r in rows)


def test_disaggregate_check_rejects_midpoints_shifted_by_one_row(disaggregated):
    run, _ = disaggregated
    problems = run(corrupt_files=lambda: _stamp_one_row_late("est/estimate_heater.csv"))
    assert problems == ["heater: estimate timestamps are not the window midpoints"]


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

@pytest.fixture
def house(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    house = gen.make_house(5, 30_000)
    gen.write_house("house", house)
    with open("prep.json", "w") as fh:
        json.dump({"redd_dir": "house", "out_dir": "prepared"}, fh)
    return house


def test_ingest_check_accepts_the_toolkit(house):
    stderr = wattsplit("prepare", "--config", "prep.json")
    assert checks.check_cleaning(stderr, house) == []
    assert checks.check_ingest("prepared/scene.csv", checks.expected_house_scene(house)) == []


def test_ingest_check_rejects_a_duplicate_kept_first(house):
    # Put each decoy after its true row, so keep-last now keeps the decoy:
    # the output a keep-first parser gives on the original files.
    path = os.path.join("house", "channel_1.dat")
    with open(path) as fh:
        lines = fh.readlines()
    for s in house.injected[1].duplicates:
        k = next(i for i, ln in enumerate(lines) if ln.startswith(f"{gen.T0 + s} "))
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    with open(path, "w") as fh:
        fh.writelines(lines)
    stderr = wattsplit("prepare", "--config", "prep.json")
    assert checks.check_cleaning(stderr, house) == []       # the counts cannot tell
    problems = checks.check_ingest("prepared/scene.csv", checks.expected_house_scene(house))
    assert any("aggregate" in p for p in problems)


def test_cleaning_check_rejects_wrong_counts(house):
    counts = house.expected_counts()
    counts["gap_zero_filled"] += 1
    stderr = "cleaning: CleaningStats(" + ", ".join(f"{k}={v}" for k, v in counts.items()) + ")"
    assert checks.check_cleaning(stderr, house)
    assert checks.check_cleaning("", house)


# ---------------------------------------------------------------------------
# train and eval
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_once(tmp_path_factory):
    """Two epochs on a short scene.  That may not beat the mean predictor, so
    the tests of the other parts of check_train lift its bar."""
    root = tmp_path_factory.mktemp("trained")
    scene = gen.make_scene(3, 1200)
    gen.write_scene(str(root / "scene.csv"), scene)
    (root / "run.json").write_text(json.dumps({"data": str(root / "scene.csv"),
                                               "out_dir": str(root / "run"),
                                               "window_stride": 3, "epochs": 2}))
    wattsplit("train", "--config", str(root / "run.json"))
    return scene, root / "run"


@pytest.fixture
def trained(trained_once, tmp_path, monkeypatch):
    """A private copy of the trained run as ./run."""
    scene, run = trained_once
    shutil.copytree(run, tmp_path / "run")
    monkeypatch.chdir(tmp_path)
    return scene


def test_train_check_accepts_the_toolkit(trained):
    problems, ratio = checks.check_train("run", trained, 3, 2, max_ratio=np.inf)
    assert problems == [] and ratio > 0
    problems, _ = checks.check_train("run", trained, 3, 2, max_ratio=ratio)
    assert any("mean-predictor" in p for p in problems)


def test_train_check_rejects_a_truncated_loss_csv(trained):
    with open("run/loss.csv") as fh:
        lines = fh.readlines()
    with open("run/loss.csv", "w") as fh:
        fh.writelines(lines[:-1])
    assert checks.check_train("run", trained, 3, 2, max_ratio=np.inf)[0]


def test_train_check_rejects_a_stale_val_loss(trained):
    with open("run/loss.csv") as fh:
        lines = fh.readlines()
    # the first epoch's val loss standing in for the last
    epoch1 = lines[1].strip().split(",")
    lines[2] = f"2,{lines[2].split(',')[1]},{epoch1[2]}\n"
    with open("run/loss.csv", "w") as fh:
        fh.writelines(lines)
    problems, _ = checks.check_train("run", trained, 3, 2, max_ratio=np.inf)
    assert any("val MSE" in p for p in problems)


def test_eval_check_rejects_f1_no_better_than_always_on(tmp_path):
    scene = gen.make_scene(3, 1200)
    *_, truth = checks.split_windows(scene, 1)
    rows = [f"{name},0.5,1.0,{np.floor(checks.always_on_f1(truth[:, j]) * 1e4) / 1e4},0,0,0,0"
            for j, name in enumerate(scene.appliances)]
    (tmp_path / "report.csv").write_text(
        "appliance,precision,recall,f1,mae_norm,mse_norm,mae_watts,mse_watts\n"
        + "\n".join(rows) + "\n")
    assert len(checks.check_eval(str(tmp_path), scene)) == 3
