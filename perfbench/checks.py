"""Correctness checks on the artifacts of each workload.

Each check rebuilds what the output should be from the benchmark's own
inputs and returns a list of problems (empty when the output is right).
None of them compares against stored output of the toolkit.
"""

from __future__ import annotations

import math
import os
import re

import numpy as np

import gen
import reference

WINDOW = 64
SPLIT = 0.8
THRESHOLD = 0.05            # default on/off threshold, normalized units
#: Estimates must match the reference forward within this share of the
#: appliance's watt range: loose enough for float32 compute, far below the
#: change that a swapped gate block or LSTM direction makes.
REFERENCE_TOL = 1e-4


def read_csv(path: str, header: str) -> tuple[np.ndarray | None, list[str]]:
    """Numeric body of a CSV whose first line must equal `header`."""
    if not os.path.isfile(path):
        return None, [f"{os.path.basename(path)} is missing"]
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            return None, [f"{os.path.basename(path)} header {first!r} != {header!r}"]
        body = np.loadtxt(fh, delimiter=",", ndmin=2)
    return body, []


def _normalize(values: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.clip((values - lo) / (hi - lo), 0.0, 1.0) if hi > lo else np.zeros_like(values)


# ---------------------------------------------------------------------------
# ingest: expected scene from the generated 1 Hz house
# ---------------------------------------------------------------------------

CLEANING_RE = re.compile(r"cleaning: CleaningStats\((.*)\)")


def expected_house_scene(house: gen.House, factor: int = 10):
    """(timestamps, aggregate, [(label, watts)]) at 1/factor Hz by the cleaning rules.

    Rows out of order are sorted back and duplicates keep the last row (the
    true reading), so neither changes the 1 Hz signal.  Negative readings
    clamp to 0.  Inside a gap the last reading holds for GAP_LIMIT_S seconds
    and zeros fill the rest.  Mains channels add into the aggregate, and
    channels sharing a label add, in channel order.  Each block of `factor`
    seconds is averaged.
    """
    signal = {}
    for cid, _ in gen.HOUSE_CHANNELS:
        v = house.centiwatts[cid] / 100.0
        inj = house.injected[cid]
        v[inj.negatives] = 0.0
        for a, b in inj.short_gaps + inj.long_gaps:
            hold = min(b, a + 1 + gen.GAP_LIMIT_S)
            v[a + 1:hold] = v[a]
            v[hold:b] = 0.0
        signal[cid] = v
    aggregate = np.zeros(house.seconds)
    columns: dict[str, np.ndarray] = {}
    for cid, label in gen.HOUSE_CHANNELS:
        if label == "mains":
            aggregate = aggregate + signal[cid]
        else:
            columns[label] = columns.get(label, 0.0) + signal[cid]
    n_out = house.seconds // factor
    starts = np.arange(0, n_out * factor, factor)

    def block_mean(v):
        return np.add.reduceat(v[:n_out * factor], starts) / factor

    stamps = gen.T0 + starts
    return stamps, block_mean(aggregate), [(k, block_mean(v)) for k, v in columns.items()]


def cleaning_counts(stderr: str) -> dict[str, int] | None:
    match = CLEANING_RE.search(stderr)
    if match is None:
        return None
    return {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", match.group(1))}


def check_cleaning(stderr: str, house: gen.House) -> list[str]:
    """The counts `prepare` prints must equal the faults written into the house."""
    counts = cleaning_counts(stderr)
    if counts != house.expected_counts():
        return [f"cleaning counts {counts} != injected {house.expected_counts()}"]
    return []


def check_ingest(scene_csv: str, expected) -> list[str]:
    """scene.csv must equal `expected` (from expected_house_scene) to its
    six-decimal rounding."""
    stamps, aggregate, columns = expected
    header = ",".join(["timestamp", "aggregate"] + [name for name, _ in columns])
    body, problems = read_csv(scene_csv, header)
    if body is None:
        return problems
    if body.shape != (len(stamps), 2 + len(columns)):
        return [f"scene.csv is {body.shape}, expected {(len(stamps), 2 + len(columns))}"]
    if not np.array_equal(body[:, 0].astype(np.int64), stamps):
        problems.append("scene.csv timestamps differ from the 10 s block starts")
    for j, (name, want) in enumerate([("aggregate", aggregate)] + columns):
        # 6-decimal CSV rounding plus summation-order ulps
        err = np.abs(body[:, 1 + j] - want)
        if err.max() > 1e-6:
            k = int(err.argmax())
            problems.append(f"scene.csv {name} row {k}: {body[k, 1 + j]} != {want[k]:.6f}")
    return problems


# ---------------------------------------------------------------------------
# disaggregate: sampled estimates against the reference forward
# ---------------------------------------------------------------------------

def check_disaggregate(out_dir: str, scene: gen.Scene, stats: dict, params: dict,
                       sample: np.ndarray) -> list[str]:
    """Estimate files: one row per stride-1 window, stamped at its midpoint
    (offset WINDOW // 2), and equal to the reference on the sampled rows."""
    count = len(scene.timestamps) - WINDOW + 1
    agg = stats["aggregate"]
    x = _normalize(scene.aggregate, agg["vmin"], agg["vmax"])
    ref = reference.forward(x[sample[:, None] + np.arange(WINDOW)], params)
    problems = []
    inside = float(np.mean((ref > 0.0) & (ref < 1.0)))
    if inside <= 0.5:
        problems.append(f"only {inside:.0%} of reference outputs lie inside (0, 1)")
    ref = np.clip(ref, 0.0, 1.0)
    for j, name in enumerate(stats["names"]):
        path = os.path.join(out_dir, f"estimate_{name}.csv")
        body, errors = read_csv(path, "timestamp,estimate_watts")
        problems += errors
        if body is None:
            continue
        if body.shape[0] != count:
            problems.append(f"{name}: {body.shape[0]} estimate rows, expected {count}")
            continue
        midpoints = scene.timestamps[WINDOW // 2:WINDOW // 2 + count]
        if not np.array_equal(body[:, 0].astype(np.int64), midpoints):
            problems.append(f"{name}: estimate timestamps are not the window midpoints")
        lo, hi = stats["appliances"][name]["vmin"], stats["appliances"][name]["vmax"]
        want = lo + ref[:, j] * (hi - lo)
        err = np.abs(body[sample, 1] - want)
        if err.max() > REFERENCE_TOL * (hi - lo):
            k = int(err.argmax())
            problems.append(f"{name}: window {sample[k]} estimate {body[sample[k], 1]:.6f} W, "
                            f"reference {want[k]:.6f} W")
    return problems


# ---------------------------------------------------------------------------
# train / eval: loss curve, quality against a mean predictor, F1
# ---------------------------------------------------------------------------

def split_windows(scene: gen.Scene, stride: int):
    """Normalized (train targets, val inputs, val targets, test truth at stride 1)
    under the toolkit's documented split: a chronological 80/20 cut, min-max
    statistics from the training part only, targets at the window midpoint."""
    n = len(scene.timestamps)
    cut = int(math.floor(SPLIT * n))
    agg = scene.aggregate
    x = _normalize(agg, agg[:cut].min(), agg[:cut].max())
    ys = np.stack([_normalize(v, v[:cut].min(), v[:cut].max())
                   for v in scene.appliances.values()], axis=1)
    train_mid = np.arange(0, cut - WINDOW + 1, stride) + WINDOW // 2
    val_start = cut + np.arange(0, n - cut - WINDOW + 1, stride)
    val_inputs = x[val_start[:, None] + np.arange(WINDOW)][:, :, None]
    test_mid = np.arange(cut, n - WINDOW + 1) + WINDOW // 2
    return ys[train_mid], val_inputs, ys[val_start + WINDOW // 2], ys[test_mid]


def check_train(run_dir: str, scene: gen.Scene, stride: int, epochs: int,
                max_ratio: float = 1.0) -> tuple[list[str], float]:
    """Problems with a training run, and its final val loss as a share of the
    MSE of predicting the mean training target.

    loss.csv must have one row per epoch, and its last val loss must equal
    the val MSE of the saved checkpoint on the benchmark's own windows.  That
    loss must be below `max_ratio` times the mean predictor's MSE.  The
    default of 1 catches broken training on every seed; a quarter does not
    hold on every seed after two epochs (see README.md), so it is reported,
    not gated.
    """
    from wattsplit.checkpoint import checkpoint_load
    from wattsplit.model import predict_batches

    body, problems = read_csv(os.path.join(run_dir, "loss.csv"), "epoch,train_loss,val_loss")
    if body is None:
        return problems, math.nan
    if body.shape[0] != epochs or not np.array_equal(body[:, 0], np.arange(1, epochs + 1)):
        return [f"loss.csv has epochs {body[:, 0].tolist()}, expected 1..{epochs}"], math.nan
    final_val = float(body[-1, 2])
    params, config = checkpoint_load(os.path.join(run_dir, "checkpoint.bin"))
    train_y, val_x, val_y, _ = split_windows(scene, stride)
    pred = predict_batches(val_x, params, config, chunk=config.batch_size)
    val_mse = float(np.mean((pred - val_y) ** 2))
    if not math.isclose(val_mse, final_val, rel_tol=1e-9):
        problems.append(f"val MSE of the saved checkpoint {val_mse!r} != loss.csv {final_val!r}")
    baseline = float(np.mean((val_y - train_y.mean(axis=0)) ** 2))
    ratio = final_val / baseline
    if not ratio < max_ratio:
        problems.append(f"final val loss {final_val:.5g} is not below {max_ratio} x the "
                        f"mean-predictor MSE {baseline:.5g}")
    return problems, ratio


def always_on_f1(truth: np.ndarray) -> float:
    """F1 of predicting 'on' everywhere: precision = share on, recall = 1."""
    p = float(np.mean(truth >= THRESHOLD))
    return 2.0 * p / (1.0 + p)


def check_eval(run_dir: str, scene: gen.Scene) -> list[str]:
    path = os.path.join(run_dir, "report.csv")
    if not os.path.isfile(path):
        return ["report.csv is missing"]
    with open(path) as fh:
        lines = fh.read().splitlines()
    names = list(scene.appliances)
    if len(lines) != 1 + len(names) or not lines[0].startswith("appliance,precision,recall,f1,"):
        return [f"report.csv has an unexpected layout: {lines[:1]}, {len(lines)} lines"]
    *_, truth = split_windows(scene, 1)
    problems = []
    for j, (name, line) in enumerate(zip(names, lines[1:])):
        cells = line.split(",")
        if cells[0] != name:
            problems.append(f"report.csv row {j + 1} is {cells[0]!r}, expected {name!r}")
            continue
        f1, floor = float(cells[3]), always_on_f1(truth[:, j])
        if not f1 > floor:
            problems.append(f"{name}: F1 {f1} does not beat always-on F1 {floor:.4f}")
    return problems
