"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed (numpy's PCG64 via
`default_rng`), so the same seed gives byte-identical input files.  Nothing
calls wattsplit: a change to the toolkit's synthesiser or writers cannot
change a workload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

SCENE_PERIOD_S = 10
#: First timestamp of every generated series (April 2011, the REDD era).
T0 = 1_303_132_800
NOISE_STD_W = 5.0
#: Readings that the toolkit forward-fills across; longer gaps read as zero.
GAP_LIMIT_S = 180


# ---------------------------------------------------------------------------
# Appliance signatures
# ---------------------------------------------------------------------------

def _slew(vals: np.ndarray, period_s: float, ramp_s: float) -> np.ndarray:
    """Moving average over about ramp_s, edges padded with the end values."""
    width = int(round(ramp_s / period_s))
    if width < 2:
        return vals
    padded = np.concatenate([np.full(width, vals[0]), vals, np.full(width, vals[-1])])
    return np.convolve(padded, np.full(width, 1.0 / width), mode="same")[width:width + len(vals)]


def _intervals(n: int, period_s: float, starts_s: np.ndarray, ends_s: np.ndarray) -> np.ndarray:
    """0/1 indicator on an n-sample grid of the union of [start, end) intervals."""
    lo = np.clip(np.ceil(starts_s / period_s), 0, n).astype(np.int64)
    hi = np.clip(np.ceil(ends_s / period_s), 0, n).astype(np.int64)
    edges = np.zeros(n + 1)
    np.add.at(edges, lo, 1.0)
    np.add.at(edges, hi, -1.0)
    return (np.cumsum(edges[:n]) > 0).astype(np.float64)


def _renewal(rng, horizon_s: float, mean_on_s: float, mean_off_s: float,
             fixed_on: bool, shape: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """On intervals of an alternating renewal process over [0, horizon_s).

    Durations are gamma distributed with the given means and shape (1 is
    exponential); on durations are exactly mean_on_s when fixed_on.
    """
    count = int(horizon_s / (mean_on_s + mean_off_s) * 2) + 16
    while True:
        on = (np.full(count, mean_on_s) if fixed_on
              else rng.gamma(shape, mean_on_s / shape, count))
        off = rng.gamma(shape, mean_off_s / shape, count)
        ends = np.cumsum(off + on)
        if ends[-1] >= horizon_s:
            break
        count *= 2
    return ends - on, ends


def appliance_powers(rng, n: int, period_s: float) -> dict[str, np.ndarray]:
    """The acceptance-scene make-up: a cyclic fridge, a spiking microwave and
    a plateau heater, with slewed switching edges."""
    t = period_s * np.arange(n)
    horizon = period_s * n
    fridge_period = 3000.0
    phase = rng.uniform(0.0, fridge_period)
    fridge = np.where((t + phase) % fridge_period < 0.5 * fridge_period, 150.0, 0.0)
    starts, ends = _renewal(rng, horizon, 240.0, 2400.0, fixed_on=True)
    microwave = 1200.0 * _intervals(n, period_s, starts, ends)
    # Shape 4 keeps several heater cycles in every day-long stretch, so the
    # held-out fifth of a scene never lacks the appliance.
    starts, ends = _renewal(rng, horizon, 7200.0, 7200.0 * 0.72 / 0.28, fixed_on=False,
                            shape=4.0)
    heater = 1500.0 * _intervals(n, period_s, starts, ends)
    return {
        "fridge": _slew(fridge, period_s, 60.0),
        "microwave": _slew(microwave, period_s, 30.0),
        "heater": _slew(heater, period_s, 120.0),
    }


# ---------------------------------------------------------------------------
# Scene CSV (timestamp,aggregate,<appliance>...)
# ---------------------------------------------------------------------------

@dataclass
class Scene:
    timestamps: np.ndarray        # int64, uniform at SCENE_PERIOD_S
    aggregate: np.ndarray         # watts, appliance sum plus Gaussian noise
    appliances: dict[str, np.ndarray]


def make_scene(seed: int, n: int) -> Scene:
    rng = np.random.default_rng([seed, n])
    apps = appliance_powers(rng, n, SCENE_PERIOD_S)
    aggregate = sum(apps.values()) + rng.normal(0.0, NOISE_STD_W, n)
    stamps = T0 + SCENE_PERIOD_S * np.arange(n, dtype=np.int64)
    return Scene(stamps, _as_written(aggregate), {k: _as_written(v) for k, v in apps.items()})


def _as_written(values: np.ndarray) -> np.ndarray:
    """The values exactly as the 6-decimal scene CSV reads back."""
    return np.array([float(f"{v:.6f}") for v in values.tolist()])


def write_scene(path: str, scene: Scene, with_appliances: bool = True) -> None:
    cols = [scene.aggregate] + (list(scene.appliances.values()) if with_appliances else [])
    names = list(scene.appliances) if with_appliances else []
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["timestamp", "aggregate"] + names) + "\n")
        fmt = ",".join(["{}"] + ["{:.6f}"] * len(cols)) + "\n"
        fh.writelines(fmt.format(*row) for row in zip(scene.timestamps.tolist(),
                                                        *(c.tolist() for c in cols)))


# ---------------------------------------------------------------------------
# REDD-format house directory
# ---------------------------------------------------------------------------

#: (channel id, label); two mains and a label shared by two channels.
HOUSE_CHANNELS = ((1, "mains"), (2, "mains"), (3, "refrigerator"), (4, "lighting"),
                  (5, "microwave"), (6, "lighting"))


@dataclass
class Injected:
    """Faults written into one channel file, by position (seconds after T0)."""

    duplicates: list[int] = field(default_factory=list)   # decoy row written first
    swaps: list[int] = field(default_factory=list)        # rows s and s+1 swapped
    negatives: list[int] = field(default_factory=list)
    long_gaps: list[tuple[int, int]] = field(default_factory=list)   # (last seen, next seen)
    short_gaps: list[tuple[int, int]] = field(default_factory=list)


@dataclass
class House:
    seconds: int
    centiwatts: dict[int, np.ndarray]     # clean 1 Hz readings per channel, in 0.01 W
    decoys: dict[int, dict[int, int]]     # channel -> second -> decoy centiwatts
    negatives: dict[int, dict[int, int]]  # channel -> second -> negative centiwatts
    injected: dict[int, Injected]
    lines: int = 0                        # rows written over all channel files

    def expected_counts(self) -> dict[str, int]:
        """Cleaning counts the toolkit must report for this house."""
        inj = self.injected.values()
        return {
            "negative_clamped": sum(len(i.negatives) for i in inj),
            "duplicate_timestamps": sum(len(i.duplicates) for i in inj),
            "out_of_order": sum(len(i.swaps) for i in inj),
            "gap_zero_filled": sum(b - a - 1 - GAP_LIMIT_S for i in inj for a, b in i.long_gaps),
        }


def _fmt_cw(cw: int) -> str:
    sign = "-" if cw < 0 else ""
    q, r = divmod(abs(cw), 100)
    return f"{sign}{q}.{r:02d}"


def _house_signals(rng, seconds: int) -> dict[int, np.ndarray]:
    apps = appliance_powers(rng, seconds, 1.0)
    lighting = 60.0 * _intervals(seconds, 1.0, *_renewal(rng, seconds, 5400.0, 9000.0, False))
    lamp = 40.0 * _intervals(seconds, 1.0, *_renewal(rng, seconds, 3600.0, 12000.0, False))
    chans = {3: apps["fridge"], 4: lighting, 5: apps["microwave"], 6: lamp}
    base = np.abs(rng.normal(0.0, 2.0, (2, seconds)))
    chans[1] = 35.0 + base[0] + chans[3] + chans[4] + apps["heater"]
    chans[2] = 25.0 + base[1] + chans[5] + chans[6]
    return {cid: np.round(chans[cid] * 100.0).astype(np.int64)
            for cid, _ in HOUSE_CHANNELS}


def make_house(seed: int, seconds: int, per_channel: int = 3) -> House:
    """Clean 1 Hz channels plus faults at seeded, recorded, well-separated positions.

    Each channel gets `per_channel` duplicates, swaps and negatives, one gap
    longer than GAP_LIMIT_S and one shorter.  Every fault sits in its own
    slot, away from the ends, so no two interact and the grid spans the
    whole range.
    """
    rng = np.random.default_rng([seed, seconds, 7])
    centiwatts = _house_signals(rng, seconds)
    kinds = 3 * per_channel + 2
    slot = seconds // (kinds + 2)
    if slot < 2000:
        raise ValueError(f"{seconds} s is too short for {kinds} faults per channel")
    house = House(seconds, centiwatts, {}, {}, {})
    for cid, _ in HOUSE_CHANNELS:
        slots = 1 + rng.permutation(kinds)            # slot 0 and the last stay clean
        where = (slots * slot + rng.integers(200, slot - 1200, kinds)).tolist()
        inj = Injected()
        inj.duplicates = sorted(where[:per_channel])
        inj.swaps = sorted(where[per_channel:2 * per_channel])
        inj.negatives = sorted(where[2 * per_channel:3 * per_channel])
        long_len, short_len = int(rng.integers(200, 900)), int(rng.integers(20, GAP_LIMIT_S))
        inj.long_gaps = [(where[-2], where[-2] + long_len)]
        inj.short_gaps = [(where[-1], where[-1] + short_len)]
        house.injected[cid] = inj
        house.decoys[cid] = {s: int(centiwatts[cid][s]) + int(rng.integers(5000, 90000))
                             for s in inj.duplicates}
        house.negatives[cid] = {s: -int(rng.integers(1, 900)) for s in inj.negatives}
    return house


def write_house(house_dir: str, house: House) -> None:
    os.makedirs(house_dir, exist_ok=True)
    with open(os.path.join(house_dir, "labels.dat"), "w") as fh:
        fh.writelines(f"{cid} {label}\n" for cid, label in HOUSE_CHANNELS)
    house.lines = 0
    for cid, _ in HOUSE_CHANNELS:
        inj = house.injected[cid]
        values = house.centiwatts[cid].copy()
        for s, cw in house.negatives[cid].items():
            values[s] = cw
        keep = np.ones(house.seconds, dtype=bool)
        for a, b in inj.long_gaps + inj.short_gaps:
            keep[a + 1:b] = False
        order = np.arange(house.seconds)
        for s in inj.swaps:
            order[s], order[s + 1] = order[s + 1], order[s]
        order = order[keep[order]]
        text = [f"{T0 + s} {_fmt_cw(v)}\n" for s, v in zip(order.tolist(), values[order].tolist())]
        # Decoys go in front of their true row: keep-last must drop them.
        for s in sorted(inj.duplicates, reverse=True):
            at = int(np.flatnonzero(order == s)[0])
            text.insert(at, f"{T0 + s} {_fmt_cw(house.decoys[cid][s])}\n")
        with open(os.path.join(house_dir, f"channel_{cid}.dat"), "w") as fh:
            fh.writelines(text)
        house.lines += len(text)
