"""Low-frequency power data pipeline: channel parsing, uniform resampling,
downsampling to 0.1 Hz, min-max normalization, chronological splitting,
window extraction, and synthetic household generation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParseError, ShapeError
from .rng import SeededRng

#: Gaps longer than this (seconds) are filled with zeros during resampling;
#: the channel is presumed off or unmetered.
GAP_LIMIT_S = 180


@dataclass
class TimeSeries:
    """Timestamped power readings (watts) for one channel."""

    timestamps: np.ndarray  # int64 unix seconds, strictly increasing
    values: np.ndarray      # float64 watts

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.timestamps.shape != self.values.shape or self.timestamps.ndim != 1:
            raise ShapeError(
                f"timestamps {self.timestamps.shape} and values {self.values.shape} must be "
                f"equal-length 1-D")
        if len(self.timestamps) > 1 and not np.all(np.diff(self.timestamps) > 0):
            raise DomainError("timestamps must be strictly increasing")

    def __len__(self):
        return len(self.timestamps)


@dataclass
class ChannelMeta:
    channel_id: int
    label: str


@dataclass
class CleaningStats:
    """Counts of repairs applied while ingesting raw channel data."""

    negative_clamped: int = 0
    duplicate_timestamps: int = 0
    out_of_order: int = 0
    gap_zero_filled: int = 0


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_channel(stream, stats: CleaningStats | None = None) -> TimeSeries:
    """Parse "<unix_seconds> <watts>" lines into a cleaned TimeSeries.

    Duplicate timestamps collapse to the last value, negative readings clamp
    to zero, and out-of-order rows are sorted; each repair is counted in
    `stats` when given.
    """
    if stats is None:
        stats = CleaningStats()
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = stream
    ts_list: list[int] = []
    val_list: list[float] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n").rstrip("\r")
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            raise ParseError(f"expected '<unix_seconds> <watts>', got {line!r}", line=lineno)
        try:
            t = int(parts[0])
            v = float(parts[1])
        except ValueError:
            raise ParseError(f"expected '<unix_seconds> <watts>', got {line!r}", line=lineno) from None
        if not np.isfinite(v):
            raise ParseError(f"non-finite value {parts[1]!r}", line=lineno)
        ts_list.append(t)
        val_list.append(v)

    if not ts_list:
        return TimeSeries(np.empty(0, dtype=np.int64), np.empty(0))

    ts = np.asarray(ts_list, dtype=np.int64)
    vals = np.asarray(val_list, dtype=np.float64)
    if np.any(np.diff(ts) < 0):
        stats.out_of_order += int(np.sum(np.diff(ts) < 0))
        order = np.argsort(ts, kind="stable")
        ts, vals = ts[order], vals[order]
    # Collapse duplicate timestamps to the last occurrence.
    if len(ts) > 1:
        keep = np.append(np.diff(ts) > 0, True)
        stats.duplicate_timestamps += int(np.sum(~keep))
        ts, vals = ts[keep], vals[keep]
    neg = vals < 0
    stats.negative_clamped += int(np.sum(neg))
    vals[neg] = 0.0
    return TimeSeries(ts, vals)


def read_labels(stream) -> list[ChannelMeta]:
    """Parse a labels file: "<channel_id> <label>" per line; ids must be unique."""
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = stream
    metas = []
    seen = set()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(" ", 1)
        if len(parts) != 2 or not parts[0].isdigit():
            raise ParseError(f"expected '<channel_id> <label>', got {line!r}", line=lineno)
        cid = int(parts[0])
        if cid in seen:
            raise ParseError(f"duplicate channel id {cid}", line=lineno)
        seen.add(cid)
        metas.append(ChannelMeta(cid, parts[1].strip()))
    return metas


# ---------------------------------------------------------------------------
# Resampling and downsampling
# ---------------------------------------------------------------------------

def resample_uniform(ts: TimeSeries, period_s: int, start: int | None = None,
                     count: int | None = None, stats: CleaningStats | None = None) -> TimeSeries:
    """Forward-fill onto a uniform grid starting at `start` (default: first sample).

    Grid points more than GAP_LIMIT_S after the last observation (or before
    the first) are filled with zero and counted.
    """
    if len(ts) == 0:
        raise DomainError("cannot resample an empty series")
    if period_s <= 0:
        raise DomainError(f"period must be positive, got {period_s}")
    if start is None:
        start = int(ts.timestamps[0])
    if count is None:
        count = int((ts.timestamps[-1] - start) // period_s) + 1
        if count < 1:
            count = 1
    grid = start + period_s * np.arange(count, dtype=np.int64)
    idx = np.searchsorted(ts.timestamps, grid, side="right") - 1
    have = idx >= 0
    vals = np.zeros(count)
    vals[have] = ts.values[idx[have]]
    stale = np.zeros(count, dtype=bool)
    stale[have] = (grid[have] - ts.timestamps[idx[have]]) > GAP_LIMIT_S
    stale |= ~have
    vals[stale] = 0.0
    if stats is not None:
        stats.gap_zero_filled += int(np.sum(stale))
    return TimeSeries(grid, vals)


def downsample(ts: TimeSeries, factor: int, method: str = "mean") -> TimeSeries:
    """Reduce non-overlapping blocks of `factor` samples; remainder dropped.

    "mean" averages each block (preserves the energy of short spikes);
    "decimate" keeps the first sample of each block.  Output timestamps are
    the block starts.
    """
    if factor <= 0:
        raise DomainError(f"downsample factor must be positive, got {factor}")
    if method not in ("mean", "decimate"):
        raise DomainError(f"unknown downsample method {method!r}")
    n_out = len(ts) // factor
    if n_out == 0:
        raise DomainError(f"series of length {len(ts)} is shorter than factor {factor}")
    stamps = ts.timestamps[:n_out * factor:factor]
    if method == "mean":
        vals = ts.values[:n_out * factor].reshape(n_out, factor).mean(axis=1)
    else:
        vals = ts.values[:n_out * factor:factor].copy()
    return TimeSeries(stamps, vals)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

@dataclass
class NormStats:
    """Per-channel min-max statistics, computed on the training range only."""

    vmin: float
    vmax: float

    def __post_init__(self):
        if self.vmax < self.vmin:
            raise DomainError(f"max {self.vmax} < min {self.vmin}")


def compute_norm_stats(values: np.ndarray) -> NormStats:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise DomainError("cannot compute statistics of an empty array")
    return NormStats(float(values.min()), float(values.max()))


def normalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    """Map to [0, 1]; degenerate range gives all zeros; out-of-range clipped."""
    values = np.asarray(values, dtype=np.float64)
    span = stats.vmax - stats.vmin
    if span == 0.0:
        return np.zeros_like(values)
    return np.clip((values - stats.vmin) / span, 0.0, 1.0)


def denormalize(values: np.ndarray, stats: NormStats) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return stats.vmin + values * (stats.vmax - stats.vmin)


# ---------------------------------------------------------------------------
# Splitting and windowing
# ---------------------------------------------------------------------------

def split_train_test(n: int, ratio: float, window_len: int) -> tuple[slice, slice]:
    """Single chronological cut; both sides must fit at least one window."""
    if not 0.0 < ratio < 1.0:
        raise DomainError(f"split ratio must be in (0, 1), got {ratio}")
    cut = int(np.floor(ratio * n))
    if cut < window_len or n - cut < window_len:
        raise DomainError(
            f"cannot split {n} samples at ratio {ratio}: each side needs >= {window_len} samples")
    return slice(0, cut), slice(cut, n)


@dataclass
class WindowBatch:
    """Normalized aggregate windows with per-appliance midpoint targets."""

    inputs: np.ndarray      # (B, W, 1) in [0, 1]
    targets: np.ndarray     # (B, N) in [0, 1]
    midpoints: np.ndarray   # (B,) int64 timestamps

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        self.midpoints = np.asarray(self.midpoints, dtype=np.int64)
        if self.inputs.ndim != 3 or self.inputs.shape[2] != 1:
            raise ShapeError(f"inputs must be (batch, window, 1), got {self.inputs.shape}")
        if self.targets.shape[0] != self.inputs.shape[0] or self.midpoints.shape[0] != self.inputs.shape[0]:
            raise ShapeError("inputs, targets and midpoints must agree on batch size")


def make_windows(aggregate: TimeSeries, appliances: list[TimeSeries],
                 window_len: int, stride: int = 1) -> WindowBatch:
    """Slide a window over normalized, aligned series.

    Window k covers samples [k*stride, k*stride + window_len); its target is
    each appliance's value at the midpoint offset window_len // 2.
    """
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride}")
    n = len(aggregate)
    if n < window_len:
        raise DomainError(f"series of length {n} is shorter than window {window_len}")
    for app in appliances:
        if len(app) != n:
            raise ShapeError(f"appliance series length {len(app)} != aggregate length {n}")
    count = (n - window_len) // stride + 1
    starts = stride * np.arange(count)
    offsets = np.arange(window_len)
    inputs = aggregate.values[starts[:, None] + offsets][:, :, None]
    mid = starts + window_len // 2
    targets = np.stack([app.values[mid] for app in appliances], axis=1) \
        if appliances else np.zeros((count, 0))
    return WindowBatch(inputs, targets, aggregate.timestamps[mid])


# ---------------------------------------------------------------------------
# Synthetic households
# ---------------------------------------------------------------------------

@dataclass
class ApplianceSig:
    """One synthetic appliance signature.

    kind "cyclic": square wave (period_s, duty); "spike": Poisson-arrival
    rectangular pulses (mean gap rate_s, pulse length duration_s);
    "plateau": alternating on/off blocks with exponential lengths
    (mean on duration_s, duty fixing the mean off length).

    ramp_s > 0 slews switching edges over roughly that many seconds (moving
    average), modelling motors and heating elements that do not jump
    instantaneously; 0 keeps ideal square edges.
    """

    name: str
    kind: str
    amplitude: float
    period_s: float = 600.0
    duty: float = 0.5
    duration_s: float = 60.0
    rate_s: float = 1800.0
    ramp_s: float = 0.0

    def __post_init__(self):
        if self.kind not in ("cyclic", "spike", "plateau"):
            raise DomainError(f"unknown signature kind {self.kind!r}")
        if self.amplitude <= 0:
            raise DomainError(f"amplitude must be positive, got {self.amplitude}")
        if not 0.0 < self.duty < 1.0:
            raise DomainError(f"duty must be in (0, 1), got {self.duty}")
        if self.period_s <= 0 or self.duration_s <= 0 or self.rate_s <= 0:
            raise DomainError("period_s, duration_s and rate_s must be positive")
        if self.ramp_s < 0:
            raise DomainError(f"ramp_s must be >= 0, got {self.ramp_s}")


@dataclass
class SynthSpec:
    """A full synthetic household scene."""

    appliances: list[ApplianceSig]
    noise_std: float = 0.0
    duration_s: float = 86400.0
    sample_period_s: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise DomainError(f"duration must be positive, got {self.duration_s}")
        if self.noise_std < 0:
            raise DomainError(f"noise std must be >= 0, got {self.noise_std}")
        if self.sample_period_s <= 0:
            raise DomainError(f"sample period must be positive, got {self.sample_period_s}")
        if not self.appliances:
            raise DomainError("scene needs at least one appliance")


def _exponential(rng: SeededRng, mean: float) -> float:
    u = float(rng.uniform(1)[0])
    return -mean * np.log1p(-u)


def _slew_edges(vals: np.ndarray, t: np.ndarray, ramp_s: float) -> np.ndarray:
    """Soften switching edges with a moving average spanning about ramp_s.

    Plateau levels away from edges are preserved exactly; each step edge
    becomes a linear ramp.  A no-op for ramp_s == 0 or sub-sample ramps.
    """
    if ramp_s <= 0.0 or len(t) < 2:
        return vals
    dt = float(t[1] - t[0])
    width = int(round(ramp_s / dt))
    if width < 2:
        return vals
    kernel = np.full(width, 1.0 / width)
    padded = np.concatenate([np.full(width, vals[0]), vals, np.full(width, vals[-1])])
    return np.convolve(padded, kernel, mode="same")[width:width + len(vals)]


def _signature_values(sig: ApplianceSig, t: np.ndarray, rng: SeededRng) -> np.ndarray:
    return _slew_edges(_ideal_signature(sig, t, rng), t, sig.ramp_s)


def _ideal_signature(sig: ApplianceSig, t: np.ndarray, rng: SeededRng) -> np.ndarray:
    horizon = float(t[-1]) + 1.0
    if sig.kind == "cyclic":
        on = (t % sig.period_s) < sig.duty * sig.period_s
        return np.where(on, sig.amplitude, 0.0)
    if sig.kind == "spike":
        vals = np.zeros(len(t))
        clock = _exponential(rng, sig.rate_s)
        while clock < horizon:
            on = (t >= clock) & (t < clock + sig.duration_s)
            vals[on] = sig.amplitude
            clock += sig.duration_s + _exponential(rng, sig.rate_s)
        return vals
    # plateau: semi-Markov on/off blocks
    mean_on = sig.duration_s
    mean_off = sig.duration_s * (1.0 - sig.duty) / sig.duty
    vals = np.zeros(len(t))
    clock = 0.0
    on = False
    while clock < horizon:
        length = _exponential(rng, mean_on if on else mean_off)
        if on:
            sel = (t >= clock) & (t < clock + length)
            vals[sel] = sig.amplitude
        clock += length
        on = not on
    return vals


def synth_generate(spec: SynthSpec):
    """Generate (aggregate, appliance series, metadata) for a synthetic scene.

    The aggregate is exactly the elementwise appliance sum plus Gaussian
    noise; with noise_std == 0 the reconstruction identity holds bitwise.
    Same seed, same scene.
    """
    rng = SeededRng(spec.seed)
    n = int(spec.duration_s // spec.sample_period_s)
    if n < 1:
        raise DomainError("duration shorter than one sample period")
    stamps = spec.sample_period_s * np.arange(n, dtype=np.int64)
    t = stamps.astype(np.float64)
    appliances = []
    meta = []
    total = np.zeros(n)
    for i, sig in enumerate(spec.appliances):
        vals = _signature_values(sig, t, rng)
        appliances.append(TimeSeries(stamps, vals))
        meta.append(ChannelMeta(i + 1, sig.name))
        total = total + vals
    if spec.noise_std > 0:
        total = total + rng.normal(n, 0.0, spec.noise_std)
    aggregate = TimeSeries(stamps, total)
    return aggregate, appliances, meta


# ---------------------------------------------------------------------------
# Scene CSV interchange
# ---------------------------------------------------------------------------

def write_scene_csv(path, aggregate: TimeSeries, appliances: list[TimeSeries],
                    names: list[str]) -> None:
    """One CSV per scene: timestamp, aggregate, then per-appliance watts."""
    if len(appliances) != len(names):
        raise ShapeError(f"{len(appliances)} appliance series but {len(names)} names")
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,aggregate," + ",".join(names) + "\n")
        cols = [aggregate.values] + [a.values for a in appliances]
        for k in range(len(aggregate)):
            row = ",".join(f"{col[k]:.6f}" for col in cols)
            fh.write(f"{aggregate.timestamps[k]},{row}\n")


def read_scene_csv(path):
    """Inverse of write_scene_csv: returns (aggregate, appliances, names).

    Rejects `nan` and `inf` in any column, as parse_channel does.
    """
    with open(path, "r") as fh:
        header = fh.readline().rstrip("\n")
        fields = header.split(",")
        if len(fields) < 2 or fields[0] != "timestamp" or fields[1] != "aggregate":
            raise ParseError(f"bad scene header {header!r}", line=1)
        names = fields[2:]
        stamps, cols, linenos = [], [[] for _ in fields[1:]], []
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(fields):
                raise ParseError(f"expected {len(fields)} columns, got {len(parts)}", line=lineno)
            try:
                stamps.append(int(parts[0]))
                for j, cell in enumerate(parts[1:]):
                    cols[j].append(float(cell))
            except ValueError:
                raise ParseError(f"malformed row {line!r}", line=lineno) from None
            linenos.append(lineno)
    # One vectorized check after the loop keeps the per-cell parse cost unchanged.
    values = np.asarray(cols)  # (columns, rows)
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=0))[0])
        col = int(np.flatnonzero(~finite[:, row])[0])
        raise ParseError(f"non-finite value in column '{fields[col + 1]}'", line=linenos[row])
    stamps = np.asarray(stamps, dtype=np.int64)
    aggregate = TimeSeries(stamps, values[0])
    appliances = [TimeSeries(stamps, v) for v in values[1:]]
    return aggregate, appliances, names


# ---------------------------------------------------------------------------
# REDD-format house ingestion
# ---------------------------------------------------------------------------

def load_redd_house(house_dir, period_s: int = 1, stats: CleaningStats | None = None):
    """Load a REDD-style low-frequency house directory.

    Expects `labels.dat` plus `channel_<id>.dat` files.  All channels are
    resampled onto the common overlapping 1 Hz grid; the aggregate is the sum
    of the "mains" channels and same-label appliance channels are summed.
    Returns (aggregate, appliances, names).
    """
    labels_path = os.path.join(house_dir, "labels.dat")
    if not os.path.isfile(labels_path):
        raise ParseError(f"no labels.dat in {house_dir}")
    with open(labels_path) as fh:
        metas = read_labels(fh)
    raw = {}
    for meta in metas:
        chan_path = os.path.join(house_dir, f"channel_{meta.channel_id}.dat")
        if not os.path.isfile(chan_path):
            raise ParseError(f"missing {chan_path}")
        with open(chan_path) as fh:
            series = parse_channel(fh, stats)
        if len(series) == 0:
            raise DomainError(f"channel {meta.channel_id} in {house_dir} is empty")
        raw[meta.channel_id] = series

    start = max(int(s.timestamps[0]) for s in raw.values())
    end = min(int(s.timestamps[-1]) for s in raw.values())
    if end < start:
        raise DomainError(f"channels of {house_dir} have no overlapping time range")
    count = (end - start) // period_s + 1
    uniform = {cid: resample_uniform(s, period_s, start=start, count=count, stats=stats)
               for cid, s in raw.items()}

    mains = [m for m in metas if m.label == "mains"]
    if not mains:
        raise DomainError(f"{house_dir} has no mains channels")
    agg_vals = np.zeros(count)
    for m in mains:
        agg_vals += uniform[m.channel_id].values
    stamps = uniform[mains[0].channel_id].timestamps
    aggregate = TimeSeries(stamps, agg_vals)

    by_label: dict[str, np.ndarray] = {}
    names: list[str] = []
    for meta in sorted((m for m in metas if m.label != "mains"), key=lambda m: m.channel_id):
        if meta.label in by_label:
            by_label[meta.label] = by_label[meta.label] + uniform[meta.channel_id].values
        else:
            by_label[meta.label] = uniform[meta.channel_id].values.copy()
            names.append(meta.label)
    appliances = [TimeSeries(stamps, by_label[name]) for name in names]
    return aggregate, appliances, names
