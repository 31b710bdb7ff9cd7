"""Command-line surface: synth, prepare, train, eval, disaggregate, gradcheck.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 training
divergence.  Diagnostics go to stderr; results go to files and stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import MISSING, asdict, field, fields, make_dataclass

import numpy as np

from . import __version__, data, gradcheck, metrics
from .checkpoint import checkpoint_load, checkpoint_save
from .errors import (CheckpointError, ConfigError, DivergenceError, DomainError,
                     ParseError, ShapeError, TrainingError)
from .model import ModelConfig, fit, predict_batches


class UsageError(Exception):
    pass


# RunConfig's model fields are ModelConfig's, with its defaults; the appliance
# count has none there and defaults to 1 here (train sets it from the scene).
_MODEL_FIELDS = [(f.name, f.type, field(default=1 if f.default is MISSING else f.default))
                 for f in fields(ModelConfig)]

_PIPELINE_FIELDS = [
    ("data", "str | None", field(default=None)),
    ("redd_dir", "str | None", field(default=None)),
    ("out_dir", "str", field(default="run")),
    ("window_stride", "int", field(default=4)),
    ("split_ratio", "float", field(default=0.8)),
    ("downsample_method", "str", field(default="mean")),
    ("downsample_factor", "int", field(default=10)),
    ("threads", "int", field(default=1)),
]


def _model_config(self) -> ModelConfig:
    return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})


RunConfig = make_dataclass(
    "RunConfig", _MODEL_FIELDS + _PIPELINE_FIELDS,
    namespace={"__doc__": "Fully-resolved run settings: model hyperparameters plus pipeline knobs.",
               "__module__": __name__, "model_config": _model_config})

_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, value, expected: str):
    if expected == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key '{key}' expects an integer, got {value!r}")
        return value
    if expected == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key '{key}' expects a number, got {value!r}")
        return float(value)
    # strings (including optional paths)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"config key '{key}' expects a string, got {value!r}")
    return value


def load_config(path: str | None) -> RunConfig:
    """Load a strict JSON run config; unspecified keys take the defaults."""
    raw = {}
    if path is not None:
        if not os.path.isfile(path):
            raise DomainError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a JSON object")
    kwargs = {}
    for key, value in raw.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key '{key}'")
        expected = _FIELD_TYPES[key]
        if expected in ("int", int):
            kwargs[key] = _coerce(key, value, "int")
        elif expected in ("float", float):
            kwargs[key] = _coerce(key, value, "float")
        else:
            kwargs[key] = _coerce(key, value, "str")
    return RunConfig(**kwargs)


def _apply_overrides(config: RunConfig, args) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    if getattr(args, "out", None) is not None:
        config.out_dir = args.out
    if getattr(args, "threads", None) is not None:
        config.threads = args.threads
    if getattr(args, "threshold", None) is not None:
        config.on_threshold = args.threshold
    if getattr(args, "downsample", None) is not None:
        config.downsample_method = args.downsample
    if getattr(args, "epochs", None) is not None:
        config.epochs = args.epochs
    return config


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: str, config: RunConfig, command: str, inputs: list[str]) -> None:
    manifest = {
        "toolkit_version": __version__,
        "command": command,
        "seed": config.seed,
        "config": asdict(config),
        "inputs": {p: _sha256(p) for p in inputs},
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _require_data(config: RunConfig) -> str:
    if not config.data:
        raise DomainError("no input data path configured (config key 'data')")
    if not os.path.isfile(config.data):
        raise DomainError(f"input data file not found: {config.data}")
    return config.data


# ---------------------------------------------------------------------------
# Scene preparation helpers shared by train/eval
# ---------------------------------------------------------------------------

def _read_scene(config: RunConfig):
    """Read the scene CSV and split it chronologically into train and test slices."""
    path = _require_data(config)
    aggregate, appliances, names = data.read_scene_csv(path)
    if not names:
        raise DomainError(f"scene {path} has no appliance columns")
    train_slice, test_slice = data.split_train_test(len(aggregate), config.split_ratio,
                                                    config.window_len)
    return aggregate, appliances, names, train_slice, test_slice


def _normalize_scene(aggregate, appliances, agg_stats, app_stats):
    """Normalize the aggregate and each appliance series by the given stats."""
    def norm(series, stats):
        return data.TimeSeries(series.timestamps, data.normalize(series.values, stats))

    return norm(aggregate, agg_stats), [norm(a, s) for a, s in zip(appliances, app_stats)]


def _windows(agg, apps, sl: slice, window_len: int, stride: int) -> data.WindowBatch:
    """Windows over one chronological slice of a normalized scene."""
    def part(series):
        return data.TimeSeries(series.timestamps[sl], series.values[sl])

    return data.make_windows(part(agg), [part(a) for a in apps], window_len, stride)


def _stats_payload(names, agg_stats, app_stats) -> dict:
    return {
        "aggregate": {"vmin": agg_stats.vmin, "vmax": agg_stats.vmax},
        "appliances": {name: {"vmin": s.vmin, "vmax": s.vmax}
                       for name, s in zip(names, app_stats)},
        "names": names,
    }


def _load_stats(path: str):
    with open(path) as fh:
        payload = json.load(fh)
    names = payload["names"]
    agg_stats = data.NormStats(**payload["aggregate"])
    app_stats = [data.NormStats(**payload["appliances"][name]) for name in names]
    return names, agg_stats, app_stats


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    if not os.path.isfile(args.spec):
        raise DomainError(f"synth spec not found: {args.spec}")
    with open(args.spec) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"synth spec is not valid JSON: {exc}") from exc
    allowed = {"appliances", "noise_std", "duration_s", "sample_period_s", "seed"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown synth spec key '{sorted(unknown)[0]}'")
    sig_fields = {f.name for f in fields(data.ApplianceSig)}
    sigs = []
    for entry in raw.get("appliances", []):
        bad = set(entry) - sig_fields
        if bad:
            raise ConfigError(f"unknown appliance key '{sorted(bad)[0]}'")
        sigs.append(data.ApplianceSig(**entry))
    spec = data.SynthSpec(appliances=sigs,
                          noise_std=raw.get("noise_std", 0.0),
                          duration_s=raw.get("duration_s", 86400.0),
                          sample_period_s=raw.get("sample_period_s", 10),
                          seed=args.seed if args.seed is not None else raw.get("seed", 0))
    aggregate, appliances, meta = data.synth_generate(spec)
    data.write_scene_csv(args.out, aggregate, appliances, [m.label for m in meta])
    print(f"wrote {len(aggregate)} samples x {len(appliances)} appliances to {args.out}")
    return 0


def cmd_prepare(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    if not config.redd_dir:
        raise DomainError("no REDD house directory configured (config key 'redd_dir')")
    if not os.path.isdir(config.redd_dir):
        raise DomainError(f"REDD house directory not found: {config.redd_dir}")
    os.makedirs(config.out_dir, exist_ok=True)
    stats = data.CleaningStats()
    aggregate, appliances, names = data.load_redd_house(config.redd_dir, stats=stats)
    aggregate = data.downsample(aggregate, config.downsample_factor, config.downsample_method)
    appliances = [data.downsample(a, config.downsample_factor, config.downsample_method)
                  for a in appliances]
    out_path = os.path.join(config.out_dir, "scene.csv")
    data.write_scene_csv(out_path, aggregate, appliances, names)
    _write_json(os.path.join(config.out_dir, "config.json"), asdict(config))
    _write_manifest(config.out_dir, config, "prepare",
                    [os.path.join(config.redd_dir, "labels.dat")])
    print(f"prepared {len(aggregate)} samples, {len(names)} appliances -> {out_path}",
          file=sys.stderr)
    print(f"cleaning: {stats}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    os.makedirs(config.out_dir, exist_ok=True)
    aggregate, appliances, names, train_slice, test_slice = _read_scene(config)
    agg_stats = data.compute_norm_stats(aggregate.values[train_slice])
    app_stats = [data.compute_norm_stats(app.values[train_slice]) for app in appliances]
    config.n_appliances = len(names)
    model_config = config.model_config()

    agg, apps = _normalize_scene(aggregate, appliances, agg_stats, app_stats)
    train_batch = _windows(agg, apps, train_slice, config.window_len, config.window_stride)
    val_batch = _windows(agg, apps, test_slice, config.window_len, config.window_stride)

    params, report = fit(train_batch, val_batch, model_config)

    ckpt_path = os.path.join(config.out_dir, "checkpoint.bin")
    checkpoint_save(params, model_config, ckpt_path)
    _write_json(os.path.join(config.out_dir, "norm_stats.json"),
                _stats_payload(names, agg_stats, app_stats))
    with open(os.path.join(config.out_dir, "loss.csv"), "w", newline="") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, (tl, vl) in enumerate(zip(report.train_loss, report.val_loss), start=1):
            fh.write(f"{epoch},{tl:.17g},{vl:.17g}\n")
    _write_json(os.path.join(config.out_dir, "config.json"), asdict(config))
    _write_manifest(config.out_dir, config, "train", [config.data])
    print(f"trained {model_config.epochs} epochs "
          f"({report.train_ms_per_step:.1f} ms/step, "
          f"inference {report.infer_ms_per_window:.3f} ms/window); "
          f"final val loss {report.val_loss[-1]:.6g}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    ckpt_path = os.path.join(config.out_dir, "checkpoint.bin")
    stats_path = os.path.join(config.out_dir, "norm_stats.json")
    for path in (ckpt_path, stats_path):
        if not os.path.isfile(path):
            raise DomainError(f"missing training artifact: {path}")
    params, model_config = checkpoint_load(ckpt_path)
    names, agg_stats, app_stats = _load_stats(stats_path)

    aggregate, appliances, scene_names, _, test_slice = _read_scene(config)
    if scene_names != names:
        raise DomainError(
            f"scene appliances {scene_names} do not match trained appliances {names}")

    agg, apps = _normalize_scene(aggregate, appliances, agg_stats, app_stats)
    test_batch = _windows(agg, apps, test_slice, model_config.window_len, stride=1)
    predictions = predict_batches(test_batch.inputs, params, model_config,
                                  chunk=model_config.batch_size)
    predictions = np.clip(predictions, 0.0, 1.0)

    reports = []
    for j, name in enumerate(names):
        est = predictions[:, j]
        truth = test_batch.targets[:, j]
        reports.append(metrics.evaluate_appliance(name, est, truth, app_stats[j],
                                                  config.on_threshold))
        metrics.write_plot_csv(
            os.path.join(config.out_dir, f"plot_{_safe_name(name)}.csv"),
            test_batch.midpoints,
            data.denormalize(truth, app_stats[j]),
            data.denormalize(est, app_stats[j]))

    report_csv = metrics.render_report(reports, "csv")
    with open(os.path.join(config.out_dir, "report.csv"), "w", newline="") as fh:
        fh.write(report_csv)
    print(metrics.render_report(reports, "table"), end="")
    _write_manifest(config.out_dir, config, "eval", [config.data, ckpt_path])
    return 0


def _safe_name(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_" else "_" for ch in name)


def cmd_disaggregate(args) -> int:
    config = _apply_overrides(load_config(args.config), args)
    ckpt_path = args.checkpoint or os.path.join(config.out_dir, "checkpoint.bin")
    stats_path = args.stats or os.path.join(config.out_dir, "norm_stats.json")
    for path in (ckpt_path, stats_path):
        if not os.path.isfile(path):
            raise DomainError(f"missing training artifact: {path}")
    if not os.path.isfile(args.input):
        raise DomainError(f"aggregate input not found: {args.input}")
    params, model_config = checkpoint_load(ckpt_path)
    names, agg_stats, app_stats = _load_stats(stats_path)

    if args.input.endswith(".csv"):
        aggregate, _, _ = data.read_scene_csv(args.input)
    else:
        with open(args.input) as fh:
            aggregate = data.parse_channel(fh)
    if len(aggregate) < model_config.window_len:
        raise DomainError(
            f"aggregate has {len(aggregate)} samples; need >= {model_config.window_len}")
    agg_norm = data.TimeSeries(aggregate.timestamps,
                               data.normalize(aggregate.values, agg_stats))
    batch = data.make_windows(agg_norm, [], model_config.window_len, stride=1)
    predictions = np.clip(predict_batches(batch.inputs, params, model_config,
                                          chunk=model_config.batch_size), 0.0, 1.0)
    out_dir = config.out_dir
    os.makedirs(out_dir, exist_ok=True)
    for j, name in enumerate(names):
        watts = data.denormalize(predictions[:, j], app_stats[j])
        out_path = os.path.join(out_dir, f"estimate_{_safe_name(name)}.csv")
        with open(out_path, "w", newline="") as fh:
            fh.write("timestamp,estimate_watts\n")
            for t, w in zip(batch.midpoints, watts):
                fh.write(f"{int(t)},{w:.6f}\n")
    print(f"wrote {len(names)} estimate files to {out_dir}", file=sys.stderr)
    return 0


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_battery(range(args.seeds))
    ok = True
    for name, err in results.items():
        status = "PASS" if err <= gradcheck.TOLERANCE else "FAIL"
        ok &= err <= gradcheck.TOLERANCE
        print(f"{name:<10} max_rel_err={err:.3e}  {status}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wattsplit",
                     description="Low-frequency NILM toolkit (CNN-BiLSTM-attention)")
    sub = parser.add_subparsers(dest="command")

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="JSON run config path")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--threads", type=int,
                       help="worker hint; numerical results are independent of this value")
        p.add_argument("--threshold", type=float, help="on/off threshold (normalized)")
        p.add_argument("--downsample", choices=["mean", "decimate"],
                       help="downsampling method")

    p_synth = sub.add_parser("synth", help="generate a synthetic household scene")
    p_synth.add_argument("--spec", required=True, help="JSON scene spec")
    p_synth.add_argument("--out", required=True, help="output scene CSV")
    p_synth.add_argument("--seed", type=int, help="override the scene seed")

    for name, want_epochs in (("prepare", False), ("train", True), ("eval", False)):
        p = sub.add_parser(name)
        common(p)
        if want_epochs:
            p.add_argument("--epochs", type=int, help="override the epoch count")

    p_dis = sub.add_parser("disaggregate", help="estimate appliances for an aggregate file")
    common(p_dis)
    p_dis.add_argument("--input", required=True, help="aggregate CSV or channel .dat file")
    p_dis.add_argument("--checkpoint", help="checkpoint path (default: <out>/checkpoint.bin)")
    p_dis.add_argument("--stats", help="norm stats path (default: <out>/norm_stats.json)")

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_gc.add_argument("--seeds", type=int, default=10, help="number of seeds per op")
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "prepare": cmd_prepare,
    "train": cmd_train,
    "eval": cmd_eval,
    "disaggregate": cmd_disaggregate,
    "gradcheck": cmd_gradcheck,
}


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 3
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ParseError, ShapeError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
