"""Benchmark for wattsplit: one workload, one seed, one measured process.

    python3 perfbench/run.py --workload train|disaggregate|ingest \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; numpy is the only requirement and
the package need not be installed.  The script generates the workload's
inputs from the seed and starts worker.py, which imports wattsplit cold and
drives its entry point `cli.main` in whole rounds of commands until S
seconds have passed.  It then checks every output and prints the artifact
digests, the command counts and, as its last line, one JSON object.  With
--trace 0 that object holds the workload's end-to-end metrics.  With
--trace 1 the worker repeats the same rounds with tracer.py's spans
installed, and the object holds every per-layer metric.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

import checks
import gen
import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
#: A run must end within 180 s; the worker is stopped before that.
RUN_LIMIT_S = 170

TRAIN_SAMPLES = 52_000          # the acceptance scene: six days at 10 s
TRAIN_STRIDE = 3
TRAIN_EPOCHS = 2
DISAGGREGATE_SAMPLES = 8_000    # 22 hours at 10 s, every window inferred
REFERENCE_SAMPLE = 48           # disaggregate windows checked against reference.py
INGEST_SECONDS = 3 * 86_400     # three days of 1 Hz readings per channel


def rate(work: float, runs: list[dict], since: str) -> float:
    """Median work per second over the runs of one command, each timed from
    `since` ("start", or "first_unit" to leave out its set-up) to its end.

    A median, not total work over total time: the first run in a fresh
    process was up to 28% slower than the later ones, and a median keeps
    that and any burst of load on a shared host out of the figure.
    """
    return statistics.median(work / (r["end"] - r[since]) for r in runs)


class Workload:
    """Inputs, commands, checks and throughput of one workload."""

    #: the wattsplit function whose first call ends a command's set-up
    first_unit = "model.model_forward_batch"

    def __init__(self, seed: int, work: str, threads: int):
        self.seed, self.work, self.threads = seed, work, threads
        self.notes: list[str] = []      # lines that the checks print

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def write_json(self, name: str, obj) -> None:
        with open(self.path(name), "w") as fh:
            json.dump(obj, fh)

    def command(self, *argv, artifacts=()) -> dict:
        return {"argv": list(argv) + ["--threads", str(self.threads)],
                "artifacts": [(os.path.basename(p), p) for p in artifacts]}

    def check_run(self, result: dict) -> list[str]:
        """Checks on one command run's own output streams."""
        return []


class Train(Workload):
    def prepare(self) -> list[dict]:
        self.scene = gen.make_scene(self.seed, TRAIN_SAMPLES)
        gen.write_scene(self.path("scene.csv"), self.scene)
        self.write_json("run.json", {"data": "scene.csv", "out_dir": "run",
                                     "window_stride": TRAIN_STRIDE, "epochs": TRAIN_EPOCHS})
        cut = int(checks.SPLIT * TRAIN_SAMPLES)
        self.train_windows = (cut - checks.WINDOW) // TRAIN_STRIDE + 1
        return [self.command("train", "--config", "run.json",
                             artifacts=["run/checkpoint.bin", "run/loss.csv"]),
                self.command("eval", "--config", "run.json", artifacts=["run/report.csv"])]

    def check_files(self, index: int) -> list[str]:
        if index == 0:
            problems, ratio = checks.check_train(self.path("run"), self.scene, TRAIN_STRIDE,
                                                 TRAIN_EPOCHS)
            self.notes.append(f"quality: final val loss = {ratio:.4f} x the mean-predictor MSE")
            return problems
        return checks.check_eval(self.path("run"), self.scene)

    def throughput(self, runs: list[dict]) -> float:
        """Training windows x epochs per second of `train`, its set-up left out."""
        trains = [r for r in runs if r["argv"][0] == "train"]
        return rate(self.train_windows * TRAIN_EPOCHS, trains, "first_unit")


class Disaggregate(Workload):
    def prepare(self) -> list[dict]:
        from wattsplit.checkpoint import checkpoint_save
        from wattsplit.model import ModelConfig, params_from_dict

        self.scene = gen.make_scene(self.seed, DISAGGREGATE_SAMPLES)
        gen.write_scene(self.path("aggregate.csv"), self.scene, with_appliances=False)
        # norm_stats.json as training writes it: min-max per channel.
        self.stats = {
            "aggregate": {"vmin": float(self.scene.aggregate.min()),
                          "vmax": float(self.scene.aggregate.max())},
            "appliances": {k: {"vmin": float(v.min()), "vmax": float(v.max())}
                           for k, v in self.scene.appliances.items()},
            "names": list(self.scene.appliances),
        }
        os.makedirs(self.path("model"))
        self.write_json("model/norm_stats.json", self.stats)
        self.params = reference.random_params(self.seed, reference.param_shapes())
        checkpoint_save(params_from_dict(self.params),
                        ModelConfig(n_appliances=len(self.stats["names"])),
                        self.path("model", "checkpoint.bin"))
        self.write_json("dis.json", {"out_dir": "estimates"})
        self.windows = DISAGGREGATE_SAMPLES - checks.WINDOW + 1
        rng = np.random.default_rng([self.seed, 3])
        self.sample = np.sort(rng.choice(self.windows, REFERENCE_SAMPLE, replace=False))
        estimates = [f"estimates/estimate_{name}.csv" for name in self.stats["names"]]
        return [self.command("disaggregate", "--config", "dis.json", "--input", "aggregate.csv",
                             "--checkpoint", "model/checkpoint.bin",
                             "--stats", "model/norm_stats.json", artifacts=estimates)]

    def check_files(self, index: int) -> list[str]:
        return checks.check_disaggregate(self.path("estimates"), self.scene, self.stats,
                                         self.params, self.sample)

    def throughput(self, runs: list[dict]) -> float:
        """Windows inferred per second of `disaggregate`, its set-up left out."""
        return rate(self.windows, runs, "first_unit")


class Ingest(Workload):
    first_unit = "data.parse_channel"

    def prepare(self) -> list[dict]:
        self.house = gen.make_house(self.seed, INGEST_SECONDS)
        gen.write_house(self.path("house"), self.house)
        self.expected = checks.expected_house_scene(self.house)
        self.write_json("prep.json", {"redd_dir": "house", "out_dir": "prepared"})
        return [self.command("prepare", "--config", "prep.json",
                             artifacts=["prepared/scene.csv"])]

    def check_run(self, result: dict) -> list[str]:
        return checks.check_cleaning(result["stderr"], self.house)

    def check_files(self, index: int) -> list[str]:
        return checks.check_ingest(self.path("prepared", "scene.csv"), self.expected)

    def throughput(self, runs: list[dict]) -> float:
        """Raw 1 Hz readings (lines of all channel files) per second of `prepare`."""
        return rate(self.house.lines, runs, "start")


WORKLOADS = {"train": Train, "disaggregate": Disaggregate, "ingest": Ingest}


def judge(workload: Workload, runs: list[dict], per_round: int) -> list[list[str]]:
    """Problems of every command run.

    The files on disk are the last round's, so they are checked once; an
    earlier run of the same command passes only if its artifacts are
    byte-identical to the last round's.
    """
    last = runs[-per_round:]
    file_problems = [workload.check_files(i) if r["code"] == 0 else []
                     for i, r in enumerate(last)]
    problems = []
    for k, r in enumerate(runs):
        i = k % per_round
        mine = [] if r["code"] == 0 else [f"exit code {r['code']}: {r['stderr'][-600:]}"]
        if r["digests"] != last[i]["digests"]:
            mine.append(f"artifacts differ from the last round's: {r['digests']}")
        problems.append(mine + workload.check_run(r) + file_problems[i])
    return problems


def blas_threads():
    """The thread count of the OpenBLAS that numpy loaded, or "unknown"."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return "unknown"


def environment(threads: int) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"env: python {sys.version.split()[0]}, numpy {np.__version__}, "
            f"blas {blas.get('name')} {blas.get('version')}, blas_threads {blas_threads()}, "
            f"nproc {os.cpu_count()}, cores_in_use {threads}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begin = perf_counter()
    if not os.path.isfile(os.path.join(SRC, "wattsplit", "cli.py")):
        print(f"error: no wattsplit source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import wattsplit.cli  # noqa: F401  (writes the bytecode before the worker's cold import)

    threads = len(os.sched_getaffinity(0))
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        workload = WORKLOADS[args.workload](args.seed, work, threads)
        commands = workload.prepare()
        plan = {"src": SRC, "commands": commands, "first_unit": workload.first_unit,
                "seconds": args.seconds, "trace": args.trace,
                "result": os.path.join(work, "result.json")}
        with open(os.path.join(work, "plan.json"), "w") as fh:
            json.dump(plan, fh)
        spawned = perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "plan.json"],
                       cwd=work, check=True,
                       timeout=max(1.0, RUN_LIMIT_S - (perf_counter() - begin)))
        with open(plan["result"]) as fh:
            result = json.load(fh)
        runs = result["commands"]
        problems = judge(workload, runs, len(commands))
        failed = sum(1 for p in problems if p)

        print(environment(threads))
        for line in workload.notes:
            print(line)
        for r in runs[-len(commands):]:
            for label, digest in r["digests"].items():
                print(f"sha256 {label} {digest}")
        for r, found in zip(runs, problems):
            for line in found:
                print(f"FAILED {r['argv'][0]}: {line}")
        print("wall_s: " + " ".join(f"{r['argv'][0]}={r['end'] - r['start']:.3f}" for r in runs))
        print(f"commands: attempted={len(runs)} failed={failed} "
              f"rounds={len(runs) // len(commands)}")
        if args.trace:
            metrics = result["per_layer"]
        else:
            for r in runs:     # a command that failed early has no first unit
                r["first_unit"] = r["first_unit"] or r["start"]
            metrics = {
                "setup_s": (runs[0]["first_unit"] - spawned, "s"),
                "throughput_per_s": (workload.throughput(runs), "1/s"),
                "round_s": (statistics.median(
                    sum(r["end"] - r["start"] for r in runs[k:k + len(commands)])
                    for k in range(0, len(runs), len(commands))), "s"),
                "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            }
        print(json.dumps({
            "correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
