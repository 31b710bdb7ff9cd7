"""The measured process: runs one workload's wattsplit commands in rounds.

Usage: python3 worker.py <plan.json>

run.py writes the plan, starts this process and reads the result file it
leaves.  Everything the toolkit does happens here, from a cold start: the
package import, every command, and the peak resident memory that
`ru_maxrss` reports.  Input generation and output checks stay in run.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

import tracer


def sha256(path: str) -> str | None:
    if not os.path.isfile(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_command(main, command: dict, first_unit: tuple) -> dict:
    """One wattsplit command through its entry point, stdout and stderr captured."""
    module_name, fn_name = first_unit
    first: list[float] = []
    unhook = tracer.on_first_call(sys.modules[f"wattsplit.{module_name}"], fn_name, first)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(command["argv"])
        except Exception:       # a toolkit bug: record it and go on with the round
            traceback.print_exc()
            code = -1
    end = perf_counter()
    unhook()
    return {
        "argv": command["argv"], "code": code, "start": start, "end": end,
        "first_unit": first[0] if first else None,
        "stderr": err.getvalue()[-4000:],
        "digests": {label: sha256(path) for label, path in command["artifacts"]},
    }


def run_rounds(main, plan: dict, rounds: int | None) -> list[dict]:
    """Whole rounds of the plan's commands: `rounds` of them, or as many as
    start within plan["seconds"]."""
    results, done, begin = [], 0, perf_counter()
    first_unit = tuple(plan["first_unit"].split("."))
    while True:
        results += [run_command(main, c, first_unit) for c in plan["commands"]]
        done += 1
        if done == rounds or (rounds is None and perf_counter() - begin >= plan["seconds"]):
            return results


def main(plan_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from wattsplit import cli           # the cold import: numpy and the whole toolkit

    out = {"commands": run_rounds(cli.main, plan, None)}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if plan["trace"]:
        rounds = len(out["commands"]) // len(plan["commands"])
        untraced_wall = sum(r["end"] - r["start"] for r in out["commands"])
        spans = tracer.Tracer()
        spans.install()
        try:
            out["commands"] += run_rounds(spans.wrap(tracer.COMMAND, cli.main), plan, rounds)
        finally:
            spans.remove()
        out["per_layer"] = spans.metrics(untraced_wall)
    with open(plan["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
