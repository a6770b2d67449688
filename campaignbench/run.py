"""Campaign benchmark: fixed verification campaigns, end to end and per layer.

    python3 campaignbench/run.py --workload prove-x4 --seed 1 --seconds 20 --trace 0

Runs campaigns of one workload (see README.md), each in a fresh process,
for about ``--seconds`` seconds, and checks every campaign's verdicts,
canonical uPATH sets and SynthLC labels against ``reference/``.

* ``--trace 0`` reports the end-to-end metrics, each the median over the
  run's campaigns: ``setup_s``, ``wall_s``, ``cpu_s``, ``peak_rss_mb``
  and ``determined_frac``.  The three times are scaled to the reference
  machine speed of ``speed.py``, sampled inside each campaign.
* ``--trace 1`` runs the campaign four times, alternating untraced and
  traced, and reports the per-layer metrics of ``layers.py`` from the two
  traced campaigns.  Their work counts must repeat exactly.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also appends a row
to ``history.jsonl`` beside this file.  The exit code is 0 when every
campaign ran and matched, 1 when one did not, and 2 when the repository
sources are missing.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ITERATION = os.path.join(HERE, "iteration.py")
REFERENCE_DIR = os.path.join(HERE, "reference")
OUT_DIR = os.path.join(HERE, ".out")  # fuzz reproducers, if any
HISTORY = os.path.join(HERE, "history.jsonl")

# a run makes campaigns until the next would end past --seconds, but at
# least MIN_CAMPAIGNS of them, so that its medians have a middle
MIN_CAMPAIGNS = 3
# --trace 1: untraced and traced campaigns, alternating
TRACED_PLAN = (False, True, False, True)
# the whole run stays inside this many seconds
RUN_DEADLINE = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("determined_frac", "ratio"),
)


def plan(seconds, trace):
    """Yield (campaign index, traced) for each campaign of the run."""
    if trace:
        yield from enumerate(TRACED_PLAN)
        return
    started = time.monotonic()
    index = 0
    while True:
        yield index, False
        index += 1
        elapsed = time.monotonic() - started
        if index >= MIN_CAMPAIGNS and elapsed * (index + 1) / index > seconds:
            return


def run_campaign(args, traced, deadline):
    """Run one campaign process; returns (record, error message)."""
    command = [
        sys.executable, ITERATION,
        "--workload", args.workload,
        "--trace", "1" if traced else "0",
        # only the end-to-end run scales its times; --trace 1 compares raw
        # traced and untraced times
        "--probe", "1" if not args.trace else "0",
        "--out-dir", OUT_DIR,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None, "no time left in the run for this campaign"
    try:
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, "campaign timed out after %.0fs" % timeout
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, "campaign process exited %d without a result:\n%s" % (
            proc.returncode, proc.stderr[-2000:],
        )
    if "error" in record:
        return None, "campaign raised:\n%s" % record["error"]
    return record, None


def load_reference(workload):
    """The reference outputs every campaign of the workload must give."""
    path = os.path.join(REFERENCE_DIR, "%s.json" % workload)
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def first_difference(expected, actual):
    if isinstance(expected, list) and isinstance(actual, list):
        for want, got in zip(expected, actual):
            if want != got:
                return "expected %s, got %s" % (
                    json.dumps(want)[:200], json.dumps(got)[:200])
        return "expected %d entries, got %d" % (len(expected), len(actual))
    return "expected %s, got %s" % (
        json.dumps(expected)[:200], json.dumps(actual)[:200])


def check_outputs(outputs, reference):
    """Problems with one campaign's outputs, as messages."""
    problems = list(outputs["problems"])
    for key, expected in reference.items():
        if outputs.get(key) != expected:
            problems.append("%s differ from the reference: %s" % (
                key, first_difference(expected, outputs.get(key))))
    return problems


def repeat_problems(first, second):
    """Work counts of two traced campaigns of the same inputs that differ."""
    return [
        "work count %s does not repeat: %r then %r"
        % (name, first[name], second[name])
        for name in layers.REPEATED_COUNTS
        if first[name] != second[name]
    ]


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def append_history(args, summary):
    row = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    row.update(summary)
    with open(HISTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def end_to_end_metrics(records):
    values = {
        "setup_s": [r["setup_s"] for r in records],
        "wall_s": [r["wall_s"] for r in records],
        "cpu_s": [r["cpu_s"] for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        "determined_frac": [
            1.0 - r["outputs"]["undetermined"] / r["outputs"]["verdict_count"]
            for r in records
        ],
    }
    return {
        name: {"value": statistics.median(values[name]), "unit": unit}
        for name, unit in END_TO_END
    }


def per_layer_metrics(untraced, traced):
    units = dict(layers.METRICS)
    out = {}
    for name, first in traced[0]["layers"].items():
        # counts repeat exactly (checked); times are medians
        value = first if units[name] == "count" else statistics.median(
            r["layers"][name] for r in traced)
        out[name] = {"value": value, "unit": units[name]}
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    out["trace_overhead_frac"] = {
        "value": traced_wall / untraced_wall - 1.0,
        "unit": units["trace_overhead_frac"],
    }
    return out


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        sys.stderr.write(
            "campaignbench: no library sources at %s; run from the root "
            "of a repository checkout\n" % os.path.join(ROOT, "src", "repro")
        )
        return 2

    deadline = time.monotonic() + RUN_DEADLINE
    reference = load_reference(args.workload)
    untraced, traced, failures = [], [], []
    first_outputs = None
    attempted = 0
    for index, tracing in plan(args.seconds, args.trace):
        attempted += 1
        record, error = run_campaign(args, tracing, deadline)
        problems = [error] if error else check_outputs(
            record["outputs"], reference)
        if not problems:
            # every campaign has the same inputs, so all must agree
            outputs = dict(record["outputs"], problems=None)
            first_outputs = first_outputs or outputs
            if outputs != first_outputs:
                problems.append("outputs differ from an earlier campaign")
        if not problems and tracing and traced:
            problems = repeat_problems(traced[0]["layers"], record["layers"])
        if problems:
            # the run is incorrect already; more campaigns add nothing
            failures.append(problems)
            for problem in problems:
                sys.stderr.write("%s campaign %d%s: %s\n" % (
                    args.workload, index, " (traced)" if tracing else "",
                    problem))
            break
        (traced if tracing else untraced).append(record)

    metrics = {}
    if args.trace and traced and untraced:
        metrics = per_layer_metrics(untraced, traced)
    elif not args.trace and untraced:
        metrics = end_to_end_metrics(untraced)
    summary = {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    # unscaled times and speed factors, for the history and the reader
    measured = [r["measured"] for r in untraced if "measured" in r]
    append_history(args, dict(summary, measured=measured))
    print("%s seed %d: %d campaigns, %d failed" % (
        args.workload, args.seed, attempted, len(failures)))
    for name, metric in metrics.items():
        print("  %-24s %16.6g %s" % (name, metric["value"], metric["unit"]))
    for name in ("setup_s", "wall_s", "cpu_s") if measured else ():
        print("  %-24s %16.6g s, unscaled" % (
            name, statistics.median(m[name] for m in measured)))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
