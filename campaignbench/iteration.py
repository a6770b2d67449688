"""Run one campaign of one workload and print its measurements as JSON.

    python3 campaignbench/iteration.py --workload NAME --trace 0|1
        --probe 0|1 --out-dir DIR

``run.py`` starts one such process per campaign, so every campaign pays
its own imports and set-up and reports its own peak RSS.  The last line
of standard output is a JSON object with ``setup_s``, ``wall_s``,
``cpu_s``, ``peak_rss_mb`` and the campaign's ``outputs``; with
``--trace 1`` also ``layers``, the per-layer metrics.  With ``--probe 1``
the three times are scaled to the reference speed of ``speed.py``, and
``measured`` holds them unscaled with the speed factors; with
``--probe 0`` they are raw.  A campaign that raises reports ``error``
instead, and the process still exits 0.
"""

import time

import speed  # allocates the probe buffer before set-up starts

STARTED = time.perf_counter()  # before any library import: set-up starts here
PROBES = speed.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def measure(args):
    import workloads

    if not args.probe:
        PROBES.stop()
    tracer = None
    if args.trace:
        import layers

        tracer = layers.install()
        traced_from = time.perf_counter()
    workload = workloads.make(args.workload, args.out_dir)
    state = workload.setup()
    setup_s = time.perf_counter() - STARTED

    PROBES.mark()
    wall = time.perf_counter()
    cpu = time.process_time()
    result = workload.campaign(state)
    cpu_s = time.process_time() - cpu
    wall_s = time.perf_counter() - wall
    if args.probe:
        PROBES.stop()

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        # less the probe buffer, which is resident the whole time
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0 - speed.BUFFER_MB,
    }
    if tracer is not None:
        traced_wall = wall + wall_s - traced_from
        record["layers"] = tracer.metrics(traced_wall)
    if args.probe:
        # times less the probes in them, then scaled to the reference
        # speed; the unscaled times are kept for the history
        setup_probes, setup_scale = PROBES.phase(0)
        probes, scale = PROBES.phase(1)
        measured = {
            "setup_s": setup_s - setup_probes,
            "wall_s": wall_s - probes,
            "cpu_s": cpu_s - probes,
            "setup_speed": setup_scale,
            "speed": scale,
        }
        record.update(
            setup_s=measured["setup_s"] * setup_scale,
            wall_s=measured["wall_s"] * scale,
            cpu_s=measured["cpu_s"] * scale,
            measured=measured,
        )
    record["outputs"] = workload.outputs(state, result)
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    try:
        record = measure(args)
    except Exception:  # a campaign that raises is a failed operation
        record = {"error": traceback.format_exc()}
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
    # skip interpreter teardown: freeing the campaign's heap would only
    # lengthen the run, and nothing is left to flush
    os._exit(0)
