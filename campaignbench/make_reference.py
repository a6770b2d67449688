"""Write reference/<workload>.json from one campaign of each workload.

    python3 campaignbench/make_reference.py [WORKLOAD ...]

The references pin the outputs ``run.py`` checks every campaign against:
every verdict (for ``fuzz-20``, the count of each oracle verdict), the
canonical uPATH sets and the SynthLC labels.  Those outputs must not
change, so regenerate a reference only when a change to a workload's
definition changes them.
"""

import json
import os
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
# the library itself is imported by the workloads' set-up, not above
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

REFERENCE_KEYS = ("verdicts", "mupaths", "labels")


def main(names):
    for name in names or workloads.NAMES:
        if name not in workloads.NAMES:
            sys.stderr.write("no workload %s; choose from %s\n"
                             % (name, ", ".join(workloads.NAMES)))
            return 2
        workload = workloads.make(name, out_dir=os.path.join(HERE, ".out"))
        state = workload.setup()
        outputs = workload.outputs(state, workload.campaign(state))
        if outputs["problems"]:
            sys.stderr.write("%s: %s\n" % (name, "; ".join(outputs["problems"])))
            return 1
        reference = {k: outputs[k] for k in REFERENCE_KEYS if k in outputs}
        path = os.path.join(HERE, "reference", "%s.json" % name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote %s (%d verdicts)" % (path, len(reference["verdicts"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
