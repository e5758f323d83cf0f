"""One benchmark round in a fresh process: run the workload's CLI calls
in-process, as `gacfas` would, and write the timings to a JSON file.

    python3 perfbench/child.py ROUND.json

ROUND.json holds the checkout root, the argv of each CLI call, whether to
trace, and where to write the result.
The result holds each call's exit code, the monotonic times of the first
optimizer step and of the end, the peak resident memory and, when traced,
the per-layer metrics.
"""

import json
import os
import resource
import sys
import time


def main(round_path: str) -> None:
    with open(round_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from gacfas import cli, harness

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    # The first optimizer step ends set-up: note its time once, then put the
    # step function back so later steps run unwrapped.
    first_step = []
    take_step = harness.take_step

    def first(*args, **kwargs):
        first_step.append(time.monotonic())
        harness.take_step = take_step
        return take_step(*args, **kwargs)

    harness.take_step = first
    exit_codes = [cli.main(argv) for argv in spec["calls"]]
    end = time.monotonic()
    result = {
        "exit_codes": exit_codes,
        "first_step": first_step[0] if first_step else None,
        "end": end,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.metrics() if tracer else None,
    }
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
