"""Run a module as ``__main__`` under a speed ``Sampler``; write the samples.

    python3 perfbench/sampled.py SAMPLES.json MODULE [ARG ...]

The benchmark starts the CLI this way, so that a child process's time can be
rescaled by the speed of the CPU it ran on (see ``speed.py``).  The samples
go to SAMPLES.json as [start, seconds] pairs however the module ends.
"""

import json
import runpy
import sys

from speed import Sampler


def main():
    out, module, *args = sys.argv[1:]
    sys.argv = [module, *args]
    sampler = Sampler()
    sampler.start()
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        sampler.stop()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(sampler.samples, fh)


if __name__ == "__main__":
    main()
