"""One set-up sample: import cooplab, load the fixtures, build a workload's
configs, then print, as JSON, the CLOCK_MONOTONIC reading, the host-speed
samples taken meanwhile and the seconds their handler used.  The parent
subtracts the reading it took just before starting this process.

    python3 perfbench/probe_setup.py <workload> <seed>
"""
import json
import sys
from time import monotonic

if __name__ == "__main__":
    import hostspeed

    sampler = hostspeed.Sampler()
    with sampler.sampling():
        import workloads

        workloads.build(sys.argv[1], int(sys.argv[2]))
    end = monotonic()
    print(json.dumps({"end": end, "samples": sampler.samples, "handler_s": sampler.handler_ns / 1e9}))
