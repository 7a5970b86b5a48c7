"""Set-up probe: a fresh interpreter that stops at a workload's first epoch.

    python3 perfbench/probe.py <workload> <seed> <workdir>

It imports the library, builds the workload from the seed and starts one
pass, which stops where the first epoch (or, for oracle-2d, the first
quadrature call) would begin.  It then prints "ready".  run.py times it from
process start to that line, so the figure covers interpreter start, imports,
spec validation, dataset build and model init.
"""

import sys
from pathlib import Path


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workload = workloads.make(name, seed)

    def stop(*args, **kwargs):
        raise workloads.SetupDone

    owner, attr = workload.first_call
    setattr(owner, attr, stop)
    try:
        workload.run(workdir / "probe", workloads.TrainCapture())
    except workloads.SetupDone:
        print("ready", flush=True)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
