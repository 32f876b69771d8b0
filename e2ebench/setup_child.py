"""One ``setup_s`` sample, taken in a fresh interpreter.

Prints the host seconds from importing ``repro`` to the first op being
ready: the import, the vector kernels' first-use self-check, and the
first op's topology build.  Started by :func:`e2ebench.harness.measure_setup`.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    t0 = time.perf_counter()  # simlint: disable=SIM001 -- host timing is what the benchmark measures
    import repro  # noqa: F401
    from repro.netsim import kernels

    from e2ebench.workloads import WORKLOADS

    kernels.enabled()
    WORKLOADS[args.workload].prepare(args.seed)
    print(time.perf_counter() - t0)  # simlint: disable=SIM001,SIM007 -- the sample, read by the parent


if __name__ == "__main__":
    main()
