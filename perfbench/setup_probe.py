"""Time one workload set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED ROUNDS
"""

import sys

import workloads


def main() -> int:
    wl, seconds = workloads.setup(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
    wl.close()
    print(repr(seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
