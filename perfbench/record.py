"""Record the output digests and simulated metrics the benchmark checks.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/record.py --seeds 0-31 --seeds 9001

For every workload and seed this runs the workload once, untimed, and
stores its output digest, ``fail_frac`` and simulated metrics in
``perfbench/expected.json`` (entries of other seeds are kept).  A later
benchmark run on a recorded seed fails its output check unless its
digest matches, so record only when the simulated outputs are meant to
change.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import EXPECTED, SRC, fail_frac, run_once


def seed_list(specs: list[str]) -> list[int]:
    seeds: list[int] = []
    for spec in specs:
        first, _, last = spec.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--seeds", action="append", required=True,
        help="a seed or an inclusive range such as 0-31 (repeatable)",
    )
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    expected = json.loads(EXPECTED.read_text())
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        table = expected["workloads"].setdefault(name, {})
        for seed in seed_list(args.seeds):
            inputs = workload.setup(seed)
            _, outcome = run_once(workload, inputs)
            if outcome.problems:
                print(f"{name} seed {seed}: {outcome.problems}", file=sys.stderr)
                return 1
            table[str(seed)] = {
                "digest": outcome.digest,
                "fail_frac": fail_frac(outcome, False),
                "submitted": outcome.submitted,
                "sim": outcome.sim,
            }
            print(f"{name} seed {seed}: {outcome.digest[:16]}", flush=True)
        expected["workloads"][name] = dict(
            sorted(table.items(), key=lambda item: int(item[0]))
        )
        EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
