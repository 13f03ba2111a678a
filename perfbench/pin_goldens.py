"""Pin the benchmark's golden outputs and baseline machine context.

Run from the repository root, on purpose only (the benchmark itself never
writes these files)::

    python3 perfbench/pin_goldens.py --seeds 0-24

For every workload and seed it runs one pass and stores the SHA-256 of the
canonical outputs (per-trial or per-job results, simulated metrics, GPU
counters) plus the simulated metrics and counters in clear.  Before pinning
it checks the workload's invariants and, for the PPP workloads, that the
host ``cpu`` evaluator produces identical per-trial results (so the three
protocol variants agree with each other too); their per-trial results are
stored in clear as well.
Existing entries are kept unless ``--force`` is given.  The machine context
of the pinning run becomes ``golden/context.json``, the baseline records are
compared against.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import GOLDEN_DIR, WORKLOAD_NAMES, _use_program_sources


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-24", help="e.g. 0-24 or 0,3,7")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, action="append")
    parser.add_argument("--force", action="store_true", help="re-pin existing entries")
    args = parser.parse_args(argv)

    _use_program_sources()
    from context import machine_context
    from workloads import WORKLOADS

    GOLDEN_DIR.mkdir(exist_ok=True)
    names = args.workload or list(WORKLOAD_NAMES)
    seeds = parse_seeds(args.seeds)
    for name in names:
        workload = WORKLOADS[name]
        path = GOLDEN_DIR / f"{name}.json"
        pinned = json.loads(path.read_text())["seeds"] if path.is_file() else {}
        for seed in seeds:
            if str(seed) in pinned and not args.force:
                continue
            inputs = workload.prepare(seed)
            result = workload.run_pass(inputs)
            problems = workload.check_invariants(inputs, result)
            reference = workload.reference_items(inputs)
            if reference is not None and reference != result.items:
                problems.append("differs from the host cpu evaluator")
            if problems:
                print(f"{name} seed {seed}: not pinned: {problems}", file=sys.stderr)
                return 1
            entry = result.pinned()
            if reference is not None:
                entry["items"] = result.items
            pinned[str(seed)] = entry
            print(f"{name} seed {seed}: {entry['outputs_sha256'][:16]} ({result.wall_s:.2f}s)")
        # One line per seed keeps the files small and their diffs readable.
        lines = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(pinned[key])}" for key in sorted(pinned, key=int)
        )
        path.write_text(f'{{"workload": {json.dumps(name)}, "seeds": {{\n{lines}\n}}}}\n')
    (GOLDEN_DIR / "context.json").write_text(json.dumps(machine_context(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
