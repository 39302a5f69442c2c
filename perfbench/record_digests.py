"""Record the output digests that ``run.py`` checks each unit against.

    python3 perfbench/record_digests.py --workload spatial-calls \\
        --seeds 0-19 --rounds 3

Runs the given rounds of each seed and stores every unit's digest in
``perfbench/digests.json``, replacing what was recorded for those seeds.
For ``paper-quick`` at seed 0 it first checks that the sections, joined
with the ``scenarios`` section the workload leaves out, equal
``generate_report(ReportSettings.quick())``.  Re-record only when a change
to the program is meant to change its outputs, and say so in CHANGES.md.
"""

import argparse
import fcntl
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0"))
    parser.add_argument("--rounds", type=int, default=1)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    recorded = {}
    for seed in args.seeds:
        work = workloads.build(args.workload, seed, ROOT / ".perfbench_out")
        try:
            work.start_pass()
            rounds = [work.run_round(i) for i in range(args.rounds)]
        finally:
            work.close()
        for rnd in rounds:
            broken = [u for u in rnd.units if u.error is not None]
            if broken:
                raise SystemExit(f"seed {seed}: {broken[0].name} failed: "
                                 f"{broken[0].error}")
        recorded[str(seed)] = [[u.digest for u in r.units] for r in rounds]
        if args.workload == "paper-quick" and seed == 0:
            from repro.report import ReportSettings, generate_report

            if work.full_report(rounds[0].detail["texts"]) != \
                    generate_report(ReportSettings.quick()):
                raise SystemExit("seed 0 sections differ from "
                                 "generate_report(ReportSettings.quick())")
        print(f"{args.workload} seed {seed}: {recorded[str(seed)]}",
              flush=True)

    with open(DIGESTS, "r+") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        digests = json.load(handle)
        digests.setdefault(args.workload, {}).update(recorded)
        handle.seek(0)
        handle.truncate()
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
