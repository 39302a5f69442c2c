"""The repository's benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload spatial-calls --seed 0 \\
        --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``workloads.py`` and ``WORKLOADS.md``): ``spatial-calls``,
``scenario-campaign``, ``paper-quick``.  Each is a closed loop of whole
rounds, started until ``--seconds`` have passed (at least one round).

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same rounds twice, untraced then traced (see
``tracer.py``), prints the per-layer metrics and the tracing overhead,
and runs the benchmark's self-checks.  Human-readable lines go first; the
last line of standard output is the JSON result.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before imports
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where runs write their caches and span files (ignored by git).
OUT = ROOT / ".perfbench_out"
#: Setups per run (this process plus fresh processes), for a median.
SETUP_SAMPLES = 3
#: Layers no ``spatial-calls`` run may call (the zero-call predictions).
SPATIAL_BYPASSED = ("netsim.batch.", "faults.", "scenario.", "core.")


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: shows host-speed drift."""
    start = time.perf_counter()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return time.perf_counter() - start


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def load_digests() -> Dict[str, Dict[str, list]]:
    with open(HERE / "digests.json") as handle:
        return json.load(handle)


def check_units(workload: str, seed: int, index: int, rnd,
                digests: Dict[str, Dict[str, list]]) -> int:
    """Compare a round's unit digests with the recorded ones.

    Marks each failed unit's error; returns how many units had a
    recorded digest to compare with.
    """
    rounds = digests.get(workload, {}).get(str(seed))
    if workload == "paper-quick" and rounds:
        index = 0  # every round is the same report
    recorded = rounds[index] if rounds and index < len(rounds) else None
    checked = 0
    for position, unit in enumerate(rnd.units):
        if recorded is not None and unit.error is None:
            checked += 1
            if unit.digest != recorded[position]:
                unit.error = (f"digest {unit.digest} != recorded "
                              f"{recorded[position]}")
    return checked


def run_rounds(work, seconds: float, count: int = 0) -> list:
    """Run rounds until ``seconds`` have passed (``count`` rounds instead
    when given).  Returns the rounds with their measurements."""
    work.start_pass()
    rounds = []
    phase_start = time.perf_counter()
    index = 0
    while (index < count) if count else (
            index == 0 or time.perf_counter() - phase_start < seconds):
        cpu_before = cpu_seconds()
        start = time.perf_counter()
        rnd = work.run_round(index)
        rnd.wall_s = time.perf_counter() - start
        rnd.cpu_s = cpu_seconds() - cpu_before
        rounds.append(rnd)
        index += 1
    return rounds


def setup_samples(args) -> List[float]:
    """Set-up seconds of fresh processes, each measured from its start."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(rounds, setup_s: float, peak: float
               ) -> Dict[str, Dict[str, object]]:
    wall = sum(r.wall_s for r in rounds)
    return {
        "wall_s": metric(wall / len(rounds), "s"),
        "setup_s": metric(setup_s, "s"),
        "cpu_s": metric(sum(r.cpu_s for r in rounds) / len(rounds), "s"),
        "packets_per_s": metric(sum(r.packets for r in rounds) / wall,
                                "packets/s"),
        "peak_rss_mb": metric(peak, "MB"),
    }


def per_layer(work, tracer, counters: Dict[str, float], traced, untraced,
              probe_s: float, failed_fraction: float
              ) -> Dict[str, Dict[str, object]]:
    import workloads

    traced_wall = sum(r.wall_s for r in traced)
    untraced_wall = sum(r.wall_s for r in untraced)
    totals = tracer.totals(counters)
    out: Dict[str, Dict[str, object]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = metric(value, unit)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for name, (calls, self_s) in totals.items():
        if name != "netsim.network.deliver":
            put(f"{name}.calls", calls, "count")
            put(f"{name}.self_s", self_s, "s")
    fired = counters.get("netsim.events_fired", 0)
    put("netsim.events_fired", fired, "count")
    put("netsim.events_cancelled",
        counters.get("netsim.events_cancelled", 0), "count")
    put("netsim.heap_compactions",
        counters.get("netsim.heap_compactions", 0), "count")
    put("netsim.engine.useful_ratio",
        ratio(fired, counters.get("netsim.events_scheduled", 0)), "ratio")
    put("netsim.batch.events_fired",
        counters.get("netsim.batch.events_fired", 0), "count")
    put("netsim.network.delivered_ratio",
        ratio(totals["netsim.network.deliver"][0],
              totals["netsim.network.send"][0]), "ratio")

    manifests = [r.detail["manifest"] for r in traced
                 if "manifest" in r.detail]
    cells = [c for m in manifests for c in m.cells]
    busy = sum(c.duration_s for c in cells)
    put("core.parallel.cell_busy_s", busy, "s")
    put("core.parallel.idle_s",
        max(0.0, work.jobs * traced_wall - busy) if manifests else 0.0, "s")
    put("core.parallel.attempts", sum(c.attempts for c in cells), "count")
    put("core.parallel.retries", sum(c.retries for c in cells), "count")
    put("core.parallel.fallbacks", sum(1 for c in cells if c.fallback),
        "count")
    cache = getattr(work, "cache", None)  # the traced pass's cache
    put("core.cache.hit_rate",
        cache.stats.hit_rate() if cache is not None else 0.0, "ratio")

    quic = sum(totals[n][1] for n in ("transport.quic.protect_frame",
                                      "transport.quic.unprotect"))
    put("transport.quic.self_share",
        ratio(quic, sum(s for _, s in totals.values())), "ratio")
    section_s = untraced[0].detail.get("section_s", {})
    for section in workloads.SECTIONS:
        put(f"report.{section}.s", section_s.get(section, 0.0), "s")
    put("bench.trace_overhead_s", traced_wall - untraced_wall, "s")
    put("bench.host_probe_s", probe_s, "s")
    put("failed_fraction", failed_fraction, "ratio")
    return out


def self_check(workload: str, metrics: Dict[str, Dict[str, object]],
               traced_wall: float, jobs: int) -> List[str]:
    """The benchmark's own checks on a traced run; returns problems."""
    problems = []
    self_total = sum(m["value"] for name, m in metrics.items()
                     if name.endswith(".self_s"))
    # Worker self time accrues in ``jobs`` processes at once.
    if self_total > traced_wall * jobs:
        problems.append(f"layer self times sum to {self_total:.3f} s, "
                        f"more than {jobs} x traced wall {traced_wall:.3f} s")
    if workload == "spatial-calls":
        for name, m in metrics.items():
            if (name.startswith(SPATIAL_BYPASSED) and name.endswith(".calls")
                    and m["value"] != 0):
                problems.append(f"{name} = {m['value']} on spatial-calls, "
                                "predicted 0")
    return problems


def print_metrics(title: str, metrics: Dict[str, Dict[str, object]]) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']}")


def declared_metrics(trace: int) -> Dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for a mode."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_declared(metrics: Dict[str, Dict[str, object]],
                   trace: int) -> List[str]:
    """Every declared metric is printed, with its declared unit."""
    declared = declared_metrics(trace)
    problems = [f"{name} is not printed" for name in declared
                if name not in metrics]
    problems += [f"{name} is printed but not declared"
                 for name in metrics if name not in declared]
    problems += [f"{name} printed in {m['unit']}, declared in "
                 f"{declared[name]}" for name, m in metrics.items()
                 if name in declared and m["unit"] != declared[name]]
    return problems


def run_all(args) -> int:
    """Run every workload in its own process; print a combined result."""
    import workloads

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(out.stderr, file=sys.stderr)
            return out.returncode or 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{key}": value
                        for key, value in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time, and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402 - needs the program on the path

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    work = workloads.build(args.workload, args.seed, OUT)
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        work.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    digests = load_digests()
    try:
        probe_before = host_probe()
        rounds = run_rounds(work, args.seconds)
        if args.trace:
            from tracer import Tracer
            from repro.obs import metrics as obs_metrics

            tracer = Tracer()
            tracer.install()
            try:
                before = obs_metrics.snapshot()
                traced = run_rounds(work, 0.0, count=len(rounds))
                counters = obs_metrics.delta(
                    before, obs_metrics.snapshot())["counters"]
            finally:
                tracer.uninstall()
        probe_after = host_probe()
        peak = peak_rss_mb()
    finally:
        work.close()

    passes = [rounds] + ([traced] if args.trace else [])
    attempted = checked = 0
    for rounds_of_pass in passes:
        for index, rnd in enumerate(rounds_of_pass):
            checked += check_units(args.workload, args.seed, index, rnd,
                                   digests)
            attempted += len(rnd.units)
    if args.trace:
        for first, second in zip(rounds, traced):
            for a, b in zip(first.units, second.units):
                if b.error is None and a.digest != b.digest:
                    b.error = "traced run differs from untraced run"
    failures = [u for p in passes for r in p for u in r.units
                if u.error is not None]
    for unit in failures:
        print(f"FAILED {unit.name}: {unit.error}")
    failed = len(failures)

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} "
          f"round(s), {attempted} units, {failed} failed, {checked} checked "
          f"against recorded digests")
    print("round wall s: " + ", ".join(f"{r.wall_s:.3f}" for r in rounds))
    print(f"bench.host_probe_s  before {probe_before:.4f} s  after "
          f"{probe_after:.4f} s")
    print(f"failed_fraction  {failed / attempted:.6g} ratio")
    if args.trace:
        metrics = per_layer(work, tracer, counters, traced, rounds,
                            (probe_before + probe_after) / 2,
                            failed / attempted)
        problems = self_check(args.workload, metrics,
                              sum(r.wall_s for r in traced), work.jobs)
        span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        n_spans = tracer.write_spans(span_file, PROCESS_START)
        print(f"{n_spans} spans written to {span_file.relative_to(ROOT)}")
        title = "per-layer metrics (traced pass):"
    else:
        samples = [setup_s] + setup_samples(args)
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in samples))
        metrics = end_to_end(rounds, statistics.median(samples), peak)
        problems = []
        title = "end-to-end metrics (tracing off):"
    problems += check_declared(metrics, args.trace)
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}")
    print_metrics(title, metrics)
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
