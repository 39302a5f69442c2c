"""The benchmark's three workloads, their inputs and their output checks.

Every workload is a closed loop of *rounds*.  A round is a fixed amount of
work whose inputs come from ``(seed, round index)`` alone, so a run can stop
after any whole round and a second pass over the same rounds repeats the
same work.  Within a round the units (calls, cells, report sections) run one
after the other; only ``scenario-campaign`` spreads its cells over worker
processes.

Each unit yields a short digest of its output.  ``digests.json`` holds the
digests recorded for a range of seeds (``record_digests.py`` writes it); a
unit whose digest differs from the recorded one fails.  Every unit is also
checked against structural invariants that hold for any seed; units of seeds
or rounds outside the recorded range are checked by those alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import shutil
import signal
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import ResultCache, canonical, code_fingerprint
from repro.core.journal import STATUS_CACHED, STATUS_OK, RunManifest
from repro.core.testbed import Testbed
from repro.devices.models import VisionPro
from repro.geo.regions import all_clients
from repro.netsim.shaper import TrafficShaper
from repro.obs import metrics as obs_metrics
from repro.vca.profiles import PROFILES
from repro.vca.session import Participant

#: A unit that runs longer than this fails (and the run goes on).
UNIT_TIMEOUT_S = 90.0


class UnitTimeout(Exception):
    """A unit outlived :data:`UNIT_TIMEOUT_S`."""


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Raise :class:`UnitTimeout` in the main thread after ``seconds``."""
    def expire(signum, frame):
        raise UnitTimeout(f"unit still running after {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def digest_of(value: object) -> str:
    """Short sha256 of a value's canonical JSON."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rx_packets(counters: Dict[str, float]) -> int:
    """Media packets received by participants, from a counter delta."""
    return int(sum(v for k, v in counters.items()
                   if k.startswith("vca.rx.packets.")))


@dataclasses.dataclass
class Unit:
    """The outcome of one call, cell or section."""

    name: str
    digest: Optional[str]
    error: Optional[str] = None


@dataclasses.dataclass
class Round:
    """What one round did, as the benchmark measures it."""

    units: List[Unit]
    packets: int
    #: Extra facts some workloads report (campaign manifests, section times).
    detail: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: Host and CPU seconds of the round, filled in by the runner.
    wall_s: float = 0.0
    cpu_s: float = 0.0


def warm_up() -> None:
    """A first session: two users, half a simulated second.

    Fills the lazy tables (server fleets, path memos, codec state) that
    the first unit of every workload would otherwise pay for.
    """
    points = all_clients()
    testbed = Testbed([Participant("U1", VisionPro(), points[0]),
                       Participant("U2", VisionPro(), points[1])])
    testbed.session(PROFILES["FaceTime"], seed=0).run(0.5)


# ----------------------------------------------------------------------
# spatial-calls
# ----------------------------------------------------------------------

#: Call sizes of one round: the mean of 2-5 users, every size present.
CALL_SIZES = (2, 3, 3, 4, 4, 5)
#: Shaped calls per round: a third.
SHAPED_PER_ROUND = 2
#: U1 uplink limits; the paper's rate-adaptation cliff sits at 700 kbps.
SHAPER_KBPS = (500, 700, 1000, 2000)
#: Simulated seconds per call.  Session set-up (codec pools, QUIC state)
#: is about 8% of a round's host time at 8 s, against 39% at 2 s, and the
#: per-packet layers' shares are within 0.015 of those of 16-s calls.
CALL_SECONDS = 8.0


@dataclasses.dataclass(frozen=True)
class Call:
    """One FaceTime spatial-persona call of the ``spatial-calls`` list."""

    cities: Tuple[int, ...]
    shaper_kbps: Optional[int]
    seed: int

    @property
    def name(self) -> str:
        shaped = f"@{self.shaper_kbps}k" if self.shaper_kbps else ""
        return f"call{len(self.cities)}{shaped}"


def spatial_calls(seed: int, round_index: int) -> List[Call]:
    """The seeded calls of one round."""
    rng = np.random.default_rng([seed, round_index, 1])
    n_cities = len(all_clients())
    sizes = rng.permutation(CALL_SIZES)
    shaped = set(rng.choice(len(sizes), SHAPED_PER_ROUND, replace=False)
                 .tolist())
    calls = []
    for index, size in enumerate(sizes):
        cities = tuple(int(c) for c in
                       rng.choice(n_cities, int(size), replace=False))
        kbps = int(rng.choice(SHAPER_KBPS))
        calls.append(Call(cities, kbps if index in shaped else None,
                          int(rng.integers(2 ** 31))))
    return calls


def run_call(call: Call) -> Tuple[str, Dict[str, object]]:
    """Run one call through the SFU; return its digest and its facts."""
    points = all_clients()
    testbed = Testbed([
        Participant(f"U{i + 1}", VisionPro(), points[c])
        for i, c in enumerate(call.cities)
    ])
    session = testbed.session(PROFILES["FaceTime"], seed=call.seed)
    if call.shaper_kbps is not None:
        session.shape_uplink("U1", TrafficShaper(
            rate_bps=call.shaper_kbps * 1000.0, seed=call.seed))
    result = session.run(CALL_SECONDS)
    facts = {
        "relayed": not result.p2p,
        "capture_bytes": {uid: cap.total_bytes()
                          for uid, cap in sorted(result.captures.items())},
        "availability": {
            uid: {sender: repr(stat.availability())
                  for sender, stat in sorted(rx.stats.items())}
            for uid, rx in sorted(result.receivers.items())
        },
    }
    return digest_of(facts), facts


def check_call(call: Call, facts: Dict[str, object]) -> Optional[str]:
    """Structural invariants every call must meet, for any seed."""
    n = len(call.cities)
    if not facts["relayed"]:
        return "call did not run through the SFU"
    if len(facts["capture_bytes"]) != n or min(
            facts["capture_bytes"].values()) <= 0:
        return "a participant's capture is empty"
    for uid, senders in facts["availability"].items():
        if len(senders) != n - 1:
            return f"{uid} sees {len(senders)} of {n - 1} remote personas"
        if any(not 0.0 <= float(a) <= 1.0 for a in senders.values()):
            return f"{uid} has an availability outside [0, 1]"
    return None


class SpatialCalls:
    """FaceTime spatial-persona calls, each on its own scalar simulator."""

    name = "spatial-calls"
    jobs = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        warm_up()
        self._next = spatial_calls(seed, 0)

    def start_pass(self) -> None:
        pass

    def run_round(self, index: int) -> Round:
        calls = self._next if index == 0 else spatial_calls(self.seed, index)
        before = obs_metrics.snapshot()
        units = []
        for call in calls:
            try:
                with deadline(UNIT_TIMEOUT_S):
                    digest, facts = run_call(call)
                units.append(Unit(call.name, digest, check_call(call, facts)))
            except Exception as exc:  # noqa: BLE001 - counted as failed
                units.append(Unit(call.name, None, repr(exc)))
        counters = obs_metrics.delta(before, obs_metrics.snapshot())
        return Round(units, rx_packets(counters["counters"]))

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# scenario-campaign
# ----------------------------------------------------------------------

#: Equal shares from these distributions, one cell each per draw.
CAMPAIGN_DISTRIBUTIONS = ("churn-heavy", "storm-heavy", "large-sfu")
CAMPAIGN_JOBS = 2
#: Draws per round.  A storm cell's cost follows its seeded bursts (86k to
#: 192k engine events over seeds 0-9), and with one draw per round the
#: round's makespan on two workers followed that one cell.
DRAWS_PER_ROUND = 3


def campaign_specs(seed: int, draw: int) -> List[object]:
    """One draw of cells through the scenario generator.

    Each cell's shape is scenario 0 of its distribution's generator at
    generator seed 0.  Generated scenarios differ in cost by more than 20x
    (a storm cell can carry three bulk flows), so seeding the shapes would
    make one seed's round cost several times another's.  The shapes stay
    fixed and the seed drives each cell's session seed instead: media,
    motion, storm timing and fault draws.
    """
    from repro.scenario import DISTRIBUTIONS, ScenarioGenerator

    rng = np.random.default_rng([seed, draw, 2])
    specs = []
    for name in CAMPAIGN_DISTRIBUTIONS:
        shape = ScenarioGenerator(0, DISTRIBUTIONS[name]).batch(1)[0]
        specs.append(dataclasses.replace(
            shape, name=f"{shape.name}-r{draw}",
            seed=int(rng.integers(2 ** 31))))
    return specs


def check_record(record: Dict[str, object]) -> Optional[str]:
    """Structural invariants of one scenario record."""
    for key in ("qoe", "qoe_min", "availability_mean"):
        value = record.get(key)
        if not isinstance(value, float) or not 0.0 <= value <= 1.0:
            return f"record field {key} = {value!r} outside [0, 1]"
    return None


class ScenarioCampaign:
    """Seeded scenario batches through the process runner and its cache."""

    name = "scenario-campaign"
    jobs = CAMPAIGN_JOBS

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        warm_up()
        code_fingerprint()  # hashed once per process, shipped to workers
        campaign_specs(seed, 0)  # the generator's first build
        self._scratch = scratch
        self._dir: Optional[Path] = None
        self.start_pass()

    def start_pass(self) -> None:
        """A fresh result cache, so a second pass runs its cells cold."""
        self.close()
        self._scratch.mkdir(parents=True, exist_ok=True)
        self._dir = Path(tempfile.mkdtemp(prefix="cache-",
                                          dir=self._scratch))
        self.cache = ResultCache(self._dir)

    def run_round(self, index: int) -> Round:
        from repro.scenario import run_batch

        draws = [campaign_specs(self.seed, draw)
                 for draw in range(DRAWS_PER_ROUND * index,
                                   DRAWS_PER_ROUND * (index + 1))]
        # Grouped by distribution, longest cells first (churn, storm,
        # large-sfu), so the short cells fill the workers' last gaps.
        specs = [cells[k] for k in range(len(CAMPAIGN_DISTRIBUTIONS))
                 for cells in draws]
        names = [f"scenario/{spec.name}" for spec in specs]
        cold, replay = RunManifest(), RunManifest()
        error = None
        try:
            result = run_batch(specs, jobs=self.jobs, cache=self.cache,
                               timeout=UNIT_TIMEOUT_S, manifest=cold)
            again = run_batch(specs, jobs=self.jobs, cache=self.cache,
                              manifest=replay)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            error = repr(exc)
        statuses = {cell.name: cell.status for cell in cold.cells}
        units = []
        for i, name in enumerate(names):
            if error is not None or statuses.get(name) != STATUS_OK:
                units.append(Unit(name, None,
                                  error or f"status {statuses.get(name)}"))
                continue
            record = result.records[i]
            problem = check_record(record)
            if json.dumps(canonical(again.records[i]), sort_keys=True) != \
                    json.dumps(canonical(record), sort_keys=True):
                problem = "cache replay differs from the cold run"
            elif replay.cells[i].status != STATUS_CACHED:
                problem = f"replay status {replay.cells[i].status}"
            units.append(Unit(name, digest_of(canonical(record)), problem))
        packets = sum(rx_packets((cell.metrics or {}).get("counters", {}))
                      for cell in cold.cells)
        return Round(units, packets, {"manifest": cold})

    def close(self) -> None:
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)


# ----------------------------------------------------------------------
# paper-quick
# ----------------------------------------------------------------------

#: The report's sections, in ``generate_report`` order, without the last
#: one, ``scenarios``: its seeded batch of generated calls costs 12 s at one
#: seed and 53 s at another, which no run-to-run bound could absorb.  The
#: scenario layer is measured by ``scenario-campaign``.
SECTIONS = ("table1", "protocols", "fig4", "content", "rate", "fig5",
            "fig6", "ablations", "placement", "gauntlet")
REPORT_TITLE = ("# Reproduction report — Immersive Telepresence on "
                "Apple Vision Pro")
#: The heading each section's text must start with.
SECTION_HEADINGS = {
    "table1": "## Table 1 — server RTT matrix (ms)",
    "protocols": "## Sec. 4.1 — protocols, P2P, anycast",
    "fig4": "## Fig. 4 — two-party uplink throughput",
    "content": "## Sec. 4.3 — what is being delivered?",
    "rate": "## Sec. 4.3 — rate adaptation",
    "fig5": "## Fig. 5 — visibility-aware optimizations",
    "fig6": "## Fig. 6 — scalability",
    "ablations": "## Ablations",
    "placement": "## Placement study — global demand x selection policy",
    "gauntlet": "## Fault gauntlet — correlated domains at fleet scale",
}
#: A number the report printed from NaN or an infinity.
NOT_A_NUMBER = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def check_section(section: str, text: str) -> Optional[str]:
    """Structural invariants of one report section, for any seed."""
    from repro.experiments import fig4, fig5

    if not text.startswith(SECTION_HEADINGS[section] + "\n"):
        return f"section does not start with {SECTION_HEADINGS[section]!r}"
    if NOT_A_NUMBER.search(text):
        return "section prints a NaN or infinite figure"
    lines = text.splitlines()
    if section == "table1":
        for region in ("W", "M", "E"):
            row = next((ln for ln in lines
                        if ln.startswith(f"| {region} |")), None)
            if row is None or len(row.strip("|").split("|")) != 11:
                return f"Table 1 row {region} missing or not 10 cells"
    if section == "fig4":
        for label in fig4.CONFIGURATIONS:
            if not any(ln.startswith(f"| {label} |") for ln in lines):
                return f"Fig. 4 row {label} missing"
    if section == "fig5":
        for name in fig5.PAPER_ANCHORS:
            if not any(ln.startswith(f"| {name} |") for ln in lines):
                return f"Fig. 5 row {name} missing"
    return None


class PaperQuick:
    """The report sections at quick settings: one report per round."""

    name = "paper-quick"
    jobs = 1

    def __init__(self, seed: int) -> None:
        from repro import report

        warm_up()
        self._report = report
        # Built here because ``repro reproduce --quick`` drops ``--seed``.
        self.settings = dataclasses.replace(report.ReportSettings.quick(),
                                            seed=seed, jobs=1, cache=None)

    def start_pass(self) -> None:
        pass

    def run_round(self, index: int) -> Round:
        import time

        del index  # every round is the same report
        before = obs_metrics.snapshot()
        units, texts, seconds = [], [], {}
        for section in SECTIONS:
            fn: Callable = getattr(self._report, f"{section}_section")
            start = time.perf_counter()
            try:
                with deadline(UNIT_TIMEOUT_S):
                    texts.append(fn(self.settings))
                units.append(Unit(section, digest_of(texts[-1]),
                                  check_section(section, texts[-1])))
            except Exception as exc:  # noqa: BLE001 - counted as failed
                units.append(Unit(section, None, repr(exc)))
            seconds[section] = time.perf_counter() - start
        counters = obs_metrics.delta(before, obs_metrics.snapshot())
        return Round(units, rx_packets(counters["counters"]),
                     {"section_s": seconds, "texts": texts})

    def full_report(self, texts: Sequence[str]) -> str:
        """``texts`` plus the ``scenarios`` section, as ``generate_report``
        joins them."""
        scenarios = self._report.scenarios_section(self.settings)
        return "\n".join([REPORT_TITLE, ""] + list(texts) + [scenarios])

    def close(self) -> None:
        pass


WORKLOADS = ("spatial-calls", "scenario-campaign", "paper-quick")


def build(name: str, seed: int, scratch: Path):
    """Set up one workload up to the point where its first unit is ready."""
    if name == "spatial-calls":
        return SpatialCalls(seed)
    if name == "scenario-campaign":
        return ScenarioCampaign(seed, scratch)
    if name == "paper-quick":
        return PaperQuick(seed)
    raise ValueError(f"unknown workload {name!r}")
