"""Per-layer timing from outside the program.

:class:`Tracer` replaces the public functions listed in :data:`TARGETS`
with wrappers at run time, so nothing under ``src/`` knows it is being
measured.  Each wrapper counts its calls and measures its self time: its
duration minus the time spent in wrapped calls nested inside it.  Coarse
layers (a session build, an engine run, a scenario cell) also keep one
span each, in memory, for :meth:`Tracer.write_spans` to write out at the
end.  Per-packet layers keep only their totals, because a traced run makes
millions of those calls.

Scenario cells run in forked worker processes.  The wrapper around the
cell function adds the worker's totals to the ``bench.layer.*`` counters
of the program's metrics registry before the cell returns.  The runner
already sends each cell's counter delta back to the parent and merges it,
so :meth:`Tracer.totals` reads worker totals from the registry.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

#: (layer name, module, attribute path, kind).  ``span`` keeps a span per
#: call, ``timed`` keeps totals, ``count`` only counts calls.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("netsim.engine.run", "repro.netsim.engine", "Simulator.run", "span"),
    ("netsim.batch.run", "repro.netsim.batch", "BatchSimulator.run", "span"),
    ("netsim.link.transmit", "repro.netsim.link", "Link.transmit", "timed"),
    ("netsim.network.send", "repro.netsim.network", "Network.send", "timed"),
    ("netsim.network.deliver", "repro.netsim.network", "Network._deliver",
     "count"),
    ("netsim.capture.observe", "repro.netsim.capture",
     "PacketCapture.observe", "timed"),
    ("netsim.shaper.process", "repro.netsim.shaper", "TrafficShaper.process",
     "timed"),
    ("geo.latency.one_way_ms", "repro.geo.latency", "PathModel.one_way_ms",
     "timed"),
    ("transport.quic.protect_frame", "repro.transport.quic",
     "QuicConnection.protect_frame", "timed"),
    ("transport.quic.unprotect", "repro.transport.quic",
     "QuicConnection.unprotect", "timed"),
    ("transport.rtp.packetize", "repro.transport.rtp",
     "RtpPacketizer.packetize", "timed"),
    ("keypoints.codec.encode", "repro.keypoints.codec",
     "SemanticCodec.encode", "timed"),
    ("keypoints.codec.decode", "repro.keypoints.codec",
     "SemanticCodec.decode", "timed"),
    ("vca.session.init", "repro.vca.session", "TelepresenceSession.__init__",
     "span"),
    ("vca.receiver.handle", "repro.vca.receiver", "SemanticReceiver.handle",
     "timed"),
    ("vca.stats.on_packet", "repro.vca.stats", "MediaStatsCollector.on_packet",
     "timed"),
    ("vca.cohort.run", "repro.vca.cohort", "CohortRunner.run", "span"),
    ("vca.cohort.sfu_cohort_downlink", "repro.vca.cohort",
     "sfu_cohort_downlink", "span"),
    ("faults.injector.apply_event", "repro.faults.injector",
     "FaultInjector.apply_event", "span"),
    ("faults.injector.revert_event", "repro.faults.injector",
     "FaultInjector.revert_event", "span"),
    ("scenario.generator.batch", "repro.scenario.generator",
     "ScenarioGenerator.batch", "span"),
    ("scenario.compiler.run_scenario_cell", "repro.scenario.compiler",
     "run_scenario_cell", "cell"),
    ("core.cache.get", "repro.core.cache", "ResultCache.get", "span"),
    ("core.cache.put", "repro.core.cache", "ResultCache.put", "span"),
    ("rendering.pipeline.render_session", "repro.rendering.pipeline",
     "RenderPipeline.render_session", "span"),
)

#: Registry counters that carry a worker's layer totals to the parent.
COUNTER_PREFIX = "bench.layer."


class Tracer:
    """Wrappers, a stack of open calls, and per-layer totals.

    One tracer serves one process; a forked worker inherits the installed
    wrappers together with a copy of the totals, and sends back only what
    it added (see :meth:`_enter_worker`).
    """

    def __init__(self) -> None:
        # Open calls: [child seconds, span index or -1].
        self._stack: List[List[float]] = []
        #: name -> [calls, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: Kept spans: (name, start, end, parent span index or -1).
        self.spans: List[Tuple[str, float, float, int]] = []
        self._restore: List[Callable[[], None]] = []
        self._pid = os.getpid()
        self._worker_pid = 0
        self._flushed: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target.  Call before the work is built."""
        for name, module_name, path, kind in TARGETS:
            module = importlib.import_module(module_name)
            self.stats[name] = [0, 0.0]
            if "." in path:
                owner_name, attr = path.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self._wrap(name, original, kind))
            else:
                original = getattr(module, path)
                wrapper = self._wrap(name, original, kind)
                # ``from module import fn`` copies the name into other
                # modules, so patch every repro module that holds it.
                for other in list(sys.modules.values()):
                    if (getattr(other, "__name__", "").startswith("repro")
                            and getattr(other, path, None) is original):
                        self._patch(other, path, original, wrapper)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._restore:
            self._restore.pop()()

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, original))

    def _wrap(self, name: str, fn: Callable, kind: str) -> Callable:
        stat = self.stats[name]
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        clock = time.perf_counter
        spans = self.spans
        keep = kind in ("span", "cell")

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if kind == "cell" and os.getpid() != self._pid:
                self._enter_worker()
            frame = [0.0, -1]
            if keep:
                frame[1] = len(spans)
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0),
                              -1)
                spans.append((name, 0.0, 0.0, parent))
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stat[0] += 1
                stat[1] += duration - frame[0]
                if keep:
                    spans[frame[1]] = (name, start, end, spans[frame[1]][3])
                if kind == "cell" and os.getpid() != self._pid:
                    self._flush_to_registry()

        return timed

    # ------------------------------------------------------------------
    # totals
    # ------------------------------------------------------------------

    def _enter_worker(self) -> None:
        """First cell in a forked worker: drop the parent's open calls and
        count from the totals copied at fork time."""
        if self._worker_pid == os.getpid():
            return
        self._worker_pid = os.getpid()
        del self._stack[:]
        self._flushed = {name: list(stat) for name, stat in self.stats.items()}

    def _flush_to_registry(self) -> None:
        """Add what this worker measured since the last flush to the
        metrics registry, where the cell's counter delta picks it up."""
        from repro.obs import metrics as obs_metrics

        for name, (calls, self_s) in self.stats.items():
            done_calls, done_s = self._flushed.get(name, (0, 0.0))
            if calls != done_calls:
                obs_metrics.counter(f"{COUNTER_PREFIX}{name}.calls").inc(
                    calls - done_calls)
                obs_metrics.counter(f"{COUNTER_PREFIX}{name}.self_s").inc(
                    self_s - done_s)
            self._flushed[name] = [calls, self_s]

    def totals(self, counters_delta: Dict[str, float]
               ) -> Dict[str, Tuple[float, float]]:
        """name -> (calls, self seconds), this process plus its workers.

        ``counters_delta`` is the registry counter delta over the traced
        phase; only workers write ``bench.layer.*`` counters.
        """
        return {
            name: (
                calls + counters_delta.get(f"{COUNTER_PREFIX}{name}.calls", 0),
                self_s
                + counters_delta.get(f"{COUNTER_PREFIX}{name}.self_s", 0.0),
            )
            for name, (calls, self_s) in self.stats.items()
        }

    def write_spans(self, path: Path, origin: float) -> int:
        """Write the kept spans as JSON lines; times relative to
        ``origin``.  Returns the number written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "parent": parent, "name": name,
                    "start_s": round(start - origin, 9),
                    "dur_s": round(end - start, 9),
                }) + "\n")
        return len(self.spans)
