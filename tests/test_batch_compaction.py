"""Heap compaction on the batch engine under mass cancellation.

The batch engine fires from the scalar engine's heap, so the same
guarantees must hold there: lazily-cancelled entries cannot grow the
queue without bound, compaction is counted in ``heap_compactions`` (and
published as ``netsim.batch.heap_compactions``), and it never changes
``pending_events()``, the per-lane counters or the firing order, which
is exactly the ``(time, seq)`` order of the events left uncancelled.
"""

from __future__ import annotations

from repro.netsim.batch import BatchSimulator
from repro.netsim.engine import COMPACT_MIN_QUEUE
from repro.obs import metrics as obs_metrics


def test_mass_cancellation_keeps_heap_bounded():
    batch = BatchSimulator(n_lanes=3)
    live = [batch.schedule_at(i % 3, float(i), lambda: None)
            for i in range(10)]
    doomed = [batch.schedule_at(i % 3, 1000.0 + i * 1e-3, lambda: None)
              for i in range(5000)]
    for handle in doomed:
        batch.cancel(handle)
    assert len(batch._queue) < 2 * (len(live) + COMPACT_MIN_QUEUE)
    assert batch.heap_compactions >= 1
    assert batch.pending_events() == len(live)
    assert batch.events_cancelled == len(doomed)
    assert batch.stats()["heap_compactions"] == batch.heap_compactions
    assert batch.lane_stats(1)["heap_compactions"] == batch.heap_compactions


def test_firing_order_is_the_uncancelled_remainder_in_time_seq_order():
    batch = BatchSimulator(n_lanes=4)
    fired = []
    scheduled = []  # (time, seq, tag, handle)
    for i in range(3000):
        # Coarse times force many exact ties, broken by seq.
        time_s = float((i * 37) % 50) * 0.5
        tag = ("lane", i)
        handle = batch.schedule_at(i % 4, time_s,
                                   lambda tag=tag: fired.append(tag))
        scheduled.append((time_s, handle._seq, tag, handle))
    for j in range(40):
        tag = ("cohort", j)
        handle = batch.schedule_cohort(float(j % 9), [0, 2, 3],
                                       lambda tag=tag: fired.append(tag))
        scheduled.append((float(j % 9), handle._seq, tag, handle))
    for position, entry in enumerate(scheduled):
        if position % 10 != 3:
            batch.cancel(entry[3])
    assert batch.heap_compactions >= 1
    remainder = sorted(entry[:3] for entry in scheduled
                       if not entry[3].cancelled)
    batch.run()
    assert fired == [tag for _time, _seq, tag in remainder]
    assert batch.events_fired == sum(
        3 if tag[0] == "cohort" else 1 for tag in fired)
    assert batch.pending_events() == 0
    folded = [batch.lane_stats(lane) for lane in range(4)]
    for key in ("events_scheduled", "events_fired", "events_cancelled"):
        assert batch.stats()[key] == sum(s[key] for s in folded), key


def test_compaction_mid_run_keeps_the_loop_on_the_live_queue():
    batch = BatchSimulator(n_lanes=2)
    fired = []
    doomed = [batch.schedule_at(i % 2, 100.0 + i * 1e-3, lambda: None)
              for i in range(200)]

    def cancel_all() -> None:
        for handle in doomed:
            batch.cancel(handle)

    batch.schedule_at(0, 1.0, cancel_all)
    batch.schedule_at(1, 2.0, lambda: fired.append("after"))
    batch.run()
    assert fired == ["after"]
    assert batch.heap_compactions >= 1
    assert batch.pending_events() == 0
    assert batch.now == 2.0  # cancelled entries never move the clock


def test_small_queues_never_compact():
    batch = BatchSimulator(n_lanes=1)
    handles = [batch.schedule_at(0, float(i + 1), lambda: None)
               for i in range(COMPACT_MIN_QUEUE - 2)]
    for handle in handles:
        batch.cancel(handle)
    assert batch.heap_compactions == 0
    batch.run()
    assert batch.pending_events() == 0


def test_compactions_are_published_under_the_stats_name():
    before = obs_metrics.snapshot()
    batch = BatchSimulator(n_lanes=1)
    doomed = [batch.schedule_at(0, 10.0 + i, lambda: None)
              for i in range(4 * COMPACT_MIN_QUEUE)]
    for handle in doomed:
        batch.cancel(handle)
    batch.run()
    counters = obs_metrics.delta(before, obs_metrics.snapshot())["counters"]
    assert batch.heap_compactions >= 1
    assert counters.get("netsim.batch.heap_compactions") == \
        batch.heap_compactions
    assert "netsim.batch.merges" not in counters
