"""Series store: retention parsing, ring semantics, downsampling, persistence."""

import logging
import random
import shutil
import struct
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch.model import MetricSample
from gridwatch.server import DEFAULT_POLL_INTERVAL_S
from gridwatch.tsdb import (
    DEFAULT_RETENTION,
    BadSpec,
    NonFiniteValue,
    NoSuchSeries,
    RetentionSpec,
    Store,
    TooOld,
    _Series,
    mean,
    parse_retention,
)
from reference_impls import FlatStore, column, per_slot_consolidate, per_slot_read

S = "hpc.host.svc.key"


def store(retention, root=None):
    return Store(root, default_retention=retention)


def put(st_, t, v):
    st_.write(MetricSample(S, t, v))


def archive_reads(st_, series, latest, retention):
    """``series`` read once per archive of ``retention``, finest first, each
    read spanning that archive's whole ring up to ``latest``."""
    return [
        st_.read(series, latest - interval * points + interval, latest + 1)
        for interval, points in parse_retention(retention).archives
    ]


# -- retention parsing -------------------------------------------------------


def test_parse_retention_example():
    spec = parse_retention("5s:1d,1m:30d,1h:1y")
    assert spec.archives == ((5, 17280), (60, 43200), (3600, 8760))


def test_parse_retention_default():
    assert parse_retention(DEFAULT_RETENTION).archives == ((60, 20160), (600, 12960), (3600, 17520))


def test_default_retention_fills_every_archive_at_the_default_poll_interval():
    # A coarse slot needs half of its finest points, so a finest interval
    # finer than the poll would leave every coarse slot empty.
    st_ = Store()
    t0 = 86400 * 400
    end = t0 + 3 * 86400
    for t in range(t0, end, DEFAULT_POLL_INTERVAL_S):
        put(st_, t, 1.0)
    interval, day1 = st_.read(S, t0, t0 + 86400)
    assert [v for _, v in day1] == [1.0] * (86400 // interval)
    for interval, points in archive_reads(st_, S, end - DEFAULT_POLL_INTERVAL_S, DEFAULT_RETENTION):
        assert [v for t, v in points if t >= t0 and t + interval <= end] == [1.0] * ((end - t0) // interval), interval


def test_parse_retention_rounds_down_partial_slots():
    assert parse_retention("7s:30s").archives == ((7, 4),)


@pytest.mark.parametrize("bad", [
    "",
    "junk",
    "10s",
    "10s:0s",            # holds no slots
    "7s:1d,10s:2d",      # 10 not a multiple of 7
    "10s:1d,10s:2d",     # intervals must strictly increase
    "10s:2d,1m:1d",      # coverage must strictly increase
    "1m:1h,30s:1d",      # coarser first
    "10s:1m,1h:1d",      # a coarse slot longer than the finest coverage
])
def test_parse_retention_rejects(bad):
    with pytest.raises(BadSpec):
        parse_retention(bad)


def test_retention_spec_rejects_empty():
    with pytest.raises(BadSpec):
        RetentionSpec(())


# -- writes and finest reads -------------------------------------------------


def test_write_then_read_back_finest():
    st_ = store("10s:1h")
    put(st_, 60_000, 1.5)
    put(st_, 60_013, 2.5)  # lands in the 60_010 slot
    interval, points = st_.read(S, 60_000, 60_030)
    assert interval == 10
    assert points == [(60_000, 1.5), (60_010, 2.5), (60_020, None)]


def test_overwrite_same_slot_keeps_last_value():
    st_ = store("10s:1h")
    put(st_, 60_000, 1.0)
    put(st_, 60_005, 9.0)  # same aligned slot
    assert st_.read(S, 60_000, 60_010)[1] == [(60_000, 9.0)]


def test_write_at_or_before_epoch_is_too_old():
    st_ = store("10s:1h")
    with pytest.raises(TooOld):
        put(st_, 0, 1.0)
    with pytest.raises(TooOld):
        put(st_, -50, 1.0)
    with pytest.raises(TooOld):
        put(st_, 9, 1.0)  # aligns to 0


def test_write_older_than_finest_coverage_is_too_old():
    st_ = store("10s:100s")  # finest coverage: 100 s
    put(st_, 10_000, 1.0)
    with pytest.raises(TooOld):
        put(st_, 9_900, 2.0)  # exactly coverage behind
    put(st_, 9_910, 2.0)  # one slot inside coverage is fine
    assert st_.read(S, 9_910, 9_920)[1] == [(9_910, 2.0)]


def test_ring_wrap_drops_oldest_slots():
    st_ = store("10s:100s")  # 10 slots
    for k in range(15):
        put(st_, 10_000 + 10 * k, float(k))
    _, points = st_.read(S, 10_000, 10_150)
    values = dict(points)
    for k in range(5):  # overwritten by wrap
        assert values[10_000 + 10 * k] is None
    for k in range(5, 15):
        assert values[10_000 + 10 * k] == float(k)


def test_rejects_non_finite_and_bad_series():
    st_ = store("10s:1h")
    with pytest.raises(NonFiniteValue):
        put(st_, 60_000, float("nan"))
    with pytest.raises(NonFiniteValue):
        put(st_, 60_000, float("inf"))
    with pytest.raises(ValueError):
        st_.write(MetricSample("bad..name", 60_000, 1.0))
    with pytest.raises(ValueError):
        st_.write(MetricSample("also bad", 60_000, 1.0))
    with pytest.raises(ValueError, match="bad series path"):
        st_.write(MetricSample("hpc.a\n", 60_000, 1.0))  # a file name with a line break
    with pytest.raises(TooOld):
        st_.write(MetricSample("hpc.a.b.c", 5, 1.0))  # before the epoch
    assert st_.list_series() == []  # a refused sample leaves no series behind


def test_a_refused_write_inside_the_open_slot_changes_nothing(tmp_path):
    st_ = store("1m:1h,10m:1d", root=tmp_path)
    for t in range(600_000, 600_300, 60):  # the open 10 m slot runs to 600,600
        put(st_, t, 1.0)
    st_.flush()
    s = st_._series[S]
    table, count = bytes(s.table), st_.write_count
    for v in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(NonFiniteValue):
            put(st_, 600_300, v)  # an append the open slot would take
    with pytest.raises(TooOld):
        put(st_, 600_240 - 3_600, 1.0)  # older than the finest ring
    assert bytes(s.table) == table and st_.write_count == count and not s.dirty
    put(st_, 600_300, 2.0)
    assert bytes(s.table) != table and st_.write_count == count + 1 and s.dirty


def test_read_errors():
    st_ = store("10s:1h")
    put(st_, 60_000, 1.0)
    with pytest.raises(NoSuchSeries):
        st_.read("hpc.other", 0, 10)
    with pytest.raises(ValueError):
        st_.read(S, 100, 100)
    with pytest.raises(ValueError):
        st_.read(S, 100, 50)
    with pytest.raises(ValueError):
        st_.read(S, 1, 10**12)  # span too many slots


# -- downsampling -------------------------------------------------------------


def test_coarse_slot_is_mean_of_finest_points():
    st_ = store("10s:2m,1m:1h")
    for k, v in enumerate([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]):
        put(st_, 60_000 + 10 * k, v)
    # Read far enough back that only the coarse archive covers the start.
    interval, points = st_.read(S, 59_880, 60_060)
    assert interval == 60
    assert dict(points)[60_000] == pytest.approx(3.5, abs=0)


def test_a_coarse_slot_over_points_whose_sum_overflows_is_their_finite_mean():
    st_ = store("1m:1d,10m:2d")
    t0 = 1_609_459_200
    for k in range(30):
        put(st_, t0 + 60 * k, 1e308)
    interval, points = st_.read(S, t0 - 86_400, t0 + 1_800)  # only the 10 m archive covers the start
    assert interval == 600
    assert [p for p in points if p[1] is not None] == [(t0, 1e308), (t0 + 600, 1e308), (t0 + 1_200, 1e308)]


@pytest.mark.parametrize("n", [2, 3, 7])
def test_the_mean_of_the_largest_floats_is_the_largest_float(n):
    assert mean([sys.float_info.max] * n) == sys.float_info.max
    assert mean([-sys.float_info.max] * n) == -sys.float_info.max
    assert mean([1e308] * (n - 1) + [0.0]) == pytest.approx(1e308 / n * (n - 1))


def test_coarse_slot_needs_half_the_finest_points():
    st_ = store("10s:2m,1m:1h")
    put(st_, 60_000, 1.0)
    put(st_, 60_010, 2.0)  # 2 of 6: below half
    assert dict(st_.read(S, 59_880, 60_060)[1])[60_000] is None
    put(st_, 60_020, 3.0)  # 3 of 6: exactly half
    assert dict(st_.read(S, 59_880, 60_060)[1])[60_000] == 2.0


def test_overwrite_updates_coarse_aggregate():
    st_ = store("10s:2m,1m:1h")
    for k in range(6):
        put(st_, 60_000 + 10 * k, 1.0)
    assert dict(st_.read(S, 59_880, 60_060)[1])[60_000] == 1.0
    put(st_, 60_030, 7.0)  # replace one 1.0 with 7.0 -> mean 2.0
    assert dict(st_.read(S, 59_880, 60_060)[1])[60_000] == 2.0


def test_archive_selection_prefers_finest_that_covers_start():
    st_ = store("10s:2m,1m:1h")
    for k in range(12):
        put(st_, 60_000 + 10 * k, float(k))
    # Start within finest coverage: finest resolution.
    assert st_.read(S, 60_000, 60_120)[0] == 10
    # Start before finest coverage: falls back to the 1m archive.
    assert st_.read(S, 59_000, 60_120)[0] == 60


def test_coarse_survives_after_finest_wrapped():
    st_ = store("10s:2m,1m:1h")
    for k in range(30):  # 300 s of data; finest ring holds only 120 s
        put(st_, 60_000 + 10 * k, float(k))
    interval, points = st_.read(S, 59_000, 60_300)
    assert interval == 60
    # First minute (k = 0..5) is long gone from the finest ring but its
    # average lives on in the coarse archive.
    assert dict(points)[60_000] == pytest.approx(2.5)


# -- equivalence with the flat reference -------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_flat_reference(data):
    archives = ((10, 30), (60, 20), (300, 12))
    st_ = Store(default_retention=RetentionSpec(archives))
    ref = FlatStore(archives)
    base = data.draw(st.integers(min_value=1, max_value=10_000)) * 10
    n = data.draw(st.integers(min_value=1, max_value=120))
    t = base
    for _ in range(n):
        t += data.draw(st.integers(min_value=-40, max_value=60))
        v = data.draw(st.integers(min_value=-100, max_value=100)) / 4.0
        accepted = ref.write(t, v)
        if accepted:
            st_.write(MetricSample(S, t, v))
        else:
            with pytest.raises(TooOld):
                st_.write(MetricSample(S, t, v))
    assert_reads_match(st_, ref)


def assert_reads_match(st_, ref):
    if not ref.flat:
        assert st_.list_series() == []  # every write was refused, so there is no series to read
        return
    # (-100, 300) spans 30 finest slots, so it crosses the finest ring's wrap;
    # (-5000, 5200) starts before the coarsest ring's window and ends after latest.
    for from_off, span in [(-900, 1200), (-100, 300), (0, 200), (-3000, 3600), (-5000, 5200)]:
        from_t, to_t = ref.latest + from_off, ref.latest + from_off + span
        if from_t >= to_t or to_t <= 0:
            continue
        want_interval, want = ref.read(from_t, to_t)
        got_interval, got = st_.read(S, from_t, to_t)
        assert got_interval == want_interval
        assert len(got) == len(want)
        assert got == want
        assert st_.fetch(S, from_t, to_t) == column(want, want_interval)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_flat_reference_across_a_reopen(data):
    """Flush and reopen at a drawn point; writes after the reopen move
    back and forth just as those before it do."""
    archives = ((10, 30), (60, 20), (300, 12))
    ref = FlatStore(archives)
    base = data.draw(st.integers(min_value=1, max_value=10_000)) * 10
    n = data.draw(st.integers(min_value=1, max_value=120))
    reopen_at = data.draw(st.integers(min_value=0, max_value=n))
    with tempfile.TemporaryDirectory() as root:
        st_ = Store(root, default_retention=RetentionSpec(archives))
        t = base
        for k in range(n):
            if k == reopen_at:
                st_.flush()
                st_ = Store(root, default_retention=RetentionSpec(archives))
            t += data.draw(st.integers(min_value=-40, max_value=60))
            v = data.draw(st.integers(min_value=-100, max_value=100)) / 4.0
            if ref.write(t, v):
                st_.write(MetricSample(S, t, v))
            else:
                with pytest.raises(TooOld):
                    st_.write(MetricSample(S, t, v))
        assert_reads_match(st_, ref)


def test_backfill_after_a_reopen_is_refused_or_exact(tmp_path):
    archives = ((10, 30), (60, 20))  # finest coverage: 300 s
    ref = FlatStore(archives)
    st_ = Store(tmp_path, default_retention=RetentionSpec(archives))
    for t in range(600, 1010, 10):
        assert ref.write(t, (t % 60) / 10)
        put(st_, t, (t % 60) / 10)
    st_.flush()
    st_ = Store(tmp_path)
    # The 60 s slot at 660 starts 340 s behind latest = 1000: some of its
    # finest points have left the ring, so a write into it is refused.
    assert not ref.write(710, 100.0)
    with pytest.raises(TooOld):
        put(st_, 710, 100.0)
    # The closed slot at 900 is still whole in the finest ring.
    assert ref.write(910, 100.0)
    put(st_, 910, 100.0)
    want = ref.read(600, 1020)
    assert want[0] == 60 and dict(want[1])[900] == (0.0 + 100.0 + 2.0 + 3.0 + 4.0 + 5.0) / 6
    assert st_.read(S, 600, 1020) == want


# -- the fast append against the full path -------------------------------------

DEMO_RETENTION = "1m:14d,10m:90d,1h:2y"  # 50,640 slots, about 1.5 MB of rings per series
# The finest ring spans 1,455 minutes, a multiple of neither coarse interval,
# so some coarse slots straddle its wrap.
ODD_RETENTION = "1m:1455m,10m:90d,1h:2y"


class FullPathSeries(_Series):
    """A series whose every write walks the archives, and whose coarse slots
    are summed one finest slot at a time."""

    __slots__ = ()
    _consolidate = per_slot_consolidate

    def write(self, t, v):
        self.open_end = 0  # no write is an append inside the open coarse slots
        super().write(t, v)


def draw_write(data, latest, coverage):
    """A write time relative to the newest written slot, or the first write."""
    if not latest:
        return data.draw(st.integers(1, 3)) * coverage - data.draw(st.integers(1, 3_600))  # within an hour of a wrap
    kind = data.draw(st.sampled_from(["append", "append", "append", "repeat", "backfill", "too old", "leap"]))
    if kind == "append":  # many in a row cross 10 m and 1 h edges and the finest wrap
        return latest + data.draw(st.integers(60, 240))
    if kind == "repeat":
        return latest + data.draw(st.integers(0, 59))
    if kind == "backfill":
        return latest - data.draw(st.integers(1, coverage))
    if kind == "too old":
        return latest - data.draw(st.integers(coverage, 2 * coverage))
    return latest + data.draw(st.integers(3_600, coverage + 7_200))


@pytest.mark.parametrize("retention", [DEMO_RETENTION, ODD_RETENTION])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fast_append_leaves_the_bytes_of_the_full_path(retention, data):
    """After every write the series' slot table is byte for byte that of a
    series that always takes the full path, and both refuse the same writes.
    A flush and reopen at a drawn point makes the first touch set the bound."""
    retention = parse_retention(retention)
    interval, points = retention.archives[0]
    ref = FullPathSeries(retention)
    n = data.draw(st.integers(1, 120))
    reopen_at = data.draw(st.integers(1, n))
    with tempfile.TemporaryDirectory() as root:
        st_ = Store(root, default_retention=retention)
        for k in range(n):
            if k == reopen_at:
                st_.flush()
                for ar in ref.archives[1:]:  # the flush consolidates the open slots
                    per_slot_consolidate(ref, ar, ar.align(ref.latest))
                st_ = Store(root)
            t = draw_write(data, ref.latest, interval * points)
            v = data.draw(st.floats(-1e6, 1e6))
            try:
                ref.write(t, v)
            except TooOld:
                with pytest.raises(TooOld):
                    put(st_, t, v)
            else:
                put(st_, t, v)
            s = st_._series[S]
            assert s.latest == ref.latest
            assert bytes(s.table) == bytes(ref.table)


def test_the_coarse_slot_at_the_epoch_counts_no_point_at_t_0():
    """Position 0 of the finest ring holds stamp 0 while it is empty, which is
    the time of the first finest slot under the coarse slot at t = 0."""
    retention = RetentionSpec(((10, 12), (60, 60)))
    st_ = Store(default_retention=retention)
    ref = FullPathSeries(retention)
    for t in range(10, 130, 10):  # the write at 60 closes the coarse slot at 0
        put(st_, t, t / 10)
        ref.write(t, t / 10)
        assert bytes(st_._series[S].table) == bytes(ref.table)


def test_first_append_after_a_reopen_closes_the_10m_slot(tmp_path):
    """The newest write before the flush sits just before a 10 m edge that is
    not an hour edge. After the reopen the newest slot is rewritten, and the
    first write past the edge must close the 10 m slot with the new point."""
    edge = 1_609_459_200 + 5 * 3_600 + 1_200
    with Store(tmp_path, default_retention=DEMO_RETENTION) as st_:
        for k in range(10):
            put(st_, edge - 600 + 60 * k, float(k))
    again = Store(tmp_path)
    put(again, edge - 60, 100.0)  # the newest slot: an append inside every open coarse slot
    put(again, edge, 0.0)
    interval, points = again.read(S, edge - 20 * 86_400, edge + 1)  # before the finest coverage: the 10 m archive
    assert interval == 600
    assert dict(points)[edge - 600] == (0.0 + 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8 + 100) / 10


# -- reads at the ring's edges, against the per-slot walk ------------------------

RING = RetentionSpec(((10, 30), (60, 20)))  # the finest ring holds 300 s, the coarse one 1,200 s


def read_as_per_slot(st_, from_t, to_t):
    got = st_.read(S, from_t, to_t)
    assert got == per_slot_read(st_, S, from_t, to_t)
    assert st_.fetch(S, from_t, to_t) == column(got[1], got[0])
    return got


def test_the_oracles_take_the_finite_mean_where_a_sum_overflows():
    st_, ref, full = store(RING), FlatStore(RING.archives), FullPathSeries(RING)
    for k, t in enumerate(range(1000, 1500, 10)):
        v = -1e308 if k % 3 == 2 else 1e308  # the oldest-first sum of each full 60 s slot overflows
        assert ref.write(t, v)
        put(st_, t, v)
        full.write(t, v)
    assert bytes(st_._series[S].table) == bytes(full.table)
    assert_reads_match(st_, ref)
    interval, points = st_.read(S, 1000, 1500)
    assert interval == 60 and dict(points)[1020] == 1e308 / 3


def test_read_across_the_finest_ring_wrap():
    st_ = store(RING)
    for t in range(1000, 1450, 10):  # 45 slots into a ring of 30
        put(st_, t, t / 10)
    # 1150..1190 sit at the ring's last five positions, 1200 at its first.
    interval, points = read_as_per_slot(st_, 1150, 1300)
    assert interval == 10
    assert points == [(t, t / 10) for t in range(1150, 1300, 10)]


def test_read_from_before_the_ring_window_reads_slid_out_slots_as_none():
    st_ = store(RING)
    for t in range(1000, 1500, 10):
        put(st_, t, 1.0)
    put(st_, 2400, 2.0)  # the coarse window now starts after 1200
    coarse = st_._series[S].archives[1]
    interval, points = read_as_per_slot(st_, 1000, 2460)
    assert interval == 60
    values = dict(points)
    # Nothing newer claimed the positions of 1020..1140, so their stamps are
    # still in the ring, but the window has slid past them.
    assert {1020, 1080, 1140} <= set(coarse.ts.tolist())
    assert all(values[t] is None for t in range(960, 1260, 60))
    assert [values[t] for t in range(1260, 1500, 60)] == [1.0] * 4
    assert all(values[t] is None for t in range(1500, 2460, 60))


def test_read_reaching_past_latest_reads_none_there():
    st_ = store(RING)
    for t in range(1000, 1450, 10):
        put(st_, t, t / 10)
    # From the oldest finest slot to ten rings past the newest one.
    interval, points = read_as_per_slot(st_, 1150, 1440 + 3000)
    assert interval == 10
    assert points[:30] == [(t, t / 10) for t in range(1150, 1450, 10)]
    assert points[30:] == [(t, None) for t in range(1450, 4440, 10)]


def test_read_from_a_coarse_archive_includes_its_open_slot():
    st_ = store(RING)
    for t in range(1000, 1620, 10):
        put(st_, t, float(t % 60))
    # The coarse slot at 1560 holds 1560..1610: all six finest points, still open.
    interval, points = read_as_per_slot(st_, 1000, 1620)
    assert interval == 60
    assert points[-1] == (1560, (0 + 10 + 20 + 30 + 40 + 50) / 6)
    assert points[0] == (960, None)  # 1000..1010 is two finest points of six


def test_read_after_a_reopen_matches_the_per_slot_walk(tmp_path):
    with store(RING, tmp_path) as st_:
        for t in range(1000, 2000, 10):
            put(st_, t, t / 10)
        before = [st_.read(S, *w) for w in ((1700, 2000), (1000, 2100))]
    again = Store(tmp_path)
    assert [read_as_per_slot(again, *w) for w in ((1700, 2000), (1000, 2100))] == before


# -- persistence --------------------------------------------------------------


def test_flush_and_reload_round_trip(tmp_path):
    st_ = store("10s:2m,1m:1h", root=tmp_path)
    for k in range(9):
        put(st_, 60_000 + 10 * k, float(k))
    st_.write(MetricSample("hpc.other.svc.k", 60_000, 42.0))
    assert st_.flush() == 2
    assert st_.flush() == 0  # nothing dirty anymore

    again = Store(tmp_path)
    assert again.list_series() == ["hpc.host.svc.key", "hpc.other.svc.k"]
    for name, latest in ((S, 60_080), ("hpc.other.svc.k", 60_000)):
        reads = archive_reads(again, name, latest, "10s:2m,1m:1h")
        assert [interval for interval, _ in reads] == [10, 60]
        assert reads == archive_reads(st_, name, latest, "10s:2m,1m:1h")
    assert again.read(S, 60_000, 60_090) == st_.read(S, 60_000, 60_090)
    assert again.read(S, 59_000, 60_090) == st_.read(S, 59_000, 60_090)


def test_reloaded_store_keeps_aggregating(tmp_path):
    st_ = store("10s:2m,1m:1h", root=tmp_path)
    for k in range(3):
        put(st_, 60_000 + 10 * k, 1.0)
    st_.close()

    again = Store(tmp_path)
    for k in range(3, 6):
        again.write(MetricSample(S, 60_000 + 10 * k, 4.0))
    assert dict(again.read(S, 59_880, 60_060)[1])[60_000] == pytest.approx(2.5)


def test_context_manager_flushes(tmp_path):
    with Store(tmp_path, default_retention="10s:1h") as st_:
        st_.write(MetricSample(S, 60_000, 1.0))
    assert Store(tmp_path).read(S, 60_000, 60_010)[1] == [(60_000, 1.0)]


def test_unreadable_series_file_is_skipped(tmp_path):
    with Store(tmp_path, default_retention="10s:1h") as st_:
        st_.write(MetricSample(S, 60_000, 1.0))
    junk = tmp_path / "hpc" / "broken.dat"
    junk.write_bytes(b"not a series file")
    again = Store(tmp_path)
    assert again.list_series() == [S]  # junk skipped, good data intact


@pytest.mark.parametrize("mangle", [
    lambda blob: blob[:-16],
    lambda blob: blob[: 8 + 2 * 8],
    lambda blob: blob + b"\0",
    lambda blob: struct.pack("<4sHHII", b"GWTS", 1, 1, 10, 1_000_000) + bytes(32),
], ids=["short-by-one-slot", "header-and-table-only", "trailing-byte", "48-bytes-claiming-1m-slots"])
def test_series_file_whose_length_disagrees_with_its_header_is_skipped(tmp_path, caplog, mangle):
    with Store(tmp_path, default_retention="10s:2m,1m:1h") as st_:
        put(st_, 60_000, 1.0)
        st_.write(MetricSample("hpc.bad.svc.k", 60_000, 2.0))
    bad = tmp_path / "hpc" / "bad" / "svc" / "k.dat"
    bad.write_bytes(mangle(bad.read_bytes()))
    with caplog.at_level(logging.WARNING, logger="gridwatch.tsdb"):
        again = Store(tmp_path)
    assert again.list_series() == [S]
    assert again.read(S, 60_000, 60_010)[1] == [(60_000, 1.0)]
    assert "skipping unreadable series file" in caplog.text
    assert str(bad) in caplog.text


@pytest.mark.parametrize("spoil", [
    lambda path: path.write_bytes(path.read_bytes()[:-16]),
    lambda path: path.unlink(),
], ids=["truncated", "removed"])
def test_series_file_spoiled_between_open_and_first_touch_is_dropped(tmp_path, caplog, spoil):
    with Store(tmp_path, default_retention="10s:2m,1m:1h") as st_:
        put(st_, 60_000, 1.0)
    path = tmp_path / "hpc" / "host" / "svc" / "key.dat"
    again = Store(tmp_path, default_retention="10s:2m,1m:1h")
    assert again.list_series() == [S]
    spoil(path)
    with caplog.at_level(logging.WARNING, logger="gridwatch.tsdb"):
        with pytest.raises(NoSuchSeries):
            again.read(S, 60_000, 60_010)
    assert "skipping unreadable series file" in caplog.text
    assert str(path) in caplog.text
    assert again.list_series() == []
    put(again, 60_010, 2.0)  # a fresh series, whose flush replaces the file
    assert again.flush() == 1
    assert Store(tmp_path).read(S, 60_000, 60_020)[1] == [(60_000, None), (60_010, 2.0)]


def test_first_touch_reads_a_file_another_store_replaced_after_the_open(tmp_path):
    with Store(tmp_path, default_retention="10s:2m,1m:1h") as st_:
        put(st_, 60_000, 1.0)
    reader = Store(tmp_path)
    with Store(tmp_path) as writer:
        put(writer, 60_010, 2.0)  # flushed through a temp file and a rename
    assert reader.read(S, 60_000, 60_020)[1] == [(60_000, 1.0), (60_010, 2.0)]


def test_a_file_backed_store_refuses_to_open_on_a_big_endian_host(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "byteorder", "big")
    with pytest.raises(OSError, match="little-endian"):
        Store(tmp_path / "store")
    assert not (tmp_path / "store").exists()
    in_memory = store("10s:1h")  # holds no file, so its byte order is its own
    put(in_memory, 60_000, 1.0)
    assert in_memory.read(S, 60_000, 60_010)[1] == [(60_000, 1.0)]


def test_list_series_prefix_lists_loaded_and_unloaded_names_alike(tmp_path):
    with Store(tmp_path, default_retention="10s:1h") as st_:
        for name in ("hpc.a.s.k", "hpc.b.s.k", "other.c.s.k"):
            st_.write(MetricSample(name, 60_000, 1.0))
    again = Store(tmp_path, default_retention="10s:1h")
    again.read("hpc.b.s.k", 60_000, 60_010)
    again.write(MetricSample("hpc.d.s.k", 60_000, 1.0))
    assert sorted(again._series) == ["hpc.b.s.k", "hpc.d.s.k"]  # the others are listed, not read
    assert again.list_series("hpc.") == ["hpc.a.s.k", "hpc.b.s.k", "hpc.d.s.k"]
    assert again.list_series("other.") == ["other.c.s.k"]
    assert again.list_series() == ["hpc.a.s.k", "hpc.b.s.k", "hpc.d.s.k", "other.c.s.k"]


def test_write_count_and_list_series_prefix():
    st_ = Store(default_retention="10s:1h")
    st_.write(MetricSample("hpc.a.s.k", 60_000, 1.0))
    st_.write(MetricSample("hpc.b.s.k", 60_000, 1.0))
    st_.write(MetricSample("other.c.s.k", 60_000, 1.0))
    assert st_.write_count == 3
    assert st_.list_series("hpc.") == ["hpc.a.s.k", "hpc.b.s.k"]
    assert st_.flush() == 0  # in-memory store has nowhere to flush


def test_reopened_series_keeps_its_file_retention(tmp_path):
    with Store(tmp_path, default_retention="5s:1m") as st_:
        put(st_, 60_000, 1.0)
    size = (tmp_path / "hpc" / "host" / "svc" / "key.dat").stat().st_size
    with Store(tmp_path, default_retention="30s:1h") as again:
        put(again, 60_005, 2.0)  # a 30 s slot would take this over the first point
        assert again.list_series() == [S]
        assert again.read(S, 60_000, 60_010) == (5, [(60_000, 1.0), (60_005, 2.0)])
    assert (tmp_path / "hpc" / "host" / "svc" / "key.dat").stat().st_size == size


def test_mean_preservation_on_randomized_full_slots():
    rng = random.Random(4)
    archives = ((10, 60), (60, 30))
    st_ = Store(default_retention=RetentionSpec(archives))
    ref = FlatStore(archives)
    t = 6_000
    for _ in range(300):
        t += rng.choice([10, 10, 10, 20])
        v = rng.uniform(-50, 50)
        if ref.write(t, v):
            st_.write(MetricSample(S, t, v))
    interval, points = st_.read(S, ref.latest - 1700, ref.latest - 500)
    assert interval == 60
    checked = 0
    for slot_t, got in points:
        members = ref.coarse_members(60, slot_t)
        if len(members) == 6 and got is not None:
            assert got == pytest.approx(sum(members) / 6.0, rel=1e-12)
            checked += 1
    assert checked > 0


# -- memory -----------------------------------------------------------------------


def vm_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024
    raise AssertionError("no VmRSS line in /proc/self/status")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc/self/status")
def test_a_day_in_each_of_100_series_costs_memory_only_where_written():
    before = vm_rss_mb()
    st_ = Store(default_retention=DEMO_RETENTION)
    names = [f"hpc.host{k}.svc.key" for k in range(100)]
    for name in names:
        for minute in range(1440):
            st_.write(MetricSample(name, 86_400 + 60 * minute, float(minute % 7)))
    grown = vm_rss_mb() - before
    assert st_.read(names[-1], 86_400, 86_520)[1] == [(86_400, 0.0), (86_460, 1.0)]
    # Every ring whole would be about 150 MB; a day of minutes touches well under a tenth.
    assert grown < 30, f"VmRSS grew {grown:.1f} MB"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc/self/status")
def test_reopening_100_full_series_and_reading_2_costs_memory_only_for_the_2(tmp_path):
    last = 86_400 + 60 * 20_159  # 20,160 minutes fill the one-minute ring
    with Store(tmp_path / "one", default_retention=DEMO_RETENTION) as st_:
        for t in range(86_400, last + 60, 60):
            put(st_, t, float(t % 7))
    blob = (tmp_path / "one" / "hpc" / "host" / "svc" / "key.dat").read_bytes()
    root = tmp_path / "many"
    names = [f"hpc.host{k}.svc.key" for k in range(100)]
    for name in names:
        path = root.joinpath(*name.split(".")[:-1], "key.dat")
        path.parent.mkdir(parents=True)
        path.write_bytes(blob)
    del blob
    before = vm_rss_mb()
    again = Store(root)
    for name in (names[0], names[-1]):
        assert again.read(name, last, last + 60)[1] == [(last, float(last % 7))]
    grown = vm_rss_mb() - before
    assert again.list_series() == sorted(names)
    # Every file read in would be about 80 MB; two series are under 2 MB.
    assert grown < 10, f"VmRSS grew {grown:.1f} MB"


def test_store_reopened_from_disk_reads_back_every_slot_and_flushes_identical_files(tmp_path):
    rng = random.Random(7)
    first = tmp_path / "first"
    latest = {}
    with Store(first, default_retention=DEMO_RETENTION) as st_:
        for name in ("hpc.a.svc.key", "hpc.b.svc.key", "hpc.c.other.k"):
            t = 86_400
            for _ in range(1500):
                t += rng.choice([60, 60, 60, 120, 600])
                st_.write(MetricSample(name, t, rng.uniform(-1e6, 1e6)))
            latest[name] = t
        snapshot = {name: archive_reads(st_, name, t, DEMO_RETENTION) for name, t in latest.items()}

    second = tmp_path / "second"
    shutil.copytree(first, second)
    again = Store(second)
    assert again.list_series() == sorted(latest)
    for name, t in latest.items():
        assert archive_reads(again, name, t, DEMO_RETENTION) == snapshot[name], name
    for s in again._series.values():
        s.dirty = True
    assert again.flush() == 3
    originals = sorted(first.rglob("*.dat"))
    assert [p.relative_to(first) for p in originals] == [p.relative_to(second) for p in sorted(second.rglob("*.dat"))]
    for path in originals:
        assert (second / path.relative_to(first)).read_bytes() == path.read_bytes(), path
