"""Availability math, dip detection, the contractual report and its HTTP API."""

import json
import random
import urllib.error
import urllib.request

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridwatch.model import MetricSample
from gridwatch.report import (
    ApiServer,
    AvailabilityReport,
    Breach,
    EmptyWindow,
    ReportConfig,
    TooFewPoints,
    _number_text,
    _series_json,
    availability,
    contractual_report,
    detect_dips,
)
from gridwatch.tsdb import Store, pairs
from reference_impls import column, per_second_availability, per_slot_availability, series_body, serving

UP = 1.0
DOWN = 0.0
T0 = 1_000_000_000 - 1_000_000_000 % 60  # minute-aligned epoch base


def slots(*values, t0=T0, interval=60):
    return [(t0 + i * interval, v) for i, v in enumerate(values)]


def is_up(v):
    return v >= 0.5


# -- availability --------------------------------------------------------------


def test_availability_simple_fraction():
    # 24h window at 1m resolution, 36 minutes down -> 97.5%
    values = [UP] * 1440
    for i in range(100, 136):
        values[i] = DOWN
    points = slots(*values)
    got = availability(column(points, 60), is_up, (T0, T0 + 86_400))
    assert got.pct == pytest.approx(97.5, abs=1e-12)
    assert got.up_s == 86_400 - 36 * 60
    assert got.data_s == got.window_s == 86_400
    assert got.breaches == [Breach(T0 + 100 * 60, T0 + 136 * 60, "below-threshold")]


def test_availability_counts_partial_edge_slots():
    points = slots(UP, DOWN, UP)
    # Window starts 30s into the first slot and ends 30s into the last.
    got = availability(column(points, 60), is_up, (T0 + 30, T0 + 150))
    assert got.window_s == 120
    assert got.up_s == 60  # 30s head + 30s tail
    assert got.pct == pytest.approx(50.0)
    assert got.breaches == [Breach(T0 + 60, T0 + 120, "below-threshold")]


def test_availability_gap_handling_modes():
    points = slots(UP, None, None, UP)
    window = (T0, T0 + 240)
    excl = availability(column(points, 60), is_up, window, staleness_s=600)
    assert excl.pct == pytest.approx(100.0)
    assert excl.data_s == 120 and excl.window_s == 240
    assert excl.breaches == []  # 120s gap is within the 600s staleness allowance
    down = availability(column(points, 60), is_up, window, staleness_s=600, gaps_as_down=True)
    assert down.pct == pytest.approx(50.0)


def test_availability_long_gap_becomes_breach():
    points = slots(UP, *([None] * 11), UP)
    got = availability(column(points, 60), is_up, (T0, T0 + 13 * 60), staleness_s=600)
    assert got.breaches == [Breach(T0 + 60, T0 + 12 * 60, "no-data")]
    # Exactly at the staleness limit: not a breach.
    points = slots(UP, *([None] * 10), UP)
    got = availability(column(points, 60), is_up, (T0, T0 + 12 * 60), staleness_s=600)
    assert got.breaches == []


def test_availability_custom_breach_kinds_and_order():
    points = slots(DOWN, *([None] * 11), UP)
    got = availability(
        column(points, 60), is_up, (T0, T0 + 13 * 60),
        staleness_s=600, violation_kind="login-down", gap_kind="login-no-data",
    )
    assert [b.kind for b in got.breaches] == ["login-down", "login-no-data"]
    assert got.breaches == sorted(got.breaches, key=lambda b: (b.start_t, b.kind))


def test_availability_empty_and_bad_windows():
    with pytest.raises(EmptyWindow):
        availability(column(slots(None, None), 60), is_up, (T0, T0 + 120))
    with pytest.raises(ValueError):
        availability(column(slots(UP), 60), is_up, (T0 + 60, T0))


def test_availability_complement_sums_to_hundred_when_fully_populated():
    rng = random.Random(1)
    values = [rng.choice([UP, DOWN]) for _ in range(200)]
    points = slots(*values)
    window = (T0, T0 + 200 * 60)
    a = availability(column(points, 60), is_up, window).pct
    b = availability(column(points, 60), lambda v: not is_up(v), window).pct
    assert a + b == pytest.approx(100.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_availability_matches_per_second_reference(data):
    n = data.draw(st.integers(min_value=2, max_value=120))
    values = data.draw(
        st.lists(st.sampled_from([UP, DOWN, None]), min_size=n, max_size=n)
    )
    points = slots(*values)
    base, end = T0, T0 + n * 60
    from_t = data.draw(st.integers(min_value=base, max_value=end - 1))
    to_t = data.draw(st.integers(min_value=from_t + 1, max_value=end))
    gaps_as_down = data.draw(st.booleans())
    want = per_second_availability(points, is_up, (from_t, to_t), 60, gaps_as_down)
    if want is None:
        with pytest.raises(EmptyWindow):
            availability(column(points, 60), is_up, (from_t, to_t), gaps_as_down=gaps_as_down)
        return
    got = availability(column(points, 60), is_up, (from_t, to_t), gaps_as_down=gaps_as_down)
    assert got.pct == pytest.approx(want, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_availability_matches_per_slot_reference(data):
    runs = data.draw(
        st.lists(st.tuples(st.sampled_from([UP, DOWN, None]), st.integers(min_value=1, max_value=15)),
                 min_size=1, max_size=10)
    )
    values = [v for v, length in runs for _ in range(length)]
    points = slots(*values)
    end = T0 + 60 * len(values)
    # Windows may start or end inside a slot, or reach past either end of the points.
    from_t = data.draw(st.integers(min_value=T0 - 90, max_value=end - 1))
    to_t = data.draw(st.integers(min_value=from_t + 1, max_value=end + 90))
    gaps = [60 * length for v, length in runs if v is None]
    if gaps:  # just above, at or just below the length of some absent run
        staleness_s = data.draw(st.sampled_from(gaps)) + data.draw(st.sampled_from([-1, -0.5, 0, 0.5, 1]))
    else:
        staleness_s = data.draw(st.floats(min_value=0, max_value=1200))
    kwargs = dict(staleness_s=staleness_s, gaps_as_down=data.draw(st.booleans()),
                  violation_kind="login-down", gap_kind="login-no-data")
    try:
        want = per_slot_availability(points, is_up, (from_t, to_t), 60, **kwargs)
    except EmptyWindow:
        with pytest.raises(EmptyWindow):
            availability(column(points, 60), is_up, (from_t, to_t), **kwargs)
        return
    assert availability(column(points, 60), is_up, (from_t, to_t), **kwargs) == want


# -- dip detection ---------------------------------------------------------------


def test_detect_dips_finds_a_simple_dip():
    values = [4000.0] * 20 + [2000.0] * 3 + [4000.0] * 10
    events = detect_dips(slots(*values))
    assert len(events) == 1
    e = events[0]
    assert e.start_t == T0 + 20 * 60
    assert e.end_t == T0 + 22 * 60
    assert e.baseline_w == pytest.approx(4000.0)
    assert e.min_w == pytest.approx(2000.0)
    assert e.depth_fraction == pytest.approx(0.5)


def test_detect_dips_ignores_shallow_noise():
    values = [4000.0, 4100.0, 3900.0, 4050.0] * 10  # within 30% of the median
    assert detect_dips(slots(*values)) == []


def test_detect_dips_monotone_ramp_is_not_a_dip():
    values = [4000.0 - 10 * i for i in range(60)]
    assert detect_dips(slots(*values)) == []


def test_detect_dips_long_drop_is_a_load_change():
    values = [4000.0] * 15 + [1000.0] * 61 + [4000.0] * 5
    assert detect_dips(slots(*values)) == []  # 61 points: absorbed into the baseline
    values = [4000.0] * 15 + [1000.0] * 60 + [4000.0] * 5
    events = detect_dips(slots(*values))  # 60 points: still a dip
    assert [(e.start_t, e.end_t) for e in events] == [(T0 + 15 * 60, T0 + 74 * 60)]


def test_detect_dips_baseline_freezes_at_open():
    # The dip's own samples must not drag the baseline down mid-run.
    values = [4000.0] * 15 + [2000.0, 1500.0, 1800.0] + [4000.0] * 10
    events = detect_dips(slots(*values))
    assert len(events) == 1
    assert events[0].baseline_w == pytest.approx(4000.0)
    assert events[0].min_w == pytest.approx(1500.0)


def test_detect_dips_multiple_disjoint_events():
    block = [4000.0] * 15
    values = block + [2000.0] * 2 + block + [1000.0] * 3 + block
    events = detect_dips(slots(*values))
    assert len(events) == 2
    assert events[0].end_t < events[1].start_t
    assert events[1].depth_fraction == pytest.approx(0.75)


def test_detect_dips_skips_absent_slots():
    values = [4000.0] * 15 + [None] * 5 + [2000.0] * 2 + [4000.0] * 5
    events = detect_dips(slots(*values))
    assert len(events) == 1
    assert events[0].min_w == pytest.approx(2000.0)


def test_detect_dips_needs_enough_points():
    with pytest.raises(TooFewPoints):
        detect_dips(slots(*[4000.0] * 12))
    detect_dips(slots(*[4000.0] * 13))  # 13th point seeds the scan


def test_detect_dips_still_open_at_end_of_series():
    values = [4000.0] * 15 + [2000.0] * 2
    events = detect_dips(slots(*values))
    assert len(events) == 1
    assert events[0].end_t == T0 + 16 * 60


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_detect_dips_events_are_disjoint_and_below_bound(data):
    n = data.draw(st.integers(min_value=20, max_value=100))
    values = data.draw(
        st.lists(st.floats(min_value=100.0, max_value=5000.0), min_size=n, max_size=n)
    )
    events = detect_dips(slots(*values))
    for a, b in zip(events, events[1:]):
        assert a.end_t < b.start_t
    for e in events:
        assert e.min_w < e.baseline_w
        assert 0.0 < e.depth_fraction <= 1.0


# -- the contractual report --------------------------------------------------------


def build_store(node_values, login_values, interval=60):
    store = Store(default_retention=f"{interval}s:1d")
    for i, v in enumerate(node_values):
        if v is not None:
            store.write(MetricSample("hpc.node_cluster.node_state.avail_standard", T0 + i * interval, v))
    for i, v in enumerate(login_values):
        if v is not None:
            store.write(MetricSample("hpc.login_cluster.login.login_up", T0 + i * interval, v))
    return store


CFG = ReportConfig(
    node_series="hpc.node_cluster.node_state.avail_standard",
    login_series="hpc.login_cluster.login.login_up",
    threshold_nodes=481.0,
)


def test_contractual_report_combines_node_and_login_views():
    node = [512.0] * 30 + [470.0] * 6 + [512.0] * 24
    login = [UP] * 40 + [DOWN] * 3 + [UP] * 17
    store = build_store(node, login)
    window = (T0, T0 + 3600)
    report = contractual_report(store, CFG, window)
    assert report.node_availability_pct == pytest.approx(90.0)
    assert report.login_availability_pct == pytest.approx(95.0)
    assert [b.kind for b in report.breaches] == ["node-below-threshold", "login-down"]
    assert report.breaches[0].start_t == T0 + 30 * 60
    assert report.breaches == sorted(report.breaches, key=lambda b: (b.start_t, b.kind))


def test_contractual_report_flags_gaps_per_series():
    node = [512.0] * 60
    login = [UP] * 10 + [None] * 15 + [UP] * 35
    store = build_store(node, login)
    report = contractual_report(store, CFG, (T0, T0 + 3600))
    assert [b.kind for b in report.breaches] == ["login-no-data"]
    assert report.login_availability_pct == pytest.approx(100.0)  # gaps excluded by default
    strict = contractual_report(
        store,
        ReportConfig(CFG.node_series, CFG.login_series, CFG.threshold_nodes, gaps_as_down=True),
        (T0, T0 + 3600),
    )
    assert strict.login_availability_pct == pytest.approx(100.0 * 45 / 60)


def test_report_json_is_canonical():
    report = AvailabilityReport(
        from_t=1, to_t=2, node_series="n", threshold_nodes=481.0,
        node_availability_pct=99.5, login_availability_pct=100.0,
        breaches=[Breach(5, 9, "node-no-data")],
    )
    text = report.to_json()
    assert text == (
        '{"breaches":[[5,9,"node-no-data"]],"from":1,'
        '"login_availability_pct":100.0,"node_availability_pct":99.5,'
        '"node_series":"n","threshold_nodes":481.0,"to":2}'
    )
    assert json.loads(text)["breaches"] == [[5, 9, "node-no-data"]]


# -- the HTTP API ---------------------------------------------------------------


def fetch(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=5) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


@pytest.fixture()
def api():
    node = [512.0] * 30 + [470.0] * 6 + [512.0] * 24
    login = [UP] * 60
    store = build_store(node, login)
    server = ApiServer(("127.0.0.1", 0), store, CFG)
    with serving(server):
        yield f"http://127.0.0.1:{server.address[1]}", store


def test_api_health(api):
    base, _ = api
    status, body = fetch(base, "/api/v1/health")
    assert status == 200
    assert json.loads(body) == {"status": "ok"}


def test_api_series_round_trip(api):
    base, store = api
    path = f"/api/v1/series/hpc.login_cluster.login.login_up?from={T0}&to={T0 + 300}"
    status, body = fetch(base, path)
    assert status == 200
    doc = json.loads(body)
    interval, points = store.read("hpc.login_cluster.login.login_up", T0, T0 + 300)
    assert doc["interval"] == interval
    assert doc["points"] == [[t, v] for t, v in points]
    assert doc["series"] == "hpc.login_cluster.login.login_up"


def test_api_series_preserves_gaps_as_nulls(api):
    base, store = api
    store.write(MetricSample("hpc.x.y.z", T0, 1.0))
    store.write(MetricSample("hpc.x.y.z", T0 + 120, 2.0))
    status, body = fetch(base, f"/api/v1/series/hpc.x.y.z?from={T0}&to={T0 + 180}")
    assert json.loads(body)["points"] == [[T0, 1.0], [T0 + 60, None], [T0 + 120, 2.0]]


def test_api_series_body_is_json_where_the_sum_of_its_points_overflows():
    store = Store(default_retention="1m:1d,10m:2d")
    t0 = 1_609_459_200
    for k in range(30):
        store.write(MetricSample("hpc.x.y.z", t0 + 60 * k, 1e308))
    server = ApiServer(("127.0.0.1", 0), store)
    with serving(server):
        path = f"/api/v1/series/hpc.x.y.z?from={t0 - 86_400}&to={t0 + 1_800}"
        status, body = fetch(f"http://127.0.0.1:{server.address[1]}", path)
    assert status == 200

    def refuse(constant):
        raise AssertionError(f"{constant} is not JSON")

    points = json.loads(body, parse_constant=refuse)["points"]
    assert [p for p in points if p[1] is not None] == [[t0, 1e308], [t0 + 600, 1e308], [t0 + 1_200, 1e308]]


def test_api_report_matches_library_byte_for_byte(api):
    base, store = api
    window = (T0, T0 + 3600)
    status, body = fetch(base, f"/api/v1/report?from={window[0]}&to={window[1]}")
    assert status == 200
    assert body == contractual_report(store, CFG, window).to_json().encode("utf-8")


def test_api_series_bodies_match_json_dumps_byte_for_byte(api, monkeypatch):
    base, store = api
    name = "hpc.admin.power.system"
    # Gaps, an integer-valued float, 17-digit floats, a subnormal, 1e16, and 0.0 before -0.0.
    values = [512.0, None, 0.30000000000000004, 123456.78901234567, 0.0, None, -0.0, 1e16, 5e-324, 0.0]
    for i, v in enumerate(values):
        if v is not None:
            store.write(MetricSample(name, T0 + i * 60, v))
    store_fetch, reads = store.fetch, []
    monkeypatch.setattr(store, "fetch", lambda *args: reads.append(args) or store_fetch(*args))
    windows = [(T0, T0 + 60 * len(values)), (T0 - 600, T0 + 3600), (T0 + 360, T0 + 361)]
    for _ in range(2):  # the second pass finds every value's text already made
        for series in (name, CFG.node_series, CFG.login_series):
            for from_t, to_t in windows:
                reads.clear()
                status, body = fetch(base, f"/api/v1/series/{series}?from={from_t}&to={to_t}")
                assert status == 200
                assert reads == [(series, from_t, to_t)]  # one store read per request
                assert body == series_body(series, *store.read(series, from_t, to_t)).encode()


_SERIES_VALUES = st.one_of(
    st.none(),
    st.sampled_from([0.0, -0.0]),
    st.floats(),  # NaN, infinities and subnormals included
    st.floats(min_value=1e16),
    st.floats(max_value=-1e16),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
)


@settings(max_examples=300, deadline=None)
@given(
    name=st.one_of(st.text(), st.sampled_from(['a"b', "a\\b", 'q"\\"\\', "pow\u00e9r.\u2603.\U0001d11e"])),
    start=st.integers(min_value=0, max_value=2**40),
    interval=st.integers(min_value=1, max_value=10**7),
    values=st.lists(_SERIES_VALUES, max_size=40),
)
@example(name="z", start=60, interval=60, values=[0.0, -0.0, 0.0])
@example(name="z", start=60, interval=60, values=[-0.0, 0.0, -0.0])
@example(name="z", start=60, interval=60, values=[float("nan"), float("inf"), float("-inf")])
@example(name="z", start=60, interval=60, values=[])
def test_series_json_matches_json_dumps(name, start, interval, values):
    assert _series_json(name, start, interval, values) == series_body(name, interval, pairs((start, interval, values)))


def test_series_json_value_memo_is_bounded_and_stays_correct_past_it():
    maxsize = _number_text.cache_info().maxsize
    assert maxsize is not None
    early = [1000.0 + i / 7 for i in range(100)] + [0.0, -0.0]
    want = series_body("early", 60, pairs((T0, 60, early)))
    assert _series_json("early", T0, 60, early) == want
    flood = [1e6 + i / 3 for i in range(maxsize + 1000)]
    assert _series_json("flood", T0, 60, flood) == series_body("flood", 60, pairs((T0, 60, flood)))
    assert _number_text.cache_info().currsize == maxsize
    assert _series_json("early", T0, 60, early) == want


def test_api_identical_requests_get_identical_bodies(api):
    base, _ = api
    path = f"/api/v1/report?from={T0}&to={T0 + 3600}"
    assert fetch(base, path) == fetch(base, path)


def test_api_unknown_series_is_404(api):
    base, _ = api
    status, body = fetch(base, f"/api/v1/series/hpc.no.such.series?from={T0}&to={T0 + 60}")
    assert status == 404
    assert "no such series" in json.loads(body)["error"]


def test_api_unknown_path_is_404(api):
    base, _ = api
    assert fetch(base, "/api/v2/nope")[0] == 404
    assert fetch(base, "/")[0] == 404


@pytest.mark.parametrize("query", [
    "",                      # missing both
    "?from=1",               # missing to
    "?from=abc&to=5",        # non-integer
    "?from=9&to=9",          # empty window
    "?from=10&to=5",         # inverted window
])
def test_api_bad_queries_are_400(api, query):
    base, _ = api
    status, body = fetch(base, f"/api/v1/series/hpc.x.y.z{query}")
    assert status == 400
    assert "error" in json.loads(body)


def test_api_window_too_long_to_read_is_400(api):
    base, _ = api
    for path in ("/api/v1/series/hpc.node_cluster.node_state.avail_standard", "/api/v1/report"):
        status, body = fetch(base, f"{path}?from=0&to=1000000000000")
        assert status == 400, path
        assert "too many slots" in json.loads(body)["error"]


def test_api_report_window_without_data_is_404(api):
    base, _ = api
    far = T0 + 10_000_000
    status, body = fetch(base, f"/api/v1/report?from={far}&to={far + 600}")
    assert status == 404
    assert "no populated slots" in json.loads(body)["error"]


def test_api_without_report_config_says_so():
    store = Store(default_retention="60s:1d")
    server = ApiServer(("127.0.0.1", 0), store)
    with serving(server):
        base = f"http://127.0.0.1:{server.address[1]}"
        status, body = fetch(base, f"/api/v1/report?from={T0}&to={T0 + 60}")
    assert status == 404
    assert json.loads(body)["error"] == "report not configured"
