"""Wire protocol: check lines, payload sections, state aggregation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch.model import (
    AgentPayload,
    CheckResult,
    CheckState,
    EmptyInput,
    EmptyPayload,
    InvalidResult,
    MalformedLine,
    Perfdata,
    parse_agent_payload,
    parse_check_line,
    serialize_agent_payload,
    serialize_check_line,
    _fmt_num,
    _parse_perf_item,
    _serialize_perf_item,
    valid_series,
    worst_state,
)
import reference_impls as ref
from reference_impls import fmt_num, parse_perf_item, serialize_perf_item

# -- frozen examples -------------------------------------------------------


def test_parse_plain_ok_line():
    r = parse_check_line("0 login_dns - resolution OK")
    assert r == CheckResult(CheckState.OK, "login_dns", [], "resolution OK")


def test_parse_line_with_thresholds_and_bounds():
    r = parse_check_line("1 node_state down=15;;;0;5860 15 nodes down")
    assert r.state is CheckState.WARN
    assert r.service == "node_state"
    assert r.perfdata == [Perfdata("down", 15.0, None, None, 0.0, 5860.0)]
    assert r.summary == "15 nodes down"


def test_parse_line_with_multiple_perf_items():
    r = parse_check_line("2 power sys=4000|cab0=180.5 over limit")
    assert r.state is CheckState.CRIT
    assert r.perfdata == [Perfdata("sys", 4000.0), Perfdata("cab0", 180.5)]


def test_parse_line_without_summary():
    assert parse_check_line("0 x -").summary == ""
    assert parse_check_line("0 x - ").summary == ""


def test_serialize_plain_line():
    assert serialize_check_line(CheckResult(CheckState.OK, "heartbeat", [], "alive")) == "0 heartbeat - alive"


def test_serialize_empty_summary_keeps_field_separator():
    line = serialize_check_line(CheckResult(CheckState.UNKNOWN, "x", [Perfdata("a", 1.5)], ""))
    assert line == "3 x a=1.5 "
    assert parse_check_line(line) == CheckResult(CheckState.UNKNOWN, "x", [Perfdata("a", 1.5)], "")


def test_serialize_drops_empty_trailing_perf_slots():
    line = serialize_check_line(
        CheckResult(CheckState.OK, "s", [Perfdata("k", 1.0, 2.0, None, None, None)], "ok")
    )
    assert line == "0 s k=1;2 ok"


def test_serialize_keeps_inner_empty_perf_slots():
    line = serialize_check_line(
        CheckResult(CheckState.OK, "s", [Perfdata("k", 1.0, None, None, None, 5.0)], "ok")
    )
    assert line == "0 s k=1;;;;5 ok"


def test_numbers_render_integers_without_decimal_point():
    line = serialize_check_line(CheckResult(CheckState.OK, "s", [Perfdata("k", 15.0)], ""))
    assert line.startswith("0 s k=15 ")


@pytest.mark.parametrize("bad", [
    "",                      # nothing
    "0 svc",                 # missing perfdata field
    "5 svc - x",             # unknown state code
    "x svc - x",             # non-numeric state code
    "0  - x",                # empty service (double space)
    "0 svc  summary",        # empty perfdata field
    "0 svc k=|x=1 s",        # empty perf item value
    "0 svc k s",             # perf item without '='
    "0 svc 1=2 s",           # key fine actually? '1' matches key re -> use bad key
    "0 svc k%=2 s",          # bad perfdata key
    "0 svc k=a s",           # unparsable number
    "0 svc k=nan s",         # non-finite number
    "0 svc k=1;2;3;4;5;6 s", # too many ';' fields
    "0 a\tb - x",            # whitespace in the service name, which the serializer refuses
    "0 a\u2028b - x",        # Unicode whitespace that is no line break for str.split("\n")
    "0 s - a\nb",            # line breaks in the summary, which the serializer refuses
    "0 s - a\rb",
])
def test_malformed_lines_raise(bad):
    if bad == "0 svc 1=2 s":
        parse_check_line(bad)  # digits are a legal perf key
        return
    with pytest.raises(MalformedLine):
        parse_check_line(bad)


def test_serialize_rejects_bad_inputs():
    with pytest.raises(InvalidResult):
        serialize_check_line(CheckResult(CheckState.OK, "has space", [], ""))
    with pytest.raises(InvalidResult):
        serialize_check_line(CheckResult(CheckState.OK, "", [], ""))
    with pytest.raises(InvalidResult):
        serialize_check_line(CheckResult(CheckState.OK, "s", [], "line\nbreak"))
    with pytest.raises(InvalidResult):
        serialize_check_line(CheckResult(CheckState.OK, "s", [Perfdata("bad key", 1.0)], ""))
    with pytest.raises(InvalidResult):
        serialize_check_line(CheckResult(CheckState.OK, "s", [Perfdata("k", float("inf"))], ""))
    with pytest.raises(InvalidResult):  # a line break inside one check line
        serialize_check_line(CheckResult(CheckState.OK, "svc", [Perfdata("k\n", 1.0)], "x"))
    with pytest.raises(InvalidResult):
        serialize_agent_payload(AgentPayload("v\n1", 0, []))


def test_worst_state_ranking():
    assert worst_state([CheckState.OK, CheckState.OK]) is CheckState.OK
    assert worst_state([CheckState.OK, CheckState.WARN, CheckState.CRIT]) is CheckState.CRIT
    assert worst_state([CheckState.WARN, CheckState.UNKNOWN]) is CheckState.UNKNOWN
    assert worst_state([CheckState.UNKNOWN, CheckState.CRIT]) is CheckState.CRIT
    with pytest.raises(EmptyInput):
        worst_state([])


def test_state_codes_and_severity_order():
    assert [s.value for s in (CheckState.OK, CheckState.WARN, CheckState.CRIT, CheckState.UNKNOWN)] == [0, 1, 2, 3]
    sev = [CheckState.OK.severity, CheckState.WARN.severity, CheckState.UNKNOWN.severity, CheckState.CRIT.severity]
    assert sev == sorted(sev) and len(set(sev)) == 4


def test_valid_series_names():
    assert valid_series("hpc.login1.memory.mem_used_pct")
    assert valid_series("a")
    assert not valid_series("")
    assert not valid_series(".a")
    assert not valid_series("a..b")
    assert not valid_series("a.b c")
    assert not valid_series("hpc.a\n")
    assert not valid_series("a\n")


# -- payload assembly ------------------------------------------------------


def test_payload_round_trip_example():
    payload = AgentPayload(
        "0.1.0",
        1700000000,
        [
            CheckResult(CheckState.OK, "login", [Perfdata("login_up", 1.0)], "ssh probe ok"),
            CheckResult(CheckState.WARN, "memory", [Perfdata("mem_used_pct", 91.5, 90.0, 95.0, 0.0, 100.0)], "91.5% used"),
        ],
    )
    text = serialize_agent_payload(payload)
    assert text.startswith("<<<meta>>>\nversion: 0.1.0\nhost_time: 1700000000\n<<<local>>>\n")
    assert parse_agent_payload(text) == payload
    assert parse_agent_payload(text.encode("utf-8")) == payload


def test_malformed_payload_lines_demote_to_numbered_parse_errors():
    text = (
        "<<<meta>>>\nversion: v\nhost_time: 5\n<<<local>>>\n"
        "0 good_one - fine\n"
        "total garbage\n"
        "1 good_two - meh\n"
        "also;bad\n"
        "0 tab\tname - a service name the serializer refuses\n"
        "0 svc - a\rb\n"
    )
    results = parse_agent_payload(text).results
    services = ["good_one", "_parse_error_1", "good_two", "_parse_error_2", "_parse_error_3", "_parse_error_4"]
    assert [r.service for r in results] == services
    assert results[1].state is CheckState.UNKNOWN
    assert results[1].summary.startswith("unparsable check line:")


def test_payload_tolerates_unknown_sections_and_stray_lines():
    text = (
        "noise before any section\n"
        "<<<meta>>>\nversion: v1\nhost_time: nine\nnot a kv line\n"
        "<<<future_section>>>\nwhatever 1 2 3\n"
        "<<<local>>>\n0 svc - ok\n"
    )
    payload = parse_agent_payload(text)
    assert payload.agent_version == "v1"
    assert payload.host_time == 0  # unparsable host_time tolerated
    assert [r.service for r in payload.results] == ["svc"]


def test_payload_handles_crlf_and_bad_utf8():
    text = "<<<meta>>>\r\nversion: v\r\nhost_time: 1\r\n<<<local>>>\r\n0 s - ok\r\n"
    assert parse_agent_payload(text.encode()).results[0].summary == "ok"
    raw = b"<<<local>>>\n0 s - caf\xff\n"
    assert parse_agent_payload(raw).results[0].state is CheckState.OK


def test_empty_payload_raises_only_on_empty_input():
    with pytest.raises(EmptyPayload):
        parse_agent_payload(b"")
    with pytest.raises(EmptyPayload):
        parse_agent_payload("")
    assert parse_agent_payload(b"\n") == AgentPayload("", 0, [])


# -- properties ------------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)
_keys = st.from_regex(r"[A-Za-z0-9_-]{1,12}", fullmatch=True)
_services = st.from_regex(r"[A-Za-z0-9_./:-]{1,16}", fullmatch=True)
_summaries = st.text(
    alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    max_size=60,
)
_versions = _summaries.map(str.strip)

_perfdata = st.builds(
    Perfdata,
    key=_keys,
    value=_finite,
    warn=st.none() | _finite,
    crit=st.none() | _finite,
    min=st.none() | _finite,
    max=st.none() | _finite,
)
_results = st.builds(
    CheckResult,
    state=st.sampled_from(CheckState),
    service=_services,
    perfdata=st.lists(_perfdata, max_size=4),
    summary=_summaries,
)
_payloads = st.builds(
    AgentPayload,
    agent_version=_versions,
    host_time=st.integers(min_value=0, max_value=2**53),
    results=st.lists(_results, max_size=6),
)


@settings(max_examples=300)
@given(_results)
def test_check_line_round_trip(result):
    assert parse_check_line(serialize_check_line(result)) == result


@settings(max_examples=150)
@given(_payloads)
def test_payload_round_trip(payload):
    assert parse_agent_payload(serialize_agent_payload(payload)) == payload
    assert parse_agent_payload(serialize_agent_payload(payload).encode("utf-8")) == payload


@given(st.lists(st.sampled_from(CheckState), min_size=1, max_size=6))
def test_worst_state_properties(states):
    worst = worst_state(states)
    assert worst in states
    assert all(worst.severity >= s.severity for s in states)
    assert worst_state(list(reversed(states))) is worst
    assert worst_state(states + [worst]) is worst
    assert worst_state(states + [CheckState.OK]) is worst or worst is CheckState.OK


@settings(max_examples=300)
@given(st.binary(min_size=1, max_size=400))
def test_payload_parser_never_crashes_on_bytes(raw):
    payload = parse_agent_payload(raw)
    assert isinstance(payload, AgentPayload)


@settings(max_examples=200)
@given(st.text(min_size=1, max_size=400))
def test_payload_parser_never_crashes_on_text(text):
    payload = parse_agent_payload("<<<local>>>\n" + text)
    for r in payload.results:
        assert isinstance(r, CheckResult)


# -- perfdata items against the every-slot reference ---------------------------


def outcome(fn, arg):
    """What ``fn(arg)`` gives: its value, or its exception's type and message."""
    try:
        return "value", fn(arg)
    except Exception as exc:  # the exception is the outcome under test
        return "raised", type(exc), str(exc)


_numbers = (
    st.floats()
    | st.integers(min_value=-(2**64), max_value=2**64)
    | st.sampled_from([0, 512, -0.0, 1e15, -1e15, 999999999999999.0, 2**53, float(2**53), 1e300, 5e-324])
)
_any_perfdata = st.builds(
    Perfdata,
    key=_keys | st.sampled_from(["", "bad key", "k=v", "a;b"]),
    value=_numbers,
    warn=st.none() | _numbers,
    crit=st.none() | _numbers,
    min=st.none() | _numbers,
    max=st.none() | _numbers,
)
_item_texts = st.one_of(
    _any_perfdata.map(lambda p: outcome(serialize_perf_item, p)).filter(lambda o: o[0] == "value").map(lambda o: o[1]),
    st.text(alphabet="k_=;.-+0123456789eEinfaxN ", max_size=24),
)


@settings(max_examples=300)
@given(_any_perfdata)
def test_perf_item_serializes_as_the_every_slot_reference(p):
    assert outcome(_serialize_perf_item, p) == outcome(serialize_perf_item, p)


@settings(max_examples=300)
@given(_item_texts)
def test_perf_item_parses_as_the_every_slot_reference(text):
    assert outcome(_parse_perf_item, text) == outcome(parse_perf_item, text)


@pytest.mark.parametrize("v", [0, 497, 512, -3, 2**53, 10**15, -0.0, 0.5, 1e15, -1e15,
                               999999999999999.0, 2.0**53, 1e-7, float("nan"), float("inf")])
def test_numbers_render_as_the_reference(v):
    assert outcome(_fmt_num, v) == outcome(fmt_num, v)
    for p in (Perfdata("k", v), Perfdata("avail_standard", v, None, None, 0, 512)):
        assert outcome(_serialize_perf_item, p) == outcome(serialize_perf_item, p)


@pytest.mark.parametrize("text", [
    "v=1", "v=-0", "v=1e15", "v=999999999999999.0", "v=9007199254740992", "v=1;;;0;100",
    "v=1;;;;", "v=1;", "v=", "v=;1", "=1", "v", "v=abc", "v=nan", "v=inf;1", "v=1;2;3;4;5;6",
])
def test_perf_item_texts_parse_as_the_reference(text):
    assert outcome(_parse_perf_item, text) == outcome(parse_perf_item, text)


# -- whole payloads against the line-by-line reference -------------------------

# A small pool, so keys repeat within a payload and across examples, as an
# agent's keys do from one poll to the next.
_pool_keys = st.sampled_from(["system", "cab_x1000", "avail_standard", "k-1", "bad key", "", "k=v", "k\n"])
# Unicode whitespace that is no line break for str.split("\n"): "\x1c" to "\x1f", "\x85", "\u2028"...
_odd_spaces = "\t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000"
_any_services = _services | st.text(alphabet="ab_." + _odd_spaces, max_size=5)
_any_texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20)
_any_results = st.builds(
    CheckResult,
    state=st.sampled_from(CheckState),
    service=_any_services,
    perfdata=st.lists(_any_perfdata | st.builds(Perfdata, key=_pool_keys, value=_numbers), max_size=4),
    summary=_summaries | _any_texts,
)
_any_payloads = st.builds(
    AgentPayload,
    agent_version=_versions | _any_texts,
    host_time=st.integers(min_value=-(2**64), max_value=2**64),
    results=st.lists(_any_results, max_size=5),
)


@settings(max_examples=200)
@given(_any_payloads)
def test_payload_serializes_as_the_line_by_line_reference(payload):
    assert outcome(serialize_agent_payload, payload) == outcome(ref.serialize_agent_payload, payload)


_good_lines = _any_results.map(lambda r: outcome(ref.serialize_check_line, r)).filter(
    lambda o: o[0] == "value").map(lambda o: o[1])
_item_junk = st.sampled_from(["k=1_0", "k=nan", "k=-inf", "k=1e999", "k= 1", "k=1;;", "k=;1", "k=1;2;3;4;5;6",
                              "system=1", "system=0x10", "k", "=1", "bad key=1", "k=\u0661"])
_junk_lines = st.one_of(
    st.builds(lambda code, svc, items, rest: f"{code} {svc} {'|'.join(items)}{rest}",
              st.sampled_from(["0", "1", "2", "3", "4", "", "01"]), _any_services,
              st.lists(_item_junk | _pool_keys.map(lambda k: k + "=7"), max_size=3),
              st.sampled_from(["", " ", " summary text", "\r"])),
    st.text(alphabet="0123 -|=;.eEnaif_xk<>:\r" + _odd_spaces, max_size=30),
)
_meta_lines = st.sampled_from(["version: 1.2", "version:", "host_time: 1_0", "host_time: 12", " host_time : 7 ",
                               "host_time: abc", "host_time: \u0663", "no colon here", ""])
_headers = st.sampled_from(["<<<meta>>>", "<<<local>>>", "<<<local>>>\r", "<<<other>>>", "<<<bad-name>>>",
                            "<<<>>>", "<<<local>>", "<<<<local>>>"])
_payload_texts = st.lists(_headers | _meta_lines | _good_lines | _junk_lines, min_size=1, max_size=12).map("\n".join)


@settings(max_examples=200)
@given(_payload_texts | _any_payloads.map(lambda p: outcome(ref.serialize_agent_payload, p)).filter(
    lambda o: o[0] == "value").map(lambda o: o[1]))
def test_payload_parses_as_the_line_by_line_reference(text):
    assert outcome(parse_agent_payload, text) == outcome(ref.parse_agent_payload, text)


@settings(max_examples=100)
@given(_payload_texts, st.binary(max_size=8))
def test_payload_bytes_parse_as_the_line_by_line_reference(text, junk):
    raw = text.encode("utf-8") + junk
    assert outcome(parse_agent_payload, raw) == outcome(ref.parse_agent_payload, raw)
