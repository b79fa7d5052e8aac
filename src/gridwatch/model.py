"""Domain types and the line protocol spoken between agents and the poller.

A single check result travels as one text line:

    <state-code> <service> <perfdata> <summary to end of line>

where the perfdata field is either ``-`` (none) or ``|``-joined items of
the form ``key=value;warn;crit;min;max`` with empty slots omitted from the
tail. A full agent payload is sectioned text: a ``<<<meta>>>`` block with
agent version and host time, then a ``<<<local>>>`` block of check lines.
Serialization is loss-free: ``parse(serialize(x)) == x`` for every valid x.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "CheckState",
    "Perfdata",
    "CheckResult",
    "AgentPayload",
    "MetricSample",
    "MalformedLine",
    "InvalidResult",
    "EmptyPayload",
    "parse_check_line",
    "serialize_check_line",
    "parse_agent_payload",
    "serialize_agent_payload",
    "valid_series",
]


class MalformedLine(ValueError):
    """A check line that does not follow the protocol grammar."""


class InvalidResult(ValueError):
    """A result that cannot be serialized without breaking the grammar."""


class EmptyPayload(ValueError):
    """Zero bytes where an agent payload was expected."""


class CheckState(Enum):
    """Service state; the value is the numeric code used on the wire."""

    OK = 0
    WARN = 1
    CRIT = 2
    UNKNOWN = 3


_CODES = {"0": CheckState.OK, "1": CheckState.WARN, "2": CheckState.CRIT, "3": CheckState.UNKNOWN}

# Matched with fullmatch: "$" would also match before a final newline.
_KEY_RE = re.compile(r"[A-Za-z0-9_-]+")
_SERIES_RE = re.compile(r"[A-Za-z0-9_-]+(\.[A-Za-z0-9_-]+)*")
_NON_SEGMENT_RE = re.compile(r"[^A-Za-z0-9_-]")
_SECTION_RE = re.compile(r"^<<<([A-Za-z0-9_]*)>>>$")


@dataclass(slots=True)
class Perfdata:
    """One measured value attached to a check result.

    Thresholds and bounds are optional and omitted from the wire when
    absent. ``min``/``max`` are value-range hints for plotting, not
    alerting thresholds.
    """

    key: str
    value: float
    warn: float | None = None
    crit: float | None = None
    min: float | None = None
    max: float | None = None


@dataclass
class CheckResult:
    """State, service name, perfdata and a free-text summary."""

    state: CheckState
    service: str
    perfdata: list[Perfdata] = field(default_factory=list)
    summary: str = ""


@dataclass
class AgentPayload:
    """Everything one agent reports in a single poll."""

    agent_version: str
    host_time: int
    results: list[CheckResult] = field(default_factory=list)


@dataclass(slots=True)
class MetricSample:
    """One point destined for the series store.

    ``series`` is a dotted path whose segments match ``[A-Za-z0-9_-]+``;
    ``v`` must be finite. Both are enforced at store ingest. Not frozen, so
    it is cheap to build, one per stored value.
    """

    series: str
    t: int
    v: float


def valid_series(name: str) -> bool:
    return _SERIES_RE.fullmatch(name) is not None


def _segment(text: str) -> str:
    """Sanitize a token for use as one segment of a series name or perfdata key."""
    return _NON_SEGMENT_RE.sub("_", text) or "x"


# Bounded because an agent can send any key; the same few come back every poll.
@functools.lru_cache(maxsize=1 << 14)
def _valid_key(key: str) -> bool:
    return _KEY_RE.fullmatch(key) is not None


def _fmt_num(v: float) -> str:
    """Shortest decimal text that parses back to exactly the same float."""
    if type(v) is float and math.isfinite(v):  # the common case
        return str(int(v)) if v.is_integer() and -1e15 < v < 1e15 else repr(v)
    if not math.isfinite(v):
        raise InvalidResult(f"non-finite number {v!r} cannot go on the wire")
    i = int(v)
    if v == i and abs(v) < 1e15:
        return str(i)
    return repr(v)


def _parse_num(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise MalformedLine(f"unparsable number {text!r}") from None
    if not math.isfinite(v):
        raise MalformedLine(f"non-finite number {text!r}")
    return v


def _parse_perf_item(text: str) -> Perfdata:
    key, sep, rest = text.partition("=")
    if not sep:
        raise MalformedLine(f"perfdata item without '=': {text!r}")
    if not _valid_key(key):
        raise MalformedLine(f"bad perfdata key {key!r}")
    if ";" not in rest:  # a bare value, the common case
        try:
            v = float(rest)
        except ValueError:
            if rest == "":
                raise MalformedLine(f"perfdata item without a value: {text!r}") from None
            raise MalformedLine(f"unparsable number {rest!r}") from None
        if not math.isfinite(v):
            raise MalformedLine(f"non-finite number {rest!r}")
        return Perfdata(key, v)
    slots = rest.split(";")
    if len(slots) > 5:
        raise MalformedLine(f"too many ';' fields in perfdata item {text!r}")
    if slots[0] == "":
        raise MalformedLine(f"perfdata item without a value: {text!r}")
    nums = [(_parse_num(s) if s != "" else None) for s in slots]
    nums += [None] * (5 - len(nums))
    return Perfdata(key, nums[0], nums[1], nums[2], nums[3], nums[4])


def _serialize_perf_item(p: Perfdata) -> str:
    if not _valid_key(p.key):
        raise InvalidResult(f"bad perfdata key {p.key!r}")
    if p.warn is None and p.crit is None and p.min is None and p.max is None:
        return f"{p.key}={_fmt_num(p.value)}"
    slots = [_fmt_num(p.value)]
    slots += ["" if x is None else _fmt_num(x) for x in (p.warn, p.crit, p.min, p.max)]
    while len(slots) > 1 and slots[-1] == "":
        slots.pop()
    return f"{p.key}=" + ";".join(slots)


def parse_check_line(line: str) -> CheckResult:
    """Parse one protocol line into a CheckResult.

    Raises MalformedLine for a bad state code, missing fields, an
    unparsable perfdata blob or a line break in the summary. The summary is
    free text to end of line and may legitimately be empty.
    """
    line = line.rstrip("\n")
    parts = line.split(" ", 3)
    if len(parts) < 3:
        raise MalformedLine(f"expected '<state> <service> <perfdata> [summary]', got {line!r}")
    code, service, perf_field = parts[0], parts[1], parts[2]
    summary = parts[3] if len(parts) == 4 else ""
    if code not in _CODES:
        raise MalformedLine(f"bad state code {code!r}")
    if not service:
        raise MalformedLine("empty service field")
    if service.split() != [service]:  # the serializer's rule
        raise MalformedLine(f"whitespace in service name {service!r}")
    if "\n" in summary or "\r" in summary:  # the serializer's rule
        raise MalformedLine("line break in summary")
    if not perf_field:
        raise MalformedLine("empty perfdata field")
    if perf_field == "-":
        perfdata = []
    else:
        perfdata = [_parse_perf_item(item) for item in perf_field.split("|")]
    return CheckResult(_CODES[code], service, perfdata, summary)


def serialize_check_line(result: CheckResult) -> str:
    """Render a CheckResult as one protocol line (no trailing newline).

    A result with an empty summary still carries the field separator, so
    the line ends with a single space; that round-trips cleanly.
    """
    svc = result.service
    if svc.split() != [svc]:  # empty, or holds a character str.isspace() accepts
        raise InvalidResult(f"service name {svc!r} is empty or contains whitespace")
    if "\n" in result.summary or "\r" in result.summary:
        raise InvalidResult("summary must not contain line breaks")
    if result.perfdata:
        perf_field = "|".join([_serialize_perf_item(p) for p in result.perfdata])
    else:
        perf_field = "-"
    return f"{result.state.value} {svc} {perf_field} {result.summary}"


def serialize_agent_payload(payload: AgentPayload) -> str:
    """Render a full agent payload as sectioned text."""
    if "\n" in payload.agent_version or "\r" in payload.agent_version:
        raise InvalidResult("agent_version must not contain line breaks")
    lines = [
        "<<<meta>>>",
        f"version: {payload.agent_version}",
        f"host_time: {payload.host_time}",
        "<<<local>>>",
    ]
    lines += [serialize_check_line(r) for r in payload.results]
    return "\n".join(lines) + "\n"


def parse_agent_payload(data: "bytes | str", memo: "dict[str, CheckResult] | None" = None) -> AgentPayload:
    """Parse an agent payload, tolerating anything but zero bytes.

    Unknown sections are skipped. A payload's malformed check lines become
    one UNKNOWN result named ``_parse_errors``, last, with their count and
    the first one's error, so bad agents stay visible instead of crashing
    the poller, and cost one record however many lines they botch. Raises
    EmptyPayload only for empty input, and then leaves ``memo`` untouched.

    ``memo``, when given, maps the check lines of the caller's previous
    payload to their results. A line found there is not parsed again: its
    result is the very object returned last time, so results must be
    treated as read-only. On return ``memo`` holds exactly this payload's
    well-formed check lines; a malformed one is never kept. Two calls that
    race on one memo stay correct, since a line maps only to its own
    parse, and at worst parse a line again.
    """
    if not data:
        raise EmptyPayload("zero-byte payload")
    text = data.decode("utf-8", errors="replace") if isinstance(data, bytes) else data

    version = ""
    host_time = 0
    results: list[CheckResult] = []
    previous = memo if memo is not None else {}
    seen: dict[str, CheckResult] = {}
    bad, first_error = 0, ""
    section = None
    for raw in text.split("\n"):
        line = raw.rstrip("\r")
        if line.startswith("<<<"):
            m = _SECTION_RE.match(line)
            if m:
                section = m.group(1)
                continue
        if section == "meta":
            key, sep, value = line.partition(":")
            if not sep:
                continue
            key, value = key.strip(), value.strip()
            if key == "version":
                version = value
            elif key == "host_time":
                try:
                    host_time = int(value)
                except ValueError:
                    pass
        elif section == "local":
            if not line:
                continue
            result = previous.get(line)
            if result is None:
                try:
                    result = parse_check_line(line)
                except MalformedLine as exc:
                    bad += 1
                    if bad == 1:
                        first_error = str(exc)[:200]
                    continue
            results.append(result)
            seen[line] = result
        # lines outside any known section are ignored
    if bad:
        summary = f"{bad} unparsable check line{'s' if bad > 1 else ''}, the first: {first_error}"
        results.append(CheckResult(CheckState.UNKNOWN, "_parse_errors", [], summary))
    if memo is not None:
        memo.clear()
        memo.update(seen)
    return AgentPayload(version, host_time, results)
