"""The benchmark's own availability arithmetic, slot by slot.

Written from the documented rules of ``gridwatch report`` rather than from
its code: each slot's value holds for its whole interval, edge slots count
only the seconds inside the window, empty slots are left out of the
denominator unless gaps count as down, a run of failing slots is one
breach, and a run of empty slots is a no-data breach when it is longer
than the staleness window.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Expected:
    pct: float | None  # None: no slot in the window holds data
    breaches: list[tuple[int, int, str]]


def availability(values: dict[int, float], window: tuple[int, int], interval: int, ok,
                 *, staleness_s: float, gaps_as_down: bool, kind: str, gap_kind: str) -> Expected:
    """``values`` maps slot start -> value; absent slots are gaps."""
    from_t, to_t = window
    rows = []  # (lo, hi, "up" | "down" | "gap")
    t = from_t - from_t % interval
    while t < to_t:
        lo, hi = max(t, from_t), min(t + interval, to_t)
        if hi > lo:
            v = values.get(t)
            rows.append((lo, hi, "gap" if v is None else ("up" if ok(v) else "down")))
        t += interval
    up = sum(hi - lo for lo, hi, c in rows if c == "up")
    data = sum(hi - lo for lo, hi, c in rows if c != "gap")
    total = sum(hi - lo for lo, hi, _ in rows)

    breaches = []
    k = 0
    while k < len(rows):
        cls = rows[k][2]
        j = k
        while j + 1 < len(rows) and rows[j + 1][2] == cls:
            j += 1
        start, end = rows[k][0], rows[j][1]
        if cls == "down":
            breaches.append((start, end, kind))
        elif cls == "gap" and end - start > staleness_s:
            breaches.append((start, end, gap_kind))
        k = j + 1
    if data == 0:
        return Expected(None, breaches)
    return Expected(100.0 * up / (total if gaps_as_down else data), breaches)


def node_half(values, window, interval: int, *, threshold: float, staleness_s: float,
              gaps_as_down: bool) -> Expected:
    return availability(values, window, interval, lambda v: v >= threshold,
                        staleness_s=staleness_s, gaps_as_down=gaps_as_down,
                        kind="node-below-threshold", gap_kind="node-no-data")


def login_half(values, window, interval: int, *, staleness_s: float, gaps_as_down: bool) -> Expected:
    return availability(values, window, interval, lambda v: v >= 0.5,
                        staleness_s=staleness_s, gaps_as_down=gaps_as_down,
                        kind="login-down", gap_kind="login-no-data")


def document(node: Expected, login: Expected) -> dict:
    """The fields of ``gridwatch report --json`` the two halves determine."""
    breaches = sorted(node.breaches + login.breaches, key=lambda b: (b[0], b[2]))
    return {
        "node_availability_pct": node.pct,
        "login_availability_pct": login.pct,
        "breaches": [list(b) for b in breaches],
    }


def report(node: dict[int, float], login: dict[int, float], window, interval: int, *,
           threshold: float, staleness_s: float, gaps_as_down: bool) -> dict:
    """The report document for two series given as slot -> value."""
    return document(
        node_half(node, window, interval, threshold=threshold, staleness_s=staleness_s,
                  gaps_as_down=gaps_as_down),
        login_half(login, window, interval, staleness_s=staleness_s, gaps_as_down=gaps_as_down),
    )


def report_problems(got: dict, want: dict, what: str) -> list[str]:
    """Compare a report document with the expected one, field by field."""
    problems = []
    for key in ("node_availability_pct", "login_availability_pct", "breaches"):
        if got.get(key) != want[key]:
            problems.append(f"{what}: {key} {got.get(key)!r} != expected {want[key]!r}")
    return problems
