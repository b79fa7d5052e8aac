"""Sectioned key-value config files, shared by agent, server, sim and CLI.

The format is deliberately dumb: `[section]` headers, `key = value` lines,
`#` comments and blank lines. A comment takes a whole line, or ends one at a
`#` that follows whitespace; a `#` inside a value, as in `a=1#frag`, is kept.
A key set twice in one section is refused. Sections keep their file order;
those read as a list (`[host]`, `[cluster]`, `[sink]`, `[event]`) may
repeat, and `first` refuses a second of any other.

`bind` is the one place where text becomes a typed value: an integer, a
number, a boolean (`1/true/yes/on`, `0/false/no/off`, any case) or a comma
list whose empty entries are dropped. Every error names its line, as in
`line 4: [host] poll_interval_s = 'soon' is not an integer`.
"""

from __future__ import annotations

import functools
import re
import types
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path


class ConfigError(ValueError):
    """Unusable config content; carries the source line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_-]+)\]$")
_INLINE_COMMENT_RE = re.compile(r"\s#.*")


@dataclass
class Section:
    """One `[name]` block with raw string values and source line numbers."""

    name: str
    line: int
    values: dict[str, str] = field(default_factory=dict)
    lines: dict[str, int] = field(default_factory=dict)

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"[{self.name}] is missing required key {key!r}", self.line)
        return self.values[key]


def parse_config(text: str) -> list[Section]:
    """Parse config text into an ordered list of sections."""
    sections: list[Section] = []
    current: Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _INLINE_COMMENT_RE.sub("", raw).strip()
        if not line or line.startswith("#"):
            continue
        m = _SECTION_RE.match(line)
        if m:
            current = Section(name=m.group(1), line=lineno)
            sections.append(current)
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"expected 'key = value' or '[section]', got {line!r}", lineno)
        if current is None:
            raise ConfigError(f"key {key.strip()!r} appears before any [section]", lineno)
        key = key.strip()
        if not key:
            raise ConfigError("empty key", lineno)
        if key in current.lines:
            raise ConfigError(f"[{current.name}] {key} is set twice, first on line {current.lines[key]}", lineno)
        current.values[key] = value.strip()
        current.lines[key] = lineno
    return sections


def load_config(path: str | Path) -> list[Section]:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from None
    return parse_config(text)


def host_port(text: str, what: str = "address") -> tuple[str, int]:
    """Split ``host:port``; refuses an empty host and a port that is not 0-65535."""
    host, _, port = text.rpartition(":")
    if not host or not re.fullmatch(r"[0-9]{1,5}", port) or int(port) > 65535:
        raise ConfigError(f"bad {what} {text!r} (want host:port, port at most 65535)")
    return host, int(port)


def first(sections: list[Section], name: str) -> Section | None:
    """The one section called ``name``, or None; a second one is refused, naming both lines."""
    found = all_named(sections, name)
    if len(found) > 1:
        raise ConfigError(f"[{name}] appears twice, first on line {found[0].line}", found[1].line)
    return found[0] if found else None


def all_named(sections: list[Section], name: str) -> list[Section]:
    return [s for s in sections if s.name == name]


_FLAGS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)


def _words(raw: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in raw.split(",") if p.strip())


# The parser for each annotation bind() reads, and what its error says the
# text is not when it raises; `X | None` reads as X.
_READERS = {
    str: (str, "text"),
    int: (int, "an integer"),
    float: (float, "a number"),
    bool: (lambda raw: _FLAGS[raw.lower()], "a boolean"),
    tuple[str, ...]: (_words, "a list"),
    frozenset[str]: (lambda raw: frozenset(_words(raw)), "a list"),
}
_type_hints = functools.cache(typing.get_type_hints)  # evaluating annotations costs more than reading


def bind(sec: Section | None, cls, **given):
    """Build dataclass ``cls`` from the keys of ``sec`` named after its fields.

    A field in ``given`` takes that value; any other is parsed by the reader
    for its annotation, keeps its default when the key is absent, and is
    required when it has no default. Keys that name no field are ignored.
    """
    sec = sec or Section(cls.__name__, 0)
    values = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        hint = _type_hints(cls)[f.name]
        if isinstance(hint, types.UnionType) and typing.get_args(hint)[1:] == (type(None),):
            hint = typing.get_args(hint)[0]
        reader = _READERS.get(hint)
        if reader is None:
            raise TypeError(f"{cls.__name__}.{f.name}: no config reader for {f.type}")
        if f.name in sec.values:
            parse, what = reader
            raw = sec.values[f.name]
            try:
                values[f.name] = parse(raw)
            except (KeyError, ValueError):
                raise ConfigError(f"[{sec.name}] {f.name} = {raw!r} is not {what}", sec.lines[f.name]) from None
        elif f.default is MISSING and f.default_factory is MISSING:
            sec.require(f.name)
    return cls(**values)
