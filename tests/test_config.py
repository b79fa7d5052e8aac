"""Config parsing: sections, line-numbered errors, binding text to typed config values."""

import dataclasses
import datetime
import re
import typing
from pathlib import Path

import pytest

from gridwatch import cli
from gridwatch.agent import AgentConfig
from gridwatch.config import ConfigError, Section, all_named, bind, first, host_port, load_config, parse_config
from gridwatch.report import ReportConfig
from gridwatch.server import ClusterServiceConfig, FileSink, HostConfig, WebhookSink
from gridwatch.sim import ClusterShape, Event, EventKind, Scenario, scenario_from_sections
from gridwatch.tsdb import parse_retention

README = Path(__file__).resolve().parent.parent / "README.md"

SAMPLE = """\
# a comment
[server]
prefix = hpc
parallelism = 4
factor = 2.5
quiet = yes
tags = a, b , c

[host]
name = login1

[host]
name = login2
"""


def test_sections_kept_in_order_with_raw_values():
    sections = parse_config(SAMPLE)
    assert [s.name for s in sections] == ["server", "host", "host"]
    assert sections[0].values == {
        "prefix": "hpc",
        "parallelism": "4",
        "factor": "2.5",
        "quiet": "yes",
        "tags": "a, b , c",
    }
    assert sections[1].get("name") == "login1"
    assert sections[2].get("name") == "login2"


def test_first_and_all_named():
    sections = parse_config(SAMPLE)
    assert first(sections, "server") is sections[0]
    assert first(sections, "nope") is None
    assert all_named(sections, "host") == sections[1:]
    assert all_named(sections, "nope") == []


@dataclasses.dataclass(frozen=True)
class Typed:
    """One field of each kind bind() parses, each with a default."""

    prefix: str = "dflt"
    parallelism: int = 9
    factor: float | None = None
    quiet: bool | None = None
    tags: tuple[str, ...] = ("x",)
    flag: bool = False
    n: int = 0
    xs: tuple[str, ...] = ()


def test_typed_getters():
    sec = first(parse_config(SAMPLE), "server")
    assert sec.get("prefix") == "hpc"
    assert sec.get("missing") is None
    assert sec.get("missing", "dflt") == "dflt"
    assert bind(sec, Typed) == Typed(prefix="hpc", parallelism=4, factor=2.5, quiet=True, tags=("a", "b", "c"))
    assert bind(Section("server", 1), Typed) == Typed()
    assert sec.require("prefix") == "hpc"


@pytest.mark.parametrize("raw,expected", [
    ("1", True), ("true", True), ("YES", True), ("On", True),
    ("0", False), ("false", False), ("no", False), ("OFF", False),
])
def test_get_bool_spellings(raw, expected):
    sec = parse_config(f"[s]\nflag = {raw}\n")[0]
    assert bind(sec, Typed).flag is expected


def test_get_bool_rejects_garbage_with_line_number():
    sec = parse_config("[s]\nflag = maybe\n")[0]
    with pytest.raises(ConfigError, match="^line 2: \\[s\\] flag = 'maybe' is not a boolean$"):
        bind(sec, Typed)


def test_get_int_error_names_key_and_line():
    sec = parse_config("[s]\n\nn = twelve\n")[0]
    with pytest.raises(ConfigError, match="^line 3: \\[s\\] n = 'twelve' is not an integer$"):
        bind(sec, Typed)


def test_require_missing_key_names_section():
    sec = parse_config("[agent]\n")[0]
    with pytest.raises(ConfigError, match=r"\[agent\] is missing required key 'port'"):
        sec.require("port")


def test_get_list_drops_empty_entries():
    sec = parse_config("[s]\nxs = a,, b ,\n")[0]
    assert bind(sec, Typed).xs == ("a", "b")


def test_a_key_set_twice_in_a_section_is_refused_naming_both_lines():
    with pytest.raises(ConfigError, match="^line 4: \\[s\\] a is set twice, first on line 2$"):
        parse_config("[s]\na = 1\n\na = 2\n")
    assert [s.values for s in parse_config("[s]\na = 1\n[s]\na = 2\n")] == [{"a": "1"}, {"a": "2"}]


def test_first_refuses_a_second_section_naming_both_lines():
    sections = parse_config(SAMPLE + "\n[server]\nstore_root = /elsewhere\n")
    with pytest.raises(ConfigError, match="^line 15: \\[server\\] appears twice, first on line 2$"):
        first(sections, "server")
    assert len(all_named(sections, "host")) == 2


def test_key_before_any_section_is_an_error():
    with pytest.raises(ConfigError, match="line 1.*before any"):
        parse_config("orphan = 1\n[s]\n")


def test_line_without_equals_is_an_error():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[s]\na = 1\nnot a kv line\n")


def test_empty_key_is_an_error():
    with pytest.raises(ConfigError, match="empty key"):
        parse_config("[s]\n= 5\n")


def test_values_may_contain_equals_and_hash():
    sec = parse_config("[s]\nurl = http://u:p@h/?a=1#frag\n")[0]
    assert sec.get("url") == "http://u:p@h/?a=1#frag"


def test_comment_after_whitespace_ends_a_value_or_header():
    sections = parse_config("[s]   # note\na = 1 # why\nb = x\t# tab\nc = 1#frag\n")
    assert [sec.name for sec in sections] == ["s"]
    assert sections[0].values == {"a": "1", "b": "x", "c": "1#frag"}


def test_every_readme_ini_block_loads():
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 3
    agent, server, scenario = (parse_config(b) for b in blocks)

    cfg = bind(first(agent, "agent"), AgentConfig)
    assert cfg.check_dir == "/etc/gridwatch/local"
    assert len(cfg.checks) == 5 and (cfg.down_warn, cfg.down_crit) == (10, 100)

    server_sec = first(server, "server")
    parse_retention(server_sec.get("retention"))
    assert host_port(server_sec.get("api_bind")) == ("127.0.0.1", 8080)
    hosts = cli._hosts_from(server)
    assert [h.name for h in hosts] == ["login1", "login2"]
    (cluster,) = cli._clusters_from(server, hosts)
    assert cluster == ClusterServiceConfig("login_cluster", ("login1", "login2"), "login")
    assert len(cli._sinks_from(server)) == 2
    assert cli._report_cfg_from(server).threshold_nodes == 481

    sc = scenario_from_sections(scenario)
    assert sc.shape.partitions == ("standard",)
    assert [e.kind for e in sc.events] == [EventKind.POWER_DIP]
    assert (sc.events[0].to_tick, sc.events[0].cabinets) == (88036, ())


@pytest.mark.parametrize(
    "members, want",
    [("login1 ,login2 ,  ", ("login1", "login2")), ("login2, login1, login2", ("login2", "login1", "login2"))],
    ids=["spaces", "repeated-member"],
)
def test_a_cluster_reads_its_members_as_listed(members, want):
    sections = parse_config(
        "[host]\nname = login1\naddress = 127.0.0.1:1\n\n[host]\nname = login2\naddress = 127.0.0.1:2\n\n"
        f"[cluster]\nname = c\nservice = login\nmembers = {members}\n"
    )
    assert cli._clusters_from(sections, cli._hosts_from(sections)) == [ClusterServiceConfig("c", want, "login")]


def test_blank_and_comment_lines_do_not_shift_line_numbers():
    sec = parse_config("# top\n\n[s]\n# mid\nbad = x\n")[0]
    assert sec.lines["bad"] == 5


def test_load_config_reads_files(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("[s]\nk = v\n")
    assert load_config(p)[0].get("k") == "v"


def test_load_config_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path / "absent.cfg")


# -- binding a section to a config type ------------------------------------------

# One section per bound config type that sets every field bind() reads, each
# to a value other than the field's default.
BOUND = [
    (AgentConfig, {}, """[agent]
bind = 127.0.0.1
port = 7001
checks = power, memory
check_dir = /etc/gridwatch/local
check_timeout_s = 2.5
cabinets = x1000, x1001
cec_root = /srv/cec
power_warn_w = 4500000
power_crit_w = 5000000
down_states = DOWN, Fail
down_warn = 10
down_crit = 100
login_target = login-vip
dns_name = cluster.local
meminfo_path = /tmp/meminfo
mem_warn_pct = 80
mem_crit_pct = 85
"""),
    (HostConfig, {}, """[host]
name = login1
address = 10.0.0.1:6556
poll_interval_s = 30
connect_timeout_s = 2.5
"""),
    (ReportConfig, {}, """[report]
node_series = hpc.node_cluster.node_state.avail_standard
login_series = hpc.login_cluster.login.login_up
threshold_nodes = 481
staleness_s = 300
gaps_as_down = yes
"""),
    (ClusterShape, {}, """[shape]
cabinets = 2
rectifiers_per_cabinet = 4
nodes = 64
partitions = standard, debug
login_hosts = 2
"""),
    (Scenario, {"shape": ClusterShape(), "events": ()}, """[scenario]
name = demo
seed = 42
tick_s = 10
duration_ticks = 100
idle_power_per_node_w = 250
"""),
    (FileSink, {}, """[sink]
path = /var/log/gridwatch/notifications.jsonl
"""),
    (WebhookSink, {}, """[sink]
url = http://alerts.example/hook
timeout_s = 2.5
"""),
    (Event, {"kind": EventKind.POWER_DIP}, """[event]
from_tick = 10
to_tick = 20
depth_fraction = 0.25
cabinets = x1000
count = 3
partition = debug
hosts = login1, login2
rate_pct_per_h = 1.5
power_per_node_w = 650
"""),
]
BOUND_IDS = [cls.__name__ for cls, _, _ in BOUND]


def _read_type(hint):
    """The runtime type bind() gives a field annotated ``hint``."""
    args = typing.get_args(hint)
    if type(None) in args:
        hint = args[0]
    return typing.get_origin(hint) or hint


@pytest.mark.parametrize("cls,given,text", BOUND, ids=BOUND_IDS)
def test_bind_reads_every_field_as_its_annotated_type(cls, given, text):
    sec = parse_config(text)[0]
    cfg = bind(sec, cls, **given)
    hints = typing.get_type_hints(cls)
    read = [f for f in dataclasses.fields(cls) if f.name not in given]
    assert sorted(sec.values) == sorted(f.name for f in read)
    for f in read:
        value = getattr(cfg, f.name)
        assert value != f.default, f.name
        assert type(value) is _read_type(hints[f.name]), f.name
        if isinstance(value, (tuple, frozenset)):
            assert value and all(type(v) is str for v in value), f.name


@pytest.mark.parametrize("cls,given,text", BOUND, ids=BOUND_IDS)
def test_bind_keeps_defaults_for_absent_keys(cls, given, text):
    full = parse_config(text)[0]
    required = {
        f.name for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        and f.name not in given
    }
    sec = Section(full.name, 1, {k: full.values[k] for k in required})
    expected = {k: getattr(bind(full, cls, **given), k) for k in required}
    assert bind(sec, cls, **given) == cls(**given, **expected)
    if not required:
        assert bind(Section(full.name, 1), cls, **given) == cls(**given)
        assert bind(None, cls, **given) == cls(**given)


@pytest.mark.parametrize("cls,given,text", [b for b in BOUND if b[0] in (HostConfig, ReportConfig, Event)],
                         ids=["HostConfig", "ReportConfig", "Event"])
def test_bind_requires_fields_without_defaults(cls, given, text):
    with pytest.raises(ConfigError, match=r"line 3: \[x\] is missing required key"):
        bind(parse_config("\n\n[x]\n")[0], cls, **given)


def test_bind_refuses_an_annotation_it_cannot_read():
    @dataclasses.dataclass
    class Odd:
        when: datetime.datetime | None = None

    with pytest.raises(TypeError, match="Odd.when"):
        bind(Section("odd", 1), Odd)
    assert bind(Section("odd", 1), Odd, when=None) == Odd()


def test_bind_errors_keep_the_getters_line_numbers():
    sec = parse_config("[host]\nname = a\naddress = h:1\npoll_interval_s = soon\n")[0]
    with pytest.raises(ConfigError, match="line 4: .*'soon' is not an integer"):
        bind(sec, HostConfig)


def test_agent_config_lowercases_down_states():
    assert AgentConfig(down_states=frozenset({"DOWN", "Fail"})).down_states == {"down", "fail"}


# Each of these loaded at an earlier version with a silent default; each is now
# refused at startup (a ConfigError, so exit 2).
def test_empty_partitions_is_refused(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("[shape]\npartitions =\n")
    assert cli.main(["sim", "--scenario", str(scn)]) == 2
    assert "shape needs at least one partition" in capsys.readouterr().err


def test_report_without_threshold_nodes_is_refused():
    sections = parse_config("[report]\nnode_series = a.b.c.d\nlogin_series = a.b.c.e\n")
    with pytest.raises(ConfigError, match="line 1: \\[report\\] is missing required key 'threshold_nodes'"):
        cli._report_cfg_from(sections)


@pytest.mark.parametrize("present,missing", [("from_tick = 1", "to_tick"), ("to_tick = 2", "from_tick")])
def test_event_without_its_window_is_refused(tmp_path, capsys, present, missing):
    scn = tmp_path / "bad.scn"
    scn.write_text(f"[scenario]\nduration_ticks = 10\n[event]\nkind = dns_fail\n{present}\n")
    assert cli.main(["sim", "--scenario", str(scn)]) == 2
    assert f"[event] is missing required key {missing!r}" in capsys.readouterr().err
