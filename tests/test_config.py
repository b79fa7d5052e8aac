"""Config parsing: sections, typed getters, line-numbered errors."""

import re
from pathlib import Path

import pytest

from gridwatch import cli
from gridwatch.agent import agent_config_from_sections
from gridwatch.config import ConfigError, all_named, first, load_config, parse_config
from gridwatch.sim import EventKind, scenario_from_sections
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


def test_typed_getters():
    sec = first(parse_config(SAMPLE), "server")
    assert sec.get("prefix") == "hpc"
    assert sec.get("missing") is None
    assert sec.get("missing", "dflt") == "dflt"
    assert sec.get_int("parallelism") == 4
    assert sec.get_int("missing", 9) == 9
    assert sec.get_float("factor") == 2.5
    assert sec.get_bool("quiet") is True
    assert sec.get_bool("missing") is None
    assert sec.get_bool("missing", False) is False
    assert sec.get_list("tags") == ("a", "b", "c")
    assert sec.get_list("missing", ("x",)) == ("x",)
    assert sec.require("prefix") == "hpc"


@pytest.mark.parametrize("raw,expected", [
    ("1", True), ("true", True), ("YES", True), ("On", True),
    ("0", False), ("false", False), ("no", False), ("OFF", False),
])
def test_get_bool_spellings(raw, expected):
    sec = parse_config(f"[s]\nflag = {raw}\n")[0]
    assert sec.get_bool("flag") is expected


def test_get_bool_rejects_garbage_with_line_number():
    sec = parse_config("[s]\nflag = maybe\n")[0]
    with pytest.raises(ConfigError, match="line 2.*not a boolean"):
        sec.get_bool("flag")


def test_get_int_error_names_key_and_line():
    sec = parse_config("[s]\n\nn = twelve\n")[0]
    with pytest.raises(ConfigError, match="line 3.*'twelve' is not an integer"):
        sec.get_int("n")


def test_require_missing_key_names_section():
    sec = parse_config("[agent]\n")[0]
    with pytest.raises(ConfigError, match=r"\[agent\] is missing required key 'port'"):
        sec.require("port")


def test_get_list_drops_empty_entries():
    sec = parse_config("[s]\nxs = a,, b ,\n")[0]
    assert sec.get_list("xs") == ("a", "b")


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

    cfg = agent_config_from_sections(agent)
    assert cfg.check_dir == "/etc/gridwatch/local"
    assert len(cfg.checks) == 5 and (cfg.down_warn, cfg.down_crit) == (10, 100)

    server_sec = first(server, "server")
    parse_retention(server_sec.get("retention"))
    assert cli._parse_bind(server_sec.get("api_bind")) == ("127.0.0.1", 8080)
    hosts = cli._hosts_from(server)
    assert [h.name for h in hosts] == ["login1", "login2"]
    assert [c.name for c in cli._clusters_from(server, hosts)] == ["login_cluster"]
    assert len(cli._sinks_from(server)) == 2
    assert cli._report_cfg_from(server).threshold_nodes == 481

    sc = scenario_from_sections(scenario)
    assert sc.shape.partitions == ("standard",)
    assert [e.kind for e in sc.events] == [EventKind.POWER_DIP]
    assert (sc.events[0].to_tick, sc.events[0].cabinets) == (88036, ())


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
