"""Which gridwatch calls are traced, and the per-layer metrics made from them.

Each span is named ``<module>.<what>`` after the package module that owns
the call. A metric of a layer that a workload never enters reads 0: that is
the prediction for it, not a missing value.
"""

from __future__ import annotations

import weakref

from spans import Stat, Tracer, is_api_thread

# name -> (unit, short description); the order is the print order.
PER_LAYER = {
    "config.load_ms": ("ms", "load_config, per call"),
    "sim.source_us_per_poll": ("us", "SimDataSource calls, total per poll"),
    "sim.source_calls_per_poll": ("count", "SimDataSource calls per poll"),
    "agent.payload_text_us": ("us", "Agent.payload_text self time (no source, no serialize), per call"),
    "model.serialize_us": ("us", "serialize_agent_payload, per call"),
    "model.parse_us": ("us", "parse_agent_payload, per call"),
    "model.payload_bytes": ("bytes", "bytes parsed per payload"),
    "server.transport_us": ("us", "poll_host minus parse minus the agent-side span, per poll"),
    "server.apply_us": ("us", "apply_payload self time, per call"),
    "server.cluster_us": ("us", "evaluate_cluster self time, per call"),
    "server.flush_metrics_us": ("us", "flush_metrics self time (no store writes), per call"),
    "server.polls": ("count", "process_host calls"),
    "server.hosts_down": ("count", "polls that returned HostDown"),
    "server.notifications": ("count", "notifications returned by process_host"),
    "server.useful_poll_ratio": ("ratio", "payloads received / polls attempted"),
    "tsdb.write_us": ("us", "Store.write, per call"),
    "tsdb.writes": ("count", "Store.write calls accepted"),
    "tsdb.rejected": ("count", "Store.write calls refused"),
    "tsdb.flush_s": ("s", "Store.flush, total"),
    "tsdb.files_written": ("count", "series files written by Store.flush"),
    "tsdb.bytes_written": ("bytes", "size of the series files the flushes wrote"),
    "tsdb.open_s": ("s", "Store(root) open of a non-empty store, per call"),
    "tsdb.series_loaded": ("count", "series decoded per open of a non-empty store"),
    "tsdb.series_read_per_loaded": ("ratio", "distinct series read / series decoded, over opened stores"),
    "tsdb.read_ms": ("ms", "Store.read, per call"),
    "tsdb.slots_read": ("count", "slots returned per Store.read"),
    "report.contractual_ms": ("ms", "contractual_report, per call"),
    "report.availability_ms": ("ms", "availability, per call"),
    "report.detect_dips_ms": ("ms", "detect_dips, per call"),
    "report.http_ms": ("ms", "API client latency minus the store and report spans, per request"),
    "plot.render_svg_ms": ("ms", "render_svg, per call"),
    "cli.report_self_ms": ("ms", "cmd_report self time (no open, read, report or plot), per call"),
    "trace.spans": ("count", "spans recorded"),
    "trace.job_s": ("s", "this traced run's replay_s, checkpoint_s or report_cold_s"),
    "trace.scaled_ops_per_cpu_s": ("1/s", "scaled_ops_per_cpu_s of this traced run, to compare with an untraced run"),
}


class Layers:
    """Installs the gridwatch spans on a Tracer and turns them into metrics."""

    def __init__(self):
        self.tracer = Tracer()
        self._opened: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._open_no = 0
        self._reads: set[tuple[int, str]] = set()
        self._loaded_total = 0
        self._loaded_opens = 0
        self._loaded_open_ns = 0

    def install(self) -> None:
        from gridwatch import agent, cli, config, model, plot, report, server, sim, tsdb

        t = self.tracer
        t.patch_function(config, "load_config", "config.load")
        for attr in ("read_file", "run_command", "probe_login", "resolve_name"):
            t.patch_method(sim.SimDataSource, attr, "sim.source")
        t.patch_method(agent.Agent, "payload_text", "agent.payload_text")
        t.patch_function(model, "serialize_agent_payload", "model.serialize")
        t.patch_function(model, "parse_agent_payload", "model.parse",
                         note=lambda args, *_: len(args[0]))
        t.patch_method(server.MonitoringServer, "process_host", "server.process_host",
                       note=lambda _, result, _took: len(result))
        t.patch_method(server.MonitoringServer, "poll_host", "server.poll_host",
                       note=lambda _, result, _took: int(isinstance(result, server.HostDown)))
        t.patch_method(server.MonitoringServer, "apply_payload", "server.apply")
        t.patch_method(server.MonitoringServer, "evaluate_cluster", "server.cluster")
        t.patch_method(server.MonitoringServer, "flush_metrics", "server.flush_metrics")
        t.patch_method(tsdb.Store, "write", "tsdb.write")
        t.patch_method(tsdb.Store, "flush", "tsdb.flush", note=lambda _, result, _took: result)
        t.patch_method(tsdb.Store, "__init__", "tsdb.open", note=self._note_open)
        t.patch_method(tsdb.Store, "read", "tsdb.read", note=self._note_read)
        t.patch_function(report, "contractual_report", "report.contractual")
        t.patch_function(report, "availability", "report.availability")
        t.patch_function(report, "detect_dips", "report.detect_dips")
        t.patch_function(plot, "render_svg", "plot.render_svg")
        t.patch_function(cli, "cmd_report", "cli.cmd_report")
        t.enabled = True

    def uninstall(self) -> None:
        self.tracer.uninstall()

    def _note_open(self, args, _result, took_ns) -> int:
        """Opens that decode series are counted apart from empty ones."""
        store = args[0]
        loaded = len(store.list_series())
        if loaded:
            self._open_no += 1
            self._opened[store] = self._open_no
            self._loaded_total += loaded
            self._loaded_opens += 1
            self._loaded_open_ns += took_ns
        return loaded

    def _note_read(self, args, result, _took) -> int:
        open_no = self._opened.get(args[0])
        if open_no is not None:
            self._reads.add((open_no, args[1]))
        return len(result[1])

    def metrics(self, *, api_requests: int = 0, api_client_ns: int = 0,
                bytes_written: int = 0, job_s: float, scaled_ops_per_cpu_s: float) -> dict[str, float]:
        """Every PER_LAYER metric; ``api_*`` are the client's own totals."""
        m = self.tracer.merged()
        api = self.tracer.merged(is_api_thread)

        def stat(name):
            return m.get(name) or Stat()

        def per_call(name, field="total_ns", scale=1e3):
            s = stat(name)
            return getattr(s, field) / s.calls / scale if s.calls else 0.0

        polls = stat("server.process_host").calls
        poll_host = stat("server.poll_host")
        transport_ns = (poll_host.total_ns - stat("model.parse").total_ns
                        - stat("agent.payload_text").total_ns)
        write = stat("tsdb.write")
        api_spans_ns = sum(api[n].top_ns for n in ("tsdb.read", "report.contractual") if n in api)
        out = {
            "config.load_ms": per_call("config.load", scale=1e6),
            "sim.source_us_per_poll": stat("sim.source").total_ns / polls / 1e3 if polls else 0.0,
            "sim.source_calls_per_poll": stat("sim.source").calls / polls if polls else 0.0,
            "agent.payload_text_us": per_call("agent.payload_text", "self_ns"),
            "model.serialize_us": per_call("model.serialize"),
            "model.parse_us": per_call("model.parse"),
            "model.payload_bytes": per_call("model.parse", "items", 1),
            "server.transport_us": transport_ns / polls / 1e3 if polls else 0.0,
            "server.apply_us": per_call("server.apply", "self_ns"),
            "server.cluster_us": per_call("server.cluster", "self_ns"),
            "server.flush_metrics_us": per_call("server.flush_metrics", "self_ns"),
            "server.polls": polls,
            "server.hosts_down": poll_host.items,
            "server.notifications": stat("server.process_host").items,
            "server.useful_poll_ratio": (
                (poll_host.calls - poll_host.items) / poll_host.calls if poll_host.calls else 0.0
            ),
            "tsdb.write_us": per_call("tsdb.write"),
            "tsdb.writes": write.calls - write.errors,
            "tsdb.rejected": write.errors,
            "tsdb.flush_s": stat("tsdb.flush").total_ns / 1e9,
            "tsdb.files_written": stat("tsdb.flush").items,
            "tsdb.bytes_written": bytes_written,
            "tsdb.open_s": self._loaded_open_ns / self._loaded_opens / 1e9 if self._loaded_opens else 0.0,
            "tsdb.series_loaded": self._loaded_total / self._loaded_opens if self._loaded_opens else 0.0,
            "tsdb.series_read_per_loaded": (
                len(self._reads) / self._loaded_total if self._loaded_total else 0.0
            ),
            "tsdb.read_ms": per_call("tsdb.read", scale=1e6),
            "tsdb.slots_read": per_call("tsdb.read", "items", 1),
            "report.contractual_ms": per_call("report.contractual", scale=1e6),
            "report.availability_ms": per_call("report.availability", scale=1e6),
            "report.detect_dips_ms": per_call("report.detect_dips", scale=1e6),
            "report.http_ms": (
                (api_client_ns - api_spans_ns) / api_requests / 1e6 if api_requests else 0.0
            ),
            "plot.render_svg_ms": per_call("plot.render_svg", scale=1e6),
            "cli.report_self_ms": per_call("cli.cmd_report", "self_ns", 1e6),
            "trace.spans": self.tracer.span_count(),
            "trace.job_s": job_s,
            "trace.scaled_ops_per_cpu_s": scaled_ops_per_cpu_s,
        }
        return out
