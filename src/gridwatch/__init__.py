"""gridwatch: a small monitoring stack for HPC-style machine rooms.

Agents expose check results over a one-shot TCP poll, a central poller
tracks service state and forwards perfdata into a fixed-retention time
series store, and a reporting layer turns the stored series into
availability figures, dip detection and plots. A deterministic simulator
can stand in for the real machine so the whole stack runs on a desk.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    AgentPayload,
    CheckResult,
    CheckState,
    MetricSample,
    Perfdata,
    parse_agent_payload,
    parse_check_line,
    serialize_agent_payload,
    serialize_check_line,
)
