"""Self-contained run and fleet reports, rendered as markdown or HTML.

A report is a list of ``(heading, blocks)`` sections - the first heading is
the page title - and every block is a ``(kind, payload)`` pair:

* ``fields`` - ``(name, value)`` pairs (the summary),
* ``table`` - dict rows (columns from the first row's keys),
* ``text`` / ``pass`` / ``fail`` - a paragraph, the latter two a verdict,
* ``list`` - bullet items,
* ``sparklines`` - ``(label, values)`` health series.

:func:`run_report` builds the sections for one finished
:class:`~repro.metrics.report.SimulationResult` (summary, per-(tenant,
phase) attribution with its exact reconciliation verdict, per-tenant SLO
verdicts, health sparklines, counters and the longest trace spans);
:func:`fleet_report` does the same for a
:class:`~repro.fleet.result.FleetResult` (placement, nodes, tenants, SLOs,
admission, background work, reconciliation).  :func:`render_markdown` and
:func:`render_html` render any report, and :func:`write_report` picks the
renderer from the file suffix.

The module is a *consumer* of finished runs (it imports :mod:`repro.metrics`),
so :mod:`repro.obs` re-exports it lazily - the simulator-importable leaves
stay cycle-free.
"""

from __future__ import annotations

import html
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.metrics.attribution import reconcile_attribution
from repro.obs.trace import MemoryTraceSink

_Block = Tuple[str, object]
_Section = Tuple[str, List[_Block]]

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"
#: Size in pixels of an inline SVG sparkline.
_SVG_WIDTH = 240
_SVG_HEIGHT = 32
#: Longest spans listed in a run report.
_TOP_SPANS = 10

#: Health metrics rendered as sparklines, in display order.
_HEALTH_METRICS = (
    ("event_backlog", "event backlog"),
    ("queue_depth", "device queue depth"),
    ("host_backlog", "host backlog"),
    ("inflight_ios", "in-flight I/Os"),
    ("gc_backlog", "GC backlog"),
    ("planes_below_watermark", "planes below GC watermark"),
    ("min_free_blocks", "min free blocks"),
    ("chip_busy_fraction", "chip busy fraction"),
)


@dataclass(frozen=True)
class SLOCheck:
    """One threshold verdict for one tenant."""

    tenant: str
    metric: str
    limit_us: float
    actual_us: float

    @property
    def ok(self) -> bool:
        """True when the tenant met the threshold."""
        return self.actual_us <= self.limit_us


@dataclass(frozen=True)
class SLOThresholds:
    """Latency ceilings checked per tenant (microseconds; ``None`` = unchecked)."""

    mean_us: Optional[float] = None
    p99_us: Optional[float] = None
    p999_us: Optional[float] = None
    max_us: Optional[float] = None

    def __bool__(self) -> bool:
        return any(
            limit is not None
            for limit in (self.mean_us, self.p99_us, self.p999_us, self.max_us)
        )

    def check(self, tenant: str, latency) -> List[SLOCheck]:
        """Verdicts for one tenant's pooled latency distribution."""
        gauges = (
            ("mean", self.mean_us, latency.mean_ns / 1_000.0),
            ("p99", self.p99_us, latency.percentile_ns(0.99) / 1_000.0),
            ("p999", self.p999_us, latency.percentile_ns(0.999) / 1_000.0),
            ("max", self.max_us, latency.max_ns / 1_000.0),
        )
        return [
            SLOCheck(tenant=tenant, metric=metric, limit_us=limit, actual_us=round(actual, 1))
            for metric, limit, actual in gauges
            if limit is not None
        ]


def slo_verdicts(result, slo: Optional[SLOThresholds]) -> List[SLOCheck]:
    """Every foreground tenant's verdicts against ``slo``.

    Empty without attribution or without ``slo``.  ``bg:`` maintenance
    slices are never checked: they carry no tenant SLO.
    """
    if result.attribution is None or slo is None:
        return []
    checks: List[SLOCheck] = []
    for entry in result.attribution.tenant_totals():
        if not entry.tenant.startswith("bg:"):
            checks.extend(slo.check(entry.tenant, entry.latency))
    return checks


def sparkline(values: Sequence[float]) -> str:
    """Render a numeric series as a unicode block sparkline."""
    if not values:
        return ""
    low = min(values)
    span = max(values) - low
    top = len(_SPARK_BLOCKS) - 1
    if span <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    return "".join(
        _SPARK_BLOCKS[int((value - low) / span * top)] for value in values
    )


def svg_sparkline(values: Sequence[float]) -> str:
    """Render a numeric series as a self-contained inline SVG polyline."""
    if not values:
        return "<svg></svg>"
    low = min(values)
    span = max(values) - low
    n = max(len(values) - 1, 1)
    points = []
    for index, value in enumerate(values):
        x = index / n * (_SVG_WIDTH - 2) + 1
        y = _SVG_HEIGHT - 2 - ((value - low) / span * (_SVG_HEIGHT - 4) if span > 0 else 0)
        points.append(f"{x:.1f},{y:.1f}")
    return (
        f'<svg width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}" '
        'xmlns="http://www.w3.org/2000/svg">'
        f'<polyline fill="none" stroke="#2a6" stroke-width="1.5" '
        f'points="{" ".join(points)}"/></svg>'
    )


# ----------------------------------------------------------------------
# Section assembly
# ----------------------------------------------------------------------
def _table(rows: Sequence[Dict[str, object]]) -> List[_Block]:
    return [("table", list(rows))] if rows else []


def _verdict(problems: Sequence[str], ok_text: str) -> List[_Block]:
    if problems:
        return [("fail", "Reconciliation FAILED:"), ("list", list(problems))]
    return [("pass", ok_text)]


def _tenant_rows(report) -> List[Dict[str, object]]:
    rows = [entry.summary_row() for entry in report.entries]
    for entry in report.tenant_totals():
        row = entry.summary_row()
        row["phase"] = "(all)"
        rows.append(row)
    if report.untagged_ios:
        rows.append(
            {
                "phase": "-",
                "tenant": "(untagged)",
                "ios": report.untagged_ios,
                "mb": round(report.untagged_bytes / (1024.0 * 1024.0), 2),
            }
        )
    return rows


def _slo_rows(checks: Sequence[SLOCheck]) -> List[Dict[str, object]]:
    return [
        {
            "tenant": check.tenant,
            "metric": check.metric,
            "limit_us": check.limit_us,
            "actual_us": check.actual_us,
            "verdict": "PASS" if check.ok else "FAIL",
        }
        for check in checks
    ]


def _health_blocks(result) -> List[_Block]:
    samples = result.health
    if not samples:
        return []
    span_ms = round((samples[-1].t_ns - samples[0].t_ns) / 1_000_000.0, 3)
    series = [
        (label, [float(getattr(sample, name)) for sample in samples])
        for name, label in _HEALTH_METRICS
    ]
    return [
        ("text", f"{len(samples)} samples over {span_ms} ms of simulated time."),
        ("sparklines", series),
    ]


def _top_spans(sink: Optional[MemoryTraceSink]) -> List[Dict[str, object]]:
    if sink is None:
        return []
    return [
        {
            "name": record.name,
            "track": record.track,
            "start_us": round(record.start_ns / 1_000.0, 1),
            "dur_us": round(record.duration_ns / 1_000.0, 1),
        }
        for record in sink.longest(_TOP_SPANS)
    ]


def run_report(
    result,
    *,
    slo: Optional[SLOThresholds] = None,
    sink: Optional[MemoryTraceSink] = None,
    title: Optional[str] = None,
) -> List[_Section]:
    """The report sections of one finished run."""
    if result.attribution is None:
        tenants: List[_Block] = [
            ("text", "No provenance tags recorded (not a scenario-built workload).")
        ]
    else:
        tenants = _table(_tenant_rows(result.attribution)) + _verdict(
            reconcile_attribution(result),
            "Reconciliation: per-tenant counts, bytes and pooled percentile "
            "inputs match the aggregate exactly.",
        )
    summary = [
        ("workload", result.workload),
        ("scheduler", result.scheduler),
        ("completed I/Os", result.completed_ios),
        ("total MB", round(result.total_bytes / (1024.0 * 1024.0), 2)),
        ("makespan (ms)", round(result.makespan_ns / 1_000_000.0, 3)),
        ("bandwidth (MB/s)", round(result.bandwidth_kb_s / 1024.0, 1)),
        ("IOPS", round(result.iops, 1)),
        ("mean latency (us)", round(result.latency.mean_ns / 1_000.0, 1)),
        ("p99 latency (us)", round(result.latency.percentile_ns(0.99) / 1_000.0, 1)),
        ("events processed", result.events_processed),
    ]
    counters = [
        {"counter": name, "value": value} for name, value in sorted(result.counters.items())
    ]
    sections = [
        (title or f"Run report: {result.workload} [{result.scheduler}]", [("fields", summary)]),
        ("Tenants", tenants),
        ("SLO checks", _table(_slo_rows(slo_verdicts(result, slo)))),
        ("Health", _health_blocks(result)),
        ("Counters", _table(counters)),
        ("Top spans", _table(_top_spans(sink))),
    ]
    return [section for section in sections if section[1]]


def fleet_report(fleet) -> List[_Section]:
    """The report sections of one fleet run (a :class:`FleetResult`)."""
    row = fleet.summary_row()
    summary = [
        ("fleet", row["fleet"]),
        ("placement", row["placement"]),
        ("nodes", row["nodes"]),
        ("completed I/Os", fleet.completed_ios),
        ("total MB", round(fleet.total_bytes / (1024.0 * 1024.0), 2)),
        ("makespan (ms)", round(fleet.makespan_ns / 1_000_000.0, 3)),
        ("bandwidth (MB/s)", row["bandwidth_mb_s"]),
        ("IOPS", row["iops"]),
        ("p99 latency (us)", row["p99_latency_us"]),
        ("byte imbalance", row["byte_imbalance"]),
        ("IOPS imbalance", row["iops_imbalance"]),
        ("SLO violations", row["slo_violations"]),
        ("throttled / rejected", f"{fleet.throttled_ios} / {fleet.rejected_ios}"),
        ("background I/Os", fleet.background_ios),
    ]
    placement = [
        {"tenant": tenant, "node": fleet.node_names[index]}
        for tenant, index in fleet.plan.assignments
    ]
    attribution = fleet.attribution
    sections = [
        (f"Fleet report: {fleet.name} [{fleet.placement}]", [("fields", summary)]),
        ("Placement", _table(placement)),
        ("Nodes", _table(fleet.node_rows())),
        ("Tenants", _table(_tenant_rows(attribution)) if attribution else []),
        ("SLO checks", _table(_slo_rows(fleet.slo_checks))),
        ("Admission", _table([stats.rows() for stats in fleet.admission])),
        ("Background work", _table([stats.rows() for stats in fleet.background])),
        (
            "Reconciliation",
            _verdict(
                reconcile_attribution(fleet),
                "Per-tenant counts, bytes and pooled percentile inputs match the "
                "summed per-array attribution exactly.",
            ),
        ),
    ]
    return [section for section in sections if section[1]]


# ----------------------------------------------------------------------
# Markdown
# ----------------------------------------------------------------------
def _md_cell(value: object) -> str:
    return str(value).replace("|", "\\|").replace("\n", "<br>")


def _md_table(rows: Sequence[Dict[str, object]]) -> List[str]:
    columns = list(rows[0].keys())
    lines = [
        "| " + " | ".join(_md_cell(col) for col in columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_md_cell(row.get(col, "")) for col in columns) + " |")
    return lines


def _md_block(kind: str, payload) -> List[str]:
    if kind == "fields":
        return [f"- **{name}**: {value}" for name, value in payload]
    if kind == "table":
        return _md_table(payload)
    if kind == "list":
        return [f"- {item}" for item in payload]
    if kind == "fail":
        return [f"**{payload}**"]
    if kind == "sparklines":
        width = max(len(label) for label, _ in payload)
        return [
            "```",
            *(
                f"{label:<{width}}  {sparkline(values)}  "
                f"min={min(values):g} max={max(values):g} last={values[-1]:g}"
                for label, values in payload
            ),
            "```",
        ]
    return [payload]


def render_markdown(sections: Sequence[_Section]) -> str:
    """Render report sections as GitHub-flavoured markdown."""
    chunks: List[str] = []
    for index, (heading, blocks) in enumerate(sections):
        chunks.append(("# " if index == 0 else "## ") + heading)
        chunks += ["\n".join(_md_block(kind, payload)) for kind, payload in blocks]
    return "\n\n".join(chunks) + "\n"


# ----------------------------------------------------------------------
# HTML
# ----------------------------------------------------------------------
_HTML_STYLE = (
    "body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:60em;"
    "color:#222}table{border-collapse:collapse;margin:0.5em 0}"
    "td,th{border:1px solid #ccc;padding:0.25em 0.6em;text-align:right}"
    "th{background:#f0f0f0}td:first-child,th:first-child{text-align:left}"
    ".pass{color:#2a6;font-weight:bold}.fail{color:#c33;font-weight:bold}"
    "h2{border-bottom:1px solid #ddd;padding-bottom:0.2em}"
)


def _html_table(rows: Sequence[Dict[str, object]]) -> List[str]:
    columns = list(rows[0].keys())
    header = "".join(f"<th>{html.escape(str(col))}</th>" for col in columns)
    lines = ["<table>", f"<tr>{header}</tr>"]
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            text = html.escape(str(value))
            if col == "verdict":
                text = f'<span class="{"pass" if value == "PASS" else "fail"}">{text}</span>'
            cells.append(f"<td>{text}</td>")
        lines.append("<tr>" + "".join(cells) + "</tr>")
    lines.append("</table>")
    return lines


def _html_block(kind: str, payload) -> List[str]:
    if kind == "fields":
        return _html_table([dict(payload)])
    if kind == "table":
        return _html_table(payload)
    if kind == "list":
        return ["<ul>", *(f"<li>{html.escape(item)}</li>" for item in payload), "</ul>"]
    if kind == "sparklines":
        return [
            "<table>",
            "<tr><th>gauge</th><th>series</th><th>min</th><th>max</th><th>last</th></tr>",
            *(
                f"<tr><td>{html.escape(label)}</td><td>{svg_sparkline(values)}</td>"
                f"<td>{min(values):g}</td><td>{max(values):g}</td>"
                f"<td>{values[-1]:g}</td></tr>"
                for label, values in payload
            ),
            "</table>",
        ]
    css = f' class="{kind}"' if kind in ("pass", "fail") else ""
    return [f"<p{css}>{html.escape(payload)}</p>"]


def render_html(sections: Sequence[_Section]) -> str:
    """Render report sections as one self-contained HTML page (inline SVG)."""
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{html.escape(sections[0][0])}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
    ]
    for index, (heading, blocks) in enumerate(sections):
        tag = "h1" if index == 0 else "h2"
        parts.append(f"<{tag}>{html.escape(heading)}</{tag}>")
        for kind, payload in blocks:
            parts += _html_block(kind, payload)
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def write_report(path: Union[str, Path], sections: Sequence[_Section]) -> Path:
    """Write report sections to ``path``: ``.html``/``.htm`` produce the HTML
    page, any other suffix markdown."""
    target = Path(path)
    if target.suffix.lower() in (".html", ".htm"):
        content = render_html(sections)
    else:
        content = render_markdown(sections)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(content, encoding="utf-8")
    return target
