"""Per-layer metrics computed from the spans of a traced run.

``layer_metrics()`` lists what a traced run reports, in the order of
``BENCHMARK.json``, followed by ``OVERHEAD_METRICS``.  Each entry names the span it reads, the workload whose
ops the span must sit under ("setup" for the cold set-up processes) and the
part of that workload (group tag, catalog row, or descent size class).

Self time is a span's duration minus the time its child spans cover; a
layer's self share is its summed self time over the summed duration of the
workload's op spans.
"""

from dataclasses import dataclass

import numpy as np

from . import workloads

TAGS = ("T", "O", "I")
SIZES = ("small", "large")

# stat -> (metric name suffix, unit)
STATS = {
    "p50": ("_ms", "ms"),
    "calls": (".calls", "calls/op"),
    "self": (".self_pct", "%"),
    "pair_rate": (".pair_evals_per_s", "1/s"),
    "arc_count": (".arc_count", "count"),
}


@dataclass(frozen=True)
class LayerMetric:
    span: str
    stat: str
    workload: str
    part: str = None

    @property
    def name(self):
        return self.span + (f".{self.part}" if self.part else "") + STATS[self.stat][0]

    @property
    def unit(self):
        return STATS[self.stat][1]


def layer_metrics():
    out = []
    for span in (
        "groups.builtin_group",
        "groups.full_group_tessellation",
        "homotopy.build_archimedean",
        "homotopy.published_numbering",
    ):
        out += [LayerMetric(span, "p50", "setup", tag) for tag in TAGS]
    out.append(LayerMetric("setup.import", "p50", "setup"))

    certify = (
        "homotopy.find_extra_symmetry",
        "homotopy.ConeSpec",
        "estimates.zeta",
        "estimates.delta_min",
        "estimates.tilde_U0",
        "estimates.test_loop_action_exact",
        "estimates.certify_no_total_collisions",
        "estimates.test_loop_action_bound",
    )
    out += [LayerMetric(span, "p50", "certify") for span in certify]
    out += [LayerMetric(span, "calls", "certify") for span in certify[2:5]]
    out += [LayerMetric(span, "self", "certify") for span in certify]

    arcs = "homotopy.min_total_angle"
    out += [LayerMetric(arcs, "p50", "arcs", workloads.part_of(key)) for key in workloads.ARC_ANGLES]
    out += [LayerMetric(arcs, "arc_count", "arcs"), LayerMetric(arcs, "self", "arcs")]

    descent = (
        "action.SymmetryReduction.lift",
        "action.LoopPath",
        "action.action",
        "action.gradient",
        "action.gradient_full",
        "action.SymmetryReduction.reduce_gradient",
        "action.SymmetryReduction.node_images",
    )
    out += [LayerMetric(span, "p50", "descent", size) for span in descent for size in SIZES]
    out.append(LayerMetric("action.discrete_energy", "p50", "descent", "large"))
    out += [LayerMetric(span, "pair_rate", "descent") for span in ("action.action", "action.gradient")]
    out.append(LayerMetric("action.SymmetryReduction.node_images", "calls", "descent"))
    out += [LayerMetric(span, "self", "descent") for span in descent if span != "action.gradient_full"]
    return tuple(out)


# Traced minus untraced mean op time on the run's own workload.
OVERHEAD_METRICS = (("trace.overhead_ms", "ms"), ("trace.overhead_pct", "%"))


def summarize(spans):
    """Per (workload, span name, part): durations, and for spans inside op
    spans their self time, call count, op time and pair evaluations; plus
    the count and summed duration of each workload's op spans.

    Only spans under a root that carries attrs (an op, a traced-only extra
    or a set-up phase) are counted; spans opened by result checks are not.
    """
    root = np.zeros(len(spans), dtype=int)
    child = np.zeros(len(spans))
    for i, (_, start, end, parent, _) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child[parent] += end - start
    rows, ops = {}, {}
    for i, (name, start, end, _, _) in enumerate(spans):
        attrs = spans[root[i]][4]
        if attrs is None:
            continue
        duration = end - start
        key = (attrs["workload"], name, attrs.get("part"))
        row = rows.setdefault(
            key, {"durations": [], "self": 0.0, "op_calls": 0, "op_seconds": 0.0, "work": 0}
        )
        row["durations"].append(duration)
        if spans[root[i]][0] == "op":
            row["self"] += duration - child[i]
            row["op_calls"] += 1
            row["op_seconds"] += duration
            row["work"] += attrs.get("n", 0) * (attrs.get("order", 1) - 1)
        if name == "op":
            op = ops.setdefault(attrs["workload"], {"count": 0, "seconds": 0.0})
            op["count"] += 1
            op["seconds"] += duration
    return rows, ops


def table(spans):
    """Readable layer table: one entry per (workload, span, part)."""
    rows, ops = summarize(spans)
    out = []
    for (workload, name, part), row in sorted(rows.items(), key=lambda kv: tuple(map(str, kv[0]))):
        op = ops.get(workload)
        out.append({
            "workload": workload,
            "span": name,
            "part": part,
            "calls": len(row["durations"]),
            "p50_ms": 1e3 * float(np.median(row["durations"])),
            "total_ms": 1e3 * float(np.sum(row["durations"])),
            "self_pct": 100.0 * row["self"] / op["seconds"] if op else None,
        })
    return out


def _pick(rows, metric):
    found = [
        row for (workload, name, part), row in rows.items()
        if workload == metric.workload and name == metric.span
        and (metric.part is None or part == metric.part)
    ]
    if not found:
        raise RuntimeError(f"no spans recorded for per-layer metric {metric.name}")
    return found


def layer_values(spans):
    """Value of every ``layer_metrics()`` entry; raises if a span is missing."""
    rows, ops = summarize(spans)
    values = {}
    for metric in layer_metrics():
        found = _pick(rows, metric)
        durations = [d for row in found for d in row["durations"]]
        op = ops[metric.workload] if metric.workload != "setup" else None
        if metric.stat == "p50":
            value = 1e3 * float(np.median(durations))
        elif metric.stat == "calls":
            value = sum(row["op_calls"] for row in found) / op["count"]
        elif metric.stat == "self":
            value = 100.0 * sum(row["self"] for row in found) / op["seconds"]
        elif metric.stat == "pair_rate":
            value = sum(row["work"] for row in found) / sum(row["op_seconds"] for row in found)
        else:
            value = float(_arc_count(spans))
        values[metric.name] = value
    return values


def _arc_count(spans):
    """Arcs in the optimal skeletons of the first op of every arcs row."""
    seen = {}
    for name, start, end, parent, attrs in spans:
        if name == "op" and attrs["workload"] == "arcs" and "arcs" in attrs:
            seen.setdefault(attrs["part"], attrs["arcs"])
    return sum(seen.values())
