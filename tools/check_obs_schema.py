#!/usr/bin/env python3
"""Validate observability JSON documents against their schemas.

Stdlib-only checker for the two documents the harnesses emit
(docs/observability.md):

  check_obs_schema.py metrics    <file>  pcstall-metrics-v1 snapshot
  check_obs_schema.py timeline   <file>  pcstall-timeline-v1 Chrome trace
  check_obs_schema.py canonical  <file>  print the deterministic part of
                                         a metrics snapshot in canonical
                                         form (for --threads N vs 1
                                         byte-comparison; the "timing"
                                         section carries wall-clock
                                         values and is stripped)
  check_obs_schema.py provenance <file>  pcstall-provenance-v1 decision
                                         dump (`trace_inspect explain
                                         <trace> json`,
                                         docs/provenance.md)

Exit status: 0 when the document validates, 1 with a diagnostic per
violation otherwise. `--require NAME` (repeatable, metrics mode)
additionally asserts a metric of that name is present; `--require-event
NAME` (timeline mode) asserts at least one trace event of that name;
`--require-prefix PREFIX` (repeatable, metrics mode) asserts at least
one metric whose name starts with the prefix exists in either section
(e.g. `--require-prefix farm.cells.` for sweep-farm store telemetry).
"""

import argparse
import json
import sys

METRICS_SCHEMA = "pcstall-metrics-v1"
TIMELINE_SCHEMA = "pcstall-timeline-v1"
PROVENANCE_SCHEMA = "pcstall-provenance-v1"

HIST_KEYS = {
    "count",
    "sum",
    "min",
    "max",
    "p50",
    "p95",
    "p99",
    "buckets",
    "overflow",
}


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


class Checker:
    def __init__(self):
        self.errors = []

    def error(self, msg):
        self.errors.append(msg)

    def require(self, cond, msg):
        if not cond:
            self.error(msg)
        return cond


def check_histogram(ck, name, h):
    if not ck.require(isinstance(h, dict), f"{name}: not an object"):
        return
    missing = sorted(HIST_KEYS - set(h))
    if not ck.require(not missing, f"{name}: missing {missing}"):
        return
    if not ck.require(
        isinstance(h["count"], int) and h["count"] >= 0,
        f"{name}: count must be a non-negative integer",
    ):
        return
    for k in ("sum", "min", "max", "p50", "p95", "p99"):
        ck.require(is_num(h[k]), f"{name}: {k} must be a number")
    ck.require(
        isinstance(h["overflow"], int) and h["overflow"] >= 0,
        f"{name}: overflow must be a non-negative integer",
    )
    if not ck.require(
        isinstance(h["buckets"], list), f"{name}: buckets must be a list"
    ):
        return
    in_buckets = 0
    prev_le = None
    for i, b in enumerate(h["buckets"]):
        if not ck.require(
            isinstance(b, list) and len(b) == 2 and is_num(b[0])
            and isinstance(b[1], int) and b[1] >= 0,
            f"{name}: bucket[{i}] must be [upper_edge, count]",
        ):
            return
        if prev_le is not None:
            ck.require(
                b[0] > prev_le,
                f"{name}: bucket edges must be strictly ascending",
            )
        prev_le = b[0]
        in_buckets += b[1]
    ck.require(
        in_buckets + h["overflow"] == h["count"],
        f"{name}: bucket counts + overflow ({in_buckets} + "
        f"{h['overflow']}) != count ({h['count']})",
    )
    if h["count"] > 0 and all(is_num(h[k]) for k in ("min", "p50", "p95", "p99", "max")):
        ck.require(
            h["min"] <= h["p50"] <= h["p95"] <= h["p99"] <= h["max"],
            f"{name}: percentiles not ordered "
            f"(min<=p50<=p95<=p99<=max)",
        )


def check_metric_section(ck, sec, where):
    if not ck.require(isinstance(sec, dict), f"{where}: not an object"):
        return
    for key in ("counters", "gauges", "histograms"):
        if not ck.require(
            key in sec and isinstance(sec[key], dict),
            f"{where}: missing object '{key}'",
        ):
            continue
        for name, v in sec[key].items():
            label = f"{where}.{key}[{name!r}]"
            if key == "counters":
                ck.require(
                    isinstance(v, int) and v >= 0,
                    f"{label}: counter must be a non-negative integer",
                )
            elif key == "gauges":
                ck.require(is_num(v), f"{label}: gauge must be a number")
            else:
                check_histogram(ck, label, v)


def metric_names(doc):
    names = set()
    sections = [doc] + ([doc["timing"]] if isinstance(doc.get("timing"), dict) else [])
    for sec in sections:
        for key in ("counters", "gauges", "histograms"):
            if isinstance(sec.get(key), dict):
                names.update(sec[key])
    return names


def check_metrics(doc, required, required_prefixes=()):
    ck = Checker()
    if not ck.require(isinstance(doc, dict), "top level: not an object"):
        return ck.errors
    ck.require(
        doc.get("schema") == METRICS_SCHEMA,
        f"schema must be '{METRICS_SCHEMA}' (got {doc.get('schema')!r})",
    )
    check_metric_section(ck, doc, "top level")
    if "timing" in doc:
        check_metric_section(ck, doc["timing"], "timing")
    present = metric_names(doc)
    for name in required:
        ck.require(name in present, f"required metric '{name}' absent")
    for prefix in required_prefixes:
        ck.require(
            any(name.startswith(prefix) for name in present),
            f"no metric with required prefix '{prefix}'",
        )
    return ck.errors


def check_timeline(doc, required_events):
    ck = Checker()
    if not ck.require(isinstance(doc, dict), "top level: not an object"):
        return ck.errors
    other = doc.get("otherData")
    ck.require(
        isinstance(other, dict) and other.get("schema") == TIMELINE_SCHEMA,
        f"otherData.schema must be '{TIMELINE_SCHEMA}'",
    )
    events = doc.get("traceEvents")
    if not ck.require(isinstance(events, list), "traceEvents must be a list"):
        return ck.errors
    seen = set()
    for i, ev in enumerate(events):
        label = f"traceEvents[{i}]"
        if not ck.require(isinstance(ev, dict), f"{label}: not an object"):
            continue
        if not ck.require(
            isinstance(ev.get("name"), str), f"{label}: missing name"
        ):
            continue
        seen.add(ev["name"])
        ph = ev.get("ph")
        if not ck.require(
            ph in ("X", "i", "M"), f"{label}: ph must be X, i or M"
        ):
            continue
        for k in ("pid", "tid"):
            ck.require(
                isinstance(ev.get(k), int), f"{label}: {k} must be an integer"
            )
        if ph == "X":
            ck.require(
                is_num(ev.get("ts")) and is_num(ev.get("dur"))
                and ev["dur"] >= 0,
                f"{label}: X event needs numeric ts and dur >= 0",
            )
        elif ph == "i":
            ck.require(is_num(ev.get("ts")), f"{label}: i event needs ts")
            ck.require(
                ev.get("s") in ("t", "p", "g"),
                f"{label}: i event needs scope s",
            )
        else:
            ck.require(
                isinstance(ev.get("args"), dict),
                f"{label}: M event needs args",
            )
    for name in required_events:
        ck.require(name in seen, f"required event '{name}' absent")
    return ck.errors


def check_prov_domain(ck, label, dom, num_states, realized):
    if not ck.require(isinstance(dom, dict), f"{label}: not an object"):
        return
    ck.require(
        isinstance(dom.get("pc"), str), f"{label}: pc must be a string"
    )
    for k in ("lookups", "hits", "same_region", "reactive",
              "elapsed_instr", "load_stall_ticks", "mem_accesses"):
        ck.require(
            isinstance(dom.get(k), int) and dom[k] >= 0,
            f"{label}: {k} must be a non-negative integer",
        )
    if isinstance(dom.get("lookups"), int) and isinstance(dom.get("hits"), int):
        ck.require(
            dom["hits"] <= dom["lookups"],
            f"{label}: hits ({dom['hits']}) exceed lookups "
            f"({dom['lookups']})",
        )
    for k in ("pred_sens", "pred_level", "pred_instr"):
        ck.require(is_num(dom.get(k)), f"{label}: {k} must be a number")
    state_keys = ["chosen_state", "applied_state"]
    if realized:
        state_keys.append("best_state")
        ck.require(
            isinstance(dom.get("realized_instr"), int)
            and dom["realized_instr"] >= 0,
            f"{label}: realized_instr must be a non-negative integer",
        )
        for k in ("chosen_score", "best_score", "nominal_score"):
            ck.require(is_num(dom.get(k)), f"{label}: {k} must be a number")
    for k in state_keys:
        ck.require(
            isinstance(dom.get(k), int) and 0 <= dom[k] < num_states,
            f"{label}: {k} must be a state index in [0, {num_states})",
        )


def check_provenance(doc):
    ck = Checker()
    if not ck.require(isinstance(doc, dict), "top level: not an object"):
        return ck.errors
    ck.require(
        doc.get("schema") == PROVENANCE_SCHEMA,
        f"schema must be '{PROVENANCE_SCHEMA}' (got {doc.get('schema')!r})",
    )

    meta = doc.get("meta")
    num_states = 0
    num_domains = 0
    if ck.require(isinstance(meta, dict), "meta: missing object"):
        for k in ("workload", "controller", "objective"):
            ck.require(
                isinstance(meta.get(k), str) and meta[k],
                f"meta.{k}: must be a non-empty string",
            )
        ck.require(
            isinstance(meta.get("epoch_len_ticks"), int)
            and meta["epoch_len_ticks"] > 0,
            "meta.epoch_len_ticks: must be a positive integer",
        )
        if ck.require(
            isinstance(meta.get("domains"), int) and meta["domains"] > 0,
            "meta.domains: must be a positive integer",
        ):
            num_domains = meta["domains"]
        freqs = meta.get("state_freq_mhz")
        if ck.require(
            isinstance(freqs, list) and freqs
            and all(isinstance(f, int) and f > 0 for f in freqs),
            "meta.state_freq_mhz: must be a non-empty list of "
            "positive integers",
        ):
            num_states = len(freqs)
            ck.require(
                all(a < b for a, b in zip(freqs, freqs[1:])),
                "meta.state_freq_mhz: must be strictly ascending",
            )
            ck.require(
                isinstance(meta.get("nominal_state"), int)
                and 0 <= meta["nominal_state"] < num_states,
                f"meta.nominal_state: must be a state index in "
                f"[0, {num_states})",
            )

    records = doc.get("records")
    realized_count = 0
    if ck.require(isinstance(records, list), "records: must be a list"):
        prev_epoch = None
        for i, rec in enumerate(records):
            label = f"records[{i}]"
            if not ck.require(isinstance(rec, dict), f"{label}: not an object"):
                continue
            ck.require(
                isinstance(rec.get("epoch"), int) and rec["epoch"] >= 0,
                f"{label}: epoch must be a non-negative integer",
            )
            ck.require(is_num(rec.get("start")), f"{label}: start missing")
            for k in ("fallback", "realized"):
                ck.require(
                    isinstance(rec.get(k), bool), f"{label}: {k} must be a bool"
                )
            if prev_epoch is not None and isinstance(rec.get("epoch"), int):
                ck.require(
                    rec["epoch"] > prev_epoch,
                    f"{label}: epochs must be strictly ascending",
                )
            prev_epoch = rec.get("epoch")
            realized = rec.get("realized") is True
            if realized:
                realized_count += 1
                ck.require(
                    is_num(rec.get("oracle_regret_rel"))
                    and rec["oracle_regret_rel"] >= 0,
                    f"{label}: oracle_regret_rel must be >= 0",
                )
                ck.require(
                    is_num(rec.get("static_regret_rel")),
                    f"{label}: static_regret_rel must be a number",
                )
            scores = rec.get("state_scores")
            if ck.require(
                isinstance(scores, list),
                f"{label}: state_scores must be a list",
            ):
                want = num_states if realized else 0
                ck.require(
                    len(scores) == want and all(is_num(s) for s in scores),
                    f"{label}: state_scores must hold {want} numbers",
                )
            doms = rec.get("domains")
            if ck.require(
                isinstance(doms, list) and len(doms) == num_domains,
                f"{label}: domains must be a list of {num_domains}",
            ):
                for d, dom in enumerate(doms):
                    check_prov_domain(
                        ck, f"{label}.domains[{d}]", dom, num_states, realized
                    )
        # An unrealized (dangling) decision can only be the final record.
        for i, rec in enumerate(records[:-1]):
            if isinstance(rec, dict):
                ck.require(
                    rec.get("realized") is True,
                    f"records[{i}]: unrealized record before the end",
                )

    regret = doc.get("regret")
    if ck.require(isinstance(regret, dict), "regret: missing object"):
        ck.require(
            regret.get("decisions") == realized_count,
            f"regret.decisions ({regret.get('decisions')!r}) != realized "
            f"record count ({realized_count})",
        )
        if realized_count > 0:
            for k in ("mean_oracle", "p95_oracle", "max_oracle"):
                ck.require(
                    is_num(regret.get(k)) and regret[k] >= 0,
                    f"regret.{k}: must be a number >= 0",
                )
            ck.require(
                is_num(regret.get("mean_static")),
                "regret.mean_static: must be a number",
            )
    return ck.errors


def canonical(doc):
    """The deterministic part of a metrics snapshot, canonically
    serialized: identical bytes for identical simulated work, however
    many threads produced it."""
    kept = {
        k: doc[k]
        for k in ("schema", "counters", "gauges", "histograms")
        if k in doc
    }
    return json.dumps(kept, sort_keys=True, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "mode", choices=("metrics", "timeline", "canonical", "provenance")
    )
    parser.add_argument("file")
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME",
        help="metrics mode: assert this metric is present",
    )
    parser.add_argument(
        "--require-event",
        action="append",
        default=[],
        metavar="NAME",
        help="timeline mode: assert an event of this name exists",
    )
    parser.add_argument(
        "--require-prefix",
        action="append",
        default=[],
        metavar="PREFIX",
        help="metrics mode: assert a metric with this name prefix exists",
    )
    args = parser.parse_args()

    try:
        with open(args.file) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: {args.file}: {e}")

    if args.mode == "canonical":
        errors = check_metrics(doc, args.require, args.require_prefix)
        if errors:
            for e in errors:
                print(f"error: {args.file}: {e}", file=sys.stderr)
            return 1
        print(canonical(doc))
        return 0

    if args.mode == "metrics":
        errors = check_metrics(doc, args.require, args.require_prefix)
        kind, detail = "metrics snapshot", f"{len(metric_names(doc))} metrics"
    elif args.mode == "provenance":
        errors = check_provenance(doc)
        records = doc.get("records") if isinstance(doc, dict) else None
        n = len(records) if isinstance(records, list) else 0
        kind, detail = "provenance dump", f"{n} decisions"
    else:
        errors = check_timeline(doc, args.require_event)
        kind = "timeline"
        detail = f"{len(doc.get('traceEvents', []))} events"
    if errors:
        for e in errors:
            print(f"error: {args.file}: {e}")
        return 1
    print(f"{args.file}: valid {kind} ({detail})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
