#!/usr/bin/env python3
"""Plot epoch-trace CSVs and observability JSON exported by the simulator.

The `run` kind takes the per-epoch CSV that `trace_inspect csv
run.pctrace > run.csv` (or `examples/custom_workload --trace-csv`)
writes from a recorded epoch trace (docs/trace_format.md). Lines
starting with '#' (the `# pcstall-run-trace-csv v<N>` schema comment)
are skipped, so header-only CSVs without it load as well.

The `metrics` kind takes the observability JSON instead: either a
pcstall-metrics-v1 snapshot (--metrics-out) or a pcstall-timeline-v1
Chrome trace (--timeline-out), auto-detected, and renders a
frequency-residency panel next to the prediction-error distribution
(docs/observability.md).

Requires matplotlib.
"""

import argparse
import csv
import json
import sys
from collections import defaultdict

EXAMPLES = """\
examples:
  # frequency / work per epoch from a recorded epoch trace
  trace_inspect capture --workload comd --controller PCSTALL \\
    --out run.pctrace
  trace_inspect csv run.pctrace > run.csv
  plot_traces.py run run.csv -o run.png

  # residency + prediction error from an observability snapshot
  fig15_ed2p --metrics-out metrics.json
  plot_traces.py metrics metrics.json -o obs.png
"""


def load(path):
    """Load a CSV, skipping '#' comment lines (schema-version header)."""
    with open(path) as f:
        rows = (line for line in f if not line.lstrip().startswith("#"))
        return list(csv.DictReader(rows))


def check_columns(rows, required, path):
    if not rows:
        sys.exit(f"error: {path}: no data rows")
    missing = sorted(required - set(rows[0]))
    if missing:
        sys.exit(
            f"error: {path}: missing column(s) {', '.join(missing)} "
            f"(is this the right CSV kind?)"
        )


def plot_run(rows, out):
    import matplotlib.pyplot as plt

    domains = defaultdict(lambda: ([], [], []))
    for r in rows:
        t, f, c = domains[int(r["domain"])]
        t.append(float(r["epoch_us"]))
        f.append(float(r["freq_ghz"]))
        c.append(float(r["committed"]))

    fig, (ax_f, ax_c) = plt.subplots(2, 1, sharex=True, figsize=(10, 6))
    for d, (t, f, c) in sorted(domains.items()):
        ax_f.step(t, f, where="post", label=f"domain {d}", alpha=0.7)
        ax_c.plot(t, c, alpha=0.7)
    ax_f.set_ylabel("frequency (GHz)")
    ax_f.legend(loc="upper right", fontsize="small")
    ax_c.set_ylabel("instructions / epoch")
    ax_c.set_xlabel("time (us)")
    fig.suptitle("PCSTALL run trace")
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def residency_from_metrics(doc):
    """[(state label, share)] from dvfs.residency.sNN counters."""
    residency = {
        name.rsplit(".", 1)[-1]: v
        for name, v in doc.get("counters", {}).items()
        if name.startswith("dvfs.residency.")
    }
    total = sum(residency.values())
    return [
        (state, v / total if total else 0.0)
        for state, v in sorted(residency.items())
    ]


def residency_from_timeline(doc):
    """[(GHz label, share)] by summing span durations per frequency.

    Epoch spans are named after the domain's operating frequency
    ("1.40 GHz"), so grouping X events by name recovers residency in
    simulated time rather than epoch counts.
    """
    by_freq = defaultdict(float)
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") == "X" and ev.get("name", "").endswith("GHz"):
            by_freq[ev["name"]] += float(ev.get("dur", 0.0))
    total = sum(by_freq.values())
    return [
        (freq, dur / total if total else 0.0)
        for freq, dur in sorted(by_freq.items())
    ]


def plot_metrics(doc, out, path):
    import matplotlib.pyplot as plt

    is_timeline = "traceEvents" in doc
    if is_timeline:
        residency = residency_from_timeline(doc)
        err = None
    else:
        if doc.get("schema") != "pcstall-metrics-v1":
            sys.exit(
                f"error: {path}: neither a pcstall-metrics-v1 snapshot "
                f"nor a Chrome-trace timeline"
            )
        residency = residency_from_metrics(doc)
        err = doc.get("histograms", {}).get("predict.error_pct")

    fig, (ax_r, ax_e) = plt.subplots(1, 2, figsize=(11, 4))

    if residency:
        labels = [s for s, _ in residency]
        shares = [100.0 * v for _, v in residency]
        ax_r.bar(range(len(labels)), shares, color="tab:blue", alpha=0.8)
        ax_r.set_xticks(range(len(labels)))
        ax_r.set_xticklabels(labels, rotation=45, fontsize="small")
        ax_r.set_ylabel(
            "simulated-time share (%)" if is_timeline
            else "domain-epoch share (%)"
        )
    else:
        ax_r.text(0.5, 0.5, "no residency data", ha="center", va="center")
    ax_r.set_title("V/f residency")

    if err and err.get("count"):
        edges = [b[0] for b in err["buckets"]]
        counts = [b[1] for b in err["buckets"]]
        ax_e.bar(
            range(len(edges)), counts, color="tab:orange", alpha=0.8
        )
        ticks = range(0, len(edges), max(1, len(edges) // 8))
        ax_e.set_xticks(list(ticks))
        ax_e.set_xticklabels(
            [f"{edges[i]:.3g}" for i in ticks], fontsize="small"
        )
        ax_e.set_xlabel("prediction error (%, bucket upper edge)")
        ax_e.set_ylabel("epochs")
        for p in ("p50", "p95", "p99"):
            ax_e.axvline(
                next(
                    (i for i, e in enumerate(edges) if e >= err[p]),
                    len(edges) - 1,
                ),
                color="gray",
                linestyle="--",
                linewidth=0.8,
            )
        ax_e.set_title(
            f"prediction error  p50={err['p50']:.2f}%  "
            f"p95={err['p95']:.2f}%  p99={err['p99']:.2f}%"
        )
    else:
        ax_e.text(
            0.5,
            0.5,
            "timeline input carries no\nprediction-error histogram"
            if is_timeline
            else "no predict.error_pct samples",
            ha="center",
            va="center",
        )
        ax_e.set_title("prediction error")

    fig.suptitle("PCSTALL observability snapshot")
    fig.tight_layout()
    fig.savefig(out, dpi=150)
    print(f"wrote {out}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        epilog=EXAMPLES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "kind",
        choices=("run", "metrics"),
        help="input kind: 'run' = per-epoch run trace CSV, "
        "'metrics' = observability JSON (metrics snapshot or "
        "timeline, auto-detected)",
    )
    parser.add_argument("csv", help="input file")
    parser.add_argument(
        "-o",
        "--out",
        default="trace.png",
        help="output image path (default: %(default)s)",
    )
    args = parser.parse_args()

    if args.kind == "metrics":
        try:
            with open(args.csv) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            sys.exit(f"error: {args.csv}: {e}")
        plot_metrics(doc, args.out, args.csv)
        return 0

    rows = load(args.csv)
    check_columns(
        rows, {"epoch_us", "domain", "freq_ghz", "committed"}, args.csv
    )
    plot_run(rows, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
