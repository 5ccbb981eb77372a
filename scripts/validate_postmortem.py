#!/usr/bin/env python3
"""Validate a tp::obs FlightRecorder postmortem bundle.

Checks the "tp-postmortem-v1" schema contract documented in
src/obs/flight_recorder.hpp:

  - top-level object with schema / seq / reason / ticks / kept_events /
    dropped_events / trace / metrics / health_events / health_counters
  - kept+dropped accounting carried through EXACTLY from the one
    TraceRecorder snapshot the bundle embeds:
    kept_events == len(trace.traceEvents) and
    dropped_events == trace.otherData.dropped_events
  - the embedded trace passes the full validate_trace contract
    (structure, sorted timestamps, per-thread span nesting)
  - metrics is the Registry::exportJson shape (counters / gauges /
    histograms / summaries / recent_log objects)
  - health_events are well-formed (known severities, strictly increasing
    seqs, cleared recoveries only at severity "info") and reconcile with
    health_counters (history is bounded, so events_emitted +
    events_cleared is a lower bound only when history overflowed); every
    health_counters field, callback_errors included, is an integer >= 0

The argument may be a bundle file or a directory, in which case the
highest-sequence postmortem-<seq>.json is validated (what ctest/CI do:
point at the run's --postmortem-dir).

Options:
  --expect-rule NAME:COUNT   exactly COUNT non-cleared events for rule
                             NAME (repeatable; the seeded-breach smoke
                             asserts serve.latency_slo:1)
  --require-rule PREFIX      at least one event whose rule starts with
                             PREFIX (repeatable)

Exits non-zero with a diagnostic on the first violated contract.
"""

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import validate_trace  # noqa: E402  (shared event/nesting checks)

SCHEMA = "tp-postmortem-v1"
SEVERITIES = {"info", "warning", "critical"}
BUNDLE_RE = re.compile(r"^postmortem-(\d+)\.json$")


def fail(msg):
    print(f"validate_postmortem: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def pick_bundle(path):
    """A directory argument resolves to its highest-sequence bundle."""
    if not os.path.isdir(path):
        return path
    best, best_seq = None, -1
    for name in os.listdir(path):
        m = BUNDLE_RE.match(name)
        if m and int(m.group(1)) > best_seq:
            best, best_seq = os.path.join(path, name), int(m.group(1))
    if best is None:
        fail(f"no postmortem-<seq>.json bundle in directory '{path}'")
    return best


def check_trace(doc):
    trace = doc["trace"]
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        fail("'trace' must be a Chrome trace object with 'traceEvents'")
    events = trace["traceEvents"]
    if not isinstance(events, list):
        fail("'trace.traceEvents' must be a list")
    dropped = trace.get("otherData", {}).get("dropped_events")
    if not isinstance(dropped, int) or dropped < 0:
        fail(f"trace.otherData.dropped_events missing or bad: {dropped!r}")

    # The kept/dropped accounting and the embedded trace come from ONE
    # recorder snapshot; the writer promises they agree exactly.
    if doc["kept_events"] != len(events):
        fail(f"kept_events={doc['kept_events']} but the embedded trace "
             f"holds {len(events)} events (accounting torn)")
    if doc["dropped_events"] != dropped:
        fail(f"dropped_events={doc['dropped_events']} but the embedded "
             f"trace reports {dropped}")

    for i, ev in enumerate(events):
        validate_trace.check_event(i, ev)
    for i in range(1, len(events)):
        if events[i]["ts"] < events[i - 1]["ts"]:
            fail(f"trace events not sorted by ts at index {i}")
    validate_trace.check_nesting(events)
    return len(events)


def check_metrics(doc):
    metrics = doc["metrics"]
    if not isinstance(metrics, dict):
        fail("'metrics' must be an object")
    for section in ("counters", "gauges", "histograms", "summaries"):
        if not isinstance(metrics.get(section), dict):
            fail(f"metrics.{section} missing or not an object")
    if not isinstance(metrics.get("recent_log"), list):
        fail("metrics.recent_log missing or not a list")
    for name, value in metrics["counters"].items():
        if not isinstance(value, int) or value < 0:
            fail(f"counter '{name}' is not a non-negative integer: {value!r}")
    return sum(len(metrics[s]) for s in
               ("counters", "gauges", "histograms", "summaries"))


def check_health(doc):
    events = doc["health_events"]
    if not isinstance(events, list):
        fail("'health_events' must be a list")
    last_seq = 0
    for i, ev in enumerate(events):
        for key in ("seq", "ticks", "severity", "rule", "message", "value",
                    "threshold", "cleared"):
            if key not in ev:
                fail(f"health event {i} missing key '{key}': {ev}")
        if not isinstance(ev["seq"], int) or ev["seq"] <= last_seq:
            fail(f"health event {i} seq {ev['seq']!r} not strictly "
                 f"increasing after {last_seq}")
        last_seq = ev["seq"]
        if ev["severity"] not in SEVERITIES:
            fail(f"health event {i} has unknown severity "
                 f"'{ev['severity']}'")
        if not isinstance(ev["rule"], str) or not ev["rule"]:
            fail(f"health event {i} has empty/non-string rule")
        if not isinstance(ev["cleared"], bool):
            fail(f"health event {i} cleared is not a bool")
        if ev["cleared"] and ev["severity"] != "info":
            fail(f"health event {i} is a recovery but severity is "
                 f"'{ev['severity']}' (recoveries are info)")

    counters = doc["health_counters"]
    if not isinstance(counters, dict):
        fail("'health_counters' must be an object")
    for key in ("evaluations", "firings", "events_emitted",
                "events_cleared", "suppressed_firings", "rule_errors",
                "callback_errors"):
        if not isinstance(counters.get(key), int) or counters[key] < 0:
            fail(f"health_counters.{key} missing or bad: "
                 f"{counters.get(key)!r}")
    # History is bounded (oldest events drop out), so the counters bound
    # the history from above, never below.
    total = counters["events_emitted"] + counters["events_cleared"]
    if len(events) > total:
        fail(f"{len(events)} health events in history but counters only "
             f"account for {total}")
    return events


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bundle",
                        help="postmortem bundle file, or a directory "
                             "holding postmortem-<seq>.json bundles "
                             "(highest sequence is validated)")
    parser.add_argument("--expect-rule", action="append", default=[],
                        metavar="NAME:COUNT",
                        help="require exactly COUNT non-cleared events "
                             "for rule NAME (repeatable)")
    parser.add_argument("--require-rule", action="append", default=[],
                        metavar="PREFIX",
                        help="require at least one event whose rule "
                             "starts with PREFIX (repeatable)")
    args = parser.parse_args()

    path = pick_bundle(args.bundle)
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load '{path}': {e}")

    if not isinstance(doc, dict):
        fail("top level must be an object")
    if doc.get("schema") != SCHEMA:
        fail(f"schema is {doc.get('schema')!r}, expected '{SCHEMA}'")
    for key in ("seq", "reason", "ticks", "kept_events", "dropped_events",
                "trace", "metrics", "health_events", "health_counters"):
        if key not in doc:
            fail(f"bundle missing top-level key '{key}'")
    if not isinstance(doc["seq"], int) or doc["seq"] < 1:
        fail(f"seq must be a positive integer, got {doc['seq']!r}")
    if not isinstance(doc["reason"], str) or not doc["reason"]:
        fail("reason must be a non-empty string")
    for key in ("kept_events", "dropped_events"):
        if not isinstance(doc[key], int) or doc[key] < 0:
            fail(f"{key} must be a non-negative integer, got {doc[key]!r}")

    trace_events = check_trace(doc)
    metric_count = check_metrics(doc)
    events = check_health(doc)

    breaches = {}
    for ev in events:
        if not ev["cleared"]:
            breaches[ev["rule"]] = breaches.get(ev["rule"], 0) + 1
    for spec in args.expect_rule:
        name, sep, count = spec.rpartition(":")
        if not sep or not count.isdigit():
            fail(f"--expect-rule wants NAME:COUNT, got '{spec}'")
        if breaches.get(name, 0) != int(count):
            fail(f"expected exactly {count} non-cleared event(s) for rule "
                 f"'{name}', saw {breaches.get(name, 0)} "
                 f"(rules seen: {sorted(breaches) or '<none>'})")
    for prefix in args.require_rule:
        if not any(r.startswith(prefix) for r in breaches):
            fail(f"no non-cleared event rule starts with '{prefix}' "
                 f"(saw: {sorted(breaches) or '<none>'})")

    print(f"validate_postmortem: OK: {os.path.basename(path)} seq "
          f"{doc['seq']} ('{doc['reason']}'), {trace_events} trace "
          f"events ({doc['dropped_events']} dropped), {metric_count} "
          f"metrics, {len(events)} health event(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
