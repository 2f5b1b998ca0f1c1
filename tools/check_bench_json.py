#!/usr/bin/env python3
"""Validate gcsafe machine-readable reports against their documented schemas.

Schemas (see docs/OBSERVABILITY.md):

  gcsafe-bench-v1       BENCH_<name>.json, written by every bench_* binary
  gcsafe-run-report-v2  gcsafe-cc --stats-json
  gcsafe-flightrec-v1   the event ring: gcsafe-cc --trace-json and the
                        gcsafe-serve crash / fatal-signal dumps
  gcsafe-profile-v1     gcsafe-cc --profile-json
  gcsafe-lint-v1        gcsafe-cc --lint-json (docs/ANALYSIS.md)
  gcsafe-batch-v1       gcsafe-batch --summary (docs/ROBUSTNESS.md §6)
  gcsafe-serve-v1       gcsafe-serve response lines (docs/SERVING.md)
  gcsafe-store-v1       durable-store scrub.json reports (docs/SERVING.md
                        §"Durability & restart")

Usage:
  check_bench_json.py FILE [FILE...]   validate the named report files
  check_bench_json.py --scan DIR       validate every BENCH_*.json under DIR
  check_bench_json.py --chrome FILE    validate a Chrome trace_event file
                                       (gcsafe-cc / gcsafe-serve --trace-chrome)
  check_bench_json.py --lint FILE      validate FILE and require it to be a
                                       gcsafe-lint-v1 report
  check_bench_json.py --batch FILE     validate FILE as a gcsafe-batch-v1
                                       summary; --expect-status SUBSTR=STATUS
                                       additionally pins one input's outcome
  check_bench_json.py --serve FILE     validate FILE as line-delimited
                                       gcsafe-serve-v1 responses (the output
                                       of gcsafe-serve --once or a captured
                                       socket session)
  check_bench_json.py --lockgraph FILE validate FILE as a gcsafe-lockgraph-v1
                                       lock-acquisition graph (gcsafe-serve
                                       --lockgraph output) and prove it
                                       acyclic and violation-free
  check_bench_json.py --store FILE     validate FILE as a gcsafe-store-v1
                                       scrub report (the store's scrub.json):
                                       totals must balance and every
                                       quarantined entry must carry a known
                                       reason token

Files are dispatched on their top-level "schema" field, so the same checker
covers all four formats; Chrome traces carry no schema field and are named
explicitly with --chrome. Exits nonzero (listing each problem) if any file
fails; a --scan that finds no BENCH_*.json at all is also an error, so the
ctest wiring catches a bench that silently stopped emitting its report.
"""

import argparse
import json
import numbers
import sys
from pathlib import Path


class SchemaError(Exception):
    pass


def expect(cond, path, message):
    if not cond:
        raise SchemaError(f"{path}: {message}")


def expect_keys(obj, path, required, optional=()):
    expect(isinstance(obj, dict), path, "expected an object")
    for key in required:
        expect(key in obj, path, f"missing required key '{key}'")
    allowed = set(required) | set(optional)
    for key in obj:
        expect(key in allowed, path, f"unexpected key '{key}'")


def expect_num(obj, path, key, integer=False):
    value = obj[key]
    expect(
        isinstance(value, numbers.Real) and not isinstance(value, bool),
        f"{path}.{key}", f"expected a number, got {type(value).__name__}")
    if integer:
        expect(isinstance(value, int), f"{path}.{key}",
               f"expected an integer, got {value!r}")


def expect_str(obj, path, key):
    expect(isinstance(obj[key], str), f"{path}.{key}",
           f"expected a string, got {type(obj[key]).__name__}")


# --- gcsafe-bench-v1 --------------------------------------------------------

def check_bench(doc):
    expect_keys(doc, "$", ["schema", "bench", "rows"])
    expect_str(doc, "$", "bench")
    expect(doc["bench"], "$.bench", "bench name must be non-empty")
    rows = doc["rows"]
    expect(isinstance(rows, list), "$.rows", "expected an array")
    expect(rows, "$.rows", "a bench report must contain at least one row")
    for i, row in enumerate(rows):
        path = f"$.rows[{i}]"
        expect_keys(row, path, ["name", "metrics"])
        expect_str(row, path, "name")
        metrics = row["metrics"]
        expect(isinstance(metrics, dict), f"{path}.metrics",
               "expected an object")
        expect(metrics, f"{path}.metrics", "metrics must be non-empty")
        for key in metrics:
            expect_num(metrics, f"{path}.metrics", key)


# --- gcsafe-run-report-v2 ---------------------------------------------------

GC_KEYS = ["collections", "alloc_count", "alloc_bytes", "heap_pages",
           "live_bytes_after_last_gc", "freed_objects_last_gc", "mark_ns",
           "sweep_ns", "words_scanned", "pointer_hits", "marked_objects",
           "interior_pointer_hits", "false_retention_candidates", "oom",
           "audit", "deadline_exceeded"]

GC_OOM_KEYS = ["emergency_collections", "retries", "callback_invocations",
               "alloc_failures", "faults_injected", "segment_backoffs"]

GC_AUDIT_KEYS = ["runs", "violations"]

ANNOTATOR_KEYS = ["keep_lives", "incdec_expansions",
                  "compound_assign_expansions", "temps_introduced",
                  "skipped_copies", "skipped_call_results",
                  "skipped_non_heap", "skipped_at_calls_only",
                  "slow_base_substitutions", "unhandled_complex_lvalues"]

ATTRIBUTION_KEYS = ["user", "keep_live", "checks", "allocator", "spill"]


def check_counter_tree(obj, path, strings_ok=False):
    """phases_ns / passes: nested objects with numeric leaves. The robust
    subtree also carries string leaves (robust.ladder.rung_name)."""
    expect(isinstance(obj, dict), path, "expected an object")
    for key, value in obj.items():
        if isinstance(value, dict):
            check_counter_tree(value, f"{path}.{key}", strings_ok)
        elif strings_ok and isinstance(value, str):
            pass
        else:
            expect_num(obj, path, key)


def check_run_report(doc):
    expect_keys(doc, "$", ["schema", "input", "mode", "machine", "compile"],
                optional=["run"])
    expect_str(doc, "$", "input")
    expect_str(doc, "$", "mode")
    expect_str(doc, "$", "machine")

    compile_ = doc["compile"]
    expect_keys(compile_, "$.compile",
                ["ok", "code_size_units", "phases_ns", "annotator", "passes"],
                optional=["robust"])
    if "robust" in compile_:
        check_counter_tree(compile_["robust"], "$.compile.robust",
                           strings_ok=True)
    expect(isinstance(compile_["ok"], bool), "$.compile.ok",
           "expected a bool")
    expect_num(compile_, "$.compile", "code_size_units", integer=True)
    check_counter_tree(compile_["phases_ns"], "$.compile.phases_ns")
    expect_keys(compile_["annotator"], "$.compile.annotator", ANNOTATOR_KEYS)
    for key in ANNOTATOR_KEYS:
        expect_num(compile_["annotator"], "$.compile.annotator", key,
                   integer=True)
    check_counter_tree(compile_["passes"], "$.compile.passes")

    if "run" not in doc:
        return
    run = doc["run"]
    expect_keys(run, "$.run",
                ["ok", "exit_code", "output", "instructions", "cycles",
                 "cycle_attribution", "keep_lives_executed", "kills_executed",
                 "checks", "gc"],
                optional=["error", "watchdog_timeout", "vm_ns"])
    expect(isinstance(run["ok"], bool), "$.run.ok", "expected a bool")
    if "watchdog_timeout" in run:
        expect(isinstance(run["watchdog_timeout"], bool),
               "$.run.watchdog_timeout", "expected a bool")
    expect_num(run, "$.run", "exit_code", integer=True)
    expect_str(run, "$.run", "output")
    for key in ("instructions", "cycles", "keep_lives_executed",
                "kills_executed"):
        expect_num(run, "$.run", key, integer=True)
    if "vm_ns" in run:
        expect_num(run, "$.run", "vm_ns", integer=True)

    attribution = run["cycle_attribution"]
    expect_keys(attribution, "$.run.cycle_attribution", ATTRIBUTION_KEYS)
    for key in ATTRIBUTION_KEYS:
        expect_num(attribution, "$.run.cycle_attribution", key, integer=True)
    expect(sum(attribution.values()) == run["cycles"],
           "$.run.cycle_attribution",
           f"attribution sums to {sum(attribution.values())}, "
           f"total cycles is {run['cycles']}")

    checks = run["checks"]
    expect_keys(checks, "$.run.checks",
                ["performed", "violations", "freed_accesses"])
    for key in ("performed", "violations", "freed_accesses"):
        expect_num(checks, "$.run.checks", key, integer=True)

    gc = run["gc"]
    expect_keys(gc, "$.run.gc", GC_KEYS)
    for key in GC_KEYS:
        if key not in ("oom", "audit"):
            expect_num(gc, "$.run.gc", key, integer=True)
    expect_keys(gc["oom"], "$.run.gc.oom", GC_OOM_KEYS)
    for key in GC_OOM_KEYS:
        expect_num(gc["oom"], "$.run.gc.oom", key, integer=True)
    expect_keys(gc["audit"], "$.run.gc.audit", GC_AUDIT_KEYS)
    for key in GC_AUDIT_KEYS:
        expect_num(gc["audit"], "$.run.gc.audit", key, integer=True)


# --- gcsafe-batch-v1 --------------------------------------------------------

BATCH_STATUSES = {"ok", "degraded", "failed"}
BATCH_OUTCOMES = {"ok", "degraded", "error", "safety", "timeout", "signal",
                  "usage", "overloaded", "crashed"}
BATCH_RUNGS = {"full", "quarantined", "peephole", "unoptimized"}


def check_batch(doc):
    # "service": the serve.* counters of the isolated compile service
    # every batch runs through (docs/SERVING.md).
    expect_keys(doc, "$", ["schema", "mode", "jobs", "timeout_ms", "retries",
                           "inputs", "totals", "service"])
    check_serve_stats(doc["service"], "$.service")
    expect_str(doc, "$", "mode")
    for key in ("jobs", "timeout_ms", "retries"):
        expect_num(doc, "$", key, integer=True)
    inputs = doc["inputs"]
    expect(isinstance(inputs, list), "$.inputs", "expected an array")
    expect(inputs, "$.inputs", "a batch report must contain inputs")
    counts = {"ok": 0, "degraded": 0, "failed": 0}
    outcomes = {"timeout": 0, "signal": 0}
    attempts_total = 0
    for i, entry in enumerate(inputs):
        path = f"$.inputs[{i}]"
        expect_keys(entry, path, ["input", "status", "attempts"])
        expect_str(entry, path, "input")
        expect(entry["status"] in BATCH_STATUSES, f"{path}.status",
               f"unknown status {entry['status']!r} "
               f"(known: {', '.join(sorted(BATCH_STATUSES))})")
        counts[entry["status"]] += 1
        attempts = entry["attempts"]
        expect(isinstance(attempts, list), f"{path}.attempts",
               "expected an array")
        expect(attempts, f"{path}.attempts",
               "every input must record at least one attempt")
        attempts_total += len(attempts)
        for j, att in enumerate(attempts):
            apath = f"{path}.attempts[{j}]"
            expect_keys(att, apath,
                        ["rung", "outcome", "exit_code", "signal",
                         "duration_ms"], optional=["detail"])
            expect(att["rung"] in BATCH_RUNGS, f"{apath}.rung",
                   f"unknown rung {att['rung']!r}")
            expect(att["outcome"] in BATCH_OUTCOMES, f"{apath}.outcome",
                   f"unknown outcome {att['outcome']!r}")
            if att["outcome"] in outcomes:
                outcomes[att["outcome"]] += 1
            for key in ("exit_code", "signal", "duration_ms"):
                expect_num(att, apath, key, integer=True)
            if "detail" in att:
                expect_str(att, apath, "detail")
        # Only the last attempt may have succeeded: earlier ones are the
        # failures that triggered the retries.
        for j, att in enumerate(attempts[:-1]):
            expect(att["outcome"] not in ("ok", "degraded"),
                   f"{path}.attempts[{j}].outcome",
                   "a non-final attempt cannot have succeeded")
    totals = doc["totals"]
    expect_keys(totals, "$.totals",
                ["inputs", "ok", "degraded", "failed", "attempts", "retries",
                 "timeouts", "signals"])
    for key in ("inputs", "ok", "degraded", "failed", "attempts", "retries",
                "timeouts", "signals"):
        expect_num(totals, "$.totals", key, integer=True)
    expect(totals["inputs"] == len(inputs), "$.totals.inputs",
           f"totals.inputs is {totals['inputs']}, "
           f"inputs array has {len(inputs)}")
    for key in ("ok", "degraded", "failed"):
        expect(totals[key] == counts[key], f"$.totals.{key}",
               f"totals.{key} is {totals[key]}, counted {counts[key]}")
    expect(totals["attempts"] == attempts_total, "$.totals.attempts",
           f"totals.attempts is {totals['attempts']}, "
           f"counted {attempts_total}")
    expect(totals["retries"] == attempts_total - len(inputs),
           "$.totals.retries",
           f"totals.retries is {totals['retries']}, attempts minus inputs "
           f"is {attempts_total - len(inputs)}")
    for key, outcome in (("timeouts", "timeout"), ("signals", "signal")):
        expect(totals[key] == outcomes[outcome], f"$.totals.{key}",
               f"totals.{key} is {totals[key]}, counted "
               f"{outcomes[outcome]} {outcome!r} attempts")


# --- gcsafe-serve-v1 --------------------------------------------------------

SERVE_OPS = {"compile", "stats", "metrics", "ping", "health", "drain",
             "shutdown", "error"}

# Service-level dispositions a compile response may carry in "status"
# (docs/SERVING.md §"Operating under load"); absent on a normal compile.
SERVE_STATUSES = {"overloaded", "deadline", "crashed", "draining", "shutdown"}


# --- gcsafe-metrics-v1 ------------------------------------------------------

# The latency stages CompileService::metricsSnapshot always reports
# (docs/OBSERVABILITY.md §8).
METRICS_STAGES = ["queue_wait", "cache_lookup", "compile", "isolate", "e2e"]


def check_histogram(obj, path):
    """One support::Histogram serialization: monotone finite bounds with a
    trailing "inf" overflow bucket, sum-of-bucket-counts == count, and
    percentile ordering p50 <= p90 <= p99 <= max."""
    expect(isinstance(obj, dict), path, "expected an object")
    expect_keys(obj, path, ["count", "sum_ns", "min_ns", "max_ns", "p50_ns",
                            "p90_ns", "p99_ns", "buckets"])
    for key in ("count", "sum_ns", "min_ns", "max_ns", "p50_ns", "p90_ns",
                "p99_ns"):
        expect_num(obj, path, key, integer=True)
    buckets = obj["buckets"]
    expect(isinstance(buckets, list) and buckets, f"{path}.buckets",
           "expected a non-empty array")
    prev_le = None
    total = 0
    for i, bucket in enumerate(buckets):
        bpath = f"{path}.buckets[{i}]"
        expect_keys(bucket, bpath, ["le_ns", "count"])
        expect_num(bucket, bpath, "count", integer=True)
        total += bucket["count"]
        le = bucket["le_ns"]
        if i == len(buckets) - 1:
            expect(le == "inf", f"{bpath}.le_ns",
                   f"the final bucket must be the 'inf' overflow, got {le!r}")
        else:
            expect(isinstance(le, int) and not isinstance(le, bool),
                   f"{bpath}.le_ns", "expected an integer bound")
            expect(prev_le is None or le > prev_le, f"{bpath}.le_ns",
                   f"bucket bounds must be strictly increasing "
                   f"({le} after {prev_le})")
            prev_le = le
    expect(total == obj["count"], f"{path}.buckets",
           f"bucket counts sum to {total}, but count is {obj['count']}")
    expect(obj["min_ns"] <= obj["max_ns"], path,
           f"min_ns {obj['min_ns']} > max_ns {obj['max_ns']}")
    expect(obj["p50_ns"] <= obj["p90_ns"] <= obj["p99_ns"] <= obj["max_ns"],
           path,
           f"percentiles must be ordered p50 <= p90 <= p99 <= max, got "
           f"{obj['p50_ns']} / {obj['p90_ns']} / {obj['p99_ns']} / "
           f"{obj['max_ns']}")


def check_metrics(doc, path="$"):
    """One gcsafe-metrics-v1 snapshot (the "metrics" op's payload, also
    valid as a standalone file)."""
    expect(isinstance(doc, dict), path, "expected an object")
    expect_keys(doc, path, ["schema", "uptime_ns", "requests", "rate_rps",
                            "queue", "stages", "store"])
    expect(doc["schema"] == "gcsafe-metrics-v1", f"{path}.schema",
           f"expected gcsafe-metrics-v1, got {doc.get('schema')!r}")
    expect_num(doc, path, "uptime_ns", integer=True)
    expect(doc["uptime_ns"] > 0, f"{path}.uptime_ns", "must be positive")
    expect_num(doc, path, "requests", integer=True)
    expect_num(doc, path, "rate_rps")
    queue = doc["queue"]
    expect_keys(queue, f"{path}.queue", ["depth", "peak", "shed"])
    for key in ("depth", "peak", "shed"):
        expect_num(queue, f"{path}.queue", key, integer=True)
    stages = doc["stages"]
    expect_keys(stages, f"{path}.stages", METRICS_STAGES)
    for stage in METRICS_STAGES:
        check_histogram(stages[stage], f"{path}.stages.{stage}")
    check_store_stats(doc["store"], f"{path}.store")


def check_store_stats(obj, path):
    """The serve.store.* counter block (docs/OBSERVABILITY.md): always
    present — all-zero without a --store-dir — so consumers see one
    shape. degraded is a 0/1 gauge (stats serializes gauges as floats)."""
    expect(isinstance(obj, dict), path, "expected an object")
    expect_keys(obj, path, ["hits", "misses", "writes", "scrubbed",
                            "quarantined", "io_errors", "degraded"])
    for key in ("hits", "misses", "writes", "scrubbed", "quarantined",
                "io_errors"):
        expect_num(obj, path, key, integer=True)
    expect_num(obj, path, "degraded")
    expect(float(obj["degraded"]) in (0.0, 1.0), f"{path}.degraded",
           f"expected a 0/1 gauge, got {obj['degraded']!r}")


# --- gcsafe-flightrec-v1 (the event ring) -----------------------------------

RING_REASONS = {"crash", "signal", "export"}

RING_EVENT_KEYS = ["seq", "t_ns", "dur_ns", "worker", "cat", "name",
                   "request_id", "value", "aux"]


def check_ring(doc, path="$"):
    """One event-ring document (support::TraceBuffer::dumpTo): a crash or
    fatal-signal dump, or a gcsafe-cc --trace-json export. The surviving
    events in sequence order; each worker's events end in nondecreasing
    time (spans are recorded as they close); a crash dump names its
    victim, whose trace id appears in the event stream."""
    expect(isinstance(doc, dict), path, "expected an object")
    expect_keys(doc, path, ["schema", "reason", "signal", "request_id",
                            "trace_id", "capacity", "recorded", "dropped",
                            "events"])
    expect(doc["schema"] == "gcsafe-flightrec-v1", f"{path}.schema",
           f"expected gcsafe-flightrec-v1, got {doc.get('schema')!r}")
    expect(doc["reason"] in RING_REASONS, f"{path}.reason",
           f"unknown reason {doc['reason']!r} "
           f"(known: {', '.join(sorted(RING_REASONS))})")
    for key in ("signal", "capacity", "recorded", "dropped"):
        expect_num(doc, path, key, integer=True)
    expect_str(doc, path, "request_id")
    expect_str(doc, path, "trace_id")
    expect(doc["dropped"] == max(0, doc["recorded"] - doc["capacity"]),
           f"{path}.dropped",
           f"dropped {doc['dropped']} for recorded {doc['recorded']} in a "
           f"ring of {doc['capacity']}")
    events = doc["events"]
    expect(isinstance(events, list), f"{path}.events", "expected an array")
    expect(len(events) <= doc["capacity"], f"{path}.events",
           f"{len(events)} events in a ring of {doc['capacity']}")
    prev_seq = 0
    last_end = {}
    trace_ids = set()
    for i, ev in enumerate(events):
        epath = f"{path}.events[{i}]"
        expect_keys(ev, epath, RING_EVENT_KEYS, optional=["detail"])
        for key in ("seq", "t_ns", "dur_ns", "worker", "value", "aux"):
            expect_num(ev, epath, key, integer=True)
        for key in ("cat", "name", "request_id") + (
                ("detail",) if "detail" in ev else ()):
            expect_str(ev, epath, key)
        expect(ev["seq"] > prev_seq, f"{epath}.seq",
               f"event sequence must be strictly increasing "
               f"({ev['seq']} after {prev_seq})")
        prev_seq = ev["seq"]
        end = ev["t_ns"] + ev["dur_ns"]
        expect(end >= last_end.get(ev["worker"], 0), f"{epath}.t_ns",
               "one worker's events must end in nondecreasing time order")
        last_end[ev["worker"]] = end
        trace_ids.add(ev["request_id"])
    if doc["reason"] == "crash":
        expect(doc["request_id"] != "", f"{path}.request_id",
               "a crash dump must name the attributed request")
        expect(doc["trace_id"] in trace_ids, f"{path}.trace_id",
               f"the attributed trace id {doc['trace_id']!r} does not "
               f"appear in the dumped events")


def check_serve_stats(obj, path):
    """The serve.* counter tree: a stats-op "serve" member or a batch
    summary's "service" member (docs/SERVING.md)."""
    expect_keys(obj, path, ["workers", "uptime_ns", "requests", "responses",
                            "queue", "deadline", "isolate", "cache",
                            "verify_memo", "store"])
    expect_num(obj, path, "workers", integer=True)
    expect_num(obj, path, "uptime_ns", integer=True)
    expect_num(obj, path, "requests", integer=True)
    responses = obj["responses"]
    expect_keys(responses, f"{path}.responses", ["ok", "error", "degraded"])
    for key in ("ok", "error", "degraded"):
        expect_num(responses, f"{path}.responses", key, integer=True)
    queue = obj["queue"]
    expect_keys(queue, f"{path}.queue", ["depth", "peak", "shed"])
    # depth is a sampled gauge (serialized as a float); peak/shed are
    # true counters.
    expect_num(queue, f"{path}.queue", "depth")
    for key in ("peak", "shed"):
        expect_num(queue, f"{path}.queue", key, integer=True)
    deadline = obj["deadline"]
    expect_keys(deadline, f"{path}.deadline", ["expired"])
    expect_num(deadline, f"{path}.deadline", "expired", integer=True)
    isolate = obj["isolate"]
    expect_keys(isolate, f"{path}.isolate",
                ["requests", "crashes", "retries", "timeouts"])
    for key in ("requests", "crashes", "retries", "timeouts"):
        expect_num(isolate, f"{path}.isolate", key, integer=True)
    cache = obj["cache"]
    expect_keys(cache, f"{path}.cache",
                ["hits", "misses", "insertions", "evictions", "entries",
                 "bytes"])
    for key in ("hits", "misses", "insertions", "evictions", "entries",
                "bytes"):
        expect_num(cache, f"{path}.cache", key, integer=True)
    memo = obj["verify_memo"]
    expect_keys(memo, f"{path}.verify_memo", ["hits", "misses", "entries"])
    for key in ("hits", "misses", "entries"):
        expect_num(memo, f"{path}.verify_memo", key, integer=True)
    check_store_stats(obj["store"], f"{path}.store")


def check_serve_response(doc, path="$"):
    """One gcsafe-serve-v1 response document (one output line of
    gcsafe-serve). Compile responses embed full gcsafe-run-report-v2 /
    gcsafe-lint-v1 documents, validated with the same checkers as the
    standalone files."""
    expect(isinstance(doc, dict), path, "expected an object")
    expect("schema" in doc, path, "missing required key 'schema'")
    expect(doc["schema"] == "gcsafe-serve-v1", f"{path}.schema",
           f"expected gcsafe-serve-v1, got {doc['schema']!r}")
    for key in ("id", "op"):
        expect(key in doc, path, f"missing required key '{key}'")
        expect_str(doc, path, key)
    expect("ok" in doc, path, "missing required key 'ok'")
    expect(isinstance(doc["ok"], bool), f"{path}.ok", "expected a bool")
    op = doc["op"]
    expect(op in SERVE_OPS, f"{path}.op",
           f"unknown op {op!r} (known: {', '.join(sorted(SERVE_OPS))})")
    if op == "compile":
        expect_keys(doc, path,
                    ["schema", "id", "op", "ok", "cached", "exit_code",
                     "degraded", "rung", "quarantined", "cache_key"],
                    optional=["request_id", "status", "error", "report",
                              "lint"])
        if "request_id" in doc:
            expect_str(doc, path, "request_id")
            expect(doc["request_id"] != "", f"{path}.request_id",
                   "request_id, when present, must be non-empty")
        if "status" in doc:
            expect_str(doc, path, "status")
            expect(doc["status"] in SERVE_STATUSES, f"{path}.status",
                   f"unknown status {doc['status']!r} "
                   f"(known: {', '.join(sorted(SERVE_STATUSES))})")
            expect(doc["ok"] is False, f"{path}.ok",
                   "a typed-status compile response must have ok=false")
        for key in ("cached", "degraded"):
            expect(isinstance(doc[key], bool), f"{path}.{key}",
                   "expected a bool")
        expect_num(doc, path, "exit_code", integer=True)
        expect_str(doc, path, "rung")
        expect(doc["rung"] in BATCH_RUNGS, f"{path}.rung",
               f"unknown rung {doc['rung']!r}")
        expect_str(doc, path, "cache_key")
        quarantined = doc["quarantined"]
        expect(isinstance(quarantined, list), f"{path}.quarantined",
               "expected an array")
        for i, name in enumerate(quarantined):
            expect(isinstance(name, str), f"{path}.quarantined[{i}]",
                   "expected a string")
        if "error" in doc:
            expect_str(doc, path, "error")
        if "report" in doc:
            expect(isinstance(doc["report"], dict)
                   and doc["report"].get("schema") == "gcsafe-run-report-v2",
                   f"{path}.report",
                   "expected an embedded gcsafe-run-report-v2 document")
            check_run_report(doc["report"])
        if "lint" in doc:
            expect(isinstance(doc["lint"], dict)
                   and doc["lint"].get("schema") == "gcsafe-lint-v1",
                   f"{path}.lint",
                   "expected an embedded gcsafe-lint-v1 document")
            check_lint(doc["lint"])
    elif op == "stats":
        expect_keys(doc, path, ["schema", "id", "op", "ok", "serve"])
        check_serve_stats(doc["serve"], f"{path}.serve")
    elif op == "metrics":
        expect_keys(doc, path, ["schema", "id", "op", "ok", "metrics"])
        expect(isinstance(doc["metrics"], dict)
               and doc["metrics"].get("schema") == "gcsafe-metrics-v1",
               f"{path}.metrics",
               "expected an embedded gcsafe-metrics-v1 document")
        check_metrics(doc["metrics"], f"{path}.metrics")
    elif op == "health":
        expect_keys(doc, path,
                    ["schema", "id", "op", "ok", "ready", "workers",
                     "queue_depth", "queue_max", "draining", "isolate",
                     "connections"])
        for key in ("ready", "draining", "isolate"):
            expect(isinstance(doc[key], bool), f"{path}.{key}",
                   "expected a bool")
        for key in ("workers", "queue_depth", "queue_max", "connections"):
            expect_num(doc, path, key, integer=True)
    elif op == "error":
        expect_keys(doc, path, ["schema", "id", "op", "ok", "error"])
        expect_str(doc, path, "error")
        expect(doc["ok"] is False, f"{path}.ok",
               "an error response must have ok=false")
    else:  # ping / drain / shutdown acks carry only the head
        expect_keys(doc, path, ["schema", "id", "op", "ok"])


def check_serve_file(path):
    """Line-delimited gcsafe-serve-v1 responses; empty lines are skipped,
    an empty file is an error (a session always answers something)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        return f"{path}: {exc}"
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        return f"{path}: no response lines found"
    for n, line in enumerate(lines, 1):
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            return f"{path}:{n}: {exc}"
        try:
            check_serve_response(doc, "$")
        except SchemaError as exc:
            return f"{path}:{n}: [gcsafe-serve-v1] {exc}"
    return None


# --- gcsafe-profile-v1 ------------------------------------------------------

SITE_KEYS = ["id", "function", "inst_index", "kind", "allocs",
             "bytes_requested", "bytes_padded", "freed", "live_bytes",
             "live_objects", "peak_live_bytes", "interior_hits",
             "false_retentions", "age_histogram"]


def check_profile(doc):
    expect_keys(doc, "$", ["schema", "input", "mode", "machine",
                           "sample_period_cycles", "heap", "cycles"])
    for key in ("input", "mode", "machine"):
        expect_str(doc, "$", key)
    expect_num(doc, "$", "sample_period_cycles", integer=True)

    heap = doc["heap"]
    expect_keys(heap, "$.heap", ["live_bytes_after_last_gc", "gc_snapshots",
                                 "tracked_live_objects", "sites"])
    for key in ("live_bytes_after_last_gc", "gc_snapshots",
                "tracked_live_objects"):
        expect_num(heap, "$.heap", key, integer=True)
    sites = heap["sites"]
    expect(isinstance(sites, list), "$.heap.sites", "expected an array")
    live_sum = 0
    for i, site in enumerate(sites):
        path = f"$.heap.sites[{i}]"
        expect_keys(site, path, SITE_KEYS)
        expect_str(site, path, "function")
        expect_str(site, path, "kind")
        for key in SITE_KEYS:
            if key not in ("function", "kind", "age_histogram"):
                expect_num(site, path, key, integer=True)
        expect(site["id"] == i, f"{path}.id",
               f"site ids must be dense and ordered (got {site['id']})")
        ages = site["age_histogram"]
        expect(isinstance(ages, list) and len(ages) == 8,
               f"{path}.age_histogram", "expected an array of 8 buckets")
        for j, bucket in enumerate(ages):
            expect(isinstance(bucket, int) and not isinstance(bucket, bool),
                   f"{path}.age_histogram[{j}]", "expected an integer")
        expect(sum(ages) == site["freed"], f"{path}.age_histogram",
               f"age buckets sum to {sum(ages)}, freed is {site['freed']}")
        live_sum += site["live_bytes"]
    # The attribution invariant: every live byte the sweep counted belongs
    # to exactly one site (with snapshots, i.e. at least one collection).
    if heap["gc_snapshots"] > 0:
        expect(live_sum == heap["live_bytes_after_last_gc"], "$.heap.sites",
               f"per-site live_bytes sum to {live_sum}, collector reports "
               f"{heap['live_bytes_after_last_gc']}")

    cycles = doc["cycles"]
    expect_keys(cycles, "$.cycles", ["sampled_cycles", "samples", "functions",
                                     "folded"])
    for key in ("sampled_cycles", "samples"):
        expect_num(cycles, "$.cycles", key, integer=True)
    functions = cycles["functions"]
    expect(isinstance(functions, list), "$.cycles.functions",
           "expected an array")
    self_sum = 0
    for i, fn in enumerate(functions):
        path = f"$.cycles.functions[{i}]"
        expect_keys(fn, path, ["name", "self_cycles", "by_kind"])
        expect_str(fn, path, "name")
        expect_num(fn, path, "self_cycles", integer=True)
        by_kind = fn["by_kind"]
        expect(isinstance(by_kind, dict), f"{path}.by_kind",
               "expected an object")
        for key in by_kind:
            expect_num(by_kind, f"{path}.by_kind", key, integer=True)
        expect(sum(by_kind.values()) == fn["self_cycles"], f"{path}.by_kind",
               f"by_kind sums to {sum(by_kind.values())}, self_cycles is "
               f"{fn['self_cycles']}")
        self_sum += fn["self_cycles"]
    expect(self_sum == cycles["sampled_cycles"], "$.cycles.functions",
           f"per-function self_cycles sum to {self_sum}, sampled total is "
           f"{cycles['sampled_cycles']}")
    folded = cycles["folded"]
    expect(isinstance(folded, list), "$.cycles.folded", "expected an array")
    folded_sum = 0
    for i, entry in enumerate(folded):
        path = f"$.cycles.folded[{i}]"
        expect_keys(entry, path, ["stack", "cycles"])
        expect_str(entry, path, "stack")
        expect(entry["stack"], f"{path}.stack", "stack must be non-empty")
        expect_num(entry, path, "cycles", integer=True)
        folded_sum += entry["cycles"]
    expect(folded_sum == cycles["sampled_cycles"], "$.cycles.folded",
           f"folded stacks sum to {folded_sum}, sampled total is "
           f"{cycles['sampled_cycles']}")


# --- gcsafe-lint-v1 ---------------------------------------------------------

LINT_KINDS = {"kill_live_register", "base_killed", "base_clobbered",
              "kill_missing", "kill_spurious", "keep_live_dropped",
              "structure"}

LINT_DIAG_KEYS = ["function", "block", "index", "line", "pass", "kind",
                  "derived", "base", "message"]


def check_lint(doc):
    expect_keys(doc, "$", ["schema", "input", "mode", "verify", "clean",
                           "diagnostics"])
    expect_str(doc, "$", "input")
    expect_str(doc, "$", "mode")
    expect(doc["verify"] in ("final", "each-pass"), "$.verify",
           f"expected 'final' or 'each-pass', got {doc['verify']!r}")
    expect(isinstance(doc["clean"], bool), "$.clean", "expected a bool")
    diags = doc["diagnostics"]
    expect(isinstance(diags, list), "$.diagnostics", "expected an array")
    expect(doc["clean"] == (len(diags) == 0), "$.clean",
           "clean flag must match diagnostics being empty")
    for i, diag in enumerate(diags):
        path = f"$.diagnostics[{i}]"
        expect_keys(diag, path, LINT_DIAG_KEYS)
        expect_str(diag, path, "function")
        expect_str(diag, path, "pass")
        expect_str(diag, path, "message")
        expect(diag["message"], f"{path}.message",
               "message must be non-empty")
        for key in ("block", "index", "line", "derived", "base"):
            expect_num(diag, path, key, integer=True)
        expect(diag["kind"] in LINT_KINDS, f"{path}.kind",
               f"unknown diagnostic kind {diag['kind']!r} "
               f"(known: {', '.join(sorted(LINT_KINDS))})")


def check_lockgraph(doc):
    """gcsafe-lockgraph-v1 (docs/ANALYSIS.md §"Concurrency checking"): the
    runtime lock-rank lint's observed acquisition graph. Beyond shape, the
    graph must be acyclic (an edge rank A -> rank B means A was held while
    B was acquired; a cycle is a potential deadlock) and a graph from a
    healthy run must report zero violations."""
    expect_keys(doc, "$", ["schema", "policy", "ranks", "edges",
                           "violations"])
    expect(doc["policy"] in ("abort", "record"), "$.policy",
           f"expected 'abort' or 'record', got {doc['policy']!r}")

    ranks = doc["ranks"]
    expect(isinstance(ranks, list) and ranks, "$.ranks",
           "expected a non-empty array")
    names = set()
    for i, rank in enumerate(ranks):
        path = f"$.ranks[{i}]"
        expect_keys(rank, path, ["rank", "name", "acquisitions"])
        expect_num(rank, path, "rank", integer=True)
        expect_num(rank, path, "acquisitions", integer=True)
        expect_str(rank, path, "name")
        expect(rank["rank"] == i, f"{path}.rank",
               f"ranks must be dense and ordered (got {rank['rank']}, "
               f"expected {i})")
        expect(rank["name"] not in names, f"{path}.name",
               f"duplicate rank name {rank['name']!r}")
        names.add(rank["name"])

    edges = doc["edges"]
    expect(isinstance(edges, list), "$.edges", "expected an array")
    adjacency = {}
    for i, edge in enumerate(edges):
        path = f"$.edges[{i}]"
        expect_keys(edge, path, ["from", "to", "from_name", "to_name",
                                 "count"])
        for key in ("from", "to", "count"):
            expect_num(edge, path, key, integer=True)
        for key, id_key in (("from_name", "from"), ("to_name", "to")):
            expect_str(edge, path, key)
            expect(0 <= edge[id_key] < len(ranks), f"{path}.{id_key}",
                   f"rank id {edge[id_key]} out of range")
            expect(edge[key] == ranks[edge[id_key]]["name"],
                   f"{path}.{key}",
                   f"name {edge[key]!r} does not match rank "
                   f"{edge[id_key]} ({ranks[edge[id_key]]['name']!r})")
        expect(edge["count"] >= 1, f"{path}.count",
               "recorded edges must have count >= 1")
        expect(edge["from"] != edge["to"], path,
               f"self-edge on rank {edge['from']} "
               f"({edge['from_name']!r}): same-rank nesting")
        adjacency.setdefault(edge["from"], set()).add(edge["to"])

    # Acyclicity by depth-first search; a cycle means two lock orders
    # that can deadlock against each other. (The lint's strictly-
    # increasing rank discipline makes a clean graph trivially acyclic,
    # but the checker re-proves it rather than trusting the discipline.)
    state = {}  # rank -> 1 (on stack) or 2 (done)
    def visit(node, trail):
        if state.get(node) == 2:
            return
        if state.get(node) == 1:
            cycle = trail[trail.index(node):] + [node]
            names = " -> ".join(ranks[n]["name"] for n in cycle)
            raise SchemaError(f"$.edges: lock-order cycle: {names}")
        state[node] = 1
        for succ in sorted(adjacency.get(node, ())):
            visit(succ, trail + [node])
        state[node] = 2
    for node in sorted(adjacency):
        visit(node, [])

    violations = doc["violations"]
    vpath = "$.violations"
    expect_keys(violations, vpath, ["rank_inversions", "dropped_locks"],
                optional=("first_inversion",))
    for key in ("rank_inversions", "dropped_locks"):
        expect_num(violations, vpath, key, integer=True)
        expect(violations[key] == 0, f"{vpath}.{key}",
               f"a healthy run must be violation-free, got "
               f"{violations[key]}")
    expect("first_inversion" not in violations, vpath,
           "first_inversion present despite zero rank_inversions")


# --- Chrome trace_event (gcsafe-cc / gcsafe-serve --trace-chrome) -----------

def check_chrome_trace(doc, path="$"):
    """Array form or {"traceEvents": [...]} object form; every event needs
    ph/pid/tid; non-metadata events need a monotonically nondecreasing ts."""
    if isinstance(doc, dict):
        expect("traceEvents" in doc, path,
               "object-form trace needs a 'traceEvents' array")
        events = doc["traceEvents"]
        path += ".traceEvents"
    else:
        events = doc
    expect(isinstance(events, list), path, "expected an array of events")
    last_ts = None
    for i, ev in enumerate(events):
        epath = f"{path}[{i}]"
        expect(isinstance(ev, dict), epath, "expected an event object")
        for key in ("ph", "pid", "tid"):
            expect(key in ev, epath, f"missing required key '{key}'")
        expect_str(ev, epath, "ph")
        for key in ("pid", "tid"):
            expect_num(ev, epath, key, integer=True)
        if ev["ph"] == "M":
            continue  # metadata events carry no timestamp
        expect("ts" in ev, epath, "non-metadata event missing 'ts'")
        expect_num(ev, epath, "ts")
        if ev["ph"] == "X":
            expect("dur" in ev, epath, "complete event missing 'dur'")
            expect_num(ev, epath, "dur")
            expect(ev["dur"] >= 0, f"{epath}.dur", "negative duration")
        if last_ts is not None:
            expect(ev["ts"] >= last_ts, f"{epath}.ts",
                   "events must be in nondecreasing ts order")
        last_ts = ev["ts"]


# Stable failure tokens a scrub (or a read-path validation) may attach
# to a quarantined entry, mirroring serve/Store.cpp (docs/SERVING.md
# §"Durability & restart").
STORE_SCRUB_REASONS = {
    "zero_length", "bad_magic", "bad_version", "bad_header",
    "truncated_header", "bad_key", "bad_fingerprint", "truncated_payload",
    "trailing_garbage", "bad_checksum", "io_error", "absent", "unknown",
}


def check_store_report(doc, path="$"):
    """One gcsafe-store-v1 scrub report (the store's scrub.json, written
    at every startup): each examined entry either valid or quarantined
    with a stable reason token, and the totals balancing — an entry can
    never be silently skipped."""
    expect(isinstance(doc, dict), path, "expected an object")
    expect_keys(doc, path, ["schema", "fingerprint", "scanned", "valid",
                            "quarantined", "entries"])
    expect(doc["schema"] == "gcsafe-store-v1", f"{path}.schema",
           f"expected gcsafe-store-v1, got {doc.get('schema')!r}")
    expect_str(doc, path, "fingerprint")
    expect(doc["fingerprint"] != "", f"{path}.fingerprint",
           "a scrub report must name the build fingerprint it checked "
           "entries against")
    for key in ("scanned", "valid", "quarantined"):
        expect_num(doc, path, key, integer=True)
    expect(doc["scanned"] == doc["valid"] + doc["quarantined"],
           f"{path}.scanned",
           f"scanned ({doc['scanned']}) != valid ({doc['valid']}) + "
           f"quarantined ({doc['quarantined']})")
    entries = doc["entries"]
    expect(isinstance(entries, list), f"{path}.entries",
           "expected an array")
    expect(len(entries) == doc["scanned"], f"{path}.entries",
           f"{len(entries)} entries listed for scanned={doc['scanned']}")
    valid = quarantined = 0
    for i, entry in enumerate(entries):
        epath = f"{path}.entries[{i}]"
        expect(isinstance(entry, dict), epath, "expected an object")
        expect_keys(entry, epath, ["file", "status"], optional=["reason"])
        expect_str(entry, epath, "file")
        expect(entry["file"].endswith(".entry"), f"{epath}.file",
               f"entry file {entry['file']!r} without the .entry suffix")
        expect_str(entry, epath, "status")
        if entry["status"] == "ok":
            valid += 1
            expect("reason" not in entry, f"{epath}.reason",
                   "a valid entry must not carry a failure reason")
        elif entry["status"] == "quarantined":
            quarantined += 1
            expect("reason" in entry, epath,
                   "a quarantined entry must carry a failure reason")
            expect_str(entry, epath, "reason")
            expect(entry["reason"] in STORE_SCRUB_REASONS,
                   f"{epath}.reason",
                   f"unknown reason {entry['reason']!r} (known: "
                   f"{', '.join(sorted(STORE_SCRUB_REASONS))})")
        else:
            expect(False, f"{epath}.status",
                   f"unknown status {entry['status']!r} "
                   "(known: ok, quarantined)")
    expect(valid == doc["valid"], f"{path}.valid",
           f"{valid} ok entries listed but valid={doc['valid']}")
    expect(quarantined == doc["quarantined"], f"{path}.quarantined",
           f"{quarantined} quarantined entries listed but "
           f"quarantined={doc['quarantined']}")


CHECKERS = {
    "gcsafe-bench-v1": check_bench,
    "gcsafe-run-report-v2": check_run_report,
    "gcsafe-profile-v1": check_profile,
    "gcsafe-lint-v1": check_lint,
    "gcsafe-batch-v1": check_batch,
    "gcsafe-metrics-v1": check_metrics,
    "gcsafe-flightrec-v1": check_ring,
    "gcsafe-lockgraph-v1": check_lockgraph,
    "gcsafe-store-v1": check_store_report,
}


def check_file(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return f"{path}: {exc}"
    if not isinstance(doc, dict) or "schema" not in doc:
        return f"{path}: not an object with a 'schema' field"
    checker = CHECKERS.get(doc["schema"])
    if checker is None:
        return (f"{path}: unknown schema '{doc['schema']}' "
                f"(known: {', '.join(sorted(CHECKERS))})")
    try:
        checker(doc)
    except SchemaError as exc:
        return f"{path}: [{doc['schema']}] {exc}"
    return None


def check_chrome_file(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return f"{path}: {exc}"
    try:
        check_chrome_trace(doc)
    except SchemaError as exc:
        return f"{path}: [chrome-trace] {exc}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", help="report files to validate")
    parser.add_argument("--scan", metavar="DIR",
                        help="also validate every BENCH_*.json under DIR")
    parser.add_argument("--chrome", metavar="FILE", action="append",
                        default=[],
                        help="validate FILE as Chrome trace_event JSON")
    parser.add_argument("--lint", metavar="FILE", action="append",
                        default=[],
                        help="validate FILE as a gcsafe-lint-v1 report")
    parser.add_argument("--batch", metavar="FILE", action="append",
                        default=[],
                        help="validate FILE as a gcsafe-batch-v1 summary")
    parser.add_argument("--serve", metavar="FILE", action="append",
                        default=[],
                        help="validate FILE as line-delimited "
                             "gcsafe-serve-v1 responses")
    parser.add_argument("--lockgraph", metavar="FILE", action="append",
                        default=[],
                        help="validate FILE as a gcsafe-lockgraph-v1 "
                             "lock-acquisition graph (acyclic, "
                             "violation-free)")
    parser.add_argument("--store", metavar="FILE", action="append",
                        default=[],
                        help="validate FILE as a gcsafe-store-v1 scrub "
                             "report (totals balance, quarantined entries "
                             "carry known reasons)")
    parser.add_argument("--expect-status", metavar="SUBSTR=STATUS",
                        action="append", default=[],
                        help="require the --batch input whose name contains "
                             "SUBSTR to have final status STATUS")
    args = parser.parse_args()

    files = [Path(f) for f in args.files]
    if args.scan:
        scanned = sorted(Path(args.scan).rglob("BENCH_*.json"))
        if not scanned:
            print(f"error: no BENCH_*.json found under {args.scan}",
                  file=sys.stderr)
            return 1
        files.extend(scanned)
    if (not files and not args.chrome and not args.lint and not args.batch
            and not args.serve and not args.lockgraph and not args.store):
        parser.error("no files given (pass FILEs, --scan DIR, --lint FILE, "
                     "--batch FILE, --serve FILE, --lockgraph FILE, "
                     "--store FILE, and/or --chrome FILE)")

    expectations = []
    for spec in args.expect_status:
        substr, sep, status = spec.partition("=")
        if not sep or not substr or status not in BATCH_STATUSES:
            parser.error(f"bad --expect-status '{spec}' "
                         f"(want SUBSTR=STATUS, STATUS one of "
                         f"{', '.join(sorted(BATCH_STATUSES))})")
        expectations.append((substr, status))
    if expectations and not args.batch:
        parser.error("--expect-status requires --batch")

    failures = []
    for path in args.batch:
        problem = check_file(path)
        if problem is None:
            doc = json.loads(Path(path).read_text())
            if doc["schema"] != "gcsafe-batch-v1":
                problem = (f"{path}: expected schema gcsafe-batch-v1, "
                           f"got '{doc['schema']}'")
        if problem:
            failures.append(problem)
            continue
        print(f"ok: {path} [gcsafe-batch-v1]")
        for substr, status in expectations:
            matches = [e for e in doc["inputs"] if substr in e["input"]]
            if not matches:
                failures.append(f"{path}: --expect-status: no input "
                                f"matches '{substr}'")
                continue
            for entry in matches:
                if entry["status"] != status:
                    failures.append(
                        f"{path}: input '{entry['input']}' has status "
                        f"'{entry['status']}', expected '{status}'")
    for path in args.serve:
        problem = check_serve_file(path)
        if problem:
            failures.append(problem)
        else:
            print(f"ok: {path} [gcsafe-serve-v1]")
    for path in args.lint:
        problem = check_file(path)
        if problem is None:
            doc = json.loads(Path(path).read_text())
            if doc["schema"] != "gcsafe-lint-v1":
                problem = (f"{path}: expected schema gcsafe-lint-v1, "
                           f"got '{doc['schema']}'")
        if problem:
            failures.append(problem)
        else:
            print(f"ok: {path} [gcsafe-lint-v1]")
    for path in args.lockgraph:
        problem = check_file(path)
        if problem is None:
            doc = json.loads(Path(path).read_text())
            if doc["schema"] != "gcsafe-lockgraph-v1":
                problem = (f"{path}: expected schema gcsafe-lockgraph-v1, "
                           f"got '{doc['schema']}'")
        if problem:
            failures.append(problem)
        else:
            print(f"ok: {path} [gcsafe-lockgraph-v1]")
    for path in args.store:
        problem = check_file(path)
        if problem is None:
            doc = json.loads(Path(path).read_text())
            if doc["schema"] != "gcsafe-store-v1":
                problem = (f"{path}: expected schema gcsafe-store-v1, "
                           f"got '{doc['schema']}'")
        if problem:
            failures.append(problem)
        else:
            print(f"ok: {path} [gcsafe-store-v1]")
    for path in files:
        problem = check_file(path)
        if problem:
            failures.append(problem)
        else:
            doc = json.loads(Path(path).read_text())
            print(f"ok: {path} [{doc['schema']}]")
    for path in args.chrome:
        problem = check_chrome_file(path)
        if problem:
            failures.append(problem)
        else:
            print(f"ok: {path} [chrome-trace]")
    for problem in failures:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
