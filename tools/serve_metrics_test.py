#!/usr/bin/env python3
"""Telemetry acceptance harness for gcsafe-serve (docs/OBSERVABILITY.md §8).

Exercises the request-telemetry layer end to end through --once sessions
and leaves every export on disk for schema validation:

  serve_metrics_test.py --serve-bin BIN --source FILE --outdir DIR

Phase 1 (metrics + trace propagation): one session — ping, a cold
compile carrying request_id "m-cold", the same compile warm as "m-warm",
a third compile with no request_id at all, then metrics and stats — with
--trace-chrome, --flightrec-dir, and --metrics-text armed. Assertions:

  - every compile response echoes its client request_id verbatim, and
    the id-less compile gets a generated "r-<n>" id;
  - exactly one of the three identical compiles runs cold (which one is
    scheduling-dependent — they race through the worker pool and
    single-flight elects the leader) and the other two replay it;
  - the metrics op answers gcsafe-metrics-v1 with the e2e histogram
    counting all three compiles, exactly one compile-stage sample, and
    stats agreement (e2e count == serve.requests);
  - the Chrome trace export contains one "request" span pair per
    request, keyed by the uniquified "<request_id>#<seq>" trace id, so
    duplicate client ids can never merge span trees;
  - the Prometheus exposition on stderr carries the counter and
    histogram families.

Phase 2 (flight recorder): a fresh --isolate session with
serve.worker.crash@always and no retries — the compile must come back
typed "crashed" and the daemon must leave
DIR/flightrec-m-victim.json, a gcsafe-flightrec-v1 dump naming the
victim's request_id.

Artifacts written to --outdir (the ctest wiring validates all of them
with check_bench_json.py):

  serve_metrics.ndjson   the phase-1 response transcript   (--serve)
  serve_metrics.json     the standalone metrics snapshot   (positional)
  serve_chrome.json      the Chrome trace export           (--chrome)
  flightrec-m-victim.json  the crash dump                  (positional)

Exits nonzero with a message on the first violated expectation.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path


def fail(message):
    print(f"serve_metrics_test: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run_once(serve_bin, requests, extra_flags, expect_exit=0):
    text = "".join(json.dumps(r) + "\n" for r in requests)
    proc = subprocess.run([serve_bin, "--once"] + extra_flags, input=text,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != expect_exit:
        fail(f"gcsafe-serve --once exited {proc.returncode}, expected "
             f"{expect_exit}: {proc.stderr}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) != len(requests):
        fail(f"{len(lines)} response lines for {len(requests)} requests")
    return lines, proc.stderr


def metrics_phase(args, outdir):
    source = Path(args.source).read_text()
    compile_req = {"schema": "gcsafe-serve-v1", "op": "compile",
                   "name": "metrics-test", "source": source,
                   "mode": "safepost", "run": True}
    requests = [
        {"schema": "gcsafe-serve-v1", "op": "ping", "id": "ping-1"},
        dict(compile_req, id="cold-1", request_id="m-cold"),
        dict(compile_req, id="warm-1", request_id="m-warm"),
        dict(compile_req, id="anon-1"),
        {"schema": "gcsafe-serve-v1", "op": "metrics", "id": "metrics-1"},
        {"schema": "gcsafe-serve-v1", "op": "stats", "id": "stats-1"},
    ]
    chrome_path = outdir / "serve_chrome.json"
    lines, stderr = run_once(args.serve_bin, requests, [
        f"--trace-chrome={chrome_path}", f"--flightrec-dir={outdir}",
        "--metrics-text"])
    (outdir / "serve_metrics.ndjson").write_text(
        "".join(l + "\n" for l in lines))
    by_id = {json.loads(l).get("id"): json.loads(l) for l in lines}

    # Trace propagation: client ids echo, absent ids are generated.
    for rid, want in (("cold-1", "m-cold"), ("warm-1", "m-warm")):
        got = by_id[rid].get("request_id")
        if got != want:
            fail(f"{rid} echoed request_id {got!r}, expected {want!r}")
    anon = by_id["anon-1"].get("request_id", "")
    if not anon.startswith("r-"):
        fail(f"id-less compile got request_id {anon!r}, expected a "
             "generated 'r-<n>'")
    # The three identical compiles are pipelined into the worker pool
    # together; single-flight leadership follows admission order, so the
    # first one admitted compiles and the other two replay it.
    cold = [r for r in ("cold-1", "warm-1", "anon-1")
            if not by_id[r].get("cached")]
    if cold != ["cold-1"]:
        fail(f"expected cold-1 alone to compile among the identical "
             f"triplet, got {cold or 'none'}")

    # The metrics snapshot: all three compiles end to end, one cold.
    snap = by_id["metrics-1"]["metrics"]
    if snap.get("schema") != "gcsafe-metrics-v1":
        fail(f"metrics response schema {snap.get('schema')!r}")
    stages = snap["stages"]
    if stages["e2e"]["count"] != 3:
        fail(f"e2e count {stages['e2e']['count']}, expected 3")
    if stages["compile"]["count"] != 1:
        fail(f"compile count {stages['compile']['count']}, expected 1 "
             "(the warm twins must hit the cache)")
    serve = by_id["stats-1"]["serve"]
    if stages["e2e"]["count"] != serve["requests"]:
        fail(f"e2e count {stages['e2e']['count']} != serve.requests "
             f"{serve['requests']}")
    if "uptime_ns" not in serve or serve["uptime_ns"] <= 0:
        fail(f"stats without a positive serve.uptime_ns: {serve}")
    (outdir / "serve_metrics.json").write_text(
        json.dumps(snap, indent=1) + "\n")

    # The Chrome export: one b/e "request" span pair per request, keyed
    # by the uniquified trace id.
    trace = json.loads(chrome_path.read_text())
    spans = {}
    for ev in trace["traceEvents"]:
        if ev.get("name") == "request" and ev.get("ph") in ("b", "e"):
            spans.setdefault(ev["id"], []).append(ev["ph"])
    if len(spans) != 3:
        fail(f"{len(spans)} request span trees for 3 requests: "
             f"{sorted(spans)}")
    for tid, phases in spans.items():
        if sorted(phases) != ["b", "e"]:
            fail(f"span {tid!r} is not a b/e pair: {phases}")
        if "#" not in tid:
            fail(f"span id {tid!r} is not a '<request_id>#<seq>' trace id")
    want_prefixes = {"m-cold#", "m-warm#", "r-"}
    for prefix in want_prefixes:
        if not any(t.startswith(prefix) for t in spans):
            fail(f"no request span with trace-id prefix {prefix!r}: "
                 f"{sorted(spans)}")

    # The Prometheus exposition (stderr, --metrics-text).
    for needle in ("gcsafe_serve_requests_total 3",
                   "gcsafe_serve_e2e_ns_count 3",
                   "gcsafe_serve_e2e_ns_bucket{le=\"+Inf\"} 3",
                   "gcsafe_serve_uptime_ns "):
        if needle not in stderr:
            fail(f"--metrics-text exposition missing {needle!r}")


def flightrec_phase(args, outdir):
    source = Path(args.source).read_text()
    requests = [
        {"schema": "gcsafe-serve-v1", "op": "compile", "id": "victim-1",
         "request_id": "m-victim", "name": "victim", "source": source,
         "mode": "safepost", "run": True},
    ]
    lines, _ = run_once(args.serve_bin, requests, [
        "--isolate", "--isolate-retries=0",
        "--fail-inject=7:serve.worker.crash@always",
        f"--flightrec-dir={outdir}"])
    resp = json.loads(lines[0])
    if resp.get("status") != "crashed" or resp.get("exit_code") != 8:
        fail(f"injected crash not typed 'crashed': {resp}")
    if resp.get("request_id") != "m-victim":
        fail(f"crashed response request_id {resp.get('request_id')!r}")
    dump_path = outdir / "flightrec-m-victim.json"
    if not dump_path.exists():
        fail(f"no flight-recorder dump at {dump_path}")
    doc = json.loads(dump_path.read_text())
    if doc.get("schema") != "gcsafe-flightrec-v1":
        fail(f"dump schema {doc.get('schema')!r}")
    if doc.get("request_id") != "m-victim" or doc.get("reason") != "crash":
        fail(f"dump does not attribute the victim: {doc}")
    rids = {e.get("request_id") for e in doc.get("events", [])}
    if doc.get("trace_id") not in rids:
        fail(f"dump trace_id {doc.get('trace_id')!r} absent from its own "
             f"events: {sorted(rids)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--serve-bin", required=True,
                        help="path to the gcsafe-serve binary")
    parser.add_argument("--source", required=True,
                        help="C source file to compile through the service")
    parser.add_argument("--outdir", required=True,
                        help="directory for the telemetry artifacts")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    metrics_phase(args, outdir)
    flightrec_phase(args, outdir)
    print("serve_metrics_test: ok (request_id propagation, metrics "
          "snapshot, Chrome span trees, Prometheus exposition, crash "
          "flight-recorder dump)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
