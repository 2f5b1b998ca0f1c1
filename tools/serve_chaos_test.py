#!/usr/bin/env python3
"""Chaos/soak harness for gcsafe-serve (docs/ROBUSTNESS.md §8).

Hammers a live --isolate daemon with concurrent well-behaved clients
interleaved with hostile ones while the service-wide failpoints fire:

  serve_chaos_test.py --mode=chaos --serve-bin BIN --out FILE
  serve_chaos_test.py --mode=soak  --serve-bin BIN --out FILE

Phase 1 (flood): 8 concurrent clients submit compiles over a small set of
distinct cache keys while `serve.worker.crash` fires at 5% under
--isolate --isolate-retries=0 and `serve.queue.full` forces exactly one
admission shed. Hostile clients run at the same time: an oversized
request line, a garbage (non-JSON) line, a mid-request disconnect, and a
half-closed socket. Assertions:

  - the daemon never dies (zero daemon deaths is the headline invariant);
  - every compile response classifies as exactly one of: ok, "crashed"
    (exit 8, attributed to that one request), "overloaded" (exit 7, the
    forced shed, answered in bounded time), or "deadline" (exit 6, the
    deliberately-1ms-budget requests);
  - all ok responses sharing a cache_key are byte-identical modulo the
    "cached"/"id"/"request_id" fields — the warm/cold contract survives
    chaos;
  - the crashed count matches serve.isolate.crashes and crashed results
    were never cached (a later request on the same key succeeds);
  - telemetry (docs/OBSERVABILITY.md §8): every "crashed" response is
    covered by a flight-recorder dump in --flightrec-dir naming its
    request_id (100% crash-dump coverage), and the post-run metrics op
    reports an e2e histogram count equal to serve.requests — no request
    escapes the latency telemetry.

Phase 2 (attribution): a fresh daemon with serve.worker.crash@always and
no retries — every compile must come back typed "crashed" with the
signal named, deterministically, each with its flight-recorder dump, and
the daemon must survive all of them.

Phase 3 (drain): `drain` acks, queued work finishes, the daemon exits 0
and removes its socket — the graceful retirement path.

--mode=soak runs the same phases with a larger flood and a lower crash
rate; both modes are deterministic in their assertions and bounded in
wall time (ctest labels `chaos` and `soak`). All captured response lines
go to --out for gcsafe-serve-v1 schema validation.

--mode=restart is the durability battery (docs/SERVING.md §"Durability &
restart", ctest label `disk`): populate a --store-dir daemon cold,
SIGKILL it mid-write, fabricate a torn entry, restart on the same store
and require the scrub to quarantine the torn entry and every warm replay
to be byte-identical to its cold response; then rerun the same store
with all four store.* failpoints armed at high rates and require every
response ok, zero deviant replays, and a clean exit. The scrub report is
copied to --store-report for check_bench_json.py --store.
"""

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path


def fail(message):
    print(f"serve_chaos_test: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


# A compile that can only end by deadline (or by an injected crash):
# the flood's 1ms-budget probes use it so "ok" is impossible for them.
SPIN_SOURCE = (
    "int main(void) {\n"
    "  long i;\n"
    "  i = 0;\n"
    "  while (1) { i = i + 1; }\n"
    "  return 0;\n"
    "}\n")


# Distinct cache keys come from distinct sources: each variant sums a
# different constant, so the preprocessed source (and the key) differs.
def make_source(variant):
    return (
        "struct node { struct node *next; long value; };\n"
        "int main(void) {\n"
        "  struct node *head; struct node *n; long i; long s;\n"
        "  head = 0; s = 0;\n"
        "  for (i = 0; i < 24; i++) {\n"
        "    n = (struct node *)gc_malloc(sizeof(struct node));\n"
        f"    n->value = i * {3 + variant};\n"
        "    n->next = head; head = n;\n"
        "  }\n"
        "  while (head) { s = s + head->value; head = head->next; }\n"
        "  print_int(s); print_char(10);\n"
        "  return 0;\n"
        "}\n")


class Daemon:
    """One gcsafe-serve --socket instance under test."""

    def __init__(self, serve_bin, tmp, name, extra_flags):
        self.path = os.path.join(tmp, name + ".sock")
        self.proc = subprocess.Popen(
            [serve_bin, f"--socket={self.path}"] + extra_flags,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def alive(self):
        return self.proc.poll() is None

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def connect(self, timeout=30.0):
        """Connect with bounded exponential backoff: the daemon creates
        its socket file and *then* starts accepting, so a client can race
        either step (missing file or ECONNREFUSED). A fixed sleep flakes
        on slow machines and wastes time on fast ones; backoff starts at
        10ms, doubles to a 0.5s cap, and a daemon that exits while we
        wait fails immediately."""
        deadline = time.monotonic() + timeout
        delay = 0.01
        while True:
            conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            conn.settimeout(60)
            try:
                conn.connect(self.path)
                return conn
            except (FileNotFoundError, ConnectionRefusedError) as exc:
                conn.close()
                if self.proc.poll() is not None:
                    fail(f"daemon exited {self.proc.returncode} before "
                         "accepting connections")
                if time.monotonic() > deadline:
                    self.kill()
                    fail(f"could not connect to {self.path} within "
                         f"{timeout:.0f}s ({exc})")
                time.sleep(delay)
                delay = min(delay * 2, 0.5)


def read_line(conn):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = conn.recv(65536)
        if not chunk:
            return None
        buf += chunk
    return buf.decode().rstrip("\n")


def ask(conn, request):
    conn.sendall((json.dumps(request) + "\n").encode())
    line = read_line(conn)
    if line is None:
        fail(f"connection closed without answering {request.get('id')}")
    return line


def ask_fresh(daemon, request):
    with daemon.connect() as conn:
        return ask(conn, request)


def compile_request(rid, source, deadline_ms=0):
    # The protocol id doubles as the trace request_id, so every crash can
    # be attributed to a flight-recorder dump named after the victim. The
    # name is in the cache key, so it stays fixed: repeats of a source hit.
    req = {"schema": "gcsafe-serve-v1", "op": "compile", "id": rid,
           "request_id": rid, "name": "chaos.c", "source": source,
           "mode": "safepost", "run": True}
    if deadline_ms:
        req["deadline_ms"] = deadline_ms
    return req


def flood_client(daemon, client, rounds, sources, lines, errors):
    """One well-behaved client: its own connection, sequential requests
    across every cache key, plus one deliberately-expired deadline."""
    try:
        with daemon.connect() as conn:
            for r in range(rounds):
                for k, source in enumerate(sources):
                    rid = f"c{client}-r{r}-k{k}"
                    lines.append(ask(conn, compile_request(rid, source)))
            lines.append(ask(conn, compile_request(
                f"c{client}-deadline", SPIN_SOURCE, deadline_ms=1)))
    except Exception as exc:  # noqa: BLE001 - any client error fails the test
        errors.append(f"client {client}: {exc!r}")


def hostile_clients(daemon, errors):
    """The abuse battery. None of these may hurt the daemon; responses
    (when the protocol owes one) are not captured for schema checking —
    hostility is about the daemon surviving, not the transcript."""
    try:
        # Oversized request line: answered with a protocol error, then
        # the daemon hangs up.
        with daemon.connect() as conn:
            conn.sendall(b'{"op":"compile","source":"' + b"x" * 70000 +
                         b'"}\n')
            line = read_line(conn)
            if line is not None:
                resp = json.loads(line)
                if resp.get("ok") is not False:
                    errors.append(f"oversized request not rejected: {resp}")
        # Garbage line: a typed error response, connection still usable.
        with daemon.connect() as conn:
            conn.sendall(b"this is not json\n")
            line = read_line(conn)
            if line is None:
                errors.append("no error response to a garbage line")
            else:
                resp = json.loads(line)
                if resp.get("op") != "error" or resp.get("ok") is not False:
                    errors.append(f"garbage line not typed error: {resp}")
        # Mid-request disconnect: half a JSON document, then gone.
        with daemon.connect() as conn:
            conn.sendall(b'{"op":"compile","source":"int ma')
        # Half-closed socket: the read timeout must reap it.
        with daemon.connect() as conn:
            conn.sendall(b'{"op":"ping","id":"half"}\n')
            conn.shutdown(socket.SHUT_WR)
            read_line(conn)  # drain whatever arrives before EOF
    except Exception as exc:  # noqa: BLE001
        errors.append(f"hostile client: {exc!r}")


def classify(resp):
    if resp.get("op") != "compile":
        fail(f"unexpected op in flood transcript: {resp}")
    status = resp.get("status", "")
    if resp.get("ok"):
        if status:
            fail(f"ok response with a status token: {resp}")
        return "ok"
    if status == "crashed":
        if resp.get("exit_code") != 8:
            fail(f"crashed response without exit code 8: {resp}")
        if "signal" not in resp.get("error", ""):
            fail(f"crash not attributed to a signal: {resp}")
        return "crashed"
    if status == "overloaded":
        if resp.get("exit_code") != 7:
            fail(f"overloaded response without exit code 7: {resp}")
        return "overloaded"
    if status == "deadline":
        if resp.get("exit_code") != 6:
            fail(f"deadline response without exit code 6: {resp}")
        return "deadline"
    fail(f"unclassifiable failure in flood transcript: {resp}")


def check_byte_identity(responses):
    """Every warm (cached) response must replay some cold payload of its
    key verbatim, modulo the fields that legitimately differ per serving.
    Concurrent cold misses on one key may each produce their own payload
    (reports carry timings), so the contract under chaos is replay
    fidelity, not a single payload per key."""
    def canon(resp):
        return json.dumps(
            {k: v for k, v in resp.items()
             if k not in ("cached", "id", "request_id")},
            sort_keys=True)
    cold, warm = {}, {}
    for resp in responses:
        bucket = warm if resp.get("cached") else cold
        bucket.setdefault(resp["cache_key"], set()).add(canon(resp))
    for key, payloads in warm.items():
        fabricated = payloads - cold.get(key, set())
        if fabricated:
            fail(f"{len(fabricated)} warm payloads for cache key {key} "
                 "match no cold payload — a cached response was not a "
                 "verbatim replay")
    return len(set(cold) | set(warm))


def check_crash_dump(flight_dir, resp):
    """Every "crashed" response must be accompanied by a flight-recorder
    dump naming the victim (docs/OBSERVABILITY.md §8)."""
    rid = resp.get("request_id")
    if not rid:
        fail(f"crashed response without a request_id: {resp}")
    if rid != resp.get("id"):
        fail(f"crashed response echoes request_id {rid!r}, "
             f"sent {resp['id']!r}")
    path = os.path.join(flight_dir, f"flightrec-{rid}.json")
    if not os.path.exists(path):
        fail(f"no flight-recorder dump for crashed request {rid!r} "
             f"at {path}")
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        fail(f"flight dump {path} is not JSON: {exc}")
    if doc.get("schema") != "gcsafe-flightrec-v1":
        fail(f"flight dump {path} has schema {doc.get('schema')!r}")
    if doc.get("reason") != "crash":
        fail(f"flight dump {path} has reason {doc.get('reason')!r}, "
             "expected 'crash'")
    if doc.get("request_id") != rid:
        fail(f"flight dump {path} names {doc.get('request_id')!r}, "
             f"expected {rid!r}")
    if not doc.get("events"):
        fail(f"flight dump {path} carries no events")


def sched_flags(args):
    """--sched-seed passthrough: arm the daemon's schedule fuzzer."""
    return ([f"--sched-seed={args.sched_seed}"]
            if getattr(args, "sched_seed", 0) else [])


def run_flood_phase(args, tmp, lines):
    clients = 8
    rounds = 6 if args.mode == "soak" else 2
    crash_p = "0.02" if args.mode == "soak" else "0.05"
    sources = [make_source(v) for v in range(4)]
    flight_dir = os.path.join(tmp, "flight-flood")
    os.makedirs(flight_dir, exist_ok=True)
    daemon = Daemon(args.serve_bin, tmp, "flood", [
        "--workers=4", "--isolate", "--isolate-retries=0",
        "--isolate-timeout=20000", "--queue-max=64",
        "--read-timeout=5000", "--write-timeout=5000",
        "--max-request=65536", f"--flightrec-dir={flight_dir}",
        f"--fail-inject=13:serve.worker.crash@p{crash_p},"
        "serve.queue.full@n3x1",
    ] + sched_flags(args))
    try:
        health = json.loads(ask_fresh(daemon, {"op": "health", "id": "h0"}))
        if not (health["ok"] and health["ready"] and health["isolate"]):
            fail(f"daemon not ready/isolated before the flood: {health}")
        lines.append(json.dumps(health))

        flood, errors, threads = [], [], []
        for c in range(clients):
            threads.append(threading.Thread(
                target=flood_client,
                args=(daemon, c, rounds, sources, flood, errors)))
        threads.append(threading.Thread(
            target=hostile_clients, args=(daemon, errors)))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            if t.is_alive():
                fail("a flood client is still blocked after 300s")
        if errors:
            fail("; ".join(errors))
        if not daemon.alive():
            fail(f"daemon died during the flood "
                 f"(exit {daemon.proc.returncode})")

        responses = [json.loads(l) for l in flood]
        lines.extend(flood)
        counts = {"ok": 0, "crashed": 0, "overloaded": 0, "deadline": 0}
        for resp in responses:
            counts[classify(resp)] += 1
        expected = clients * rounds * len(sources) + clients
        if sum(counts.values()) != expected:
            fail(f"{sum(counts.values())} responses for {expected} requests")
        if counts["ok"] == 0:
            fail("no request succeeded under chaos")
        # serve.queue.full@n3x1 forces exactly one admission shed.
        if counts["overloaded"] != 1:
            fail(f"{counts['overloaded']} overloaded responses, expected "
                 "exactly 1 (the forced queue-full shed)")
        # The 1ms-budget spin probes can end by deadline, by an injected
        # crash, or (at most once) by the forced shed — never by ok.
        for resp in responses:
            if resp["id"].endswith("-deadline") and resp.get("ok"):
                fail(f"a 1ms-budget request returned ok: {resp}")
        if counts["deadline"] < 1:
            fail("no deadline response from the 1ms-budget probes")
        keys = check_byte_identity(
            [r for r in responses if r.get("ok")])
        if keys != len(sources):
            fail(f"{keys} cache-key groups for {len(sources)} sources")

        stats_line = ask_fresh(
            daemon, {"schema": "gcsafe-serve-v1", "op": "stats",
                     "id": "st0"})
        lines.append(stats_line)
        serve = json.loads(stats_line)["serve"]
        if serve["isolate"]["crashes"] != counts["crashed"]:
            fail(f"stats count {serve['isolate']['crashes']} crashes but "
                 f"{counts['crashed']} crashed responses — a crash was "
                 "not attributed to exactly one request")
        if serve["queue"]["shed"] != 1:
            fail(f"serve.queue.shed = {serve['queue']['shed']}, expected 1")

        # Telemetry phase (docs/OBSERVABILITY.md §8): every crashed
        # response is covered by a flight-recorder dump naming its
        # request, and the e2e latency histogram accounts for exactly
        # the requests the service admitted (sheds never start a span).
        for resp in responses:
            if resp.get("status") == "crashed":
                check_crash_dump(flight_dir, resp)
        metrics_line = ask_fresh(
            daemon, {"schema": "gcsafe-serve-v1", "op": "metrics",
                     "id": "m0"})
        lines.append(metrics_line)
        snap = json.loads(metrics_line)["metrics"]
        if snap.get("schema") != "gcsafe-metrics-v1":
            fail(f"bad metrics snapshot after the flood: {snap}")
        e2e = snap["stages"]["e2e"]["count"]
        if e2e != serve["requests"]:
            fail(f"e2e histogram count {e2e} != serve.requests "
                 f"{serve['requests']} — a request escaped telemetry")

        # Phase 3 rides on the flood daemon: drain and a clean exit.
        drain_line = ask_fresh(daemon, {"op": "drain", "id": "d0"})
        lines.append(drain_line)
        if not json.loads(drain_line)["ok"]:
            fail(f"drain not acked: {drain_line}")
        code = daemon.proc.wait(timeout=60)
        if code != 0:
            fail(f"daemon exited {code} after drain, expected 0")
        if os.path.exists(daemon.path):
            fail("daemon left its socket behind after drain")
        return counts
    finally:
        daemon.kill()


def run_attribution_phase(args, tmp, lines):
    flight_dir = os.path.join(tmp, "flight-attr")
    os.makedirs(flight_dir, exist_ok=True)
    daemon = Daemon(args.serve_bin, tmp, "attr", [
        "--workers=2", "--isolate", "--isolate-retries=0",
        f"--flightrec-dir={flight_dir}",
        "--fail-inject=7:serve.worker.crash@always",
    ] + sched_flags(args))
    try:
        with daemon.connect() as conn:
            for n in range(3):
                line = ask(conn, compile_request(f"attr-{n}",
                                                 make_source(n)))
                lines.append(line)
                resp = json.loads(line)
                if resp.get("status") != "crashed" or resp["exit_code"] != 8:
                    fail(f"crash-rate-1.0 compile not typed crashed: {resp}")
                if "signal" not in resp.get("error", ""):
                    fail(f"crash without the signal named: {resp}")
                if resp.get("cached"):
                    fail(f"a crashed result claims cached=true: {resp}")
                check_crash_dump(flight_dir, resp)
        if not daemon.alive():
            fail("daemon died in the crash-rate-1.0 phase")
        line = ask_fresh(daemon, {"op": "shutdown", "id": "bye"})
        lines.append(line)
        code = daemon.proc.wait(timeout=60)
        if code != 0:
            fail(f"attribution daemon exited {code}, expected 0")
    finally:
        daemon.kill()


def canon_response(resp):
    """A response with the legitimately-per-serving fields stripped: the
    byte-identity comparand shared by every durability assertion."""
    return json.dumps(
        {k: v for k, v in resp.items()
         if k not in ("cached", "id", "request_id")},
        sort_keys=True)


def run_restart_phase(args, tmp, lines):
    """Durability battery (docs/SERVING.md §"Durability & restart").

    Phase A: a --store-dir daemon compiles a set of sources cold, then is
    SIGKILLed with one more compile in flight — the store can be mid-write
    when the process dies. A torn entry is also fabricated directly.

    Phase B: a new daemon on the same store dir. Its startup scrub must
    quarantine the torn entry (reported in scrub.json, renamed aside, and
    counted), and every replayed compile must be served cached and
    byte-identical to its phase-A cold response.

    Phase C: a third daemon on the same store with all four store.*
    failpoints armed at high rates. Every response must still be ok, no
    cached response may ever deviate from a cold original (a checksum-
    failing payload must never be served), and the daemon must exit 0.
    """
    store_dir = os.path.join(tmp, "store")
    store_root = os.path.join(store_dir, "gcsafe-store-v1")
    sources = [make_source(v) for v in range(3)]
    cold = {}

    # --- Phase A: populate cold, then SIGKILL mid-flight. ---
    daemon = Daemon(args.serve_bin, tmp, "restart-cold", [
        "--workers=2", f"--store-dir={store_dir}"] + sched_flags(args))
    try:
        with daemon.connect() as conn:
            for k, source in enumerate(sources):
                line = ask(conn, compile_request(f"cold-{k}", source))
                lines.append(line)
                resp = json.loads(line)
                if not resp.get("ok") or resp.get("cached"):
                    fail(f"phase-A cold compile not ok/uncached: {resp}")
                cold[resp["cache_key"]] = canon_response(resp)
        with daemon.connect() as conn:
            conn.sendall((json.dumps(compile_request(
                "kill-victim", make_source(9))) + "\n").encode())
            time.sleep(0.05)
            daemon.proc.kill()  # SIGKILL, possibly mid-store-write
            daemon.proc.wait()
    finally:
        daemon.kill()

    # A guaranteed-torn entry alongside whatever the kill left behind: a
    # header that ends mid-line, under a plausible 32-hex key.
    torn_key = "deadbeef" * 4
    torn_name = torn_key + ".entry"
    entries_dir = os.path.join(store_root, "entries")
    with open(os.path.join(entries_dir, torn_name), "wb") as f:
        f.write(b"GCSTORE\nv=1\nkey=" + torn_key.encode())

    # --- Phase B: restart, scrub, warm replay fidelity. ---
    daemon = Daemon(args.serve_bin, tmp, "restart-warm", [
        "--workers=2", f"--store-dir={store_dir}"] + sched_flags(args))
    try:
        warm_lines = []
        with daemon.connect() as conn:
            for k, source in enumerate(sources):
                warm_lines.append(ask(conn, compile_request(f"warm-{k}",
                                                            source)))
        lines.extend(warm_lines)
        for line in warm_lines:
            resp = json.loads(line)
            if not resp.get("ok") or not resp.get("cached"):
                fail(f"warm-restart compile not replayed from the store: "
                     f"{resp}")
            if cold.get(resp["cache_key"]) != canon_response(resp):
                fail(f"warm replay for {resp['cache_key']} is not "
                     "byte-identical to its cold response")

        scrub_path = os.path.join(store_root, "scrub.json")
        scrub = json.loads(Path(scrub_path).read_text())
        if scrub.get("schema") != "gcsafe-store-v1":
            fail(f"scrub report schema {scrub.get('schema')!r}")
        if scrub["scanned"] != scrub["valid"] + scrub["quarantined"]:
            fail(f"scrub report does not balance: {scrub}")
        if scrub["quarantined"] < 1:
            fail("the scrub quarantined nothing despite a torn entry")
        listed = {e["file"]: e for e in scrub["entries"]}
        if listed.get(torn_name, {}).get("status") != "quarantined":
            fail(f"torn entry {torn_name} not quarantined by the scrub: "
                 f"{listed.get(torn_name)}")
        qdir = os.path.join(store_root, "quarantine")
        if not any(q.startswith(torn_name) for q in os.listdir(qdir)):
            fail("torn entry was not renamed into quarantine/")
        if os.path.exists(os.path.join(entries_dir, torn_name)):
            fail("torn entry still present in entries/ after the scrub")
        if args.store_report:
            Path(args.store_report).write_text(json.dumps(scrub, indent=2)
                                               + "\n")

        stats_line = ask_fresh(daemon, {"schema": "gcsafe-serve-v1",
                                        "op": "stats", "id": "st-restart"})
        lines.append(stats_line)
        store_stats = json.loads(stats_line)["serve"]["store"]
        if store_stats["hits"] < len(sources):
            fail(f"serve.store.hits = {store_stats['hits']}, expected >= "
                 f"{len(sources)} warm-restart replays")
        if store_stats["quarantined"] < 1:
            fail(f"serve.store.quarantined = "
                 f"{store_stats['quarantined']}, expected >= 1")

        lines.append(ask_fresh(daemon, {"schema": "gcsafe-serve-v1",
                                        "op": "shutdown",
                                        "id": "bye-warm"}))
        code = daemon.proc.wait(timeout=60)
        if code != 0:
            fail(f"warm-restart daemon exited {code}, expected 0")
    finally:
        daemon.kill()

    # --- Phase C: the same store under all four store.* failpoints. ---
    daemon = Daemon(args.serve_bin, tmp, "restart-fault", [
        "--workers=2", f"--store-dir={store_dir}",
        "--fail-inject=21:store.write.short@p0.5,store.write.enospc@p0.3,"
        "store.read.eio@p0.3,store.read.corrupt@p0.5",
    ] + sched_flags(args))
    try:
        ok_responses = []
        with daemon.connect() as conn:
            for r in range(7):
                for k, source in enumerate(sources):
                    line = ask(conn, compile_request(f"fault-r{r}-k{k}",
                                                     source))
                    lines.append(line)
                    resp = json.loads(line)
                    if not resp.get("ok"):
                        fail(f"response not ok under store failpoints: "
                             f"{resp}")
                    ok_responses.append(resp)
        # Replay fidelity under injected corruption: every cached
        # response must verbatim-match some cold payload of its key —
        # phase A's originals count as colds. A checksum-failing store
        # entry must surface as a recompile, never as a deviant replay.
        for payload in cold.values():
            ok_responses.append(json.loads(payload))
        check_byte_identity(ok_responses)
        if not daemon.alive():
            fail(f"daemon died under store failpoints "
                 f"(exit {daemon.proc.returncode})")
        lines.append(ask_fresh(daemon, {"schema": "gcsafe-serve-v1",
                                        "op": "shutdown",
                                        "id": "bye-fault"}))
        code = daemon.proc.wait(timeout=60)
        if code != 0:
            fail(f"failpoint daemon exited {code}, expected 0 — store "
                 "faults must never be fatal")
    finally:
        daemon.kill()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("chaos", "soak", "restart"),
                        default="chaos")
    parser.add_argument("--serve-bin", required=True)
    parser.add_argument("--out", required=True,
                        help="captured response lines, for "
                             "check_bench_json.py --serve")
    parser.add_argument("--store-report", default="",
                        help="restart mode: copy the scrub report here "
                             "for check_bench_json.py --store")
    parser.add_argument("--sched-seed", type=int, default=0,
                        help="arm the daemons' deterministic schedule "
                             "fuzzer (gcsafe-serve --sched-seed=N): the "
                             "whole chaos battery then runs under seeded "
                             "forced preemptions, and a failure replays "
                             "from the seed alone")
    args = parser.parse_args()

    lines = []
    with tempfile.TemporaryDirectory(prefix="gcsafe-", dir="/tmp") as tmp:
        if args.mode == "restart":
            run_restart_phase(args, tmp, lines)
            Path(args.out).write_text("".join(l + "\n" for l in lines))
            print("serve_chaos_test: ok (restart: SIGKILL mid-write "
                  "survived, torn entry quarantined, warm replays "
                  "byte-identical, store failpoints non-fatal, "
                  "3 daemons, 0 unplanned deaths)")
            return 0
        counts = run_flood_phase(args, tmp, lines)
        run_attribution_phase(args, tmp, lines)
    Path(args.out).write_text("".join(l + "\n" for l in lines))
    print(f"serve_chaos_test: ok ({args.mode}: {counts['ok']} ok, "
          f"{counts['crashed']} crashed+attributed+dumped, "
          f"{counts['overloaded']} shed, {counts['deadline']} deadline, "
          "e2e histogram complete, 2 daemons, 0 daemon deaths)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
