#!/usr/bin/env python3
"""Exercise gcsafe-serve end to end as a client would.

Drives one session — ping, a cold compile, the same compile warm, stats,
metrics, shutdown — through either transport:

  serve_client_test.py --once    --serve-bin BIN --source FILE --out FILE
  serve_client_test.py --socket  --serve-bin BIN --source FILE --out FILE
  serve_client_test.py --hygiene --serve-bin BIN --source FILE --out FILE

and asserts the serving contract (docs/SERVING.md): the warm response is
served from the cache, byte-identical to the cold response apart from the
"cached", "id", and "request_id" values, each compile echoes its client
request_id, and the stats op reports the hit. --once pipelines the cold
and warm twins into the worker pool together, so the cold one must be
the one that compiles by construction (single-flight leadership is taken
in admission order); --repeat N runs that session N times and fails on
the first cold/warm inversion. In socket mode
the cold and warm compiles arrive on *different connections*, proving the
cache is shared across clients, and the daemon must exit 0 after the
shutdown op. Every response line is written to --out so the ctest wiring
can validate the session against the gcsafe-serve-v1 schema with
check_bench_json.py --serve.

--hygiene exercises the protocol-robustness surface against a daemon
with a small --max-request and short socket timeouts
(docs/SERVING.md §"Operating under load"): a health round trip, an
oversized request line (typed protocol error, then hangup), a truncated
NDJSON line (typed error, connection still usable), a mid-line
disconnect (no response owed, daemon unharmed), and finally a drain that
must ack, finish queued work, and exit the daemon with code 0.

Exits nonzero with a message on the first violated expectation.
"""

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def fail(message):
    print(f"serve_client_test: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def wait_and_connect(path, daemon, timeout=30.0, conn_timeout=30):
    """Connect to the daemon's unix socket, retrying a not-yet-created
    socket file and ECONNREFUSED with bounded exponential backoff.

    The daemon creates the socket file and *then* starts accepting, so a
    client can race either step; a fixed sleep flakes on slow machines
    and wastes time on fast ones. Backoff starts at 10ms and doubles to a
    0.5s cap, bounded by ``timeout`` overall; a daemon that exits while
    we wait fails immediately instead of burning the whole budget.
    """
    deadline = time.monotonic() + timeout
    delay = 0.01
    while True:
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        conn.settimeout(conn_timeout)
        try:
            conn.connect(path)
            return conn
        except (FileNotFoundError, ConnectionRefusedError) as exc:
            conn.close()
            if daemon is not None and daemon.poll() is not None:
                fail(f"daemon exited early with {daemon.returncode}")
            if time.monotonic() > deadline:
                fail(f"could not connect to {path} within {timeout:.0f}s "
                     f"({exc})")
            time.sleep(delay)
            delay = min(delay * 2, 0.5)


def build_requests(source):
    compile_req = {
        "schema": "gcsafe-serve-v1",
        "op": "compile",
        "name": "client-test",
        "source": source,
        "mode": "safepost",
        "run": True,
    }
    return [
        {"schema": "gcsafe-serve-v1", "op": "ping", "id": "ping-1"},
        dict(compile_req, id="cold-1", request_id="rid-cold"),
        dict(compile_req, id="warm-1", request_id="rid-warm"),
        {"schema": "gcsafe-serve-v1", "op": "stats", "id": "stats-1"},
        {"schema": "gcsafe-serve-v1", "op": "metrics", "id": "metrics-1"},
        {"schema": "gcsafe-serve-v1", "op": "shutdown", "id": "bye-1"},
    ]


def check_session(responses):
    """The shared contract, regardless of transport."""
    by_id = {r.get("id"): r for r in responses}
    for rid in ("ping-1", "cold-1", "warm-1", "stats-1", "metrics-1",
                "bye-1"):
        if rid not in by_id:
            fail(f"no response with id '{rid}'")
    ping, cold, warm = by_id["ping-1"], by_id["cold-1"], by_id["warm-1"]
    stats, metrics, bye = by_id["stats-1"], by_id["metrics-1"], by_id["bye-1"]

    if not ping["ok"] or ping["op"] != "ping":
        fail(f"bad ping response: {ping}")
    if not bye["ok"] or bye["op"] != "shutdown":
        fail(f"bad shutdown ack: {bye}")

    for name, resp in (("cold", cold), ("warm", warm)):
        if resp["op"] != "compile" or not resp["ok"]:
            fail(f"{name} compile did not succeed: {resp}")
        if resp["exit_code"] != 0:
            fail(f"{name} compile exit_code {resp['exit_code']}, expected 0")
    if cold["cached"]:
        fail("cold compile claims cached=true")
    if not warm["cached"]:
        fail("warm compile was not served from the cache")
    if warm["cache_key"] != cold["cache_key"]:
        fail(f"cache keys differ: {cold['cache_key']} vs "
             f"{warm['cache_key']}")

    # Trace propagation (docs/OBSERVABILITY.md §8): each response echoes
    # its own client request_id, cached or not.
    if cold.get("request_id") != "rid-cold":
        fail(f"cold response request_id {cold.get('request_id')!r}, "
             "expected 'rid-cold'")
    if warm.get("request_id") != "rid-warm":
        fail(f"warm response request_id {warm.get('request_id')!r}, "
             "expected 'rid-warm'")

    # Byte-identity: strip the fields that legitimately differ and compare
    # the canonicalized rest.
    def canon(resp):
        return json.dumps(
            {k: v for k, v in resp.items()
             if k not in ("cached", "id", "request_id")},
            sort_keys=True)
    if canon(warm) != canon(cold):
        fail("warm response is not byte-identical to cold "
             "(modulo 'cached', 'id', and 'request_id')")

    serve = stats.get("serve")
    if not isinstance(serve, dict):
        fail(f"stats response without a serve tree: {stats}")
    if serve["cache"]["hits"] < 1:
        fail(f"stats reports no cache hit: {serve['cache']}")
    if serve["requests"] < 2:
        fail(f"stats reports {serve['requests']} requests, expected >= 2")

    # The metrics op answers with the latency snapshot: both compiles
    # accounted for end to end, and only the cold one compiled.
    snap = metrics.get("metrics")
    if not isinstance(snap, dict) or snap.get("schema") != "gcsafe-metrics-v1":
        fail(f"bad metrics response: {metrics}")
    stages = snap["stages"]
    if stages["e2e"]["count"] != serve["requests"]:
        fail(f"e2e histogram count {stages['e2e']['count']} != "
             f"serve.requests {serve['requests']}")
    if stages["compile"]["count"] < 1:
        fail("metrics reports no compile-stage samples")
    return 0


def check_socket_counts(responses):
    """The socket session's counters, exactly. Its warm compile arrives
    after the cold one has answered, so it is a memory hit answered at
    admission: the one probe each compile makes gives one miss and one
    hit, both compiles record a queue wait and an end-to-end sample, and
    only the cold one compiles."""
    by_id = {r.get("id"): r for r in responses}
    serve = by_id["stats-1"]["serve"]
    stages = by_id["metrics-1"]["metrics"]["stages"]
    got = {"requests": serve["requests"],
           "cache.hits": serve["cache"]["hits"],
           "cache.misses": serve["cache"]["misses"],
           "e2e": stages["e2e"]["count"],
           "queue_wait": stages["queue_wait"]["count"],
           "compile": stages["compile"]["count"]}
    want = {"requests": 2, "cache.hits": 1, "cache.misses": 1, "e2e": 2,
            "queue_wait": 2, "compile": 1}
    if got != want:
        fail(f"socket session counters {got}, expected {want}")


def check_warm_bytes(lines):
    """The raw warm line is the cold line with only the head's id,
    request_id and cached values changed: a hit splices its own head onto
    the cold response's bytes."""
    by_id = {json.loads(l).get("id"): l for l in lines}
    cold, warm = by_id["cold-1"], by_id["warm-1"]
    expect = (cold.replace('"id":"cold-1"', '"id":"warm-1"', 1)
              .replace('"request_id":"rid-cold"', '"request_id":"rid-warm"', 1)
              .replace('"cached":false', '"cached":true', 1))
    if warm != expect:
        fail(f"warm line is not the cold line's bytes:\n  cold {cold}\n"
             f"  warm {warm}")


def run_once(args, requests):
    text = "".join(json.dumps(r) + "\n" for r in requests)
    proc = subprocess.run([args.serve_bin, "--once"], input=text,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"gcsafe-serve --once exited {proc.returncode}: {proc.stderr}")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) != len(requests):
        fail(f"{len(lines)} response lines for {len(requests)} requests")
    return lines


def read_line(conn):
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = conn.recv(65536)
        if not chunk:
            fail("connection closed mid-response")
        buf += chunk
    return buf.decode()


def ask(conn, request):
    conn.sendall((json.dumps(request) + "\n").encode())
    return read_line(conn).rstrip("\n")


def run_socket(args, requests):
    ping, cold, warm, stats, metrics, bye = requests
    # Unix socket paths are length-limited; stay short under /tmp.
    with tempfile.TemporaryDirectory(prefix="gcsafe-",
                                     dir="/tmp") as tmp:
        path = os.path.join(tmp, "serve.sock")
        daemon = subprocess.Popen(
            [args.serve_bin, f"--socket={path}", "--workers=2"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            lines = []
            # Connection 1: ping + cold compile.
            with wait_and_connect(path, daemon) as c1:
                lines.append(ask(c1, ping))
                lines.append(ask(c1, cold))
            # Connection 2: the warm hit must come from the shared cache.
            with wait_and_connect(path, daemon) as c2:
                lines.append(ask(c2, warm))
                lines.append(ask(c2, stats))
                lines.append(ask(c2, metrics))
                lines.append(ask(c2, bye))

            code = daemon.wait(timeout=30)
            if code != 0:
                fail(f"daemon exited {code} after shutdown, expected 0")
            if os.path.exists(path):
                fail("daemon left its socket behind")
            return lines
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()


def run_hygiene(args, requests):
    """Protocol robustness against a live daemon: hostile inputs get
    typed errors (or a clean hangup), the daemon survives all of them,
    and drain retires it with exit code 0."""
    del requests  # hygiene builds its own traffic
    source = Path(args.source).read_text()
    lines = []
    with tempfile.TemporaryDirectory(prefix="gcsafe-", dir="/tmp") as tmp:
        path = os.path.join(tmp, "serve.sock")
        daemon = subprocess.Popen(
            [args.serve_bin, f"--socket={path}", "--workers=2",
             "--max-request=8192", "--read-timeout=3000",
             "--write-timeout=3000"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            def fresh():
                return wait_and_connect(path, daemon)

            # Health round trip: the daemon reports itself ready.
            with fresh() as c:
                line = ask(c, {"schema": "gcsafe-serve-v1",
                               "op": "health", "id": "health-1"})
                lines.append(line)
                health = json.loads(line)
                if not (health["ok"] and health["ready"]
                        and health["op"] == "health"):
                    fail(f"daemon not healthy at start: {health}")

            # Oversized request line: a typed protocol error, then the
            # daemon hangs up on the connection.
            with fresh() as c:
                c.sendall(b'{"op":"compile","source":"' + b"x" * 9000 +
                          b'"}\n')
                buf = b""
                while not buf.endswith(b"\n"):
                    chunk = c.recv(65536)
                    if not chunk:
                        fail("oversized request got no error response")
                    buf += chunk
                line = buf.decode().rstrip("\n")
                lines.append(line)
                resp = json.loads(line)
                if resp["ok"] or resp["op"] != "error" \
                        or "exceeds" not in resp["error"]:
                    fail(f"oversized request not typed-rejected: {resp}")
                if c.recv(65536) != b"":
                    fail("daemon kept the oversized connection open")

            # Truncated NDJSON: a typed error, and the *same* connection
            # still serves a well-formed request afterwards.
            with fresh() as c:
                c.sendall(b'{"op":"compile","source": truncated\n')
                resp = json.loads(read_line(c))
                lines.append(json.dumps(resp))
                if resp["ok"] or resp["op"] != "error":
                    fail(f"truncated line not typed-rejected: {resp}")
                line = ask(c, {"schema": "gcsafe-serve-v1", "op": "ping",
                               "id": "after-garbage"})
                lines.append(line)
                if not json.loads(line)["ok"]:
                    fail("connection unusable after a truncated line")

            # Mid-line disconnect: half a document, then gone. No
            # response is owed; the daemon must simply shrug it off.
            with fresh() as c:
                c.sendall(b'{"op":"compile","source":"int ma')
            time.sleep(0.2)
            if daemon.poll() is not None:
                fail(f"daemon died on a mid-line disconnect "
                     f"(exit {daemon.returncode})")

            # Real work still flows after the abuse.
            with fresh() as c:
                line = ask(c, {"schema": "gcsafe-serve-v1", "op": "compile",
                               "id": "post-abuse", "name": "post-abuse",
                               "source": source, "mode": "safepost",
                               "run": True})
                lines.append(line)
                resp = json.loads(line)
                if not resp["ok"] or resp["exit_code"] != 0:
                    fail(f"compile failed after hostile traffic: {resp}")

            # Drain: ack, finish the (empty) queue, exit 0, no socket.
            with fresh() as c:
                line = ask(c, {"schema": "gcsafe-serve-v1", "op": "drain",
                               "id": "drain-1"})
                lines.append(line)
                if not json.loads(line)["ok"]:
                    fail(f"drain not acked: {line}")
            code = daemon.wait(timeout=30)
            if code != 0:
                fail(f"daemon exited {code} after drain, expected 0")
            if os.path.exists(path):
                fail("daemon left its socket behind after drain")
            return lines
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    transport = parser.add_mutually_exclusive_group(required=True)
    transport.add_argument("--once", action="store_true",
                           help="drive gcsafe-serve --once over stdin")
    transport.add_argument("--socket", action="store_true",
                           help="drive a gcsafe-serve unix-socket daemon")
    transport.add_argument("--hygiene", action="store_true",
                           help="hostile-input and drain/health checks "
                                "against a daemon with small limits")
    parser.add_argument("--serve-bin", required=True,
                        help="path to the gcsafe-serve binary")
    parser.add_argument("--source", required=True,
                        help="C source file to compile through the service")
    parser.add_argument("--out", required=True,
                        help="write the raw response lines here (for "
                             "check_bench_json.py --serve)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="--once only: run the session this many "
                             "times, failing on the first one whose cold "
                             "and warm twins come back inverted")
    args = parser.parse_args()
    if args.repeat < 1 or (args.repeat > 1 and not args.once):
        parser.error("--repeat takes a positive count, with --once only")

    if args.hygiene:
        lines = run_hygiene(args, None)
        Path(args.out).write_text("".join(l + "\n" for l in lines))
        print(f"serve_client_test: ok (--hygiene, {len(lines)} responses, "
              "hostile inputs contained, drain exit verified)")
        return 0

    source = Path(args.source).read_text()
    requests = build_requests(source)
    for run in range(1, args.repeat + 1):
        lines = (run_once(args, requests) if args.once
                 else run_socket(args, requests))
        Path(args.out).write_text("".join(l + "\n" for l in lines))

        responses = []
        for n, line in enumerate(lines, 1):
            try:
                responses.append(json.loads(line))
            except json.JSONDecodeError as exc:
                fail(f"response line {n} is not JSON: {exc}")
        if args.repeat > 1:
            print(f"serve_client_test: session {run}/{args.repeat}")
        check_session(responses)
        if not args.once:
            check_socket_counts(responses)
        check_warm_bytes(lines)
    transport_name = "--once" if args.once else "--socket"
    print(f"serve_client_test: ok ({transport_name}, {args.repeat} "
          f"session(s), {len(responses)} responses each, warm hit "
          "verified)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
