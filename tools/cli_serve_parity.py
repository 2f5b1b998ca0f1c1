#!/usr/bin/env python3
"""gcsafe-cc and gcsafe-serve answer the same request the same way.

  cli_serve_parity.py --cc-bin BIN --serve-bin BIN --srcdir DIR

Both front ends run driver::RequestContext. For each flag set below, this
runs gcsafe-cc and sends the equivalent compile request (docs/SERVING.md
§Request) to a fresh `gcsafe-serve --once`, then asserts the same exit
code, the same run and lint reports with every key ending in "ns" dropped,
and the same error text apart from gcsafe-cc's "gcsafe-cc: " prefix.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def fail(message):
    sys.exit(f"cli_serve_parity: FAIL: {message}")


def drop_ns(v):
    if isinstance(v, dict):
        return {k: drop_ns(x) for k, x in v.items() if not k.endswith("ns")}
    return [drop_ns(x) for x in v] if isinstance(v, list) else v


def load(path):
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--cc-bin", "--serve-bin", "--srcdir"):
        parser.add_argument(flag, required=True)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="cli_serve_parity_") as tmp:
        check(args, tmp)


def check(args, tmp):
    sample = os.path.join(args.srcdir, "examples", "sample_input.c")
    spin = os.path.join(args.srcdir, "tests", "inputs", "spin.c")
    undeclared = os.path.join(tmp, "undeclared.c")
    with open(undeclared, "w") as f:
        f.write("int main(void) {\n  return missing + 1;\n}\n")
    report_path = os.path.join(tmp, "report.json")
    lint_path = os.path.join(tmp, "lint.json")
    report, lint = "--stats-json=" + report_path, "--lint-json=" + lint_path
    corrupt = "7:opt.pass.corrupt@always"
    # (input, gcsafe-cc flags, request fields, expected exit code). The
    # deadline case writes no run report: how far the VM gets in 50 ms is
    # timing, not contract.
    cases = [
        (sample, [report, "--mode=safepost", "--gc-alloc-trigger=20"],
         {"mode": "safepost", "run": True, "gc_alloc_trigger": 20}, 0),
        (sample, [report, "--mode=checked", "--machine=pentium90",
                  "--gc-alloc-trigger=1"],
         {"mode": "checked", "machine": "pentium90", "run": True,
          "gc_alloc_trigger": 1}, 0),
        (sample, [report, lint, "--self-heal", "--fail-inject=" + corrupt,
                  "--verify-safety=each-pass"],
         {"run": True, "self_heal": True, "fail_inject": corrupt,
          "verify": "each-pass"}, 5),
        (sample, [lint, "--mode=safepost", "--verify-safety=each-pass"],
         {"mode": "safepost", "verify": "each-pass"}, 0),
        (spin, ["--run", "--vm-deadline=50"],
         {"run": True, "vm_deadline_ms": 50}, 6),
        (undeclared, [report], {"run": True}, 1),
        # The annotator ablations and the rest of the GC schedule; a
        # generous deadline_ms (no gcsafe-cc spelling) changes nothing.
        (sample, [report, "--no-opt1", "--no-opt2", "--slow-bases",
                  "--at-calls-only", "--gc-period=500", "--gc-call-period=3",
                  "--gc-deadline=60000"],
         {"run": True, "no_opt1": True, "no_opt2": True, "slow_bases": True,
          "at_calls_only": True, "gc_period": 500, "gc_call_period": 3,
          "gc_deadline_ms": 60000, "deadline_ms": 600000}, 0),
        # An entry rung below full is a degraded success.
        (sample, [report, lint, "--mode=debug", "--opt-rung=peephole",
                  "--pass-deadline=60000", "--verify-ir=each-pass",
                  "--verify-safety"],
         {"mode": "debug", "run": True, "opt_rung": "peephole",
          "pass_deadline_ms": 60000, "verify_ir": True, "verify": "final"},
         5),
        (sample, [report, "--mode=safepost", "--machine=sparc2",
                  "--self-heal", "--fail-inject=" + corrupt,
                  "--corrupt-kind=drop_kill"],
         {"mode": "safepost", "machine": "sparc2", "run": True,
          "self_heal": True, "fail_inject": corrupt,
          "corrupt_kind": "drop_kill"}, 5),
    ]
    for path, flags, fields, want in cases:
        for p in (report_path, lint_path):
            if os.path.exists(p):
                os.remove(p)
        cc = subprocess.run([args.cc_bin] + flags + [path], text=True,
                            capture_output=True, timeout=120)
        with open(path) as f:
            request = dict(fields, op="compile", name=path, source=f.read())
        serve = subprocess.run([args.serve_bin, "--once", "--workers=1"],
                               input=json.dumps(request) + "\n", text=True,
                               capture_output=True, timeout=120)
        if serve.returncode != 0 or len(serve.stdout.splitlines()) != 1:
            fail(f"gcsafe-serve --once exited {serve.returncode}: "
                 f"{serve.stderr}")
        resp = json.loads(serve.stdout)
        name = " ".join(f.replace(tmp, "<tmp>") for f in flags)
        if cc.returncode != want or resp.get("exit_code") != want:
            fail(f"{name}: gcsafe-cc exited {cc.returncode}, gcsafe-serve "
                 f"{resp.get('exit_code')}, expected {want}\n{cc.stderr}")
        if report in flags:
            if want in (0, 5) and load(report_path) is None:
                fail(f"{name}: gcsafe-cc wrote no run report")
            if drop_ns(load(report_path)) != drop_ns(resp.get("report")):
                fail(f"{name}: run reports differ")
        if lint in flags and (load(lint_path) is None or
                              drop_ns(load(lint_path)) !=
                              drop_ns(resp.get("lint"))):
            fail(f"{name}: lint reports differ")
        if "error" in resp:
            cc_error = "".join(line[len("gcsafe-cc: "):]
                               if line.startswith("gcsafe-cc: ") else line
                               for line in cc.stderr.splitlines(True))
            if cc_error.strip() != resp["error"].strip():
                fail(f"{name}: error texts differ:\n  gcsafe-cc:    "
                     f"{cc_error!r}\n  gcsafe-serve: {resp['error']!r}")
        print(f"cli_serve_parity: {name}: exit {want} on both")


if __name__ == "__main__":
    main()
