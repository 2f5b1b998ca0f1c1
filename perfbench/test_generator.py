#!/usr/bin/env python3
"""Test of the benchmark's seeded input generator.

    python3 perfbench/test_generator.py        # from the root of a checkout

For several seeds and every workload it checks that the generator is
deterministic, that the daemon answers every generated request exactly as
perfbench/expected.json says (so a nonce or a function suffix never changes
what a program computes), that cold workloads never repeat a cache key or
hit the cache, that warm_hits does nothing but hit, and that lint_each_pass
variants share verify-memo entries across requests only for main, the one
function the generator does not rename.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build and paths)

SEEDS = [1, 2, 977]
BLOCKS = 2  # timed blocks per workload and seed; each holds every combo


def generate(workload, seed, stream, count):
    out = subprocess.run([run.TOOL, "gen", "--workload=" + workload,
                          "--seed=%d" % seed, "--stream=%d" % stream,
                          "--count=%d" % count],
                         check=True, capture_output=True, text=True).stdout
    return [line.split("\t", 1) for line in out.splitlines()]


def serve_once(lines):
    """All lines through one `gcsafe-serve --once`, then a stats op."""
    text = "\n".join(lines + ['{"op":"stats"}']) + "\n"
    proc = subprocess.run([run.DAEMON, "--once", "--workers=2"], input=text,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    responses = [json.loads(r) for r in proc.stdout.splitlines()]
    assert len(responses) == len(lines) + 1
    return responses[:-1], responses[-1]["serve"]


def check_response(resp, want, combo):
    assert resp["ok"] and "status" not in resp, (combo, resp.get("error"))
    assert resp["exit_code"] == want["exit_code"], combo
    if combo.endswith("/lint"):
        assert resp["lint"]["clean"] and not resp["lint"]["diagnostics"], combo
        compile_ = resp["report"]["compile"]
        assert compile_["annotator"]["keep_lives"] == want["keep_lives"], combo
        assert compile_["code_size_units"] == want["code_size_units"], combo
    else:
        got = resp["report"]["run"]
        for key in ("output", "cycles", "instructions"):
            assert got[key] == want[key], (combo, key, got[key], want[key])
        assert got["checks"]["freed_accesses"] == 0, combo
        assert got["checks"]["violations"] == 0, combo


def main():
    run.build()
    with open(run.EXPECTED) as f:
        expected = json.load(f)["entries"]
    for workload in run.WORKLOADS:
        cold = workload != "warm_hits"
        first = generate(workload, 1, 0, 64)
        assert first == generate(workload, 1, 0, 64), "not deterministic"
        block = len({combo for combo, _ in generate(workload, 1, 0, 200)})
        for seed in SEEDS:
            timed = generate(workload, seed, 0, BLOCKS * block)
            setup = generate(workload, seed, 1, block)
            # Every block is a permutation of the combos.
            for b in range(BLOCKS):
                part = {c for c, _ in timed[b * block:(b + 1) * block]}
                assert len(part) == block, (workload, seed, b)
            pairs = setup + timed
            responses, stats = serve_once([line for _, line in pairs])
            for (combo, _), resp in zip(pairs, responses):
                check_response(resp, expected[combo], combo)
            keys = [r["cache_key"] for r in responses]
            if cold:
                assert len(set(keys)) == len(keys), "repeated cache key"
                assert stats["cache"]["hits"] == 0
            else:
                assert len(set(keys)) == block
                assert stats["cache"]["hits"] == len(pairs) - block
            if workload == "lint_each_pass":
                memo = stats["verify_memo"]
                alone = sum(serve_once([line])[1]["verify_memo"]["hits"]
                            for _, line in pairs)
                # main keeps its name and calls print as function indices,
                # so only main's verdicts can be shared across requests:
                # at most one per checkpoint (lowering, 14 passes, final).
                assert 0 <= memo["hits"] - alone <= 16 * len(pairs), (memo,
                                                                   alone)
                assert memo["misses"] > 0
        if cold:
            other = generate(workload, SEEDS[1], 0, 8)
            assert [l for _, l in other] != [l for _, l in first[:8]]
        print("ok  %-15s %d seeds x %d requests" %
              (workload, len(SEEDS), (BLOCKS + 1) * block), flush=True)
    print("ok")


if __name__ == "__main__":
    main()
