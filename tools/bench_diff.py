#!/usr/bin/env python3
"""Diff two gcsafe reports (or directories of them) as a regression gate.

Compares the numeric metrics of a baseline report against a freshly
generated one and fails — exit status 1, one line per offending metric —
when any metric moved by more than the allowed threshold. Accepts any
schema whose leaves are numbers; in practice:

  gcsafe-bench-v1       rows flatten to "<row>.<metric>"
  gcsafe-run-report-v2  nested objects flatten to dotted paths
  gcsafe-profile-v1     same

Wall-clock metrics (any path segment ending in "_ns", or exactly "ns")
are ignored: the VM's modeled cycles are deterministic and
machine-independent, so committed baselines stay meaningful on any host,
while nanosecond timings are noise by construction.

Usage:
  bench_diff.py BASELINE NEW                    diff two report files
  bench_diff.py --scan BASELINE_DIR NEW_DIR     diff every BENCH_*.json
  bench_diff.py --rel 0.05 --abs 0.01 ...       adjust thresholds
  bench_diff.py --json VERDICT.json ...         machine-readable verdict

A metric passes when |new - base| <= max(rel * |base|, abs). A metric
present in the baseline but missing from the new report is a failure (a
bench that silently stopped measuring something must not pass the gate);
new metrics absent from the baseline are reported but allowed, so adding
instrumentation does not require regenerating every baseline first.
"""

import argparse
import json
import sys
from pathlib import Path

DEFAULT_REL = 0.05
DEFAULT_ABS = 0.01


def is_noise_key(key):
    return key == "ns" or key.endswith("_ns")


def flatten(doc, prefix="", out=None):
    """Numeric leaves of a JSON tree as {dotted.path: value}. Skips bools,
    strings, nulls, and wall-clock (*_ns) keys."""
    if out is None:
        out = {}
    if isinstance(doc, dict):
        # gcsafe-bench-v1 rows are a list of {name, metrics}; flatten them
        # under the row name so paths are stable across row reordering.
        if set(doc) == {"name", "metrics"} and isinstance(doc["name"], str):
            flatten(doc["metrics"], f"{prefix}{doc['name']}.", out)
            return out
        for key, value in doc.items():
            if is_noise_key(key):
                continue
            flatten(value, f"{prefix}{key}.", out)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            flatten(value, f"{prefix}{i}.", out)
    elif isinstance(doc, bool) or doc is None or isinstance(doc, str):
        pass
    else:
        out[prefix[:-1]] = doc
    return out


def load_flat(path):
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict) and isinstance(doc.get("rows"), list):
        # bench-v1: compare only the measured rows, not the header.
        flat = {}
        for row in doc["rows"]:
            flatten(row, "", flat)
        return flat
    return flatten(doc)


def diff_pair(base_path, new_path, rel, abs_tol):
    """Returns a list of per-metric verdict dicts for one file pair."""
    results = []
    base = load_flat(base_path)
    new = load_flat(new_path)
    for metric in sorted(base):
        if metric not in new:
            results.append({"metric": metric, "base": base[metric],
                            "new": None, "ok": False,
                            "why": "missing from new report"})
            continue
        b, n = base[metric], new[metric]
        allowed = max(rel * abs(b), abs_tol)
        delta = abs(n - b)
        ok = delta <= allowed
        entry = {"metric": metric, "base": b, "new": n, "ok": ok}
        if not ok:
            entry["why"] = (f"moved by {delta:g} "
                            f"(allowed {allowed:g}: max({rel:g}*|base|, "
                            f"{abs_tol:g}))")
        results.append(entry)
    for metric in sorted(set(new) - set(base)):
        results.append({"metric": metric, "base": None, "new": new[metric],
                        "ok": True, "why": "not in baseline (allowed)"})
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs=2, metavar=("BASELINE", "NEW"),
                        help="two report files, or two directories with "
                             "--scan")
    parser.add_argument("--scan", action="store_true",
                        help="treat the two paths as directories and diff "
                             "every BENCH_*.json in the baseline directory")
    parser.add_argument("--rel", type=float, default=DEFAULT_REL,
                        help=f"relative threshold (default {DEFAULT_REL})")
    parser.add_argument("--abs", dest="abs_tol", type=float,
                        default=DEFAULT_ABS,
                        help=f"absolute floor (default {DEFAULT_ABS})")
    parser.add_argument("--json", metavar="FILE",
                        help="write a gcsafe-bench-diff-v1 verdict document")
    args = parser.parse_args()

    pairs = []
    if args.scan:
        base_dir, new_dir = Path(args.paths[0]), Path(args.paths[1])
        baselines = sorted(base_dir.glob("BENCH_*.json"))
        if not baselines:
            print(f"error: no BENCH_*.json found under {base_dir}",
                  file=sys.stderr)
            return 1
        for base in baselines:
            pairs.append((base, new_dir / base.name))
    else:
        pairs.append((Path(args.paths[0]), Path(args.paths[1])))

    files = []
    failures = 0
    compared = 0
    for base_path, new_path in pairs:
        entry = {"baseline": str(base_path), "new": str(new_path)}
        if not new_path.exists():
            entry["ok"] = False
            entry["metrics"] = []
            print(f"FAIL {new_path}: missing (baseline {base_path} exists)",
                  file=sys.stderr)
            failures += 1
            files.append(entry)
            continue
        try:
            results = diff_pair(base_path, new_path, args.rel, args.abs_tol)
        except (OSError, json.JSONDecodeError) as exc:
            entry["ok"] = False
            entry["metrics"] = []
            print(f"FAIL {new_path}: {exc}", file=sys.stderr)
            failures += 1
            files.append(entry)
            continue
        bad = [r for r in results if not r["ok"]]
        compared += sum(1 for r in results if r.get("base") is not None)
        for r in bad:
            print(f"FAIL {new_path}: {r['metric']}: base={r['base']} "
                  f"new={r['new']} ({r['why']})", file=sys.stderr)
        if bad:
            failures += len(bad)
        else:
            print(f"ok: {new_path} vs {base_path} "
                  f"({sum(1 for r in results if r.get('base') is not None)} "
                  f"metrics within thresholds)")
        entry["ok"] = not bad
        entry["metrics"] = results
        files.append(entry)

    if args.json:
        verdict = {
            "schema": "gcsafe-bench-diff-v1",
            "rel_threshold": args.rel,
            "abs_threshold": args.abs_tol,
            "metrics_compared": compared,
            "failures": failures,
            "ok": failures == 0,
            "files": files,
        }
        Path(args.json).write_text(json.dumps(verdict, indent=2) + "\n")

    if failures:
        print(f"bench_diff: {failures} failure(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
