#!/usr/bin/env python3
"""Generate docs/CLI.md from the tools' own --help output.

The usage() text compiled into each binary is the single source of truth
for its flag surface; this script captures it verbatim, wraps it in the
reference page's frame, and either writes the page or verifies the
committed page is in sync:

  gen_cli_docs.py --bindir BUILD/tools --out docs/CLI.md     regenerate
  gen_cli_docs.py --bindir BUILD/tools --check docs/CLI.md   ctest mode

--check exits nonzero with a unified diff when the committed page has
drifted from the binaries, so a flag added to a usage() string without
regenerating the page fails `ctest -L docs`. That is the fix for flags
that used to be documented only in CHANGES.md: a flag is documented by
being in --help, and the page cannot silently fall behind.
"""

import argparse
import difflib
import subprocess
import sys
from pathlib import Path

TOOLS = [
    ("gcsafe-cc",
     "The compiler driver: one input, every mode, every report. The exit "
     "code is the contract in the table above."),
    ("gcsafe-batch",
     "The crash-isolated batch driver: a thin client of the isolated "
     "compile service ([SERVING.md](SERVING.md)) — forked sandboxes, "
     "timeouts, crash retries down the degradation ladder."),
    ("gcsafe-serve",
     "The persistent compile service: line-delimited gcsafe-serve-v1 JSON "
     "over a unix socket, or a one-shot stdin/stdout batch. Protocol and "
     "architecture in [SERVING.md](SERVING.md)."),
    ("safety_mutate",
     "The mutation self-test: seeds every corruption operator into the "
     "optimized IR and verifies the static safety verifier catches each "
     "one ([ANALYSIS.md](ANALYSIS.md))."),
]

HEADER = """\
# Command-line reference

<!-- Generated by tools/gen_cli_docs.py from the binaries' --help output.
     Do not edit by hand: `ctest -L docs` (cli_docs_sync) fails when this
     page drifts from the usage() text compiled into the tools.
     Regenerate with:
       python3 tools/gen_cli_docs.py --bindir build/tools --out docs/CLI.md
-->

Every tool prints the text below with `--help`. The flag descriptions in
the binaries are the single source of truth; this page is a generated
mirror, kept in sync by the `cli_docs_sync` test.

## Exit codes

All tools share one exit-code contract (`src/support/ExitCodes.h`):

| Code | Meaning |
|------|---------|
| 0 | success |
| 1 | compile failure, runtime error, unreadable input, or tool error |
| 2 | bad command line |
| 3 | static GC-safety verification failed, no recovery possible |
| 4 | `safety_mutate`: a seeded corruption escaped the verifier |
| 5 | degraded success: correct output, but the self-healing ladder engaged |
| 6 | a deadline watchdog expired |
| 7 | the compile service shed the request (queue full, draining, or stopping) |
| 8 | an isolated compile worker crashed and retries ran out |

`gcsafe-serve` uses 0/1/2 for the process itself; per-request exit codes
travel in the `exit_code` field of compile responses
([SERVING.md](SERVING.md)), where 7 and 8 arrive with a typed `status`
token (`overloaded`/`crashed`).
"""


def capture_help(bindir, tool):
    proc = subprocess.run([str(Path(bindir) / tool), "--help"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"{tool} --help exited {proc.returncode}")
    text = (proc.stdout + proc.stderr).rstrip("\n")
    if not text.startswith("usage:"):
        raise RuntimeError(f"{tool} --help did not print a usage block")
    return text


def generate(bindir):
    parts = [HEADER]
    for tool, blurb in TOOLS:
        parts.append(f"\n## {tool}\n\n{blurb}\n\n```text\n"
                     f"{capture_help(bindir, tool)}\n```\n")
    return "".join(parts)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bindir", required=True,
                        help="directory containing the built tools")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", metavar="FILE",
                        help="write the generated page to FILE")
    action.add_argument("--check", metavar="FILE",
                        help="verify FILE matches the generated page")
    args = parser.parse_args()

    try:
        text = generate(args.bindir)
    except (OSError, RuntimeError) as exc:
        print(f"gen_cli_docs: error: {exc}", file=sys.stderr)
        return 1

    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
        return 0

    committed = Path(args.check).read_text()
    if committed == text:
        print(f"ok: {args.check} is in sync with the binaries' --help")
        return 0
    diff = difflib.unified_diff(
        committed.splitlines(keepends=True), text.splitlines(keepends=True),
        fromfile=args.check, tofile="generated")
    sys.stderr.writelines(diff)
    print(f"error: {args.check} is stale — regenerate with\n"
          f"  python3 tools/gen_cli_docs.py --bindir {args.bindir} "
          f"--out {args.check}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
