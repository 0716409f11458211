#!/usr/bin/env bash
# Console checks of the dyntr CLI: the README stream on every engine,
# seeded streams that the three engines must print alike, and the exit
# codes of a parse error and of a vertex count past physical memory.
#
# Run from anywhere in the repository:
#   .github/ci/console_checks.sh
# Without an installed `dyntr` entry point:
#   PYTHONPATH=src DYNTR="python3 -m dyntr.cli" .github/ci/console_checks.sh
# Scratch files go to $RUNNER_TEMP, or to a fresh temporary directory.
set -euo pipefail

cd "$(dirname "$0")/../.."
DYNTR=${DYNTR:-dyntr}
if [ -z "${RUNNER_TEMP:-}" ]; then
  RUNNER_TEMP=$(mktemp -d)
  trap 'rm -rf "$RUNNER_TEMP"' EXIT
fi

readme_stream() {
  python3 -c '
import re
text = open("README.md", encoding="utf-8").read()
blocks = re.findall(r"^```(\w*)\n(.*?)^```", text, flags=re.M | re.S)
print(next(b for tag, b in blocks if not tag and b.startswith("dtr v1")), end="")
'
}
# the output tests/test_readme.py pins for this stream
want="$RUNNER_TEMP/want.txt"
printf 'tr m=3\n1 2\n2 3\n3 4\nred 1 3 1\ntr m=3\n1 2\n1 3\n3 4\n' > "$want"
for engine in comb alg oracle; do
  readme_stream | $DYNTR run - --check --engine "$engine" > "$RUNNER_TEMP/got.txt"
  diff "$want" "$RUNNER_TEMP/got.txt"
done
# a seeded stream with a tr after every update, in both modes, and
# a DAG stream at density 0 that deletes the graph down to no edge:
# the three engines check themselves and print the same lines
for spec in "dag 0.35" "general 0.35" "dag 0.0"; do
  python3 -c '
import sys
from dyntr.cli import DelCmd, InsCmd, Stream, TrCmd, serialize_stream
from dyntr.graph_core import InsertCentered
from dyntr.oracle import random_update_stream
mode, density = sys.argv[1], float(sys.argv[2])
commands = []
for upd in random_update_stream(12, 150, mode, density=density, seed=3):
    if isinstance(upd, InsertCentered):
        commands.append(InsCmd(upd.center, upd.edges))
    else:
        commands.append(DelCmd(upd.edges))
    commands.append(TrCmd())
print(serialize_stream(Stream(12, mode, tuple(commands))), end="")
' $spec > "$RUNNER_TEMP/seeded.txt"
  for engine in comb alg oracle; do
    $DYNTR run - --check --engine "$engine" < "$RUNNER_TEMP/seeded.txt" > "$RUNNER_TEMP/$engine.txt"
  done
  diff "$RUNNER_TEMP/comb.txt" "$RUNNER_TEMP/alg.txt"
  diff "$RUNNER_TEMP/comb.txt" "$RUNNER_TEMP/oracle.txt"
done
# a malformed stream is a parse error
status=0
printf 'dtr v1 n=4 mode=dag\nins 1\n' | $DYNTR run - --check || status=$?
test "$status" -eq 1
# a vertex count past physical memory is an engine error raised
# before allocation; the address-space cap makes a missing check
# fail fast instead of exhausting the runner
status=0
( ulimit -v 2000000; printf 'dtr v1 n=1000000000000 mode=dag\n' | $DYNTR run - ) || status=$?
test "$status" -eq 2
