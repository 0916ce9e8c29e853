#!/usr/bin/env bash
# Smoke test of dess_cli over a durable home, each step its own process, so
# the full-commit checkpoint and the reopen of snapshot + WAL are crossed at
# real process boundaries: build a small home, inspect it, render a shape
# to OBJ, query with that OBJ, ingest it, and check the shape count went up
# by one. Registered as the `dess_cli_smoke` ctest (label `persist`);
# runnable standalone.
#
# Usage: scripts/cli_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/examples/dess_cli"

if [[ ! -x "$CLI" ]]; then
  echo "cli_smoke: $CLI not built" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
HOME_DIR="$TMP/home"

# Prints the shape count of the home, read from `dess_cli info`.
shape_count() {
  "$CLI" info "$HOME_DIR" | sed -n 's/^  shapes: \([0-9][0-9]*\),.*$/\1/p'
}

"$CLI" build "$HOME_DIR" --groups 2 --noise 1
BEFORE="$(shape_count)"
if [[ -z "$BEFORE" || "$BEFORE" -eq 0 ]]; then
  echo "cli_smoke: info reports no shapes after build" >&2
  exit 1
fi
"$CLI" render "$HOME_DIR" 0 "$TMP/shape0"
"$CLI" query "$HOME_DIR" "$TMP/shape0.obj" 3
"$CLI" ingest "$HOME_DIR" "$TMP/shape0.obj"
AFTER="$(shape_count)"
if [[ "$AFTER" -ne $((BEFORE + 1)) ]]; then
  echo "cli_smoke: expected $((BEFORE + 1)) shapes after ingest, info" \
       "reports '$AFTER'" >&2
  exit 1
fi

# A read command on a missing home fails instead of creating one.
if "$CLI" info "$TMP/missing" 2>/dev/null; then
  echo "cli_smoke: info on a missing home succeeded" >&2
  exit 1
fi
if [[ -e "$TMP/missing" ]]; then
  echo "cli_smoke: info created the missing home" >&2
  exit 1
fi
echo "cli_smoke: $BEFORE -> $AFTER shapes across process restarts"
