#!/usr/bin/env bash
# Renders the golden record of a directory of event WALs into OUT_DIR:
# `wal.sha256`, the sha256 of every log, and `replay.txt`, the
# `replay --last 12 --metrics` transcript of each. Paths are cut to file
# names, so every checkout renders the same bytes.
#
#   tests/golden/render.sh WAL_DIR OUT_DIR [REPLAY_BIN]
#
# REPLAY_BIN defaults to target/release/replay. CI records the smoke
# campaign's logs (`campaign --matrix smoke --jobs 2 --wal-dir target/wal`)
# and deadlock_demo's, renders them into target/golden and diffs that with
# tests/golden/; to re-pin on purpose, render into tests/golden instead.
set -euo pipefail
export LC_ALL=C
wal_dir=$1
out=$2
replay=${3:-target/release/replay}
mkdir -p "$out"
(cd "$wal_dir" && sha256sum -- *.wal) > "$out/wal.sha256"
for log in "$wal_dir"/*.wal; do
    echo "== ${log##*/}"
    "$replay" --wal "$log" --last 12 --metrics
done > "$out/replay.txt"
