#!/usr/bin/env bash
# ES-model gate: runs the fully modelled figure benches at tiny size and
# diffs their output against the golden files in this directory. For Fig 15
# only the modelled columns are compared (everything left of the first
# "host GFLOPS" column); its host-timing columns vary from run to run.
#
#   bench/golden/check_es_model.sh build/bench
#
# The golden files hold the numbers the ES machine model produced before the
# loop statistics became a histogram; a diff means a modelled number moved.
set -euo pipefail

bin_dir=$(cd "$1" && pwd)
golden=$(cd "$(dirname "$0")" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# From the table header on, keep the columns left of the first host-timing
# column.
modelled_columns() {
  awk 'NR == FNR { if (!pos && (p = index($0, "host GFLOPS"))) { pos = p; hdr = FNR }; next }
       { line = $0
         if (pos && FNR >= hdr) { line = substr(line, 1, pos - 1); sub(/ +$/, "", line) }
         print line }' "$1" "$1"
}

status=0
for fig in fig26_simple_colors fig28_block_sort fig32_speedup fig15_storage_formats; do
  (cd "$work" && GEOFEM_BENCH_TINY=1 "$bin_dir/bench_$fig" > "$fig.raw")
  if [ "$fig" = fig15_storage_formats ]; then
    modelled_columns "$work/$fig.raw" > "$work/$fig.txt"
  else
    mv "$work/$fig.raw" "$work/$fig.txt"
  fi
  if diff -u "$golden/$fig.txt" "$work/$fig.txt"; then
    echo "$fig: modelled output identical"
  else
    echo "$fig: modelled output differs from $golden/$fig.txt" >&2
    status=1
  fi
done
[ "$status" -eq 0 ] && echo "es model gate passed"
exit "$status"
