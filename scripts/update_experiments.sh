#!/usr/bin/env bash
# Appends the latest table runs (results/<name>_<scale>*.txt, as written by
# scripts/run_all_tables.sh) to EXPERIMENTS.md under the "Measured results"
# marker (replacing anything after it).
set -euo pipefail
cd "$(dirname "$0")/.."
marker="## Measured results (committed runs)"
tmp=$(mktemp)
awk -v m="$marker" '{print} $0 == m {exit}' EXPERIMENTS.md > "$tmp"
{
    echo
    echo "Generated by \`scripts/update_experiments.sh\` from \`results/\`."
    for f in results/*_{smoke,paper}*.txt; do
        [ -e "$f" ] || continue
        echo
        echo "### \`$(basename "$f")\`"
        echo
        echo '```'
        cat "$f"
        echo '```'
    done
} >> "$tmp"
mv "$tmp" EXPERIMENTS.md
echo "EXPERIMENTS.md updated."
