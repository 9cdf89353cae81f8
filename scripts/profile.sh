#!/usr/bin/env bash
# Turn what `experiments profile --out DIR` wrote into a flat
# per-function table: each sampled instruction pointer is mapped back
# into the binary through the process's memory map and its LOAD
# segments, and charged to the nearest function symbol below it.
#
#   cargo run --release -p fp-bench --bin experiments -- profile \
#       --workload rush_mem --mode all --seconds 20 --out DIR
#   scripts/profile.sh DIR [ROWS]
#
# Prints `share  samples  function`, largest first, ROWS rows (25 by
# default). Samples outside the binary (libc, the kernel's vDSO) are
# charged to the mapped file's name.
set -euo pipefail

dir="${1:?usage: scripts/profile.sh DIR [ROWS]}"
rows="${2:-25}"
exe="$(cat "$dir/exe.txt")"
for tool in nm readelf; do
    command -v "$tool" >/dev/null || { echo "$tool is not installed" >&2; exit 1; }
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Function symbols, by address: `addr name`.
nm -C --defined-only "$exe" |
    awk '$2 ~ /^[tTwW]$/ {
        name = substr($0, length($1) + 4); sub(/::h[0-9a-f]{16}$/, "", name)
        print $1, name
    }' | sort -k1,1 > "$tmp/symbols"

# LOAD segments: `file_offset vaddr size`, to turn a file offset into
# the address the symbol table uses.
readelf -lW "$exe" | awk '$1 == "LOAD" { print $2, $3, $5 }' > "$tmp/loads"

# Each sample as an address inside the binary (hex) or an outside name.
awk -v exe="$exe" '
    function hex(s,    i, c, v) {
        v = 0; s = tolower(s); sub(/^0x/, "", s)
        for (i = 1; i <= length(s); i++) {
            c = index("0123456789abcdef", substr(s, i, 1)) - 1
            v = v * 16 + c
        }
        return v
    }
    FILENAME == ARGV[1] { loads++; l_off[loads] = hex($1); l_va[loads] = hex($2); l_sz[loads] = hex($3); next }
    FILENAME == ARGV[2] {
        split($1, r, "-")
        maps++; m_lo[maps] = hex(r[1]); m_hi[maps] = hex(r[2]); m_off[maps] = hex($3)
        m_path[maps] = (NF >= 6) ? $6 : "[anon]"
        next
    }
    {
        a = hex($1); where = "[unmapped]"
        for (m = 1; m <= maps; m++) {
            if (a >= m_lo[m] && a < m_hi[m]) {
                if (m_path[m] != exe) { where = m_path[m]; break }
                off = a - m_lo[m] + m_off[m]
                for (l = 1; l <= loads; l++) {
                    if (off >= l_off[l] && off < l_off[l] + l_sz[l]) {
                        where = sprintf("%016x", off - l_off[l] + l_va[l]); break
                    }
                }
                break
            }
        }
        print where
    }
' "$tmp/loads" "$dir/maps.txt" "$dir/addrs.txt" > "$tmp/where"

total="$(wc -l < "$tmp/where")"
if [ "$total" -eq 0 ]; then
    echo "no samples in $dir/addrs.txt" >&2
    exit 1
fi

# Charge each in-binary address to the last symbol at or below it:
# merge the sorted samples into the sorted symbols.
{
    awk '{ print $1, "S", substr($0, length($1) + 2) }' "$tmp/symbols"
    grep -E '^[0-9a-f]{16}$' "$tmp/where" | awk '{ print $1, "A" }'
} | sort -k1,1 -k2,2r |
    awk '$2 == "S" { name = substr($0, 20); next } { print (name == "" ? "[no symbol]" : name) }' \
        > "$tmp/charged"
grep -vE '^[0-9a-f]{16}$' "$tmp/where" >> "$tmp/charged" || true

echo "$total samples"
sort "$tmp/charged" | uniq -c | sort -k1,1nr | head -n "$rows" |
    awk -v total="$total" '{ n = $1; $1 = ""; sub(/^ /, ""); printf "%6.1f %%  %6d  %s\n", 100 * n / total, n, $0 }'
