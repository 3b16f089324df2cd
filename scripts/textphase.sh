#!/bin/sh
# textphase.sh OLD NEW: compares where two builds of one program put
# their hot text. For every text symbol of the Ed25519/SHA-2 code and of
# the dct, phash, watermark and bloom packages that both binaries hold,
# it prints the symbol whose address modulo 64 (its phase in a 64-byte
# fetch block) differs, with the old and new phase, and ends with
# "K of N hot symbols moved their 64-byte phase". A timing shift on
# code a change did not touch is worth reading against this first.
#
#   go build -o old.bin ./bench   # in each tree
#   sh scripts/textphase.sh old.bin new.bin
set -eu
if [ $# -ne 2 ]; then
    echo "usage: $0 OLD NEW" >&2
    exit 2
fi

hot='^(crypto/internal/fips140/(ed25519|edwards25519(/field)?|sha256|sha512)|irs/internal/(dct|phash|watermark|bloom))\.'

# phases prints "phase name" for each hot text symbol of binary $1. The
# name is the rest of the line after nm's address, size and type, since
# a generic instantiation's name holds spaces. The phase comes from the
# address's last two hex digits: 256 is a multiple of 64.
phases() {
    go tool nm -n -size "$1" | awk -v hot="$hot" '
        $3 == "T" && $4 ~ hot {
            name = $0
            sub(/^[ \t]*[^ \t]+[ \t]+[^ \t]+[ \t]+[^ \t]+[ \t]+/, "", name)
            lo = tolower(substr($1, length($1) - 1))
            d = "0123456789abcdef"
            print ((index(d, substr(lo, 1, 1)) - 1) * 16 + index(d, substr(lo, 2, 1)) - 1) % 64, name
        }'
}

old=$(phases "$1")
new=$(phases "$2")
printf '%s\n--\n%s\n' "$old" "$new" | awk '
    $0 == "--" { second = 1; next }
    { name = substr($0, length($1) + 2) }
    !second { phase[name] = $1; next }
    name in phase {
        n++
        if (phase[name] != $1) {
            k++
            printf "%s %d -> %d\n", name, phase[name], $1
        }
    }
    END { printf "%d of %d hot symbols moved their 64-byte phase\n", k, n }'
