#!/bin/sh
# Bounds-check-elimination guard: the unrolled 8×8 DCT kernels
# (internal/dct/kernel8.go), the watermark reader's single-coefficient
# row/column kernels (internal/dct/carrier8.go) and the phash
# accumulation kernels (internal/phash/kernel.go) are written so the
# compiler's prove pass removes every bounds check — fixed-size array
# pointers, subslice walks, same-length reslices. This script
# recompiles the packages with -d=ssa/check_bce and fails if the
# compiler reports any "Found IsInBounds"/"IsSliceInBounds" inside
# those files, so a future edit can't silently reintroduce per-element
# checks on the hot paths.
set -eu
cd "$(dirname "$0")/.."

fail=0
for pkg_file in "irs/internal/dct kernel8.go" "irs/internal/dct carrier8.go" \
    "irs/internal/phash kernel.go"; do
    pkg=${pkg_file% *}
    file=${pkg_file#* }
    # -count=1-style freshness: touch nothing, just force a rebuild of
    # the one package so the diagnostic actually prints.
    findings=$(go build -a -gcflags="$pkg=-d=ssa/check_bce" "$pkg" 2>&1 \
        | grep "$file" || true)
    if [ -n "$findings" ]; then
        echo "check_bce.sh: bounds checks in $pkg/$file:" >&2
        echo "$findings" >&2
        fail=1
    else
        echo "check_bce.sh: $pkg/$file clean"
    fi
done
exit $fail
