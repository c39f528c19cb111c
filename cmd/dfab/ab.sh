#!/usr/bin/env bash
# One-process A/B of the working tree against a git revision; see main.go.
#
#   bash cmd/dfab/ab.sh <rev> [dfab flags: -cells fig10,fig3,theta -passes N]
#
# Builds a throwaway module holding the working tree's internal/ and
# cmd/dfab, plus <rev>'s internal/ as internalb/ with its imports rewritten
# and a copy of side.go importing it, then runs the two-sided binary. The
# module lives under ${TMPDIR:-/tmp} and is removed on exit.
set -euo pipefail

rev=${1:?usage: ab.sh <rev> [dfab flags]}
shift
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/dfab.XXXXXX")
trap 'rm -rf "$work"' EXIT

cp "$root/go.mod" "$work/"
cp -r "$root/internal" "$work/internal"
mkdir -p "$work/cmd/dfab" "$work/base"
cp "$root"/cmd/dfab/*.go "$work/cmd/dfab/"

git -C "$root" archive "$rev" internal | tar -x -C "$work/base"
mv "$work/base/internal" "$work/internalb"
find "$work/internal" "$work/internalb" \( -name '*_test.go' -o -name testdata -prune \) -exec rm -rf {} +
find "$work/internalb" -name '*.go' -exec sed -i 's#"dragonfly/internal/#"dragonfly/internalb/#' {} +
sed -e 's#"dragonfly/internal/#"dragonfly/internalb/#' -e 's#register("change"#register("base"#' \
	"$root/cmd/dfab/side.go" > "$work/cmd/dfab/side_base.go"

(cd "$work" && go build -o dfab ./cmd/dfab)
echo "dfab: working tree against $(git -C "$root" rev-parse --short "$rev")" >&2
"$work/dfab" "$@"
