#!/usr/bin/env bash
# Checks that the compiler, with -Werror=unused-result, rejects a dropped
# Status or StatusOr: it compiles a fixture with -fsyntax-only and requires
# an "ignoring returned value ... nodiscard" error on exactly the lines the
# fixture marks "// dropped", and no other error.
#
# Usage: check_dropped_status.sh <c++ compiler> <src dir> <fixture>
# Exits 0 when the errors match the marks, 1 otherwise.
set -uo pipefail

[[ $# -eq 3 ]] || { echo "usage: $0 <cxx> <src-dir> <fixture>" >&2; exit 1; }
cxx=$1
src=$2
fixture=$3
name=$(basename "$fixture")

output=$("$cxx" -std=c++20 -fsyntax-only -Werror=unused-result -I"$src" \
  "$fixture" 2>&1)
errors=$(printf '%s\n' "$output" | grep -E "^[^ ]*${name}:[0-9]+:[0-9]+: error: ")
others=$(printf '%s\n' "$errors" | grep -v "ignoring returned value .*nodiscard")
want=$(grep -n '// dropped$' "$fixture" | cut -d: -f1 | xargs)
got=$(printf '%s\n' "$errors" | grep -oE ":[0-9]+:[0-9]+: error: " |
  cut -d: -f2 | sort -nu | xargs)

if [[ -n "$others" || "$got" != "$want" ]]; then
  echo "dropped-status check failed on $fixture"
  echo "  lines marked dropped:     $want"
  echo "  lines the compiler fails: $got"
  [[ -n "$others" ]] && printf 'other errors:\n%s\n' "$others"
  printf '%s\n' "$output"
  exit 1
fi
echo "dropped-status check: errors on lines $want and nowhere else"
