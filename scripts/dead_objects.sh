#!/usr/bin/env bash
# Link-time dead-code guard: every object file of the engine's static
# libraries must be linked into a program that is not a test.
#
# Lists each member of <build-dir>/src/*/libecodb_*.a that defines no strong
# global symbol (nm types T, D, B, R) found in any executable that bench/ and
# examples/ build, and exits 1 when there is one. Such a member is code that
# only tests run. The executables are read from
# <build-dir>/dead_objects_binaries.txt, which CMake writes at generate time
# from the configured targets, so a leftover binary of a removed target is
# not counted. Exits 2 when there is nothing to scan or a listed binary is
# not built.
#
# Usage: scripts/dead_objects.sh <build-dir>
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
build=$1
list=$build/dead_objects_binaries.txt

if [[ ! -f $list ]]; then
  echo "dead_objects: no $list; configure $build with CMake first" >&2
  exit 2
fi
binaries=()
while IFS= read -r file; do
  [[ -n $file ]] || continue
  if [[ ! -f $file ]]; then
    echo "dead_objects: $file is not built" >&2
    exit 2
  fi
  binaries+=("$file")
done <"$list"
if [[ ${#binaries[@]} -eq 0 ]]; then
  echo "dead_objects: $list names no executables" >&2
  exit 2
fi

shopt -s nullglob
archives=("$build"/src/*/libecodb_*.a)
if [[ ${#archives[@]} -eq 0 ]]; then
  echo "dead_objects: no libecodb_*.a under $build/src" >&2
  exit 2
fi

# One stream, in order: "L sym" for each strong global a binary defines,
# "M member" for each archive member, "S member sym" for each strong global
# a member defines. Members are named lib.a(object.o), as the linker does.
report=$(
  {
    for bin in "${binaries[@]}"; do
      nm --defined-only -g -P "$bin" |
        awk '$2 ~ /^[TDBR]$/ { print "L", $1 }'
    done
    for lib in "${archives[@]}"; do
      name=$(basename "$lib")
      ar t "$lib" | awk -v lib="$name" '{ print "M", lib "(" $0 ")" }'
      # nm's posix format (-P) names a member "path/lib.a[object.o]:".
      nm --defined-only -g -A -P "$lib" |
        awk -v lib="$name" '$3 ~ /^[TDBR]$/ {
          member = $1
          sub(/^.*\[/, "", member)
          sub(/\]:$/, "", member)
          print "S", lib "(" member ")", $2
        }'
    done
  } | awk '$1 == "L" { linked[$2] = 1 }
           $1 == "M" { members[$2] = 1; n++ }
           $1 == "S" && ($3 in linked) { live[$2] = 1 }
           END {
             print "members", n
             for (m in members) if (!(m in live)) print "dead", m
           }'
)

echo "dead_objects: scanned ${#binaries[@]} binaries and" \
     "$(awk '$1 == "members" { print $2 }' <<<"$report") archive members"
dead=$(awk '$1 == "dead" { print "  " $2 }' <<<"$report" | sort)
if [[ -n $dead ]]; then
  echo "dead_objects: members that no bench or example links:"
  echo "$dead"
  exit 1
fi
