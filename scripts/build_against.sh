# Sourced by scripts/same_outputs.sh and scripts/bench_regress.sh: builds a
# commit and the working tree side by side, so a change is compared with
# its base under one compiler and one set of flags.
#
# build_tree <src> <dir> <jobs> <target>...
#   Makes a Release build of the targets from <src> into <dir>. Exits 2
#   when the build fails.
#
# build_against <root> <rev> <jobs> <target>...
#   Extracts <rev> with git archive (local, no network, nothing registered
#   in .git) into <root>/base-src, then builds the targets from it into
#   <root>/base and from the working tree into <root>/work. Both builds are
#   kept, so a second call against the same commit rebuilds only what
#   changed in the working tree. A different commit starts from a fresh
#   extract and build: its files carry their commit's timestamps, which an
#   incremental build cannot trust. Sets `commit` to the full hash of
#   <rev>. Exits 2 when <rev> names no commit or a build fails.

build_tree() {
  local src=$1 dir=$2 jobs=$3
  shift 3
  echo "==> building $src into $dir"
  mkdir -p "$dir"
  if ! { cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$dir" -j "$jobs" --target "$@"; } \
       >"$dir.log" 2>&1; then
    tail -20 "$dir.log" >&2
    echo "${0##*/}: building $src failed (log: $dir.log)" >&2
    exit 2
  fi
}

build_against() {
  local root=$1 rev=$2 jobs=$3
  shift 3
  local me=${0##*/}
  if ! commit=$(git rev-parse --verify --quiet "$rev^{commit}"); then
    echo "$me: $rev names no commit" >&2
    exit 2
  fi
  mkdir -p "$root"
  if [[ "$(cat "$root/base.commit" 2>/dev/null)" != "$commit" ]]; then
    rm -rf "$root/base-src" "$root/base" "$root/base.commit"
    mkdir -p "$root/base-src"
    if ! git archive "$commit" | tar -x -C "$root/base-src"; then
      echo "$me: could not extract $commit" >&2
      exit 2
    fi
    echo "$commit" >"$root/base.commit"
  fi
  build_tree "$root/base-src" "$root/base" "$jobs" "$@"
  build_tree . "$root/work" "$jobs" "$@"
}
