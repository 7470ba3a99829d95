#!/usr/bin/env bash
# Lists the library code that no product links, and fails on any of it that
# tools/dead_code.allow does not name (DESIGN.md §2.1).
#
#   tools/dead_code.sh [build-dir]    # default: build-deadcode
#   tools/dead_code.sh --self-test    # the matcher on canned nm output
#
# The check configures a Debug (-O0) build with -ffunction-sections
# -fdata-sections and -Wl,--gc-sections, builds the products (4 tools, the 9
# paper programs under bench/, 5 examples) and perfbench (from perfbench/,
# same flags), and lists every strong ctfl:: text symbol (nm types T and t)
# of libctfl_*.a that none of those binaries holds, with its size and object
# file. -O0 inlines nothing, so a function missing from every binary is one
# that no product calls. It fails (exit 1) unless each listed symbol matches
# a glob of the allowlist (one "<pattern>  # <why>" a line), and on an
# allowlist line that matches no listed symbol.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
repo=$(dirname "$here")

# match LIB_NM BIN_SYMS ALLOW: LIB_NM is `nm -C -S --defined-only` output
# of the archives (a "member.o:" line before each member's symbols),
# BIN_SYMS one symbol name a line of everything the binaries hold.
match() {
  python3 - "$@" <<'PY'
import fnmatch
import sys

lib_nm, bin_syms, allow_path = sys.argv[1:4]

linked = set()
with open(bin_syms) as f:
    linked = {line.rstrip("\n") for line in f}

unlinked = {}  # name -> (size, object)
member = "?"
with open(lib_nm) as f:
    for line in f:
        line = line.rstrip("\n")
        if line.endswith(".o:"):
            member = line[:-1]
            continue
        parts = line.split(" ", 3)
        if len(parts) != 4 or parts[2] not in ("T", "t"):
            continue
        name = parts[3]
        if not name.startswith("ctfl::") or name in linked:
            continue
        size = int(parts[1], 16)
        if name in unlinked:
            size += unlinked[name][0]
        unlinked[name] = (size, member)

patterns = []
with open(allow_path) as f:
    for number, line in enumerate(f, 1):
        pattern = line.split("#", 1)[0].strip()
        if pattern:
            if "#" not in line or not line.split("#", 1)[1].strip():
                print(f"dead_code: {allow_path}:{number}: no reason given")
                sys.exit(1)
            patterns.append((number, pattern))

used = set()
unlisted = []
for name in sorted(unlinked):
    hits = [n for n, p in patterns if fnmatch.fnmatchcase(name, p)]
    used.update(hits)
    size, obj = unlinked[name]
    print(f"{size:7d}  {obj:32s}  {name}" + ("" if hits else "  [NOT ALLOWED]"))
    if not hits:
        unlisted.append(name)
stale = [(n, p) for n, p in patterns if n not in used]

total = sum(size for size, _ in unlinked.values())
print(f"dead_code: {len(unlinked)} unlinked ctfl:: functions, {total} bytes; "
      f"{len(unlisted)} not allowed, {len(stale)} stale allowlist lines")
for n, p in stale:
    print(f"dead_code: stale allowlist line {n}: {p}")
sys.exit(1 if unlisted or stale else 0)
PY
}

self_test() {
  local dir
  dir=$(mktemp -d)
  trap 'rm -rf "$dir"' RETURN
  cat > "$dir/lib.nm" <<'EOF'

util.cc.o:
0000000000000000 0000000000000010 T ctfl::Used(int)
0000000000000010 0000000000000020 T ctfl::Unused(int)
0000000000000030 0000000000000008 t ctfl::(anonymous namespace)::Helper()
0000000000000038 0000000000000008 W ctfl::Inline()
0000000000000040 0000000000000008 T other::NotOurs()
                                  U ctfl::Undefined()
EOF
  printf '%s\n' 'ctfl::Used(int)' 'ctfl::(anonymous namespace)::Helper()' \
      > "$dir/bin.syms"
  local fails=0
  expect() {  # expect CODE DESCRIPTION ALLOWLIST...
    local want=$1 what=$2
    shift 2
    printf '%s\n' "$@" > "$dir/allow"
    local got=0
    match "$dir/lib.nm" "$dir/bin.syms" "$dir/allow" > "$dir/out" || got=$?
    if [[ $got -ne $want ]]; then
      echo "self-test FAILED: $what (exit $got, want $want)"
      cat "$dir/out"
      fails=1
    else
      echo "self-test ok: $what"
    fi
  }
  expect 1 "an unlisted unused function fails" ''
  grep -q 'ctfl::Unused(int)  \[NOT ALLOWED\]' "$dir/out" ||
      { echo "self-test FAILED: the unused function is not named"; fails=1; }
  expect 0 "an allowlisted unused function passes" \
      'ctfl::Unused(*  # test hook'
  expect 1 "a stale allowlist line fails" \
      'ctfl::Unused(*  # test hook' 'ctfl::Gone(*  # removed long ago'
  expect 1 "an allowlist line without a reason fails" 'ctfl::Unused(*'
  return $fails
}

if [[ ${1:-} == --self-test ]]; then
  self_test
  exit $?
fi

build=${1:-build-deadcode}
tools=(ctfl_cli ctfl_serve_bin ctfl_query_client ctfl_replay_bin)
benches=(table1_comparison table2_toy_example table4_datasets
         fig4_ranking_accuracy fig5_execution_time fig6_robustness
         fig7_interpret_tictactoe table5_interpret_adult ablation_sweeps)
examples=(quickstart marketplace_audit flip_attack_forensics
          active_collection federation_settlement)
jobs=$(nproc 2>/dev/null || echo 2)
flags=(-DCMAKE_BUILD_TYPE=Debug
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

# Every library, so that one no product links is listed too.
libraries=($(sed -n 's/^add_library(\(ctfl_[a-z_]*\).*/\1/p' \
    "$repo/src/CMakeLists.txt"))

cmake -S "$repo" -B "$build" "${flags[@]}" > /dev/null
cmake --build "$build" -j"$jobs" --target "${libraries[@]}" "${tools[@]}" \
    "${benches[@]}" "${examples[@]}" > /dev/null
cmake -S "$repo/perfbench" -B "$build/perfbench" "${flags[@]}" > /dev/null
cmake --build "$build/perfbench" -j"$jobs" --target ctfl_perfbench > /dev/null

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
binaries=("$build"/tools/{ctfl,ctfl_serve,ctfl_query_client,ctfl_replay}
          "${benches[@]/#/$build/bench/}" "${examples[@]/#/$build/examples/}"
          "$build/perfbench/ctfl_perfbench")
for binary in "${binaries[@]}"; do
  [[ -x $binary ]] || { echo "dead_code: missing product $binary"; exit 2; }
  nm -C --defined-only "$binary" | cut -d' ' -f3- >> "$work/bin.syms"
done
nm -C -S --defined-only "$build"/src/libctfl_*.a > "$work/lib.nm" 2> /dev/null
echo "dead_code: ${#binaries[@]} binaries against $(ls "$build"/src/libctfl_*.a | wc -l) archives"
match "$work/lib.nm" "$work/bin.syms" "$here/dead_code.allow"
