#!/usr/bin/env bash
# Reachability check (DESIGN.md §11.3): a function in src/ stays when a
# program reaches it or a test uses it to check other code. A program is
# an executable built from examples/, bench/, perfbench/, tools/lint or
# tools/analyze; tests/ and tools/golden_capture do not count.
#
# The script builds every program with each function in its own section
# and links with --gc-sections, so an executable keeps exactly the
# functions its entry point can reach. It then lists the shadoop::
# functions that the src/ libraries define and no program keeps, and
# compares that list with scripts/unreached_allow.txt, which names the
# test oracles, fixtures and hooks that stay on purpose.
#
# Usage: scripts/unreached.sh   (no flags; builds into build-unreached/
#        with one compile per CPU)
#
# Exit codes:
#   0   every unreached function is on the allowlist, and every entry
#       on the allowlist is still defined and still unreached
#   1   an unreached function is not on the allowlist, or an allowlist
#       entry is stale (no longer defined, or now kept by a program)
#   2   usage error or failed build
set -uo pipefail

cd "$(dirname "$0")/.."

if [[ $# -gt 0 ]]; then
  echo "usage: scripts/unreached.sh" >&2
  exit 2
fi

BUILD_DIR=build-unreached
ALLOW=scripts/unreached_allow.txt
JOBS="$(nproc)"
# A build type with no flags of its own, so nothing overrides -O0.
FLAGS=(
  -DCMAKE_BUILD_TYPE=Unreached
  "-DCMAKE_CXX_FLAGS=-O0 -g0 -ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

# Program targets: every executable the program directories declare.
PROGRAM_DIRS=(examples bench tools/lint tools/analyze)
declare -a TARGETS=()
declare -a PROGRAMS=()
for dir in "${PROGRAM_DIRS[@]}"; do
  for name in $(sed -nE \
      's/^[[:space:]]*(add_executable|shadoop_add_example)\(([A-Za-z0-9_]+).*/\2/p' \
      "${dir}/CMakeLists.txt"); do
    TARGETS+=("${name}")
    PROGRAMS+=("${BUILD_DIR}/${dir}/${name}")
  done
done
PROGRAMS+=("${BUILD_DIR}/perfbench/perfbench_driver"
           "${BUILD_DIR}/perfbench/perfbench_selftest")

echo "unreached.sh: building ${#TARGETS[@]} programs and perfbench in ${BUILD_DIR}/"
if ! cmake -B "${BUILD_DIR}" -S . "${FLAGS[@]}" > /dev/null ||
   ! cmake --build "${BUILD_DIR}" -j "${JOBS}" --target "${TARGETS[@]}" \
       > /dev/null; then
  echo "unreached.sh: FAILED to build the programs" >&2
  exit 2
fi
if ! cmake -B "${BUILD_DIR}/perfbench" -S perfbench "${FLAGS[@]}" \
       > /dev/null ||
   ! cmake --build "${BUILD_DIR}/perfbench" -j "${JOBS}" \
       --target perfbench_driver perfbench_selftest > /dev/null; then
  echo "unreached.sh: FAILED to build perfbench" >&2
  exit 2
fi

# Demangled shadoop:: text symbols, one signature per line, without
# template instantiations: the non-template function that instantiates
# one is listed in its place. nm prints a function template instance
# with its return type first (a blank outside <...>, (...) and {...}
# before the parameter list) and a class template's member with the
# class's arguments (a '<' there).
text_functions() {
  nm -C --defined-only "$@" 2> /dev/null |
    sed -nE 's/^[0-9a-f]+ [TtWw] (shadoop::.*)$/\1/p' |
    awk '{
      s = $0
      gsub(/operator(<<=|>>=|<=>|<<|>>|<=|>=|->|<|>|\(\))/, "operator@", s)
      gsub(/operator /, "operator@", s)
      depth = 0
      for (i = 1; i <= length(s); i++) {
        c = substr(s, i, 1)
        if ((c == " " || c == "<") && depth == 0) next
        if (c == "<" || c == "{") depth++
        else if (c == ">" || c == "}") depth--
        else if (c == "(") { if (depth == 0) break; depth++ }
        else if (c == ")") depth--
      }
      print
    }' | LC_ALL=C sort -u
}

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT
mapfile -t LIBS < <(find "${BUILD_DIR}/src" -name 'libshadoop_*.a' | sort)
text_functions "${LIBS[@]}" > "${WORK}/defined"
text_functions "${PROGRAMS[@]}" > "${WORK}/kept"
LC_ALL=C comm -23 "${WORK}/defined" "${WORK}/kept" > "${WORK}/unreached"
# Allowlist: "<signature> # <reason>" per line; '#' starts a comment.
sed -nE 's/^([^#]*[^#[:space:]])[[:space:]]+#.*$/\1/p' "${ALLOW}" |
  LC_ALL=C sort -u > "${WORK}/allowed"

status=0
while IFS= read -r fn; do
  echo "unreached: ${fn}"
  status=1
done < <(LC_ALL=C comm -23 "${WORK}/unreached" "${WORK}/allowed")
while IFS= read -r fn; do
  if LC_ALL=C grep -qxF -- "${fn}" "${WORK}/defined"; then
    echo "stale allowlist entry (kept by a program): ${fn}"
  else
    echo "stale allowlist entry (no longer defined): ${fn}"
  fi
  status=1
done < <(LC_ALL=C comm -13 "${WORK}/unreached" "${WORK}/allowed")

allowed=$(LC_ALL=C comm -12 "${WORK}/unreached" "${WORK}/allowed" | wc -l)
if [[ "${status}" -eq 0 ]]; then
  echo "unreached.sh: clean (${allowed} allowlisted test oracles, fixtures and hooks)"
else
  echo "unreached.sh: FAILED (add a program that reaches each listed" \
       "function, delete it with its tests, or fix ${ALLOW})" >&2
fi
exit "${status}"
