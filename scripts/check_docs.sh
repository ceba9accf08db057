#!/usr/bin/env bash
# scripts/check_docs.sh — the doc-truth linter: docs/ and README.md may only
# name things that exist in the tree, and production code may not call the
# serial oracles.  Ten checks:
#
#   1. env knobs, both directions.  Every `NWHY_*` token in the docs must be
#      read somewhere (a quoted "NWHY_*" string in src/tools/bench/tests/
#      examples/scripts — the getenv surface), be a CMake cache variable
#      (any CMakeLists.txt), or be a `#define`d macro.  And every quoted
#      "NWHY_*" string in src/tools/bench (the user-facing knob surface;
#      tests/ contains synthetic fixture knobs, scripts/ internal plumbing)
#      must appear in the docs.
#   2. nwobs counter/timer names, docs -> source.  Backticked dotted tokens
#      whose first segment is a known metric family (derived from the
#      NWOBS_* call sites themselves) must exactly match a registered
#      counter, gauge, or timer name — so `motif.wedges` fails when the
#      counter is `motif.wedges_scanned`.  Dotted tokens outside the family
#      set (file names, struct fields) are ignored; file extensions are
#      filtered explicitly.
#   3. nwhy_tool subcommands, docs -> dispatch.  Every `nwhy_tool <word>`
#      mention must have a matching `cmd == "<word>"` branch in
#      tools/nwhy_tool.cpp.
#   3b. nwhy_tool options, docs -> parser.  Every `--flag` on a doc line
#      that mentions nwhy_tool must appear as a string literal ("--flag" or
#      "--flag=...") in tools/nwhy_tool.cpp, whose option parser rejects
#      anything else.
#   4. the serial oracles stay out of production (full run only).  No file
#      under src/ may include a ref/ header by any path ("nwhy/ref/...",
#      "ref/...", "../ref/..."), include the umbrella nwhy.hpp (which
#      re-exports ref/), or call into ref:: — except the oracles themselves
#      (src/nwhy/ref/) and the umbrella src/nwhy.hpp, which re-exports them
#      for tests and benchmark oracle checks.  Comment-only lines are
#      skipped.
#   5. profiles record every knob (full run only).  Every "NWHY_*" name
#      read through getenv / env_u64_strict / env_knob under src/ or tools/
#      must be listed in `recorded_env` (src/nwobs/profile.hpp), so a
#      profile says which knobs shaped its measurement.
#   6. one relabel translation (full run only).  No file under src/ or
#      tools/ may subscript a relabel map (`relabel_->perm[`,
#      `relabel_->inv[`, `relabel_inv[`, `.perm[`, `.inv[`) except the two
#      relabel headers, src/nwhy/relabel.hpp (whose `relabel_maps` owns
#      every storage <-> external id translation) and src/nwgraph/relabel.hpp.
#      Comment-only lines are skipped.
#   7. one overlap count (full run only).  No file under src/nwhy/ may call
#      `.increment(` (the nw::sparse_accumulator update) outside the body of
#      detail::count_overlaps in src/nwhy/slinegraph/construction.hpp, the
#      one kernel every hyperedge-overlap count goes through (with an
#      optional upper-triangle bound that scans only each incidence row's
#      tail).  Comment-only lines are skipped.
#   8. one union-find (full run only).  `find_root`, `link_roots` and
#      `compress_all` are defined only in
#      src/nwgraph/algorithms/connected_components.hpp, and no other file
#      under src/ outside src/hygra/ (the Hygra comparator) defines a
#      `find` / `unite` member returning an id, or subscripts a `parent_`
#      forest by hand.  Every other component labelling links into that
#      forest.  Comment-only lines are skipped.
#   9. oracle names, docs -> src/nwhy/ref/.  Every `ref::<name>` the docs
#      cite must be defined at namespace scope (a function, struct, class
#      or alias at column 0) in a header under src/nwhy/ref/, so a doc
#      cannot point a reader at an oracle that does not exist.
#
# Usage:
#   scripts/check_docs.sh                 lint docs/*.md + README.md (both
#                                         knob directions)
#   scripts/check_docs.sh <file>...       lint only the given files
#                                         (docs->source directions only)
#   scripts/check_docs.sh --self-test     negative tests: a synthetic doc
#                                         citing a nonexistent knob, one
#                                         citing a nonexistent nwhy_tool
#                                         option, one citing a nonexistent
#                                         ref:: oracle, a
#                                         synthetic source tree calling an
#                                         oracle, one reading a knob its
#                                         profiles omit, one indexing a
#                                         relabel map by hand, one
#                                         counting overlaps outside
#                                         count_overlaps, and one
#                                         writing its own union-find,
#                                         must all be
#                                         rejected, and each rejection must
#                                         name the culprit
#
# Exit status: 0 clean, 1 any drift.  Runs from any cwd; needs only grep.
set -euo pipefail
cd "$(dirname "$0")/.."

# Check 4 on the source tree rooted at $1: prints every production line
# that includes a ref/ header or the umbrella nwhy.hpp, or calls ref::, and
# fails if there is one.
ref_lint() {
  local root=${1%/} hits
  local inc='#[[:space:]]*include[[:space:]]*[<"]([^">]*/)?'
  hits=$(grep -rnE --include='*.hpp' --include='*.cpp' --include='*.h' --include='*.c' \
    "${inc}ref/[^\">]*[\">]|${inc}nwhy\.hpp[\">]|(^|[^A-Za-z0-9_])ref::" "$root" \
    | grep -vE "^$root/nwhy/ref/|^$root/nwhy\.hpp:" \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
  [[ -z "$hits" ]] && return 0
  while IFS= read -r line; do
    echo "check_docs.sh: production code reaches a serial oracle (nwhy/ref/ is for tests): $line" >&2
  done <<<"$hits"
  return 1
}

# Check 5 on the tree rooted at $1: prints every NWHY_* knob read under
# src/ or tools/ that src/nwobs/profile.hpp's recorded_env omits, and fails
# if there is one.
profile_lint() {
  local root=${1%/} knobs_read recorded knob bad=0
  knobs_read=$(grep -rhoE '(getenv|env_u64_strict|env_knob)\("NWHY_[A-Z0-9_]+"' \
    "$root/src" "$root/tools" 2>/dev/null | grep -oE 'NWHY_[A-Z0-9_]+' | sort -u || true)
  recorded=$(sed -n '/recorded_env\[\] = {/,/};/p' "$root/src/nwobs/profile.hpp" \
    | grep -oE '"NWHY_[A-Z0-9_]+"' | tr -d '"' | sort -u || true)
  for knob in $knobs_read; do
    if ! grep -qxF -- "$knob" <<<"$recorded"; then
      echo "check_docs.sh: knob $knob is read but missing from recorded_env in src/nwobs/profile.hpp" >&2
      bad=1
    fi
  done
  return "$bad"
}

# Check 6 on the tree rooted at $1: prints every line under src/ or tools/
# outside the two relabel headers that subscripts a relabel map, and fails
# if there is one.
relabel_lint() {
  local root=${1%/} hits
  hits=$(grep -rnE --include='*.hpp' --include='*.cpp' --include='*.h' --include='*.c' \
    'relabel_->(perm|inv)\[|relabel_inv\[|\.(perm|inv)\[' "$root/src" "$root/tools" 2>/dev/null \
    | grep -vE "^$root/src/nwhy/relabel\.hpp:|^$root/src/nwgraph/relabel\.hpp:" \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
  [[ -z "$hits" ]] && return 0
  while IFS= read -r line; do
    echo "check_docs.sh: relabel map indexed outside relabel_maps (src/nwhy/relabel.hpp): $line" >&2
  done <<<"$hits"
  return 1
}

# Check 7 on the tree rooted at $1: prints every `.increment(` line under
# src/nwhy/ outside the body of count_overlaps (the function defined at
# column 0 in src/nwhy/slinegraph/construction.hpp, up to its closing brace
# at column 0), and fails if there is one.
increment_lint() {
  local root=${1%/} files hits
  files=$(grep -rlE --include='*.hpp' --include='*.cpp' --include='*.h' --include='*.c' \
    '\.increment\(' "$root/src/nwhy" 2>/dev/null || true)
  [[ -z "$files" ]] && return 0
  # shellcheck disable=SC2086  # one file name per word
  hits=$(awk '
    FNR == 1 { inside = 0 }
    /^[[:space:]]*\/\// { next }
    FILENAME ~ /\/slinegraph\/construction\.hpp$/ && /^[^[:space:]].*[[:space:]]count_overlaps\(/ { inside = 1 }
    inside && /^}/ { inside = 0 }
    /\.increment\(/ && !inside { print FILENAME ":" FNR ":" $0 }
  ' $files)
  [[ -z "$hits" ]] && return 0
  while IFS= read -r line; do
    echo "check_docs.sh: overlap counted outside the one bounded overlap kernel, detail::count_overlaps(row, nodes, keep, overlap, above) in src/nwhy/slinegraph/construction.hpp (pass a tail bound instead of filtering ids <= e_i by hand): $line" >&2
  done <<<"$hits"
  return 1
}

# Check 8 on the tree rooted at $1: prints every line under src/ (outside
# src/hygra/) that defines a union-find routine other than the forest in
# src/nwgraph/algorithms/connected_components.hpp, and fails if there is one.
union_find_lint() {
  local root=${1%/} hits
  local id='(vertex_id_t|size_t|u?int[0-9]*_t|int|unsigned|void|auto)'
  hits=$(grep -rnE --include='*.hpp' --include='*.cpp' --include='*.h' --include='*.c' \
    "${id}[[:space:]]+(find_root|link_roots|compress_all|find|unite)[[:space:]]*\(|(^|[^A-Za-z0-9_])parent_[[:space:]]*\[" \
    "$root/src" 2>/dev/null \
    | grep -vE "^$root/src/nwgraph/algorithms/connected_components\.hpp:|^$root/src/hygra/" \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
  [[ -z "$hits" ]] && return 0
  while IFS= read -r line; do
    echo "check_docs.sh: union-find written outside nwgraph/algorithms/connected_components.hpp: $line" >&2
  done <<<"$hits"
  return 1
}

if [[ "${1:-}" == "--self-test" ]]; then
  TMP=$(mktemp -d)
  trap 'rm -rf "$TMP"' EXIT
  printf 'Set `NWHY_NO_SUCH_KNOB` to tune nothing at all.\n' >"$TMP/bogus.md"
  if "$0" "$TMP/bogus.md" >"$TMP/out" 2>&1; then
    echo "check_docs.sh: self-test FAILED — a doc citing NWHY_NO_SUCH_KNOB passed" >&2
    cat "$TMP/out" >&2
    exit 1
  fi
  if ! grep -q "NWHY_NO_SUCH_KNOB" "$TMP/out"; then
    echo "check_docs.sh: self-test FAILED — rejection did not name the bogus knob" >&2
    cat "$TMP/out" >&2
    exit 1
  fi
  printf 'Run `nwhy_tool convert a b --no-such-flag` for nothing at all.\n' >"$TMP/flag.md"
  if "$0" "$TMP/flag.md" >"$TMP/out" 2>&1; then
    echo "check_docs.sh: self-test FAILED — a doc citing nwhy_tool --no-such-flag passed" >&2
    cat "$TMP/out" >&2
    exit 1
  fi
  if ! grep -q -- "--no-such-flag" "$TMP/out"; then
    echo "check_docs.sh: self-test FAILED — rejection did not name the bogus option" >&2
    cat "$TMP/out" >&2
    exit 1
  fi
  printf 'The oracle `ref::no_such_oracle` checks nothing; `ref::s_line_edges` exists.\n' \
    >"$TMP/oracle.md"
  if "$0" "$TMP/oracle.md" >"$TMP/out" 2>&1; then
    echo "check_docs.sh: self-test FAILED — a doc citing ref::no_such_oracle passed" >&2
    cat "$TMP/out" >&2
    exit 1
  fi
  if ! grep -q "ref::no_such_oracle" "$TMP/out" || grep -q "ref::s_line_edges" "$TMP/out"; then
    echo "check_docs.sh: self-test FAILED — rejection did not name exactly the bogus oracle" >&2
    cat "$TMP/out" >&2
    exit 1
  fi
  # A production header calling an oracle must be rejected by name; the
  # oracle directory, the umbrella header and comments must not be.
  mkdir -p "$TMP/src/nwhy/ref" "$TMP/src/nwhy/algorithms"
  printf '#include "nwhy/ref/ref.hpp"\n' >"$TMP/src/nwhy.hpp"
  printf 'inline int twin() { return ref::helper(); }\n' >"$TMP/src/nwhy/ref/oracle.hpp"
  printf '// see ref::toplexes\ninline int ok() { return 0; }\n' >"$TMP/src/nwhy/algorithms/clean.hpp"
  printf '#include "nwhy/slinegraph/pref/x.hpp"\n' >"$TMP/src/nwhy/algorithms/prefix.hpp"
  if ! ref_lint "$TMP/src" >"$TMP/out" 2>&1; then
    echo "check_docs.sh: self-test FAILED — an oracle-free tree was rejected" >&2
    cat "$TMP/out" >&2
    exit 1
  fi
  # Each way into the oracles — a ref:: call, a relative ref/ include, the
  # umbrella — must be rejected on its own, naming the file.
  cases=(
    'bad_call.hpp|inline auto answer() { return nw::hypergraph::ref::toplexes(h); }'
    'bad_rel.hpp|#include "../ref/incidence.hpp"'
    'bad_umbrella.hpp|#include <nwhy.hpp>'
  )
  for c in "${cases[@]}"; do
    name=${c%%|*}
    printf '%s\n' "${c#*|}" >"$TMP/src/nwhy/algorithms/$name"
    if ref_lint "$TMP/src" >"$TMP/out" 2>&1; then
      echo "check_docs.sh: self-test FAILED — $name passed the oracle lint" >&2
      cat "$TMP/out" >&2
      exit 1
    fi
    if ! grep -q "$name" "$TMP/out"; then
      echo "check_docs.sh: self-test FAILED — rejection did not name $name" >&2
      cat "$TMP/out" >&2
      exit 1
    fi
    rm "$TMP/src/nwhy/algorithms/$name"
  done
  # A knob read under src/ or tools/ but absent from recorded_env must be
  # rejected by name; recorded knobs must pass.
  mkdir -p "$TMP/src/nwobs" "$TMP/tools"
  printf 'inline constexpr const char* recorded_env[] = {\n    "NWHY_SELFTEST_A",\n};\n' \
    >"$TMP/src/nwobs/profile.hpp"
  printf 'auto a = env_u64_strict("NWHY_SELFTEST_A", 1);\n' >"$TMP/src/nwhy/algorithms/knob.hpp"
  if ! profile_lint "$TMP" >"$TMP/out" 2>&1; then
    echo "check_docs.sh: self-test FAILED — a recorded knob was rejected" >&2
    cat "$TMP/out" >&2
    exit 1
  fi
  printf 'const char* b = std::getenv("NWHY_SELFTEST_UNRECORDED");\n' >"$TMP/tools/tool.cpp"
  if profile_lint "$TMP" >"$TMP/out" 2>&1; then
    echo "check_docs.sh: self-test FAILED — an unrecorded knob passed the profile lint" >&2
    exit 1
  fi
  if ! grep -q "NWHY_SELFTEST_UNRECORDED" "$TMP/out"; then
    echo "check_docs.sh: self-test FAILED — rejection did not name the unrecorded knob" >&2
    cat "$TMP/out" >&2
    exit 1
  fi
  # A hand-written relabel translation must be rejected by name; the
  # relabel headers and comments must not be.
  mkdir -p "$TMP/src/nwgraph"
  printf 'inline int a(const M& m) { return m.inv[0]; }\n' >"$TMP/src/nwhy/relabel.hpp"
  printf 'inline int b(const M& m) { return m.perm[0]; }\n' >"$TMP/src/nwgraph/relabel.hpp"
  printf '// relabel_->inv[s] is the external id\n' >"$TMP/tools/tool.cpp"
  if ! relabel_lint "$TMP" >"$TMP/out" 2>&1; then
    echo "check_docs.sh: self-test FAILED — a tree translating only in relabel_maps was rejected" >&2
    cat "$TMP/out" >&2
    exit 1
  fi
  cases=(
    'bad_member.hpp|inline auto x(vertex_id_t e) const { return relabel_->perm[e]; }'
    'bad_snapshot.hpp|for (auto& e : eids) e = snap.relabel_inv[e];'
    'bad_local.hpp|for (std::size_t i = 0; i < n; ++i) maps.perm[maps.inv[i]] = i;'
  )
  for c in "${cases[@]}"; do
    name=${c%%|*}
    printf '%s\n' "${c#*|}" >"$TMP/src/nwhy/algorithms/$name"
    if relabel_lint "$TMP" >"$TMP/out" 2>&1; then
      echo "check_docs.sh: self-test FAILED — $name passed the relabel lint" >&2
      cat "$TMP/out" >&2
      exit 1
    fi
    if ! grep -q "$name" "$TMP/out"; then
      echo "check_docs.sh: self-test FAILED — rejection did not name $name" >&2
      cat "$TMP/out" >&2
      exit 1
    fi
    rm "$TMP/src/nwhy/algorithms/$name"
  done
  # An overlap map incremented outside count_overlaps must be rejected by
  # name; the kernel itself, comments and trees outside src/nwhy/ must not.
  mkdir -p "$TMP/src/nwhy/slinegraph"
  cat >"$TMP/src/nwhy/slinegraph/construction.hpp" <<'KERNEL'
template <class Row, class NGraph, class Keep>
std::size_t count_overlaps(Row&& row, const NGraph& nodes, Keep keep, map& overlap) {
  for (auto v : row) {
    for (auto e : nodes[v]) {
      if (keep(e)) overlap.increment(e);
    }
  }
  return 0;
}
KERNEL
  printf '// overlap.increment(ej) is count_overlaps'"'"'s job\n' >"$TMP/src/nwhy/algorithms/clean2.hpp"
  printf 'inline void spgemm(acc& a) { a.increment(1, 2.0); }\n' >"$TMP/src/nwgraph/csr.hpp"
  if ! increment_lint "$TMP" >"$TMP/out" 2>&1; then
    echo "check_docs.sh: self-test FAILED — a tree counting only in count_overlaps was rejected" >&2
    cat "$TMP/out" >&2
    exit 1
  fi
  cases=(
    'bad_loop.hpp|      if (ej > ei && deg[ej] >= s) overlap.increment(ej);'
    'bad_census.hpp|  for (auto f : nodes[v]) maps.local(tid).increment(f);'
  )
  for c in "${cases[@]}"; do
    name=${c%%|*}
    printf '%s\n' "${c#*|}" >"$TMP/src/nwhy/algorithms/$name"
    if increment_lint "$TMP" >"$TMP/out" 2>&1; then
      echo "check_docs.sh: self-test FAILED — $name passed the overlap lint" >&2
      cat "$TMP/out" >&2
      exit 1
    fi
    if ! grep -q "$name" "$TMP/out"; then
      echo "check_docs.sh: self-test FAILED — rejection did not name $name" >&2
      cat "$TMP/out" >&2
      exit 1
    fi
    rm "$TMP/src/nwhy/algorithms/$name"
  done
  # A second loop in construction.hpp itself, after the kernel, is a copy too.
  printf 'inline void twin(map& m) {\n  m.increment(3);\n}\n' \
    >>"$TMP/src/nwhy/slinegraph/construction.hpp"
  if increment_lint "$TMP" >"$TMP/out" 2>&1 || ! grep -q "construction.hpp:11:" "$TMP/out"; then
    echo "check_docs.sh: self-test FAILED — a second counting loop in construction.hpp was not named" >&2
    cat "$TMP/out" >&2
    exit 1
  fi
  # A union-find outside the shared forest must be rejected by name; the
  # forest itself, the Hygra comparator, lookups named find, calls into
  # the forest and comments must not be.
  mkdir -p "$TMP/src/nwgraph/algorithms" "$TMP/src/hygra"
  printf 'inline vertex_id_t find_root(std::vector<vertex_id_t>& c, vertex_id_t v) {\n' \
    >"$TMP/src/nwgraph/algorithms/connected_components.hpp"
  printf 'inline void link_roots(std::vector<vertex_id_t>& c, vertex_id_t u, vertex_id_t v);\n' \
    >>"$TMP/src/nwgraph/algorithms/connected_components.hpp"
  printf '  vertex_id_t find(vertex_id_t x) { return parent_[x]; }\n' >"$TMP/src/hygra/uf.hpp"
  printf '  const delta_row* find(vertex_id_t e) const;\n' >"$TMP/src/nwhy/algorithms/lookup.hpp"
  printf '  nw::graph::detail::link_roots(parent_, e, f);\n' >"$TMP/src/nwhy/algorithms/user.hpp"
  printf '// parent_[x] = parent_[parent_[x]] was the old private forest\n' \
    >"$TMP/src/nwhy/algorithms/clean3.hpp"
  if ! union_find_lint "$TMP" >"$TMP/out" 2>&1; then
    echo "check_docs.sh: self-test FAILED — a tree with one union-find was rejected" >&2
    cat "$TMP/out" >&2
    exit 1
  fi
  cases=(
    'bad_root.hpp|inline vertex_id_t find_root(std::vector<vertex_id_t>& p, vertex_id_t v) {'
    'bad_find.hpp|  vertex_id_t find(vertex_id_t x) const {'
    'bad_unite.hpp|  void unite(vertex_id_t a, vertex_id_t b) const {'
    'bad_forest.hpp|      parent_[x] = parent_[parent_[x]];  // path halving'
  )
  for c in "${cases[@]}"; do
    name=${c%%|*}
    printf '%s\n' "${c#*|}" >"$TMP/src/nwhy/algorithms/$name"
    if union_find_lint "$TMP" >"$TMP/out" 2>&1; then
      echo "check_docs.sh: self-test FAILED — $name passed the union-find lint" >&2
      cat "$TMP/out" >&2
      exit 1
    fi
    if ! grep -q "$name" "$TMP/out"; then
      echo "check_docs.sh: self-test FAILED — rejection did not name $name" >&2
      cat "$TMP/out" >&2
      exit 1
    fi
    rm "$TMP/src/nwhy/algorithms/$name"
  done
  echo "check_docs.sh: self-test OK (nonexistent knob, nwhy_tool option and ref:: oracle, production oracle use, unrecorded profile knob, hand-written relabel translation, overlap count outside count_overlaps and a second union-find rejected)"
  exit 0
fi

FULL=1
if [[ $# -gt 0 ]]; then
  DOCS=("$@")
  FULL=0
else
  DOCS=(docs/*.md README.md)
fi

FAIL=0
err() {
  echo "check_docs.sh: $*" >&2
  FAIL=1
}

# --- inventory: what the tree actually provides ----------------------------

# Strings actually read from the environment (or written to it by scripts).
# The linter excludes itself: its self-test machinery quotes a deliberately
# nonexistent knob, which must not leak into the inventory.
GETENV_KNOBS=$(grep -rhoE --exclude=check_docs.sh '"NWHY_[A-Z0-9_]+"' \
  src tools bench tests examples scripts 2>/dev/null | tr -d '"' | sort -u)
# CMake cache variables / compile definitions (NWHY_SANITIZE, NWHY_OBS, ...).
CMAKE_KNOBS=$(grep -rhoE 'NWHY_[A-Z0-9_]+' CMakeLists.txt ./*/CMakeLists.txt \
  2>/dev/null | sort -u)
# Preprocessor macros docs may legitimately mention (NWHY_NULL_ID, ...).
MACRO_KNOBS=$(grep -rhoE '#[[:space:]]*define[[:space:]]+NWHY_[A-Z0-9_]+' \
  src tools tests examples 2>/dev/null | grep -oE 'NWHY_[A-Z0-9_]+' | sort -u)
KNOWN_KNOBS=$(printf '%s\n%s\n%s\n' "$GETENV_KNOBS" "$CMAKE_KNOBS" "$MACRO_KNOBS" \
  | sort -u)

# Registered nwobs metric names (counters, gauges, scope timers) and the
# family prefixes they establish.
SRC_METRICS=$(grep -rhoE 'NWOBS_(COUNT|GAUGE_MAX|GAUGE_SET|SCOPE_TIMER)\("[^"]+"' \
  src tools | sed -E 's/.*\("([^"]+)".*/\1/' | sort -u)
METRIC_FAMILIES=$(printf '%s\n' "$SRC_METRICS" | sed -E 's/\..*$//' | sort -u)

# nwhy_tool dispatch branches, and the options its parser accepts.
TOOL_CMDS=$(grep -hoE 'cmd == "[a-z_]+"' tools/nwhy_tool.cpp \
  | grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)
TOOL_OPTS=$(grep -hoE '"--[a-z][a-z0-9-]*' tools/nwhy_tool.cpp | tr -d '"' | sort -u)

has_line() {  # has_line <needle> <haystack-lines>
  # Here-string, not a pipe: `grep -q` exits on the first match, and under
  # pipefail a printf that catches the resulting SIGPIPE would turn a
  # successful lookup into an intermittent failure.
  grep -qxF -- "$1" <<<"$2"
}

# --- check 1a: every documented NWHY_* token exists ------------------------

# Trailing [A-Z0-9] keeps glob-style mentions like `NWHY_BENCH_*` from
# extracting a truncated "NWHY_BENCH_" token.
DOC_KNOBS=$(grep -hoE 'NWHY_[A-Z0-9_]*[A-Z0-9]' "${DOCS[@]}" 2>/dev/null | sort -u || true)
for knob in $DOC_KNOBS; do
  if ! has_line "$knob" "$KNOWN_KNOBS"; then
    err "documented knob $knob is not read, defined, or cached anywhere in the tree"
  fi
done

# --- check 1b: every user-facing env knob is documented --------------------

if [[ "$FULL" == 1 ]]; then
  SURFACE_KNOBS=$(grep -rhoE '"NWHY_[A-Z0-9_]+"' src tools bench 2>/dev/null \
    | tr -d '"' | sort -u)
  for knob in $SURFACE_KNOBS; do
    if ! has_line "$knob" "$DOC_KNOBS"; then
      err "env knob $knob is read by src/tools/bench but documented nowhere"
    fi
  done
fi

# --- check 2: documented counter/timer names exist -------------------------

DOC_DOTTED=$(grep -hoE '`[A-Za-z0-9_]+(\.[A-Za-z0-9_]+)+`' "${DOCS[@]}" 2>/dev/null \
  | tr -d '`' | sort -u || true)
for tok in $DOC_DOTTED; do
  case "$tok" in
    *.md|*.hpp|*.cpp|*.h|*.json|*.sh|*.py|*.txt|*.cmake|*.mtx|*.tsv|*.bin|\
    *.nwcsr|*.nwcsrz|*.el|*.sock|*.so|*.out|*.log|*.ipynb) continue ;;
  esac
  family=${tok%%.*}
  has_line "$family" "$METRIC_FAMILIES" || continue
  if ! has_line "$tok" "$SRC_METRICS"; then
    err "documented metric $tok matches no NWOBS_* registration (family '$family' exists)"
  fi
done

# --- check 3: documented nwhy_tool subcommands exist -----------------------

DOC_CMDS=$(grep -hoE 'nwhy_tool +[a-z_]+' "${DOCS[@]}" 2>/dev/null \
  | sed -E 's/nwhy_tool +//' | sort -u || true)
for cmd in $DOC_CMDS; do
  if ! has_line "$cmd" "$TOOL_CMDS"; then
    err "documented subcommand 'nwhy_tool $cmd' has no cmd == \"$cmd\" dispatch branch"
  fi
done

# --- check 3b: documented nwhy_tool options exist --------------------------

for doc in "${DOCS[@]}"; do
  doc_opts=$(grep -hE 'nwhy_tool' "$doc" 2>/dev/null \
    | grep -oE '(^|[^-[:alnum:]])--[a-z][a-z0-9-]*' | sed -E 's/^[^-]*//' | sort -u || true)
  for opt in $doc_opts; do
    if ! has_line "$opt" "$TOOL_OPTS"; then
      err "$doc: option '$opt' on an nwhy_tool line is not parsed by tools/nwhy_tool.cpp"
    fi
  done
done

# --- check 9: documented ref:: oracles exist -------------------------------

# Names defined at namespace scope (column 0) in the oracle headers.
REF_NAMES=$(grep -rhE '^[A-Za-z]' src/nwhy/ref/ 2>/dev/null \
  | grep -oE '(struct|class|using)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*|[A-Za-z_][A-Za-z0-9_]*\(' \
  | sed -E 's/^(struct|class|using)[[:space:]]+//; s/\($//' | sort -u)
DOC_ORACLES=$(grep -hoE '(^|[^A-Za-z0-9_])ref::[A-Za-z_][A-Za-z0-9_]*' "${DOCS[@]}" 2>/dev/null \
  | sed -E 's/^.*ref:://' | sort -u || true)
for name in $DOC_ORACLES; do
  if ! has_line "$name" "$REF_NAMES"; then
    err "documented oracle ref::$name is not defined under src/nwhy/ref/"
  fi
done

# --- check 4: the serial oracles stay out of production --------------------

if [[ "$FULL" == 1 ]]; then
  ref_lint src || FAIL=1
fi

# --- check 5: profiles record every knob -----------------------------------

if [[ "$FULL" == 1 ]]; then
  profile_lint . || FAIL=1
fi

# --- check 6: one relabel translation --------------------------------------

if [[ "$FULL" == 1 ]]; then
  relabel_lint . || FAIL=1
fi

# --- check 7: one overlap count ---------------------------------------------

if [[ "$FULL" == 1 ]]; then
  increment_lint . || FAIL=1
fi

# --- check 8: one union-find ------------------------------------------------

if [[ "$FULL" == 1 ]]; then
  union_find_lint . || FAIL=1
fi

if [[ "$FAIL" != 0 ]]; then
  echo "check_docs.sh: FAILED — docs and source disagree (see above)" >&2
  exit 1
fi
echo "check_docs.sh: OK (${#DOCS[@]} files; $(printf '%s\n' "$DOC_KNOBS" | grep -c . || true) knobs, $(printf '%s\n' "$SRC_METRICS" | grep -c . || true) metrics, $(printf '%s\n' "$TOOL_CMDS" | grep -c . || true) subcommands checked)"
