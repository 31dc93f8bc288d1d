#!/usr/bin/env bash
# The builder gate: fail the build when a struct literal of one of the
# `#[non_exhaustive]` configuration types appears outside its defining
# module. The compiler already rejects cross-crate literals (E0639); this
# lint closes the same-crate loophole so every construction site goes
# through the `new()` / `with_*` builder surface and stays source-compatible
# when fields are added (see DESIGN.md §9).
#
# Defining modules (the only places allowed to write the literal):
#   KMeansOptions -> crates/cluster/src/kmeans.rs
#   ModelOptions  -> crates/core/src/model.rs
#   CafcChConfig  -> crates/core/src/algorithms.rs
#   IngestLimits  -> crates/core/src/ingest.rs
#   ObsConfig     -> crates/obs/src/lib.rs
#   FuzzConfig    -> crates/fuzz/src/config.rs
#   StoreConfig   -> crates/store/src/config.rs
#   SearchConfig  -> crates/core/src/search.rs
#   Bm25Params    -> crates/index/src/bm25.rs
#   ServeOptions  -> crates/serve/src/server.rs
#   LoadgenConfig -> crates/serve/src/loadgen.rs
#   BenchConfig         -> crates/core/src/bench.rs
#   ShardedCorpusConfig -> crates/corpus/src/shard.rs
#
# It also keeps one public function per pipeline stage (DESIGN.md §9): no
# `pub fn` (or `pub use … as`) name in crates/, tests/ or examples/ may end
# in `_exec` or `_obs`, except the exec-layer primitives and the hidden
# forwards the benchmark harness still calls by their old names (ROADMAP
# item 1). Those forwards may appear nowhere but at their definitions.
#
# Usage: tools/config-lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A home=(
  [KMeansOptions]="crates/cluster/src/kmeans.rs"
  [ModelOptions]="crates/core/src/model.rs"
  [CafcChConfig]="crates/core/src/algorithms.rs"
  [IngestLimits]="crates/core/src/ingest.rs"
  [ObsConfig]="crates/obs/src/lib.rs"
  [CheckConfig]="crates/check/src/runner.rs"
  [FuzzConfig]="crates/fuzz/src/config.rs"
  [StoreConfig]="crates/store/src/config.rs"
  [SearchConfig]="crates/core/src/search.rs"
  [Bm25Params]="crates/index/src/bm25.rs"
  [ServeOptions]="crates/serve/src/server.rs"
  [LoadgenConfig]="crates/serve/src/loadgen.rs"
  [StreamConfig]="crates/core/src/stream.rs"
  [BenchConfig]="crates/core/src/bench.rs"
  [ShardedCorpusConfig]="crates/corpus/src/shard.rs"
)

status=0
for ty in "${!home[@]}"; do
  # A literal is `Type {` NOT preceded by `struct`/`fn ... ->` context:
  # skip declarations (`struct Type {`), impl blocks (`impl Type {`), and
  # return-type positions (`-> Type {`). Comment lines are exempt.
  hits=$(grep -rn --include='*.rs' -E "${ty}[[:space:]]*\{" crates tests examples 2>/dev/null |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
    grep -vE "(struct|impl|enum|trait)[[:space:]]+${ty}|->[[:space:]]*&?${ty}[[:space:]]*\{" |
    grep -v "^${home[$ty]}:" || true)
  if [[ -n "$hits" ]]; then
    echo "config-lint: ${ty} struct literal outside ${home[$ty]}:" >&2
    echo "$hits" | sed 's/^/    /' >&2
    status=1
  fi
done

if [[ "$status" -ne 0 ]]; then
  echo "config-lint: FAILED — construct configuration types through their" >&2
  echo "builder surface (Type::new()/Type::default() + with_* setters)." >&2
fi

# One public function per stage: name -> the one file allowed to define it.
declare -A stage_allow=(
  [par_chunks_obs]="crates/exec/src/lib.rs"
  [par_map_obs]="crates/exec/src/lib.rs"
  [kmeans_exec]="crates/cluster/src/lib.rs"
  [kmeans_sparse_exec]="crates/cluster/src/lib.rs"
  [hac_exec]="crates/cluster/src/lib.rs"
  [cafc_c_exec]="crates/core/src/lib.rs"
  [cafc_ch_exec]="crates/core/src/lib.rs"
  [select_hub_clusters_exec]="crates/core/src/lib.rs"
  [from_shards_exec]="crates/core/src/lib.rs"
  [from_graph_exec]="crates/core/src/lib.rs"
  [generate_sharded_exec]="crates/corpus/src/lib.rs"
)
stage_status=0
decl_re='pub[[:space:]]+(fn[[:space:]]+|use[[:space:]].*[[:space:]]as[[:space:]]+)[a-z0-9_]+_(exec|obs)\b'
while IFS= read -r hit; do
  [[ -z "$hit" ]] && continue
  file=${hit%%:*}
  name=$(grep -oE "(fn|as)[[:space:]]+[a-z0-9_]+_(exec|obs)\b" <<<"${hit#*:*:}" | awk '{print $2}')
  if [[ "${stage_allow[$name]:-}" != "$file" ]]; then
    echo "config-lint: public \`${name}\` outside the allowlist: ${hit}" >&2
    stage_status=1
  fi
done < <(grep -rnE --include='*.rs' "$decl_re" crates tests examples || true)
for name in "${!stage_allow[@]}"; do
  [[ "$name" == par_* ]] && continue
  uses=$(grep -rnw --include='*.rs' "$name" crates tests examples |
    grep -v "^${stage_allow[$name]}:" || true)
  if [[ -n "$uses" ]]; then
    echo "config-lint: hidden forward \`${name}\` used outside its definition:" >&2
    echo "$uses" | sed 's/^/    /' >&2
    stage_status=1
  fi
done
if [[ "$stage_status" -ne 0 ]]; then
  echo "config-lint: FAILED — each stage has one public function taking" >&2
  echo "(…, policy: ExecPolicy, obs: &Obs); call it, not an _exec/_obs name." >&2
  status=1
fi

[[ "$status" -eq 0 ]] && echo "config-lint: OK"
exit "$status"
