#!/usr/bin/env bash
# Staged tier-1 verification plus lint gate. Run from the repository root.
#
#   ./ci.sh            run every stage (the full pre-merge gate)
#   ./ci.sh <stage>    run one stage: build | test | determinism | cache | persist | dse | fuzz | chaos | bench-smoke
#
# Mirrors .github/workflows/ci.yml, where each CI job runs exactly one
# `./ci.sh <stage>` — keeping local runs and CI the same by construction.
set -euo pipefail

# Compile the workspace and enforce the static gates: clippy, rustfmt, rustdoc.
run_build() {
  echo "==> [build] cargo build --release"
  cargo build --release

  echo "==> [build] cargo build --examples (not covered by plain cargo build)"
  cargo build --examples

  echo "==> [build] cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings

  echo "==> [build] cargo fmt --all -- --check"
  cargo fmt --all -- --check

  echo "==> [build] cargo doc --no-deps (warnings are errors)"
  RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet
}

# Unit, integration, doc and bench-harness tests.
run_test() {
  echo "==> [test] cargo test -q"
  cargo test -q

  echo "==> [test] cargo test --benches -q -- --test (bench smoke run, 1 iteration each)"
  cargo test --benches -q -- --test

  echo "==> [test] cargo test --doc (build + run the documentation examples)"
  cargo test --doc -q
}

# The width of the sweep pool — the only level at which the compiler starts
# threads — must be invisible in the output. `--no-timing` suppresses every
# timing- or machine-dependent line at the source, so the outputs are compared
# byte for byte with no grep filtering.
run_determinism() {
  echo "==> [determinism] hida-opt CLI ablation matrix on TwoMm (one pipeline string per variant)"
  local ablations=(
    "construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance,parallelize"
    "construct,lower,multi-producer-elim,tiling{factor=4},balance,parallelize"
    "construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance"
    "construct,fusion,lower,tiling{factor=4},parallelize"
    "construct,lower,parallelize{max-factor=8,mode=Naive,device=zu3eg}"
  )
  local pipeline
  for pipeline in "${ablations[@]}"; do
    echo "    -> ${pipeline}"
    cargo run --release -q -p hida --bin hida-opt -- \
      --workload two_mm --pipeline "${pipeline}" > /dev/null
  done

  echo "==> [determinism] hida-opt --sweep: --jobs 1 vs --jobs 4 must be byte-identical"
  local sweep_variants sweep1 sweep4
  sweep_variants=$(mktemp /tmp/sweep_variants.XXXXXX.txt)
  cat > "${sweep_variants}" <<'EOF'
construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance,parallelize{max-factor=8,device=zu3eg}
construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance,parallelize{max-factor=16,device=zu3eg}
construct,fusion,lower,multi-producer-elim,tiling{factor=4},balance,parallelize{max-factor=8,device=zu3eg}
construct,lower,parallelize{max-factor=8,mode=Naive,device=zu3eg}
EOF
  sweep1=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${sweep_variants}" --jobs 1 --no-timing)
  sweep4=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${sweep_variants}" --jobs 4 --no-timing)
  if [[ "${sweep1}" != "${sweep4}" ]]; then
    echo "--sweep outputs diverged between --jobs 1 and --jobs 4"
    diff <(echo "${sweep1}") <(echo "${sweep4}") || true
    exit 1
  fi

  # The sweep shares pipeline prefixes between its points; a run of one line
  # alone is a process of its own and shares nothing. Both must report the
  # same QoR for the line.
  echo "==> [determinism] every line of the sweep alone (--pipeline) must report the sweep's QoR for it"
  local line index=0 alone_qor sweep_qor
  while read -r line; do
    index=$((index + 1))
    alone_qor=$(cargo run --release -q -p hida --bin hida-opt -- \
      --workload two_mm --pipeline "${line}" --no-timing | awk '
        /^throughput:/ { throughput = $2 }
        /^resources:/ { printf "  qor: throughput %s samples/s, DSP %s, BRAM-18K %s, LUT %s\n", throughput, $3, $7, $11 }')
    sweep_qor=$(echo "${sweep1}" | grep '^  qor: ' | sed -n "${index}p")
    if [[ -z "${alone_qor}" || "${alone_qor}" != "${sweep_qor}" ]]; then
      echo "line ${index} compiled alone diverged from the sweep: ${line}"
      echo "alone: ${alone_qor}"
      echo "sweep: ${sweep_qor}"
      exit 1
    fi
  done < "${sweep_variants}"

  # The duplicated variant must hit the cross-compilation cache, and the
  # prefix-sharing counters must not depend on the job count.
  local sweep_stats sweep_stats4 prefix1 prefix4
  sweep_stats=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${sweep_variants}" --jobs 1 --stats-json 2> /dev/null)
  if ! echo "${sweep_stats}" | grep -qE '"shared_cache_totals":\{"hits":[1-9]'; then
    echo "hida-opt --sweep reported no cross-compilation cache hits"
    echo "${sweep_stats}"
    exit 1
  fi
  sweep_stats4=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${sweep_variants}" --jobs 4 --stats-json 2> /dev/null)
  prefix1=$(echo "${sweep_stats}" | grep -o '"prefix":{[^}]*}')
  prefix4=$(echo "${sweep_stats4}" | grep -o '"prefix":{[^}]*}')
  if [[ "${prefix1}" != '"prefix":{"passes_run":10,"passes_reused":14,"checkpoints":3}' \
    || "${prefix4}" != "${prefix1}" ]]; then
    echo "prefix-sharing counters are wrong or depend on --jobs: ${prefix1} vs ${prefix4}"
    exit 1
  fi
  rm -f "${sweep_variants}"
}

# In-process caches must actually fire: the per-pass analysis cache and the
# cross-compilation estimate cache of a pooled sweep.
run_cache() {
  echo "==> [cache] analysis cache effectiveness (same ablation twice; both runs must report hits)"
  local attempt out
  for attempt in 1 2; do
    out=$(cargo run --release -q -p hida --bin hida-opt -- \
      --workload two_mm --stats-json)
    if ! echo "${out}" | grep -q '"hits":[1-9]'; then
      echo "run ${attempt}: no analysis cache hits reported"
      echo "${out}" | tail -n 1
      exit 1
    fi
  done

  echo "==> [cache] sweep smoke: reduced-grid fig10 (pooled vs sequential loop)"
  local sweep_json
  sweep_json=$(mktemp /tmp/fig10_sweep.XXXXXX.json)
  cargo run --release -q -p hida-bench --bin fig10_ablation -- \
    --jobs 4 --sweep-json "${sweep_json}" > /dev/null
  if ! grep -q '"qor_identical": true' "${sweep_json}"; then
    echo "pooled sweep QoR diverged from the sequential loop"
    cat "${sweep_json}"
    exit 1
  fi
  # Cross-point cache hits are asserted on a pool-of-1 engine run: with points
  # compiling strictly in order the hit count is deterministic (concurrent
  # points may legitimately race compute-before-publish on a shared entry).
  cargo run --release -q -p hida-bench --bin fig10_ablation -- \
    --jobs 1 --sweep-json "${sweep_json}" > /dev/null
  if ! grep -qE '"shared_cache": \{"hits": [1-9]' "${sweep_json}"; then
    echo "no cross-compilation estimate cache hits reported"
    cat "${sweep_json}"
    exit 1
  fi
  rm -f "${sweep_json}"
}

# The persistent estimate store must carry estimates across *processes*: a
# second fig10 run pointed at the same --cache-dir reports nonzero persistent
# hits and byte-identical QoR, a cold run leaves exactly one segment file and
# a warm run adds none, and a corrupted segment degrades to misses without
# failing the run. The cold run starts over a directory a store-format-1
# build left behind: that segment is what a corrupt one is.
run_persist() {
  echo "==> [persist] fig10 twice, two processes sharing one --cache-dir"
  local cache_dir cold_json warm_json cold_txt warm_txt
  cache_dir=$(mktemp -d /tmp/hida_ci_store.XXXXXX)
  cold_json=$(mktemp /tmp/fig10_sweep_cold.XXXXXX.json)
  warm_json=$(mktemp /tmp/fig10_sweep_warm.XXXXXX.json)
  cold_txt=$(mktemp /tmp/fig10_cold.XXXXXX.txt)
  warm_txt=$(mktemp /tmp/fig10_warm.XXXXXX.txt)

  cp crates/estimator/tests/fixtures/v1/*.seg "${cache_dir}/"
  cargo run --release -q -p hida-bench --bin fig10_ablation -- \
    --jobs 2 --cache-dir "${cache_dir}" --cache-limit-mb 64 \
    --sweep-json "${cold_json}" > "${cold_txt}"
  if ! grep -qE '"persistent_cache": \{"hits": 0, "misses": [1-9][0-9]*, "writes": [1-9]' "${cold_json}"; then
    echo "cold run did not populate the persistent store"
    cat "${cold_json}"
    exit 1
  fi
  # The format-1 segment served nothing (hits 0 above), was counted and
  # removed (one file below), and changed no result.
  if ! grep -q '"corrupt": 1,' "${cold_json}" || ! grep -q '"qor_identical": true' "${cold_json}"; then
    echo "the store-format-1 segment was not counted corrupt, or changed sweep results"
    cat "${cold_json}"
    exit 1
  fi
  # The write path's regression guard, free of timing: one batch, one file.
  local cold_files
  cold_files=$(find "${cache_dir}" -mindepth 1 | sort)
  if [[ $(echo "${cold_files}" | wc -l) -ne 1 || "${cold_files}" != *.seg || ! -f "${cold_files}" ]]; then
    echo "a cold run must leave exactly one segment file in the store, found:"
    echo "${cold_files}"
    exit 1
  fi

  cargo run --release -q -p hida-bench --bin fig10_ablation -- \
    --jobs 2 --cache-dir "${cache_dir}" --cache-limit-mb 64 \
    --sweep-json "${warm_json}" > "${warm_txt}"
  if ! grep -qE '"persistent_cache": \{"hits": [1-9]' "${warm_json}"; then
    echo "warm run reported no persistent store hits (no cross-process reuse)"
    cat "${warm_json}"
    exit 1
  fi
  if [[ "$(find "${cache_dir}" -mindepth 1 | sort)" != "${cold_files}" ]]; then
    echo "a warm run must not write under the store directory, found:"
    find "${cache_dir}" -mindepth 1
    exit 1
  fi

  # The per-point QoR table (parallel_factor, tile, dsp, bram, throughput
  # lines) must be byte-identical between the cold and warm process.
  if ! diff <(grep -E '^[0-9]+, ' "${cold_txt}") <(grep -E '^[0-9]+, ' "${warm_txt}"); then
    echo "warm-process QoR diverged from the cold process"
    exit 1
  fi

  echo "==> [persist] a corrupted store segment must degrade to misses, not fail the run"
  local corrupt_json
  printf 'vandalized' > "${cold_files}"
  corrupt_json=$(mktemp /tmp/fig10_sweep_corrupt.XXXXXX.json)
  cargo run --release -q -p hida-bench --bin fig10_ablation -- \
    --jobs 2 --cache-dir "${cache_dir}" --cache-limit-mb 64 \
    --sweep-json "${corrupt_json}" > /dev/null
  if ! grep -qE '"corrupt": [1-9]' "${corrupt_json}"; then
    echo "corrupted segment was not detected"
    cat "${corrupt_json}"
    exit 1
  fi
  if ! grep -q '"qor_identical": true' "${corrupt_json}"; then
    echo "corrupted store changed sweep results"
    cat "${corrupt_json}"
    exit 1
  fi

  rm -rf "${cache_dir}"
  rm -f "${cold_json}" "${warm_json}" "${cold_txt}" "${warm_txt}" "${corrupt_json}"
}

# The design-space explorer must recover the exhaustive frontier of the
# reduced fig10 grid with strictly fewer compilations — the same exploration
# at any job count, pruning included — and its --no-timing report must be
# byte-identical across job counts for a fixed seed.
run_dse() {
  echo "==> [dse] explorer vs exhaustive fig10 reduced grid (frontier coverage 1.0, >= 1 compile pruned)"
  cargo test -q -p hida --test frontier_props \
    explorer_covers_the_reduced_fig10_frontier_with_fewer_compiles
  cargo test -q -p hida --test frontier_props \
    exploration_with_pruning_is_identical_at_any_job_count

  echo "==> [dse] hida-opt --explore: --jobs 1 vs --jobs 2 vs --jobs 4 must be byte-identical"
  local explore_variants explore1 explore2 explore4
  explore_variants=$(mktemp /tmp/explore_variants.XXXXXX.txt)
  cat > "${explore_variants}" <<'EOF'
explore{seed=7,extras=1}
construct,lower,tiling{factor=2},parallelize{max-factor=1,device=zu3eg}
construct,lower,tiling{factor=2},parallelize{max-factor=4,device=zu3eg}
construct,lower,tiling{factor=2},parallelize{max-factor=16,device=zu3eg}
construct,lower,tiling{factor=8},parallelize{max-factor=1,device=zu3eg}
construct,lower,tiling{factor=8},parallelize{max-factor=4,device=zu3eg}
construct,lower,tiling{factor=8},parallelize{max-factor=16,device=zu3eg}
EOF
  explore1=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --explore "${explore_variants}" --jobs 1 --no-timing)
  explore2=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --explore "${explore_variants}" --jobs 2 --no-timing)
  explore4=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --explore "${explore_variants}" --jobs 4 --no-timing)
  if [[ "${explore1}" != "${explore2}" ]]; then
    echo "--explore outputs diverged between --jobs 1 and --jobs 2"
    diff <(echo "${explore1}") <(echo "${explore2}") || true
    exit 1
  fi
  if [[ "${explore1}" != "${explore4}" ]]; then
    echo "--explore outputs diverged between --jobs 1 and --jobs 4"
    diff <(echo "${explore1}") <(echo "${explore4}") || true
    exit 1
  fi
  rm -f "${explore_variants}"
}

# Differential fuzzing: seeded random affine dataflow workloads pushed through
# random registry pipelines, each case checked against the functional
# interpreter (semantics oracle), the estimator/simulator interval model, and
# the textual round-trip invariant. Failures dump the offending `.hir`.
run_fuzz() {
  echo "==> [fuzz] hida-fuzz differential driver (200 cases, fixed seed)"
  cargo run --release -q -p hida-fuzz -- \
    --cases 200 --seed 20240815 --dump-dir target/fuzz-failures

  echo "==> [fuzz] golden file: --input examples/two_mm.hir must re-emit byte-identically"
  local reemit
  reemit=$(mktemp /tmp/two_mm_reemit.XXXXXX.hir)
  cargo run --release -q -p hida --bin hida-opt -- \
    --input examples/two_mm.hir --no-timing --emit-ir "${reemit}" > /dev/null
  if ! diff examples/two_mm.hir "${reemit}"; then
    echo "examples/two_mm.hir did not survive a parse/re-emit round trip"
    exit 1
  fi
  rm -f "${reemit}"
}

# Fault-isolated compilation: a seeded fault plan must fail exactly the
# planned points with structured reasons, surviving points must be
# byte-identical to a fault-free run at any job count, transient faults must
# converge under --retries, and a stalled point must hit --deadline-ms
# instead of hanging the sweep or the exploration (60s hard guard).
run_chaos() {
  echo "==> [chaos] seeded fault plan over a 4-point TwoMm sweep"
  local variants clean chaos1 chaos4 status
  variants=$(mktemp /tmp/chaos_variants.XXXXXX.txt)
  cat > "${variants}" <<'EOF'
construct,lower,tiling{factor=2},parallelize{max-factor=2,device=zu3eg}
construct,lower,tiling{factor=2},parallelize{max-factor=4,device=zu3eg}
construct,lower,tiling{factor=4},parallelize{max-factor=2,device=zu3eg}
construct,lower,tiling{factor=4},parallelize{max-factor=4,device=zu3eg}
EOF
  clean=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${variants}" --jobs 1 --no-timing)

  local plan="seed=7,pass-panic=1,store-read=1"
  set +e
  chaos1=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${variants}" --jobs 1 --no-timing \
    --inject-faults "${plan}" 2> /dev/null)
  status=$?
  set -e
  if [[ ${status} -eq 0 ]]; then
    echo "a sweep with injected faults exited zero"
    exit 1
  fi
  if ! echo "${chaos1}" | grep -q '^FAILED: 2 of 4 sweep points'; then
    echo "expected exactly the 2 injected faults to fail"
    echo "${chaos1}"
    exit 1
  fi
  if ! echo "${chaos1}" | grep -q 'Panicked' || ! echo "${chaos1}" | grep -q 'StoreDegraded'; then
    echo "failures are missing their structured reasons"
    echo "${chaos1}"
    exit 1
  fi

  echo "==> [chaos] the same plan at --jobs 4 must fail the same points, byte-identically"
  set +e
  chaos4=$(cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${variants}" --jobs 4 --no-timing \
    --inject-faults "${plan}" 2> /dev/null)
  status=$?
  set -e
  if [[ ${status} -eq 0 ]]; then
    echo "the --jobs 4 chaos sweep exited zero"
    exit 1
  fi
  if [[ "${chaos1}" != "${chaos4}" ]]; then
    echo "chaos outputs diverged between --jobs 1 and --jobs 4"
    diff <(echo "${chaos1}") <(echo "${chaos4}") || true
    exit 1
  fi

  echo "==> [chaos] surviving points must be byte-identical to the fault-free run"
  local failed
  failed=$(echo "${chaos1}" | sed -n 's/^FAILED: [0-9]* of [0-9]* sweep points (\(.*\))$/\1/p')
  # Paragraph-mode filter: drop the failed points' report blocks and the
  # FAILED summary, leaving the header and the survivors.
  filter_failed() {
    awk -v RS= -v ORS='\n\n' -v failed="$1" '
      BEGIN { n = split(failed, f, /, /) }
      {
        skip = ($0 ~ /^FAILED:/)
        for (i = 1; i <= n; i++) if ($0 ~ "^point " substr(f[i], 2) ":") skip = 1
        if (!skip) print
      }'
  }
  if ! diff <(echo "${chaos1}" | filter_failed "${failed}") \
            <(echo "${clean}" | filter_failed "${failed}"); then
    echo "surviving points diverged from the fault-free run"
    exit 1
  fi

  echo "==> [chaos] store faults over a --cache-dir: same counters at --jobs 1 and 4, one segment each"
  local jobs store_dir counters first_counters=""
  for jobs in 1 4; do
    store_dir=$(mktemp -d /tmp/hida_chaos_store.XXXXXX)
    set +e
    counters=$(cargo run --release -q -p hida --bin hida-opt -- \
      --workload two_mm --sweep "${variants}" --jobs "${jobs}" --no-timing --stats-json \
      --cache-dir "${store_dir}" --inject-faults "seed=7,short-write=1,store-read=1" \
      2> /dev/null | grep -o '"persistent_cache":{[^}]*}')
    set -e
    if ! echo "${counters}" | grep -q '"writes":[1-9][0-9]*,.*"write_errors":1,"read_errors":1'; then
      echo "store faults at --jobs ${jobs} were not counted as expected: ${counters}"
      exit 1
    fi
    if [[ -n "${first_counters}" && "${counters}" != "${first_counters}" ]]; then
      echo "store counters diverged between --jobs 1 and --jobs 4: ${first_counters} vs ${counters}"
      exit 1
    fi
    first_counters="${counters}"
    if [[ $(find "${store_dir}" -mindepth 1 | wc -l) -ne 1 ]]; then
      echo "the chaos sweep must leave exactly one segment file:"
      find "${store_dir}" -mindepth 1
      exit 1
    fi
    rm -rf "${store_dir}"
  done

  echo "==> [chaos] a transient fault must converge under --retries 1"
  set +e
  cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${variants}" --jobs 2 --no-timing \
    --inject-faults "seed=3,pass-panic=1,transient" --retries 1 > /dev/null 2>&1
  status=$?
  set -e
  if [[ ${status} -ne 0 ]]; then
    echo "a transient fault did not converge under --retries 1"
    exit 1
  fi

  echo "==> [chaos] a stalled point must hit --deadline-ms (60s no-hang guard)"
  local timed
  set +e
  timed=$(timeout 60 cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --sweep "${variants}" --jobs 2 --no-timing \
    --inject-faults "seed=5,stall=1,stall-ms=400" --deadline-ms 50 2> /dev/null)
  status=$?
  set -e
  if [[ ${status} -eq 124 ]]; then
    echo "the stalled sweep hung past the 60s guard"
    exit 1
  fi
  if [[ ${status} -eq 0 ]]; then
    echo "the timed-out point did not fail the sweep"
    exit 1
  fi
  if ! echo "${timed}" | grep -q 'TimedOut'; then
    echo "the stalled point is missing its TimedOut reason"
    echo "${timed}"
    exit 1
  fi

  echo "==> [chaos] --explore lowers under the same deadline: a stalled candidate times out (60s no-hang guard)"
  set +e
  timed=$(timeout 60 cargo run --release -q -p hida --bin hida-opt -- \
    --workload two_mm --explore "${variants}" --jobs 2 --no-timing \
    --inject-faults "seed=5,stall=1,stall-ms=400" --deadline-ms 50 2> /dev/null)
  status=$?
  set -e
  if [[ ${status} -eq 124 ]]; then
    echo "the stalled exploration hung past the 60s guard"
    exit 1
  fi
  if [[ ${status} -eq 0 ]]; then
    echo "the timed-out candidate did not fail the exploration"
    exit 1
  fi
  if ! echo "${timed}" | grep -q '^FAILED: 1 of 4 compiled points' \
    || ! echo "${timed}" | grep -q 'TimedOut'; then
    echo "expected exactly the stalled candidate to time out"
    echo "${timed}"
    exit 1
  fi
  rm -f "${variants}"

  echo "==> [chaos] hida-fuzz --chaos (60 cases: every injected fault must be isolated)"
  cargo run --release -q -p hida-fuzz -- \
    --cases 60 --seed 20240815 --chaos --dump-dir target/fuzz-failures
}

# The repo's benchmark (benchmark/, BENCHMARK.json) must keep building against
# the compiler and pass its own output checks: one-second windows over all
# six workloads, every one reporting `failed 0`. Times mean nothing at this
# window length, but allocation counts repeat exactly: `allocs_per_op` of the
# workloads listed in ci-alloc-ceilings.txt must stay under its ceilings, and
# `dnn-single` must read the same under two seeds.
run_bench_smoke() {
  echo "==> [bench-smoke] benchmark/smoke.sh: every workload must report failed 0"
  bash benchmark/smoke.sh > /dev/null
  local workload
  for workload in dnn-single dnn-jobsN polybench-hir fig10-sweep fig10-store explore-grids; do
    if ! grep -q '"failed": 0,' "benchmark/out/smoke/result-${workload}.json"; then
      echo "benchmark workload ${workload} reported failed checks or ops"
      cat "benchmark/out/smoke/result-${workload}.json"
      exit 1
    fi
  done

  echo "==> [bench-smoke] allocs_per_op must not exceed ci-alloc-ceilings.txt"
  local ceiling allocs
  while read -r workload ceiling; do
    allocs=$(grep -o '"allocs_per_op": {"value": [0-9.]*' \
      "benchmark/out/smoke/result-${workload}.json" | grep -o '[0-9.]*$')
    if ! awk -v allocs="${allocs}" -v ceiling="${ceiling}" \
      'BEGIN { exit !(allocs != "" && allocs + 0 <= ceiling + 0) }'; then
      echo "${workload}: allocs_per_op ${allocs:-missing} exceeds the ceiling ${ceiling}"
      exit 1
    fi
    echo "    ${workload}: ${allocs} <= ${ceiling}"
  done < <(grep -v '^#' ci-alloc-ceilings.txt)

  # "Repeats exactly" is what makes the ceilings a gate rather than a guess:
  # a lone compile must allocate the same whatever order the harness's seed
  # puts its subjects in (a randomly keyed map on the compile path breaks it
  # in the fourth decimal).
  echo "==> [bench-smoke] dnn-single under two seeds: allocs_per_op equal to the last digit"
  local seed previous=""
  for seed in 1 2; do
    bash benchmark/run.sh --workload dnn-single --seed "${seed}" --seconds 1 --trace 0 \
      --out benchmark/out/smoke-seeds > /dev/null
    allocs=$(grep -o '"allocs_per_op": {"value": [0-9.]*' \
      benchmark/out/smoke-seeds/result-dnn-single.json | grep -o '[0-9.]*$')
    echo "    seed ${seed}: ${allocs}"
    if [[ -z "${allocs}" || ( -n "${previous}" && "${allocs}" != "${previous}" ) ]]; then
      echo "dnn-single allocs_per_op differs between seeds: ${previous} vs ${allocs:-missing}"
      exit 1
    fi
    previous="${allocs}"
  done
}

stage="${1:-all}"
case "${stage}" in
  build) run_build ;;
  test) run_test ;;
  determinism) run_determinism ;;
  cache) run_cache ;;
  persist) run_persist ;;
  dse) run_dse ;;
  fuzz) run_fuzz ;;
  chaos) run_chaos ;;
  bench-smoke) run_bench_smoke ;;
  all)
    run_build
    run_test
    run_determinism
    run_cache
    run_persist
    run_dse
    run_fuzz
    run_chaos
    run_bench_smoke
    ;;
  *)
    echo "unknown stage '${stage}' (expected build | test | determinism | cache | persist | dse | fuzz | chaos | bench-smoke | all)"
    exit 2
    ;;
esac

echo "CI OK (${stage})"
