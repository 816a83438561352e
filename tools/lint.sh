#!/usr/bin/env bash
# Concurrency-hygiene lint for src/ — the grep-level complement to the
# clang -Wthread-safety build (docs/ANALYSIS.md). Five rules:
#
#   1. No raw std::mutex / std::condition_variable members outside the
#      annotated wrappers in src/common/mutex.h. Raw primitives are
#      invisible to the thread-safety analysis; a lock the analysis cannot
#      see is a lock it cannot check.
#
#   2. No `throw` in the functions that run on scheduler / event-loop /
#      worker threads (the net server's reply push runs on schedulers). An exception escaping one of these threads is
#      std::terminate; error delivery from them is promises and error
#      codes, never throws.
#
#   3. Every file that declares a bt::Mutex member also names
#      BT_GUARDED_BY somewhere — a mutex with no guarded members is either
#      dead weight or (worse) guarding state the analysis doesn't know
#      about.
#
#   4. Every fault point named at a BT_FAULT_* site in src/ is documented
#      in the docs/ROBUSTNESS.md catalog. An undocumented point is
#      invisible to operators writing chaos configs — and to the reviewer
#      deciding whether the injection site is safe.
#
#   5. Every metric name registered against obs::MetricRegistry in src/
#      (the serving.*, net.*, obs.* and cache.* namespaces), and every
#      name in a stats struct's field list (obs::Field{"name", ...},
#      obs/fields.h), is documented in the docs/OBSERVABILITY.md catalog.
#      An undocumented metric is a dashboard nobody can build and a name
#      nobody reviews for collision with the existing namespace.
#
# Exit 0 = clean, 1 = violations (printed per rule). Run from anywhere.
set -u

cd "$(dirname "$0")/.."
fail=0

note() { printf '%s\n' "$*"; }

# ---- rule 1: raw synchronization primitives as members ----------------------
# Member declarations look like "std::mutex name_;" (possibly mutable).
# Local uses of std::unique_lock etc. don't match; common/mutex.h is the one
# allowed home of the raw types.
raw=$(grep -rnE '^[[:space:]]*(mutable[[:space:]]+)?std::(mutex|recursive_mutex|shared_mutex|condition_variable(_any)?)[[:space:]]+[A-Za-z_]' \
      --include='*.h' --include='*.cc' src/ | grep -v '^src/common/mutex.h:')
if [[ -n "$raw" ]]; then
  note "rule 1: raw std::mutex/std::condition_variable member(s) outside"
  note "src/common/mutex.h — use bt::Mutex / bt::CondVar so the"
  note "thread-safety analysis can see the lock:"
  note "$raw"
  fail=1
fi

# ---- rule 2: no throw on scheduler / loop / worker threads -----------------
# Extract each function's body by brace counting from its definition line
# and grep it for throw statements. (Comments mentioning "throw" are fine;
# only "throw " / "throw;" statements match.)
check_nothrow() {
  local file=$1 fn=$2
  local body
  body=$(awk -v fn="$fn" '
    index($0, fn) && !found { found = 1 }
    found {
      print
      n = gsub(/{/, "{"); depth += n
      n = gsub(/}/, "}"); depth -= n
      if (depth <= 0 && saw_open) exit
      if (depth > 0) saw_open = 1
    }' "$file")
  if [[ -z "$body" ]]; then
    note "rule 2: $fn not found in $file (lint out of date?)"
    fail=1
    return
  fi
  local throws
  throws=$(printf '%s\n' "$body" | grep -nE '(^|[^_[:alnum:]])throw([[:space:]]|;)' \
           | grep -vE '^\s*[0-9]+:\s*//')
  if [[ -n "$throws" ]]; then
    note "rule 2: throw in $fn ($file) — this function runs on a"
    note "scheduler/loop thread; an escaping exception is std::terminate:"
    note "$throws"
    fail=1
  fi
}

check_nothrow src/parallel/thread_pool.cc 'ThreadPool::worker_loop'
check_nothrow src/parallel/thread_pool.cc 'ThreadPool::work_on_job'
check_nothrow src/serving/async_engine.cc 'AsyncEngine::scheduler_loop'
check_nothrow src/net/server.cc 'void loop()'
check_nothrow src/net/server.cc 'void push('
check_nothrow src/net/server.cc 'void process_completions()'
check_nothrow src/net/server.cc 'bool handle_readable('
check_nothrow src/net/server.cc 'bool handle_submit('
check_nothrow src/net/server.cc 'bool handle_stats('
check_nothrow src/net/client.cc 'Client::receive_loop'
check_nothrow src/net/client.cc 'Client::retry_loop'

# ---- rule 3: a bt::Mutex member implies BT_GUARDED_BY somewhere -------------
while IFS= read -r file; do
  [[ "$file" == src/common/mutex.h ]] && continue
  if ! grep -q 'BT_GUARDED_BY' "$file"; then
    note "rule 3: $file declares a bt::Mutex member but names no"
    note "BT_GUARDED_BY — annotate what the mutex guards (or delete it)."
    fail=1
  fi
done < <(grep -rlE '^[[:space:]]*(mutable[[:space:]]+)?Mutex[[:space:]]+[A-Za-z_]+_?' \
         --include='*.h' --include='*.cc' src/)

# ---- rule 4: every BT_FAULT_* site names a documented fault point -----------
# Injection sites look like BT_FAULT_THROW("name", ...); the catalog in
# docs/ROBUSTNESS.md carries one `name` entry per point. src/common/fault.h
# is exempt (it defines the macros, it doesn't place points).
points=$(grep -rhoE 'BT_FAULT_[A-Z]+\("[^"]+"' --include='*.h' --include='*.cc' src/ \
         | grep -v 'src/common/fault.h' | sed -E 's/.*\("([^"]+)".*/\1/' | sort -u)
if [[ -n "$points" ]]; then
  if [[ ! -f docs/ROBUSTNESS.md ]]; then
    note "rule 4: BT_FAULT_* sites exist but docs/ROBUSTNESS.md is missing —"
    note "the fault-point catalog must document every injection point."
    fail=1
  else
    while IFS= read -r point; do
      if ! grep -q "\`$point\`" docs/ROBUSTNESS.md; then
        note "rule 4: fault point \"$point\" is injected in src/ but not"
        note "documented in the docs/ROBUSTNESS.md catalog — add a row for it."
        fail=1
      fi
    done <<< "$points"
  fi
fi

# ---- rule 5: every registered metric name is in the observability catalog ---
# Metric names are dotted `serving.*` / `net.*` / `obs.*` / `cache.*`
# string literals handed to obs::MetricRegistry — directly
# (reg.counter("serving.requests.submitted")) or as the literal prefix of
# a composed name ("serving.model." + name). Every such literal in src/ is either a
# metric name/prefix or a fault point, and rule 4 already extracted the
# fault points — subtract them. The registry's own sources (src/obs/)
# define the API, they don't place product metrics, so their doc-comment
# examples are exempt.
metrics=$(grep -rhoE '"(serving|net|obs|cache)\.[a-z0-9_.]+"' \
          --include='*.h' --include='*.cc' --exclude-dir=obs src/ \
          | tr -d '"' | sort -u \
          | grep -vxF -f <(printf '%s\n' "$points"))
if [[ -n "$metrics" ]]; then
  if [[ ! -f docs/OBSERVABILITY.md ]]; then
    note "rule 5: metrics are registered in src/ but docs/OBSERVABILITY.md is"
    note "missing — the metric catalog must document every registered name."
    fail=1
  else
    while IFS= read -r metric; do
      if ! grep -qF "$metric" docs/OBSERVABILITY.md; then
        note "rule 5: metric \"$metric\" is registered in src/ but absent from"
        note "the docs/OBSERVABILITY.md catalog — add a row for it."
        fail=1
      fi
    done <<< "$metrics"
  fi
fi
# Field-list entries (obs::Field{"requests", ...}) are bare suffixes
# published under a runtime prefix: each must appear as `name` or `a.b.name`.
for field in $(grep -rhoE 'Field\{"[a-z0-9_]+"' --include='*.h' --include='*.cc' \
               src/ | cut -d'"' -f2 | sort -u); do
  grep -qE "\`([a-z0-9_.]+\.)?$field\`" docs/OBSERVABILITY.md && continue
  note "rule 5: stats field \"$field\" is in a field list in src/ but absent"
  note "from the docs/OBSERVABILITY.md catalog — document it."
  fail=1
done

if [[ $fail -eq 0 ]]; then
  note "lint: clean (no raw sync members, no scheduler-thread throws,"
  note "every mutex guards annotated state, every fault point and every"
  note "registered metric documented)"
fi
exit $fail
