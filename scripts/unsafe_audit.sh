#!/usr/bin/env bash
# Audit gate: every `unsafe` in library code must carry a safety
# argument. A `SAFETY:` comment (call sites) or a `# Safety` doc
# section (declarations) must appear on the same line or within the
# eight preceding lines of each line containing the `unsafe` keyword.
#
# Six of the nine crates `#![forbid(unsafe_code)]` outright; this
# script polices the remainder (fivm-core, fivm-durability,
# fivm-check), where unsafe is load-bearing in the SSE4.2 CRC and in
# the model checker's instrumented lock and once-cell types (Send/Sync
# impls, UnsafeCell access).
#
# Exits non-zero and prints every violation when the gate fails.
set -u
cd "$(dirname "$0")/.."

fail=0
while IFS=: read -r file line text; do
  [ -n "$file" ] || continue
  # Skip lint-attribute tokens (`forbid(unsafe_code)`,
  # `unsafe_op_in_unsafe_fn`) and mentions inside `//` comments.
  stripped=$(printf '%s' "$text" | sed 's|//.*||; s|unsafe_code||g; s|unsafe_op_in_unsafe_fn||g')
  printf '%s' "$stripped" | grep -q 'unsafe' || continue
  start=$((line - 8))
  [ "$start" -lt 1 ] && start=1
  if ! sed -n "${start},${line}p" "$file" | grep -q 'SAFETY\|# Safety'; then
    echo "unsafe_audit: $file:$line: unsafe without a SAFETY comment or '# Safety' doc section" >&2
    fail=1
  fi
done < <(grep -rn 'unsafe' crates/*/src --include='*.rs')

if [ "$fail" -ne 0 ]; then
  echo "unsafe_audit: FAILED" >&2
  exit 1
fi
echo "unsafe_audit: OK"
