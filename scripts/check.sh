#!/usr/bin/env sh
# Repo-wide hygiene gate: formatting, lints as errors, every crate's tests.
# Run from anywhere; operates on the workspace root.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== no polling sleeps =="
# The per-workflow path waits on events (DESIGN.md §3k): condvars, queue
# close, channel disconnect. A `thread::sleep(` in non-test code of these
# files fails the check unless its line names one of the allowed sites with
# a trailing `// sleep-ok: <site>` marker:
#   failpoint       delay or recovery poll that only runs under an armed
#                   failpoint
#   sampler         the telemetry Sampler's own period
#   accept-backoff  pause after a failed accept(2), so a descriptor shortage
#                   cannot spin
# (`reconnect_sleep` and the chaos-kill timer wait on the run's stop channel
# and need no sleep.)
polling=$(awk '
    FNR == 1 { in_tests = 0 }
    /^mod tests/ { in_tests = 1 }
    !in_tests && /thread::sleep\(/ && !/\/\/ sleep-ok: (failpoint|sampler|accept-backoff)$/ {
        print FILENAME ":" FNR ": " $0
    }
' crates/core/src/appmanager.rs crates/core/src/wfprocessor.rs \
  crates/core/src/execmanager.rs crates/core/src/synchronizer.rs \
  crates/service/src/service.rs crates/observe/src/http.rs)
if [ -n "$polling" ]; then
    echo "$polling"
    echo "polling sleep on the per-workflow path: wake on an event instead"
    exit 1
fi

echo "== cargo test (workspace) =="
# Every crate's unit tests and proptests, not only the facade package and
# the root tests/ that a plain `cargo test` runs.
cargo test --workspace -q

echo "all checks passed"
