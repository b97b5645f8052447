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
# close, channel disconnect; the simulator engine on commands and credit
# releases, its pace on a deadline. A `thread::sleep(` in non-test code of these
# files fails the check unless its line names one of the allowed sites with
# a trailing `// sleep-ok: <site>` marker:
#   failpoint       delay or recovery poll that only runs under an armed
#                   failpoint
#   sampler         the telemetry Sampler's own period
#   accept-backoff  pause after a failed accept(2), so a descriptor shortage
#                   cannot spin
# (The chaos-kill timer waits on the run's stop channel and needs no sleep.)
polling=$(awk '
    FNR == 1 { in_tests = 0 }
    /^mod tests/ { in_tests = 1 }
    !in_tests && /thread::sleep\(/ && !/\/\/ sleep-ok: (failpoint|sampler|accept-backoff)$/ {
        print FILENAME ":" FNR ": " $0
    }
' crates/core/src/appmanager.rs crates/core/src/wfprocessor.rs \
  crates/core/src/execmanager.rs crates/core/src/synchronizer.rs \
  crates/service/src/service.rs crates/observe/src/http.rs \
  crates/sim/src/engine.rs crates/rts/src/sim_runtime.rs)
if [ -n "$polling" ]; then
    echo "$polling"
    echo "polling sleep on the per-workflow path: wake on an event instead"
    exit 1
fi

echo "== no timed broker fetches =="
# The sleep rule cannot see a fetch that wakes on a timer: a
# `get_batch(`/`get_timeout(` call whose timeout can fire is a poll loop
# just the same. In non-test code of the core loops every such call must
# wait `UNTIL_CLOSED` — it ends when a message arrives or tear-down closes
# its queue. The call's text is read up to its closing parenthesis, so a
# call split over several lines is judged whole.
timed=$(awk '
    FNR == 1 { in_tests = 0; depth = 0 }
    /^mod tests/ { in_tests = 1 }
    in_tests { next }
    depth == 0 && /get_(batch|timeout)\(/ {
        call = ""; at = FILENAME ":" FNR
        line = substr($0, match($0, /get_(batch|timeout)\(/))
        depth = -1
    }
    depth != 0 {
        if (depth < 0) { depth = 0 } else { line = $0 }
        for (i = 1; i <= length(line); i++) {
            c = substr(line, i, 1)
            call = call c
            if (c == "(") depth++
            if (c == ")" && --depth == 0) break
        }
        if (depth == 0 && call !~ /UNTIL_CLOSED/) print at ": " call
    }
' crates/core/src/appmanager.rs crates/core/src/wfprocessor.rs \
  crates/core/src/execmanager.rs crates/core/src/synchronizer.rs)
if [ -n "$timed" ]; then
    echo "$timed"
    echo "timed broker fetch on the per-workflow path: wait UNTIL_CLOSED instead"
    exit 1
fi

echo "== no timed waits in the ExecManager =="
# An RTS announces a pilot's end on its pilot-end stream and its own death
# by disconnecting it, so the RTS Callback thread that runs the Heartbeat's
# recovery blocks on those streams and the run's stop channel: nothing in
# the ExecManager wakes on a timer to look. A `recv_timeout(` call in
# non-test code of crates/core/src/execmanager.rs fails the check.
ticking=$(awk '
    FNR == 1 { in_tests = 0 }
    /^mod tests/ { in_tests = 1 }
    !in_tests && /recv_timeout\(/ { print FILENAME ":" FNR ": " $0 }
' crates/core/src/execmanager.rs)
if [ -n "$ticking" ]; then
    echo "$ticking"
    echo "timed wait in the ExecManager: block on the RTS's streams instead"
    exit 1
fi

echo "== no trace re-reads on the run path =="
# A run's report is folded as its spans close (DESIGN.md, "Fig. 7 from
# traces"); re-reading the recorder copies and sorts every event it holds,
# and a service's sessions share one recorder, so a per-run re-read costs
# time quadratic in the workflows served. A `recorder.snapshot(` or
# `recorder().snapshot(` call in non-test code of core or the service fails
# the check; reading an exported trace is for tests, benches and offline
# tools. Histogram `.snapshot()` calls do not match.
rereads=$(awk '
    FNR == 1 { in_tests = 0 }
    /^mod tests/ { in_tests = 1 }
    !in_tests && /recorder(\(\))?\.snapshot\(/ { print FILENAME ":" FNR ": " $0 }
' crates/core/src/*.rs crates/service/src/*.rs)
if [ -n "$rereads" ]; then
    echo "$rereads"
    echo "trace re-read on the run path: fold the value as its span closes instead"
    exit 1
fi

echo "== no headers on the core data path =="
# Pending messages are typed payloads (crates/core/src/messages.rs): a
# header costs a map node and two strings to build and the same again each
# time the broker clones the message, on every task. A
# `with_header(` call in non-test code of the core message and loop files
# fails the check; the trace context rides through `Message::with_trace`.
headers=$(awk '
    FNR == 1 { in_tests = 0 }
    /^mod tests/ { in_tests = 1 }
    !in_tests && /with_header\(/ { print FILENAME ":" FNR ": " $0 }
' crates/core/src/messages.rs crates/core/src/wfprocessor.rs \
  crates/core/src/execmanager.rs crates/core/src/synchronizer.rs \
  crates/core/src/appmanager.rs)
if [ -n "$headers" ]; then
    echo "$headers"
    echo "header on the core data path: carry the field in the typed payload instead"
    exit 1
fi

echo "== state transitions are function calls =="
# A component's sync batch is applied on its own thread under the workflow
# lock (DESIGN.md §1, arrows 6–7): the run queues are not durable, and the
# requester waits for the whole answer, so a queue hop or a thread of the
# Synchronizer's own would add a layer and do no work. A `broker`
# reference, `thread::spawn` or `Builder::new()` in non-test, non-comment
# code of crates/core/src/synchronizer.rs fails the check.
hopped=$(awk '
    FNR == 1 { in_tests = 0 }
    /^mod tests/ { in_tests = 1 }
    !in_tests && !/^[ \t]*\/\// && /broker|thread::spawn|Builder::new\(\)/ {
        print FILENAME ":" FNR ": " $0
    }
' crates/core/src/synchronizer.rs)
if [ -n "$hopped" ]; then
    echo "$hopped"
    echo "queue hop or thread in the Synchronizer: apply the batch on the requesting thread"
    exit 1
fi

echo "== attempts settle where they end =="
# The RTS Callback thread that receives an attempt's end applies Dequeue's
# verdicts itself, and the Heartbeat's Lost sweep is settled the same way
# (DESIGN.md §1): the run queues are not durable, so a Done queue between
# them would add a publish, a fetch, an ack and a thread hand-off per task
# and do no work. A `get_batch(` in non-test code of
# crates/core/src/wfprocessor.rs, or a `publish(` / `publish_batch(` in
# non-test code of crates/core/src/execmanager.rs, fails the check.
requeued=$(awk '
    FNR == 1 { in_tests = 0 }
    /^mod tests/ { in_tests = 1 }
    !in_tests && FILENAME ~ /wfprocessor/ && /get_batch\(/ { print FILENAME ":" FNR ": " $0 }
    !in_tests && FILENAME ~ /execmanager/ && /publish(_batch)?\(/ { print FILENAME ":" FNR ": " $0 }
' crates/core/src/wfprocessor.rs crates/core/src/execmanager.rs)
if [ -n "$requeued" ]; then
    echo "$requeued"
    echo "attempt handed to a queue: settle it on the thread that receives it"
    exit 1
fi

echo "== no broker journal on the run path =="
# Run queues are not durable (DESIGN.md §1): a broker journal under a run or
# the service records nothing, and recovery reads only the service journal
# and the per-submission task journals. In non-test code of core and the
# service, a `recover_with_config(` call, or a `BrokerConfig { .. }` literal
# that sets `journal_path`, fails the check. The literal is read up to its
# closing brace, so one split over several lines is judged whole;
# `AppManagerConfig::journal_path` (the state journal) is not a broker field.
journaled=$(awk '
    FNR == 1 { in_tests = 0; depth = 0 }
    /^mod tests/ { in_tests = 1 }
    in_tests { next }
    /recover_with_config\(/ { print FILENAME ":" FNR ": " $0 }
    depth == 0 && /BrokerConfig[ ]*\{/ {
        lit = ""; at = FILENAME ":" FNR
        line = substr($0, match($0, /BrokerConfig[ ]*\{/))
        depth = -1
    }
    depth != 0 {
        if (depth < 0) { depth = 0 } else { line = $0 }
        for (i = 1; i <= length(line); i++) {
            c = substr(line, i, 1)
            lit = lit c
            if (c == "{") depth++
            if (c == "}" && --depth == 0) break
        }
        if (depth == 0 && lit ~ /journal_path/) print at ": " lit
    }
' crates/core/src/*.rs crates/service/src/*.rs)
if [ -n "$journaled" ]; then
    echo "$journaled"
    echo "broker journal on the run path: run queues are not durable, keep state in the service and task journals"
    exit 1
fi

echo "== the agent writes in bulk =="
# The RTS agent applies each drained batch of engine events under one state
# lock and records every unit transition of the batch with one
# `DocDb::update_states` round trip (DESIGN.md §3e), as RP's agent works
# against MongoDB in bulk. A single-document `.update_state(` call in
# non-test code of crates/rts/src/sim_runtime.rs fails the check.
single=$(awk '
    FNR == 1 { in_tests = 0 }
    /^mod tests/ { in_tests = 1 }
    !in_tests && /\.update_state\(/ { print FILENAME ":" FNR ": " $0 }
' crates/rts/src/sim_runtime.rs)
if [ -n "$single" ]; then
    echo "$single"
    echo "single-document write in the agent: queue it on the batch's bulk update_states instead"
    exit 1
fi

echo "== id maps keep id order =="
# Units, tasks, jobs, stages and pilots are numbered 0, 1, 2, … and a wide
# stage handles them together: keyed by `hpc_sim::IdMap`, consecutive ids
# sit in consecutive buckets (DESIGN.md §3e), where the default SipHash
# scatters them over the whole table. A `HashMap<UnitId|TaskId|JobId|
# StageId|PilotId, …>` in non-test code of crates/{rts,sim}/src fails the
# check.
scattered=$(awk '
    FNR == 1 { in_tests = 0 }
    /^mod tests/ { in_tests = 1 }
    !in_tests && /HashMap<[ ]*([A-Za-z_]+::)*(UnitId|TaskId|JobId|StageId|PilotId)[ ]*,/ {
        print FILENAME ":" FNR ": " $0
    }
' crates/rts/src/*.rs crates/sim/src/*.rs)
if [ -n "$scattered" ]; then
    echo "$scattered"
    echo "default-hasher map keyed by a sequential id: use hpc_sim::IdMap instead"
    exit 1
fi

echo "== cargo test (workspace) =="
# Every crate's unit tests and proptests, not only the facade package and
# the root tests/ that a plain `cargo test` runs.
cargo test --workspace -q

echo "all checks passed"
