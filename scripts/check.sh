#!/usr/bin/env bash
# Tier-1 gate: run before every commit/PR. Fails on formatting drift, vet
# findings, build or test failures, and data races in the packages that run
# on real goroutines (the wall-clock TCP plane) rather than the
# single-threaded virtual-time simulator.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
# The benchmark is its own module (benchmark/go.mod), which ./... above does
# not reach: an API it uses can be removed with everything here still green.
(cd benchmark && go vet ./... && go build -o /dev/null ./...)
# -shuffle surfaces inter-test state leaks (each failure logs the shuffle
# seed for replay); every invocation carries an explicit -timeout so a hung
# test fails the gate in minutes instead of stalling it for go test's
# 10-minute default per package.
go test -shuffle=on -timeout 600s ./...
go test -race -timeout 600s ./music/ ./internal/httpapi/ ./internal/nettrans/ ./cmd/...
# The virtual-time runtime runs one task at a time, but on pooled worker
# goroutines that hand the baton straight to each other: -race checks that
# every handoff is a happens-before edge. Then, by name and 20 times over:
# the pinned schedule (every seeded campaign rests on it), no goroutine
# outliving Run however it ends, abandoned tasks unwound in spawn order, the
# two handoffs that stay on their own goroutine, and sim.Servers — a node's
# CPU — against the worker tasks it replaced (same schedule, same random
# draws). Then the timer heap, which holds only live timers: settled timeouts leave it
# at once, a Servers completion timer survives an early unpark of its
# caller, Stop on a fired or reused event cancels nothing, a reused task
# wakes on none of the tokens of its earlier life, and a deadline hit
# during a park leaves no event behind for the unwind to remove. Last, a
# step against the task it replaces (same schedule, same timers, same
# random draws), and a step that panics or blocks failing Run.
go test -race -timeout 600s ./internal/sim/ ./internal/simnet/
go test -race ./internal/sim/ -run 'TestVirtualScheduleGolden|TestVirtualRunLeavesNoGoroutines|TestVirtualUnwindInSpawnOrder|TestVirtualSelfHandoff|TestServersMatchWorkerTasks|TestSettledTimersLeaveHeap|TestServersCompletionSurvivesEarlyUnpark|TestVirtualTimerStopAfterReuse|TestVirtualStaleWakeAfterTaskReuse|TestVirtualDeadlineThenUnwindWakes|TestStepMatchesTask|TestStepPanicFailsRun|TestStepCannotBlock' -count=20 -timeout 300s
# The simulated plane serves inline handlers in steps and holds them to
# transport.InlineHandler's promise: one that sleeps or awaits fails Run
# with an error naming its service, and one that panics re-raises its
# panic from Run.
go test -race ./internal/simnet/ -run 'TestInlineHandler' -count=3 -timeout 300s
# Simnet's message records are reused while a timed-out call's reply is
# still in flight: a record freed by its caller alone hands one caller's
# reply to another.
go test ./internal/simnet/ -run 'TestRecordReuseAfterTimeout' -count=1 -timeout 300s

# Fault-injection campaign under pinned seeds: the deterministic crash /
# partition / ack-loss scenarios plus the chaos interleavings, re-run with
# a fixed seed list so a schedule regression cannot hide behind seed drift.
MUSIC_FAULT_SEEDS="1,2,3,4,5" go test ./internal/core/ -run 'TestFault|TestChaos' -count=1 -timeout 300s
# Session-layer fault edges of the critical-section fast path: forced
# release / T-expiry refusing the held-value read, the there-and-back
# failover latch, write-behind buffers surviving cross-site failover.
MUSIC_FAULT_SEEDS="1,2,3,4,5" go test ./music/ -run 'TestSessionFault' -count=1 -timeout 300s
# Pinned-seed exploration batch: deterministic randomized fault schedules
# (crash / partition / loss / clock skew) with every history checked against
# the ECF + linearizability rules (internal/history). Same seed-pinning
# rationale as the fault campaign above.
MUSIC_EXPLORE_SEEDS="1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20" \
    go test ./internal/history/explore/ -run 'TestExplorePinnedSeeds' -count=1 -timeout 600s
# Membership-churn campaign under pinned seeds: seeded epoch-change schedules
# (join during a held section, retire of the lockholder's site, replace under
# partition) against live dynamic clusters, every history checked against the
# full ECF rule set including the epoch rules. The nightly churn job runs a
# fresh-seed batch; this pinned subset keeps the local gate deterministic.
MUSIC_MEMBER_SEEDS="1,2,3,4,5,6,7,8,9,10,11,12" \
    go test ./internal/history/explore/ -run 'TestChurnPinnedSeeds' -count=1 -timeout 600s
# A churn violation is only worth its logged seed if the seed replays: each
# pinned churn schedule runs twice in one process and must record the same
# history op for op. Map-order iteration on the reconfiguration path breaks
# that in some runs and not others, so the test runs three times over.
go test ./internal/history/explore/ -run 'TestChurnReplaysFromSeed' -count=3 -timeout 600s
# Adaptive read-plane campaign under pinned seeds: the exploration schedules
# re-run with holder leases and then monitored ONE reads on, so the
# lease-order / lease-window / lease-epoch and monitor-coverage ECF rules
# are certified against real fault schedules (12 pinned seeds x both modes;
# the test also asserts both read paths actually served). The nightly
# adaptive job runs a fresh-seed batch of the same campaign.
MUSIC_EXPLORE_MODES="lease,adaptive" \
    go test ./internal/history/explore/ -run 'TestExploreModesPinnedSeeds' -count=1 -timeout 600s
# Chaosnet campaign under pinned seeds: the same ECF checkers, but over the
# REAL TCP message plane with seed-driven latency / loss / partition / reset
# faults injected into the dial path (internal/chaosnet). The regexp matches
# the single-shard campaign, the sharded one (RunSeedSharded: two processes
# per site, keys routed to their owning shard), and the mode campaign
# (lease + adaptive read planes over the same faults), so the 12 pinned
# seeds run against every deployment. The full 50-seed batch runs in CI's
# chaosnet job and nightly; this subset keeps the local gate fast without
# losing the wire-path coverage.
MUSIC_CHAOSNET_SEEDS="1,2,3,4,5,6,7,8,9,10,11,12" \
    go test ./internal/chaosnet/ -run 'TestChaosnetCampaign' -count=1 -timeout 900s

# Hot-path allocation ceilings: encoding a call frame must not allocate at
# all (pooled buffer, in-place marshal, back-patched length prefixes) and
# decoding may allocate at most once per frame (the svc string). A dropped
# pool or an intermediate payload copy fails here by name instead of hiding
# inside the package test run above.
go test ./internal/nettrans/ -run 'TestAllocCeiling' -count=1 -timeout 300s
# Its simulated counterpart: with observability off, a Multicast round
# allocates only its encoded bytes, its deliveries' decoded copies and the
# result slice. A dropped task or message pool, a closure per delivery, or a
# span name built with tracing off fails here by name.
go test ./internal/simnet/ -run 'TestAllocCeilingMulticast' -count=1 -timeout 300s
# Store/core allocation gates from the sharding work: shard routing is
# alloc-free, critical ops allocate no more on an 8-shard plane than on an
# unsharded one, and the store's disabled-observability hot path stays under
# its pinned per-op ceilings (the span/history nil-guard regression).
go test ./internal/store/ -run 'TestAllocCeilingStoreOps|TestShardOfZeroAlloc' -count=1 -timeout 300s
go test ./internal/core/ -run 'TestShardedSingleKeyNoExtraAllocs' -count=1 -timeout 300s
# The virtual-time plane's ceiling: allocations per section of
# BenchmarkWANSection's shape, simulator and MUSIC stack together.
go test ./internal/bench/ -run 'TestAllocCeilingWANSection' -count=1 -timeout 300s
# And its goroutine hand-offs per section: deliveries to inline handlers,
# replies and multicast legs run as steps. One that becomes a task again
# fails here by name.
go test ./internal/bench/ -run 'TestHandoffCeilingWANSection' -count=1 -timeout 300s
# The lock row's size ceiling, beside the alloc ceilings it is kin to: three
# columns however many lockRefs a key has seen, and a Peek that ships after
# 500 sections what it shipped after one. A reintroduced per-ref column or
# tombstone fails here by name.
go test ./internal/lockstore/ -run 'TestLockRowBounded' -count=1 -timeout 300s
# The push half of the lock handoff, by name for the same reason: a waiter in
# AwaitLock wakes on the dequeue's commit applied at its own replica (handoff
# bounded by the topology on every phase of the poll interval, ≤ 3 polls after
# the release), only the new head is woken, the poll timer still covers what
# no commit announces, a timeout is honoured to the millisecond, and no await
# — granted, timed out, dead, failed over — leaves a watch parked. A wake that
# silently stops firing degrades to polling and would otherwise fail nothing.
go test ./music/ -run 'TestHandoffWakesOnCommit|TestHandoffFallsBackToTimer|TestAwaitLockReturnsAtItsDeadline|TestAwaitLeavesNoWatchBehind|TestAwaitWatchMovesOnFailover' -count=1 -timeout 300s
go test ./internal/store/ -run 'TestWatch' -count=1 -timeout 300s
go test ./internal/lockstore/ -run 'TestWatchWakesOnlyTheNewHead' -count=1 -timeout 300s
go test ./internal/core/ -run 'TestWaiterStateDoesNotLeak' -count=1 -timeout 300s
# The same machinery on real goroutines and sockets: watches armed, fired and
# cancelled from client goroutines while transport goroutines apply commits.
go test -race ./music/ -run 'TestHandoffOverTCPKeepsHoldersDisjoint' -count=3 -timeout 600s
# Why a Handle-registered handler keeps its own goroutine on TCP while the
# store's per-row services run on the connection's read loop: a slow handler
# must not head-of-line block its link, and one that waits for a later
# request on the same link (a call back to its caller) must not deadlock it.
# Both cases fail by name if serveConn ever inlines a Handle registration.
go test -race ./internal/nettrans/ ./internal/simnet/ -run 'TestTransportConformance/(HeadOfLine|ReentrantWait)' -count=3 -timeout 300s
go test ./internal/store/ -run 'TestPerRowServicesRegisterInline' -count=1 -timeout 300s
# The quorum write's late legs: MulticastLate reports a leg still out when
# the quorum returns exactly once — its reply, or ErrTimeout at its
# deadline — on both backends and through the benchmark's counting wrapper;
# the settle/reply-pump race leaves nothing in nettrans's pending table; and
# a straggler black-holed by a chaosnet partition is hinted and handed off
# once the partition heals. Dropping stragglers instead of hinting them
# fails the last one by name.
go test -race ./internal/nettrans/ ./internal/simnet/ -run 'TestTransportConformance/MulticastLate|TestMulticastLateSettleRace' -count=3 -timeout 300s
# The wrapper runs the whole suite: it asserts the suite's traffic was
# booked, and the wrapper does not book MulticastLate.
(cd benchmark && go test -race -run 'TestCountingWrapperConformance(TCP|Simnet)$' -count=3 -timeout 300s .)
go test -race ./internal/chaosnet/ -run 'TestStragglerHandoffOverTCP' -count=3 -timeout 300s

# Experiment smokes: each JSON-emitting musicbench experiment must run end
# to end in quick mode and write a well-formed BENCH_<id>.json. One run per
# experiment id, then every pattern listed for that id must appear in what it
# wrote (the full sweeps gate against the committed baselines in CI's
# bench-gate job). fastpath, scale and readpath run in virtual time, so their
# quick JSON must also equal, byte for byte, the one committed under
# internal/bench/testdata: any change to a schedule or a virtual-time figure
# shows up there as a diff. soak is wall-clock, so grep-only.
#   fastpath   the Table I / session / write-behind rows.
#   soak       restarts and reconfig deploy real musicd OS processes: restarts
#              must prove the SIGKILLed-and-restarted process caught up through
#              the startup state-transfer pull, and reconfig drives
#              join/retire/replace through POST /v1/admin/membership while the
#              workload keeps running (final_epoch 4).
#   scale      shard counts 1 and 4 over the million-key uniform YCSB workload.
#   readpath   all four read planes, with the injected-staleness config
#              actually tripping the monitor.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
ran=
for smoke in \
    'fastpath:"experiment": "fastpath"' \
    'soak:"experiment": "soak"' \
    'soak:"scenario": "restarts"' \
    'soak:"caught_up": true' \
    'soak:"scenario": "reconfig"' \
    'soak:"final_epoch": 4' \
    'scale:"experiment": "scale"' \
    'scale:"shards": "4"' \
    'readpath:"experiment": "readpath"' \
    'readpath:"config": "adaptive_stale"' \
    'readpath:"flipped": true'
do
    id=${smoke%%:*} pattern=${smoke#*:}
    if [ "$id" != "$ran" ]; then
        go run ./cmd/musicbench -exp "$id" -quick -quiet -json "$smoke_dir/$id.json" > /dev/null
        ran=$id
    fi
    grep -q "$pattern" "$smoke_dir/$id.json" || {
        echo "check.sh: $id smoke: $pattern missing from its JSON" >&2
        exit 1
    }
done
for id in fastpath scale readpath; do
    golden=internal/bench/testdata/$id.quick.json
    cmp -s "$smoke_dir/$id.json" "$golden" || {
        echo "check.sh: $id smoke: its quick JSON differs from $golden" >&2
        diff "$golden" "$smoke_dir/$id.json" >&2 || true
        echo "check.sh: if the change is intended, regenerate it with:" >&2
        echo "    go run ./cmd/musicbench -exp $id -quick -quiet -json $golden" >&2
        exit 1
    }
done

echo "check.sh: all green"
