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
# coroutines (iter.Pull) that Run's goroutine resumes one after another:
# -race checks that every switch is a happens-before edge. Then, by name and
# 20 times over: the pinned schedule (every seeded campaign rests on it), no
# goroutine outliving Run however it ends (a task's Goexit ending Run's
# caller once every task is unwound among them), abandoned tasks unwound in
# spawn order and a panic on the way out re-raised, the two continuations
# that stay on their own worker and count no handoff, and sim.Servers — a
# node's CPU — against the worker tasks it replaced (same schedule, same
# random draws). Then the timer heap, which holds only live timers: settled
# timeouts leave it at once, a Servers completion timer survives an early
# unpark of its caller, a reused task wakes on none of the tokens of its
# earlier life, and a deadline hit during a park leaves no event behind for
# the unwind to remove. Last, a step against the task it replaces (same
# schedule, same timers, same random draws), and a step that panics or
# blocks failing Run.
go test -race -timeout 600s ./internal/sim/ ./internal/simnet/
go test -race ./internal/sim/ -run 'TestVirtualScheduleGolden|TestVirtualRunLeavesNoGoroutines|TestVirtualUnwindInSpawnOrder|TestVirtualUnwindPanicReraised|TestVirtualSelfHandoff|TestServersMatchWorkerTasks|TestSettledTimersLeaveHeap|TestServersCompletionSurvivesEarlyUnpark|TestVirtualStaleWakeAfterTaskReuse|TestVirtualDeadlineThenUnwindWakes|TestStepMatchesTask|TestStepPanicFailsRun|TestStepCannotBlock' -count=20 -timeout 300s
# The simulated plane serves inline handlers in steps and holds them to
# transport.InlineHandler's promise: one that sleeps or awaits fails Run
# with an error naming its service, and one that panics re-raises its
# panic from Run. And a request or reply a handler or caller keeps is its
# own: message records encode into buffers they reuse, and a decode that
# aliased one would change a kept value under the next message.
go test -race ./internal/simnet/ -run 'TestInlineHandler|TestDecodedValuesOutliveRecords' -count=3 -timeout 300s
# The wire's registry — codecs, error codes and the decoding vocabulary —
# freezes at the first encode or decode: Intern, Register or RegisterError
# after it panics, the first lookups of every table race to freeze it and
# lookups and decodes from many goroutines read it without a lock, cleanly
# under -race; and no decoded value shares bytes with its input
# (FuzzUnmarshal's seed corpus, one message per vocabulary name among them).
go test -race ./internal/wire/ -run 'TestInternAfterDecodePanics|TestVocabularyConcurrentDecodes|TestRegistryConcurrentLookups|FuzzUnmarshal' -count=3 -timeout 300s
# Simnet's message records are reused while a timed-out call's reply is
# still in flight: a record freed by its caller alone hands one caller's
# reply to another.
go test ./internal/simnet/ -run 'TestRecordReuseAfterTimeout' -count=1 -timeout 300s
# Every public knob earns its place: each field of an exported *Config,
# *Options or *Policy struct is set by a non-test file outside its package,
# and each exported music.With* option is called by one, or it has an
# allowlist line with its reason. A test-only knob fails here by name.
go test ./internal/knobs/ -count=1 -timeout 300s

# Fault-injection campaign under pinned seeds: the deterministic crash /
# partition / ack-loss scenarios plus the chaos interleavings, re-run with
# a fixed seed list so a schedule regression cannot hide behind seed drift.
MUSIC_FAULT_SEEDS="1,2,3,4,5" go test ./internal/core/ -run 'TestFault|TestChaos' -count=1 -timeout 300s
# Session-layer fault edges of the critical-section fast path: forced
# release / T-expiry refusing the held-value read, the there-and-back
# failover latch, write-behind buffers surviving cross-site failover.
MUSIC_FAULT_SEEDS="1,2,3,4,5" go test ./music/ -run 'TestSessionFault' -count=1 -timeout 300s
# Adaptive reads own their monitor: clusters sharing a history recorder
# share one, built by NewOverTransport, and a stale weak read at a site
# starts exactly one repair read, registered by the cluster hosting it.
go test ./music/ -run 'TestClustersShareOneMonitor|TestAdaptiveReadsNeedHistory' -count=1 -timeout 300s
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
# allocates only its deliveries' decoded copies and the result slice. A
# dropped task or message pool, a fresh encode buffer per message, a closure
# per delivery, or a span name built with tracing off fails here by name.
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
# And its hand-offs between worker coroutines per section: deliveries to
# inline handlers, replies and multicast legs run as steps. One that becomes
# a task again fails here by name.
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
# A reply whose caller stopped waiting is dropped before its payload is
# decoded: the reply pump claims the pending entry first, and owes a result
# only once it has.
go test -race ./internal/nettrans/ -run 'TestStragglerReplyNotDecoded' -count=3 -timeout 300s
# The wrapper runs the whole suite: it asserts the suite's traffic was
# booked, and the wrapper does not book MulticastLate.
(cd benchmark && go test -race -run 'TestCountingWrapperConformance(TCP|Simnet)$' -count=3 -timeout 300s .)
go test -race ./internal/chaosnet/ -run 'TestStragglerHandoffOverTCP' -count=3 -timeout 300s

# Every virtual-time experiment is byte-gated by internal/bench's
# TestQuickGoldens, which the full test run above includes: its quick text
# must equal internal/bench/testdata/<id>.quick.txt, and the JSON of
# fastpath, scale and readpath their <id>.quick.json.
#
# soak is wall-clock, so it gets a smoke instead: it must run end to end in
# quick mode and write a BENCH_soak.json in which every pattern below
# appears. restarts and reconfig deploy real musicd OS processes: restarts
# must prove the SIGKILLed-and-restarted process caught up through the
# startup state-transfer pull, and reconfig drives join/retire/replace
# through POST /v1/admin/membership while the workload keeps running
# (final_epoch 4).
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
go run ./cmd/musicbench -exp soak -quick -quiet -json "$smoke_dir/soak.json" > /dev/null
for pattern in \
    '"experiment": "soak"' \
    '"scenario": "restarts"' \
    '"caught_up": true' \
    '"scenario": "reconfig"' \
    '"final_epoch": 4'
do
    grep -q "$pattern" "$smoke_dir/soak.json" || {
        echo "check.sh: soak smoke: $pattern missing from its JSON" >&2
        exit 1
    }
done

echo "check.sh: all green"
