# lsds build/verify entry points. `make tier1` is the gate CI runs.

GO ?= go
TRACE_OUT ?= /tmp/lsds_trace_e5.json
CKPT_OUT ?= /tmp/lsds_phold.ckpt

.PHONY: all build test tier1 vet nogob race bench fuzz loc trace-smoke checkpoint-smoke chaos-smoke dist-smoke obs-smoke balance-smoke crash-smoke threads-smoke clean

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet: nogob
	$(GO) vet ./...

# nogob keeps encoding/gob out of every package's dependency closure:
# all codecs here are explicit (internal/checkpoint), and reflection-
# based encoding must not creep back onto a hot path.
nogob:
	@deps=$$($(GO) list -deps ./...) || exit 1; \
	if echo "$$deps" | grep -qx encoding/gob; then \
		echo "nogob: encoding/gob is back in the dependency closure" >&2; exit 1; fi

# Race-check the packages with real concurrency: the windowed-sync
# kernel and its two transports (the parallel federation and the
# TCP-distributed engine), the shared execution pool,
# the fault injector, the engine they drive, the
# optimistic/checkpoint layers they build on, and the fluid fabric and
# host resources whose blocking Send/Run hand control between process
# goroutines. The pool runs ten times over: a switch from inline to
# dispatched Runs finds its goroutines parked or still on their way
# there, and which of the two is a matter of timing.
race:
	$(GO) test -race ./internal/winsync/... ./internal/parsim/... ./internal/des/... ./internal/distsim/... ./internal/chaos/... ./internal/optsim/... ./internal/checkpoint/... ./internal/netsim/... ./internal/resources/...
	$(GO) test -race -count=10 ./internal/pool/...

# tier1 is the acceptance gate: build + full tests, plus vet and the
# race detector over the concurrent packages.
tier1: build test vet race

bench:
	$(GO) test -bench 'E3|PHOLD|Federation|ScheduleExecute' -benchmem -run '^$$' ./...

# Short fuzz pass over the wire codec, the coordinator's two durable
# formats (journal replay, cluster checkpoint) and the kernel's event
# codec (op arguments, LP images, frame events): arbitrary bytes must
# decode to an error or a valid value — never a panic or an absurd
# allocation.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalFrame -fuzztime 10s ./internal/distsim/
	$(GO) test -run '^$$' -fuzz FuzzParseJournal -fuzztime 10s ./internal/distsim/
	$(GO) test -run '^$$' -fuzz FuzzDecodeClusterCheckpoint -fuzztime 10s ./internal/distsim/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEvent -fuzztime 10s ./internal/winsync/

# Go line counts, non-test and test, per internal/* package and for
# the whole module: the number a simplifying PR reports going down.
loc:
	@count() { n=$$(cat /dev/null "$$@" | wc -l); echo $$n; }; \
	printf '%-24s %9s %9s\n' package non-test test; \
	for d in internal/*/; do \
		printf '%-24s %9s %9s\n' $${d%/} \
			$$(count $$(find $$d -name '*.go' ! -name '*_test.go')) \
			$$(count $$(find $$d -name '*_test.go')); \
	done; \
	printf '%-24s %9s %9s\n' 'module (bench/ apart)' \
		$$(count $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*')) \
		$$(count $$(find . -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*'))

# trace-smoke runs a quick traced E5 federation and validates the
# Chrome trace output: ObserveE5 re-reads the written file through a
# strict JSON parser and fails if it does not parse or is missing
# tracks, so this target is a true end-to-end check of the exporter.
trace-smoke:
	$(GO) run ./cmd/experiments -quick -trace $(TRACE_OUT)
	rm -f $(TRACE_OUT)

# checkpoint-smoke is the end-to-end fault-tolerance check: a PHOLD run
# is checkpointed at a window barrier, resumed in a second process, and
# -verify replays the whole run uninterrupted and fails on any
# divergence; then the kill-a-worker recovery e2e runs under -race.
checkpoint-smoke:
	$(GO) run ./cmd/lssim -sim phold -checkpoint $(CKPT_OUT)
	$(GO) run ./cmd/lssim -sim phold -resume $(CKPT_OUT) -verify
	rm -f $(CKPT_OUT)
	$(GO) test -race -count=1 -run 'TestKillWorkerMidWindowRecovers|TestCoordinatorFileResume' ./internal/distsim/

# chaos-smoke is the end-to-end robustness check: a 100-window
# distributed PHOLD run over real TCP with 5% of all messages dropped
# in both directions plus two scripted connection resets (forced
# session-resume reconnects), where -verify replays the run fault-free
# in a single process and fails on any divergence — the wire may burn,
# the answer may not change. The chaos unit suite then runs under
# -race.
chaos-smoke:
	$(GO) run ./cmd/lssim -sim distphold -horizon 100 \
		-chaos-seed 4 -chaos-drop 0.05 -chaos-reset-at 9,23 -verify
	$(GO) test -race -count=1 ./internal/chaos/

# dist-smoke is the end-to-end check of the pipelined window engine:
# a dense distributed PHOLD run and a sparse one with window skipping
# enabled, each -verify'd bit-identical against the single-process
# reference, then the skipping + pooled-wire suites under -race.
dist-smoke:
	$(GO) run ./cmd/lssim -sim distphold -horizon 100 -verify
	$(GO) run ./cmd/lssim -sim distphold -horizon 400 -jobs 2 \
		-delay-factor 64 -skip-idle -verify
	$(GO) test -race -count=1 \
		-run 'TestSparseSkip|TestSkipCheckpointResumeAcrossGap|TestPooledWireZeroAlloc' \
		./internal/distsim/

# obs-smoke is the end-to-end check of cluster observability: a
# chaos-faulted 4-worker distphold run with full telemetry on —
# -trace writes the merged Perfetto timeline (validated in-process by
# the strict re-parser before it hits disk), -metrics-addr brings up
# the live JSON endpoint (self-probed after the run), -histo prints
# cluster histograms, and -verify pins the run bit-identical to the
# fault-free single-process reference — observability changes no
# output bit. The obs suites then run under -race.
obs-smoke:
	$(GO) run ./cmd/lssim -sim distphold -horizon 100 -workers 4 \
		-chaos-seed 7 -chaos-drop 0.03 -chaos-reset-at 11 \
		-trace $(TRACE_OUT) -metrics-addr 127.0.0.1:0 -histo -verify
	rm -f $(TRACE_OUT)
	$(GO) test -race -count=1 \
		-run 'TestClusterObs|TestStatsIncomplete|TestObsPiggybackZeroAlloc|TestMergeTracks|TestHistogramDelta|TestServeMetrics' \
		./internal/distsim/ ./internal/obs/ ./internal/monitoring/

# balance-smoke is the end-to-end check of adaptive partitioning: a
# skewed distributed PHOLD run (both hot LPs start on worker 0) with
# -rebalance must migrate LPs mid-run yet stay -verify'd bit-identical
# to the single-process reference; the same run then repeats with two
# scripted connection resets, forcing session resume to replay
# migration frames under chaos. The e2e suites cover rollback recovery
# across a migration and checkpoint file resume into the migrated
# layout, under -race.
balance-smoke:
	$(GO) run ./cmd/lssim -sim distphold -horizon 24 \
		-skew-hot 2 -skew 4 -rebalance -rebalance-every 2 -verify
	$(GO) run ./cmd/lssim -sim distphold -horizon 24 \
		-skew-hot 2 -skew 4 -rebalance -rebalance-every 2 \
		-chaos-seed 4 -chaos-reset-at 9,23 -verify
	$(GO) test -race -count=1 \
		-run 'TestRebalanceUnderChaos|TestRebalanceRecoveryAcrossMigration|TestRebalanceFileResumeAcrossMigration' \
		./internal/distsim/

# crash-smoke is the end-to-end proof that the coordinator is no
# longer a single point of failure: a three-process distributed run has
# its coordinator killed -9 mid-flight, a fresh coordinator process
# restarts from the durable control-plane journal and re-adopts the
# parked workers, and -verify pins the finished run bit-identical to a
# single-process replay. The crash-restart, park give-up, and
# heartbeat-vs-partition suites then run under -race (the race target
# also covers them wholesale via ./internal/distsim/...).
crash-smoke:
	bash scripts/crash_smoke.sh
	$(GO) test -race -count=1 \
		-run 'TestCrashRestart|TestWorkerParkGiveUp|TestPartition|TestJournal' \
		./internal/distsim/

# threads-smoke is the end-to-end check of multicore workers: a
# two-worker distributed PHOLD run with a 4-goroutine execution pool
# inside each worker must be -verify'd bit-identical to the
# single-process reference — per-LP sends are buffered thread-locally
# and merged in canonical order at the barrier, so the pool changes no
# output bit. The same holds with skew + live rebalancing + scripted
# connection resets stacked on top. The pool package and the threads
# e2e suites (dense, sparse skip, chaos, checkpoint resume, migration,
# crash-restart, heartbeat liveness) then run under -race.
threads-smoke:
	$(GO) run ./cmd/lssim -sim distphold -horizon 100 -workers 2 -threads 4 -verify
	$(GO) run ./cmd/lssim -sim distphold -horizon 24 -workers 2 -threads 4 \
		-skew-hot 2 -skew 4 -rebalance -rebalance-every 2 \
		-chaos-seed 4 -chaos-reset-at 9 -verify
	$(GO) test -race -count=1 ./internal/pool/
	$(GO) test -race -count=1 -run 'TestThreads' ./internal/distsim/

clean:
	$(GO) clean ./...
