# lsds build/verify entry points. `make tier1` is the gate CI runs.

GO ?= go
export GO

.PHONY: all build test tier1 vet race bench fuzz loc smoke clean

all: tier1

# lsbench is a module of its own, so ./... skips it; it reads internal
# APIs, and a change that breaks it should fail here, not in the bench.
build:
	$(GO) build ./...
	$(GO) build -C bench/lsbench -o /dev/null .

# An explicit -timeout: a wedged cluster test fails in minutes, with its
# stacks, instead of at the 10-minute default. The cluster's fault
# matrix and sweeps run twice more: a heal whose outcome hangs on
# goroutine scheduling rather than on the scripted clock fails here.
# lsbench's own tests run last: ./... skips its module, and a change to
# the internal APIs it reads may break them without breaking its build.
test:
	$(GO) test -timeout 5m ./...
	$(GO) test -timeout 5m -count=3 -run 'TestFaultMatrix|Sweep' ./internal/distsim/
	$(GO) test -C bench/lsbench ./...

# vet first fails on any tracked Go file gofmt would rewrite, naming it.
vet:
	@files=$$(git ls-files '*.go') || exit 1; \
	unformatted=$$("$$($(GO) env GOROOT)/bin/gofmt" -l $$files) || exit 1; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists (run gofmt -w on them):"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) vet -C bench/lsbench ./...

# Race-check the packages with real concurrency: the windowed-sync
# kernel and its two transports (the parallel federation and the
# TCP-distributed engine), the shared execution pool, the chaos
# injector, the engine they drive, the optimistic/checkpoint layers
# they build on, and the fluid fabric and host resources whose blocking
# Send/Run hand control between process goroutines, as do
# replication's blocking Access, the cluster's blocking Run, the models
# that spawn processes (scheduler, simulators, dag, p2p) and the
# injector that crashes their clusters (faults), the telemetry
# layers the cluster folds concurrently (obs, monitoring), and the
# commands' front door, whose in-process phold federation is observed
# with every window dispatched. The pool and the kernel run ten times over: a
# switch from inline to dispatched Runs finds the pool's goroutines
# parked or still on their way there, and which of the two is a matter
# of timing; the kernel's due list is written by the caller and read by
# the pool threads of each window, and its array of engine head bounds
# is written by the pool threads (one slot per LP) and scanned by the
# caller between windows.
race:
	$(GO) test -race -timeout 5m ./internal/parsim/... ./internal/des/... ./internal/distsim/... ./internal/chaos/... ./internal/optsim/... ./internal/checkpoint/... ./internal/netsim/... ./internal/resources/... ./internal/replication/... ./internal/obs/... ./internal/monitoring/... ./internal/scheduler/... ./internal/simulators/... ./internal/dag/... ./internal/p2p/... ./internal/faults/... ./cmd/internal/front/...
	$(GO) test -race -timeout 5m -count=10 ./internal/pool/... ./internal/winsync/...

# tier1 is the acceptance gate: build + full tests, plus vet and the
# race detector over the concurrent packages.
tier1: build test vet race

bench:
	$(GO) test -bench 'E3|PHOLD|Federation|MessagePath|ScheduleExecute|Hold$$|ProcessContextSwitch|ResourceAcquire|NetworkBacklog|DistWindow' -benchmem -run '^$$' ./...
	$(GO) test -bench 'E7TierStudy/lsbench' -benchmem -run '^$$' .

# Short fuzz pass over the wire codec, the coordinator's two durable
# formats (journal replay, cluster checkpoint), its fold of a worker's
# obs snapshot, the kernel's event codec (LP images, frame events), its
# LP images adopted whole and the record tables' state: arbitrary bytes
# must decode to an error or a valid value — never a panic or an absurd
# allocation — an adopted image must extract to the same bytes, and a
# restored table must append the bytes it read.
# Last, arbitrary push/pop/peek/replace-min sequences must get from the
# default FEL exactly what the binary heap it replaced returns (a
# replace as its Pop then Push), random programs of schedules, cancels,
# re-arms, runs and checkpoints the engine's executed order and counts
# that a sorted-slice reference engine gives for every queue kind (and
# the same QueueLen after every step and the same Stats on the heap as
# on the list), the flow network on a fuzzed scenario exactly what the
# per-flow-timer reference simulates, the flow network's closed-form
# link charge exactly what one add at a time sums to, and the
# slot-indexed replica catalog and stores exactly what the name-keyed
# ones they replaced answer.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalFrame -fuzztime 10s ./internal/distsim/
	$(GO) test -run '^$$' -fuzz FuzzParseJournal -fuzztime 10s ./internal/distsim/
	$(GO) test -run '^$$' -fuzz FuzzDecodeClusterCheckpoint -fuzztime 10s ./internal/distsim/
	$(GO) test -run '^$$' -fuzz FuzzClusterObsFold -fuzztime 10s ./internal/distsim/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEvent -fuzztime 10s ./internal/winsync/
	$(GO) test -run '^$$' -fuzz FuzzAdoptImage -fuzztime 10s ./internal/winsync/
	$(GO) test -run '^$$' -fuzz FuzzTableState -fuzztime 10s ./internal/des/
	$(GO) test -run '^$$' -fuzz FuzzHeapAgainstReference -fuzztime 10s ./internal/eventq/
	$(GO) test -run '^$$' -fuzz FuzzEngineOrderAgainstReference -fuzztime 10s ./internal/des/
	$(GO) test -run '^$$' -fuzz FuzzNetworkAgainstReference -fuzztime 10s ./internal/netsim/
	$(GO) test -run '^$$' -fuzz FuzzAddN -fuzztime 10s ./internal/netsim/
	$(GO) test -run '^$$' -fuzz FuzzCatalogAgainstReference -fuzztime 10s ./internal/replication/

# Go line counts, non-test and test, per internal/* package, for the
# commands and for the whole module, the flag registration call sites
# under cmd/, and each internal package's exported top-level identifiers
# (go doc -short): the numbers a simplifying PR reports going down.
loc:
	@count() { n=$$(cat /dev/null "$$@" | wc -l); echo $$n; }; \
	printf '%-24s %9s %9s\n' package non-test test; \
	for d in internal/*/ cmd/; do \
		printf '%-24s %9s %9s\n' $${d%/} \
			$$(count $$(find $$d -name '*.go' ! -name '*_test.go')) \
			$$(count $$(find $$d -name '*_test.go')); \
	done; \
	printf '%-24s %9s %9s\n' 'module (bench/ apart)' \
		$$(count $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*')) \
		$$(count $$(find . -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*')); \
	printf '%-24s %9s\n' 'flags (cmd/ call sites)' \
		$$(grep -rhoE '\b(fs|flag)\.((Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Text)(Var)?|Var|Func|BoolFunc)\(' --include='*.go' --exclude='*_test.go' cmd | wc -l); \
	printf '%-24s %9s\n' package exported; \
	for d in internal/*/; do \
		printf '%-24s %9s\n' $${d%/} $$($(GO) doc -short ./$$d 2>/dev/null | wc -l); \
	done

# `make <name>-smoke` runs one end-to-end smoke, `make smoke` all of
# them: scripts/smoke.sh holds the table (trace, checkpoint, chaos,
# dist, obs, balance, threads, crash, experiments), what each proves and its command
# lines, and prints wall time per smoke.
smoke:
	bash scripts/smoke.sh all

%-smoke: FORCE
	bash scripts/smoke.sh $*

FORCE:

clean:
	$(GO) clean ./...
