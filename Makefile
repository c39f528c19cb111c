# Tier-1 verification and performance tracking for the dragonfly study.

GO ?= go

.PHONY: build test examples fmt-check race fuzz-smoke bench bench-diff ab scale-smoke farm-smoke collectives-smoke chaos-smoke

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Run every example main end to end; the first non-zero exit fails the
# target. go test only compiles them, and examples/scheduler and
# examples/corun are the only callers of the public dragonfly.Schedule and
# of dragonfly.RunMulti with placement pairs besides ExampleRunMulti.
examples: build
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# Formatting gate: fail, listing the files, if gofmt would rewrite any Go
# file in the tree.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

# Module-wide under the race detector: the farm executor (every experiment
# cell, dfsim batch, and dffarm sweep runs through it, concurrent Runs
# included) is the concurrency surface, but every package runs so a data
# race introduced anywhere is caught.
race:
	$(GO) test -race ./...

# CI smoke for the native fuzz targets; `go test -fuzz` accepts one target
# per invocation, so each gets its own short budget.
fuzz-smoke:
	$(GO) test -fuzz=FuzzRoute$$ -fuzztime=10s ./internal/routing
	$(GO) test -fuzz=FuzzRouteFaults -fuzztime=10s ./internal/routing
	$(GO) test -fuzz=FuzzPolicy -fuzztime=10s ./internal/routing
	$(GO) test -fuzz=FuzzPlacement -fuzztime=10s ./internal/placement
	$(GO) test -fuzz=FuzzParseSpec -fuzztime=10s ./internal/faults
	$(GO) test -fuzz=FuzzFaultSequence -fuzztime=10s ./internal/faults
	$(GO) test -fuzz=FuzzGraph -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzEventQueue -fuzztime=10s ./internal/des
	$(GO) test -fuzz=FuzzRecordCodec -fuzztime=10s ./internal/farm
	$(GO) test -fuzz=FuzzLayout -fuzztime=10s ./internal/topology

# Refresh the in-repo performance snapshot (engine/fabric/routing
# microbenches + artifact regeneration benches, plus the -scale suite's
# big-machine construction/memory entries). Commit BENCH_des.json so the
# perf trajectory is visible in history.
bench:
	$(GO) run ./cmd/dfbench -scale -out BENCH_des.json

# Allocation-regression gate: rerun the suites and fail if any benchmark's
# allocs/op or B/op grew >20% past the committed BENCH_des.json, or if the
# scale suite's live_bytes/op / bytes_per_router grew likewise (a
# reintroduced O(routers^2) table overshoots by orders of magnitude). The
# allocation counts are deterministic, so this gate is machine-independent;
# ns/op deltas print as advisory only.
bench-diff:
	$(GO) run ./cmd/dfbench -scale -diff -against BENCH_des.json

# One-process A/B: time the working tree against BASE (a git revision) by
# running the same experiment cells through both builds, linked into one
# binary, alternately cell by cell (cmd/dfab). Wall-time ratios measured
# that way hold on a noisy shared host where separate processes do not.
# CELLS is a comma list of fig10, fig3 and theta; BASE=HEAD is the A/A
# check, which should read 1.00 within a few percent.
BASE ?= HEAD
CELLS ?= fig10
PASSES ?= 8
ab:
	bash cmd/dfab/ab.sh $(BASE) -cells $(CELLS) -passes $(PASSES)

# Sweep-farm smoke: run a small dffarm job cold (every cell simulates and
# is banked in the content-addressed store), rerun it warm (every cell must
# replay — the grep fails the target if anything re-simulated), and require
# the training corpora of the two passes byte-identical. Exercises the
# whole farm path end to end: sweep grammar, canonical config addressing,
# store integrity verification, corpus emission. The cross-CLI leg then
# banks Figure 3's 30 cells with dffarm and requires dfsweep to replay all
# of them (zero simulations) into a report byte-identical to the golden one:
# both CLIs must build the same cells and address them identically. The
# extension leg runs the five farm-backed extension sweeps through dfsweep
# cold then warm: the warm pass must replay all 104 distinct cells (zero
# simulations) into a report byte-identical to the cold one. The paper leg
# does the same for every paper artifact (dfsweep -exp all): 128 distinct
# cells, since Figure 7's scale-1 extreme cells are Figure 3's.
FARM_SMOKE := /tmp/dffarm-smoke
FIG3_GRID := -apps CR,FB,AMG -placements cont,cab,chas,rotr,rand -routings min,adp
EXT_SWEEP := -exp xmap,figr,figq,figa,figf -parallel 2 -quiet -farm-cache $(FARM_SMOKE)/ext
ALL_SWEEP := -exp all -parallel 2 -quiet -farm-cache $(FARM_SMOKE)/all
farm-smoke: build
	rm -rf $(FARM_SMOKE) && mkdir -p $(FARM_SMOKE)
	$(GO) run ./cmd/dffarm -cache $(FARM_SMOKE)/farm -apps CR,FB -placements cont,rand -routings min,adp -quiet -corpus $(FARM_SMOKE)/cold.csv 2>&1 | tee $(FARM_SMOKE)/cold.log
	grep -q "0 hits, 8 simulated" $(FARM_SMOKE)/cold.log
	$(GO) run ./cmd/dffarm -cache $(FARM_SMOKE)/farm -apps CR,FB -placements cont,rand -routings min,adp -resume -quiet -corpus $(FARM_SMOKE)/warm.csv 2>&1 | tee $(FARM_SMOKE)/warm.log
	grep -q "8 hits, 0 simulated" $(FARM_SMOKE)/warm.log
	cmp $(FARM_SMOKE)/cold.csv $(FARM_SMOKE)/warm.csv
	$(GO) run ./cmd/dffarm -cache $(FARM_SMOKE)/fig3 $(FIG3_GRID) -quiet
	$(GO) run ./cmd/dfsweep -exp fig3 -parallel 2 -quiet -farm-cache $(FARM_SMOKE)/fig3 > $(FARM_SMOKE)/fig3.txt 2> $(FARM_SMOKE)/fig3.log
	cat $(FARM_SMOKE)/fig3.log
	grep -q "30 hits, 0 simulated" $(FARM_SMOKE)/fig3.log
	cmp $(FARM_SMOKE)/fig3.txt internal/experiments/testdata/golden/fig3.txt
	$(GO) run ./cmd/dfsweep $(EXT_SWEEP) > $(FARM_SMOKE)/ext-cold.txt 2> $(FARM_SMOKE)/ext-cold.log
	grep -q "0 hits, 104 simulated" $(FARM_SMOKE)/ext-cold.log
	$(GO) run ./cmd/dfsweep $(EXT_SWEEP) > $(FARM_SMOKE)/ext-warm.txt 2> $(FARM_SMOKE)/ext-warm.log
	cat $(FARM_SMOKE)/ext-warm.log
	grep -q "104 hits, 0 simulated" $(FARM_SMOKE)/ext-warm.log
	cmp $(FARM_SMOKE)/ext-cold.txt $(FARM_SMOKE)/ext-warm.txt
	$(GO) run ./cmd/dfsweep $(ALL_SWEEP) > $(FARM_SMOKE)/all-cold.txt 2> $(FARM_SMOKE)/all-cold.log
	grep -q "0 hits, 128 simulated" $(FARM_SMOKE)/all-cold.log
	$(GO) run ./cmd/dfsweep $(ALL_SWEEP) > $(FARM_SMOKE)/all-warm.txt 2> $(FARM_SMOKE)/all-warm.log
	cat $(FARM_SMOKE)/all-warm.log
	grep -q "128 hits, 0 simulated" $(FARM_SMOKE)/all-warm.log
	cmp $(FARM_SMOKE)/all-cold.txt $(FARM_SMOKE)/all-warm.txt
	@echo "farm-smoke: warm rerun replayed all 8 cells from the store; corpora byte-identical; dfsweep replayed dffarm's 30 fig3 cells into the golden report, the extension sweeps' 104 cells and the paper figures' 128 cells into their cold reports"

# Collective-workload smoke: the graph-executor determinism suite (ring
# all-reduce and MoE all-to-all on both the Dragonfly and Dragonfly+ mini
# machines — reruns, the auditor, disabled pooling, and 1/2/4 farm executor
# workers must all reproduce bit-identical digests), then the figa
# placement-vs-routing sweep of all six graph generators checked against
# its committed golden report.
collectives-smoke: build
	$(GO) test ./internal/topotest -run 'TestCollective' -count=1
	$(GO) test ./internal/experiments -run 'TestGoldenReports/figa|TestFarmBackedGoldenFigA' -count=1

# Chaos smoke: the same small sweep runs once clean and once under seeded
# deterministic fault injection at every site — bit-flipped store reads,
# failed writes, worker panics and kills, simulated DES stalls — with a
# retry budget that the per-key injection cap guarantees converges. The
# gate: faults actually fired, no cell was quarantined, the chaos corpus is
# byte-identical to the clean one, and a post-hoc scrub of the hammered
# store finds zero corrupt entries. Self-healing proven, not trusted.
CHAOS_SMOKE := /tmp/dffarm-chaos-smoke
CHAOS_SPEC := store.read=0.9,store.write=0.9,worker.panic=0.9,worker.kill=0.9,sim.stall=0.9,max=1,seed=7
chaos-smoke: build
	rm -rf $(CHAOS_SMOKE) && mkdir -p $(CHAOS_SMOKE)
	$(GO) run ./cmd/dffarm -cache $(CHAOS_SMOKE)/clean -apps CR -placements cont,rand -routings min,adp -quiet -corpus $(CHAOS_SMOKE)/clean.csv
	$(GO) run ./cmd/dffarm -cache $(CHAOS_SMOKE)/chaos -apps CR -placements cont,rand -routings min,adp -quiet -corpus $(CHAOS_SMOKE)/chaos.csv \
		-chaos "$(CHAOS_SPEC)" -retries 5 -quarantine-limit 1 2>&1 | tee $(CHAOS_SMOKE)/chaos.log
	grep -q "faults injected" $(CHAOS_SMOKE)/chaos.log
	grep -q "0 quarantined" $(CHAOS_SMOKE)/chaos.log
	cmp $(CHAOS_SMOKE)/clean.csv $(CHAOS_SMOKE)/chaos.csv
	$(GO) run ./cmd/dffarm -cache $(CHAOS_SMOKE)/chaos -scrub 2>&1 | tee $(CHAOS_SMOKE)/scrub.log
	grep -q "0 corrupt" $(CHAOS_SMOKE)/scrub.log
	@echo "chaos-smoke: chaos sweep converged to the clean corpus byte-for-byte; store scrub clean"

# Big-machine shakeout: wire ~20k-router Dragonfly and Dragonfly+ machines,
# route 1k validated sampled pairs each, and drive an audited traffic burst
# under the DES stall watchdog. The 4096 MB memory budget (vs ~650 MB
# measured) turns a quadratic-table regression into a clean CI failure
# instead of an OOM kill; the whole target runs in well under a minute.
scale-smoke: build
	$(GO) run ./cmd/dfvalidate -scale-smoke
