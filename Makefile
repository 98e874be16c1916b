GO ?= go

.PHONY: build test race fuzz bench bench-smoke bench-distsim bench-acd bench-sketch bench-shard bench-speedup bench-speedup-smoke bench-compare tables vet fmt check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The whole module: the per-clique stage loops of internal/core now run
# parallel, so the race detector must see every package, not a hand-picked
# subset.
race:
	$(GO) test -race ./...

# Native fuzz smoke: each target for a bounded wall-clock slice. The corpus
# lives under testdata/fuzz and grows as CI finds inputs.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzColor$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzBuilder$$' -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/sketch
	$(GO) test -run '^$$' -fuzz '^FuzzWave$$' -fuzztime 10s ./internal/distsim
	$(GO) test -run '^$$' -fuzz '^FuzzACD$$' -fuzztime 10s ./internal/acd
	$(GO) test -run '^$$' -fuzz '^FuzzSketchMerge$$' -fuzztime 10s ./internal/sketch
	$(GO) test -run '^$$' -fuzz '^FuzzCutoff$$' -fuzztime 10s ./internal/sketch
	$(GO) test -run '^$$' -fuzz '^FuzzShardStream$$' -fuzztime 10s ./internal/graph

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One iteration of every benchmark in the module: catches bit-rotted
# benchmark code without paying for statistically meaningful timings.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench-distsim:
	$(GO) run ./cmd/benchtables -distsimbench BENCH_distsim.json

# The full decomposition matrix includes the million-vertex GNP row; expect
# multi-gigabyte sketch arenas and minutes of single-core wave time.
bench-acd:
	$(GO) run ./cmd/benchtables -acdbench BENCH_acd.json

# Sketch-engine bench: collect waves at parallelism 1/2/4/NumCPU and the
# bits-per-vertex/accuracy profile of the estimator. The isolated merge
# kernels are internal/sketch's go-test benchmarks.
bench-sketch:
	$(GO) run ./cmd/benchtables -sketchbench BENCH_sketch.json

# Partitioned-substrate grid: the decomposition at shard counts 1/2/4/8 ×
# parallelism 1/2/4/NumCPU against an unsharded reference, plus the
# streaming-construction rows (GNP edge streams up to n=10⁷ partitioned with
# no global CSR). Includes million- and ten-million-vertex rows — expect the
# better part of an hour single-core and ~90 GB of peak sketch arenas.
bench-shard:
	$(GO) run ./cmd/benchtables -shardbench BENCH_shard.json -shardstream 10000000

# Speedup-curve surface: per-stage wall-clock at parallelism 1/2/4/NumCPU for
# every pipeline mode (coloring stages, decomposition waves + profile, sketch
# collect, sharded exchange), written as BENCH_speedup.json. On a box that
# cannot schedule more than one effective level the artifact is annotated
# degraded_grid=true (loudly); add -require-full-grid to refuse instead.
bench-speedup:
	$(GO) run ./cmd/benchtables -speedupbench BENCH_speedup.json

# CI-sized speedup smoke under the race detector: one curve per pipeline mode
# (the 50000 cap keeps the smallest sketch workload) on the 1,2 grid.
# -require-full-grid turns a collapsed grid — a runner that cannot actually
# schedule 2 workers — into a hard failure instead of a silently degraded
# artifact, so the smoke also asserts no grid level was dropped.
bench-speedup-smoke:
	$(GO) run -race ./cmd/benchtables -speedupbench /tmp/BENCH_speedup_smoke.json -speedupn 50000 -speedupgrid 1,2 -require-full-grid

# Per-row ns/op and allocs/op delta table between two BENCH_*.json artifacts
# of the same schema (and the same gomaxprocs — anything else is refused).
# Defaults to the decomposition trajectory: the checked-in pre-narrowing
# baseline against the current artifact. Override either end:
#   make bench-compare OLD=BENCH_sketch_old.json NEW=BENCH_sketch.json
OLD ?= BENCH_acd_baseline.json
NEW ?= BENCH_acd.json
bench-compare:
	$(GO) run ./cmd/benchtables -compare $(OLD) $(NEW)

tables:
	$(GO) run ./cmd/benchtables

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

check: fmt vet build test
