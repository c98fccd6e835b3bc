#!/usr/bin/env bash
# ci.sh — the repo's tier-1 gate. Run from anywhere; it cds to the repo
# root. Every check must pass before a change lands:
#
#   gofmt      formatting is canonical
#   go vet     the compiler-adjacent checks
#   go build   everything compiles
#   go test    the full suite, with the race detector on
#   acqlint    the domain-specific invariants (internal/analysis); the
#              machine-readable report (findings, package count,
#              timing) is archived to results/acqlint-report.json and the
#              timing summary prints to stderr
#   fuzz smoke short runs of the fuzz targets (plan decoder, SQL parser,
#              planning-service request path)
#   acqserved  an end-to-end smoke: boot the planning service on an
#              ephemeral port, drive it with acqload, shut down cleanly
#   cluster smoke boot three acqserved nodes on loopback with full peer
#              lists, drive a seeded workload through every entry node,
#              and gate on the cluster invariants: replaying the query
#              pool through all nodes adds zero planner runs (rendezvous
#              sharding + forwarding = cluster-wide singleflight) and a
#              forced refresh on one node reaches every peer's epoch via
#              gossip; teed to results/cluster-smoke.txt
#   network chaos smoke reboot the three-node cluster with the seeded
#              deterministic chaos transport (internal/chaos) corrupting
#              every inter-node link — drops, injected 5xx, truncated
#              bodies, added latency — and gate on resilience: every
#              client request is still answered (retries, rendezvous
#              failover, or degraded local planning), the chaos layer
#              demonstrably fired, and the resilience machinery
#              demonstrably engaged; teed to results/chaos-smoke.txt
#   chaos smoke rerun the exec fault-policy tests and the seeded
#              lossy-sensornet simulation, then regenerate the faults
#              figure (which self-checks rate-zero equivalence,
#              non-negative costs, zero plan mismatches, and seeded
#              reproducibility, and exits nonzero on any regression)
#   model gate the model-conformance suite (every registry backend against
#              the stats.Dist contract, race detector on) plus the models
#              figure, whose in-process self-check requires the Bayesian-
#              network backend to plan strictly cheaper than Chow-Liu on
#              the XOR workload; teed to results/models-bench.txt
#   alloc gates the trace disabled path (0 allocs), the serve fast-path
#              cache hit, standalone and on a cluster node replaying its
#              copy of the owner's answer (<= 3 allocs each), the shard
#              owner lookup (0 allocs), one greedy plan on the miss path
#              (<= 1,450 allocs), one Execute over 4,096 rows (<= 6
#              allocs) and one Bayesian-network restriction step with
#              every posterior (<= 40 allocs), all without -race; every
#              -run gate fails when its selector matches no test
#   exec bench the streaming executor's per-tuple cost, teed to
#              results/exec-bench.txt
#   benchmarks the serve cache hit/miss paths and the parallel planner,
#              teed to results/; the parallel run always verifies plans
#              are byte-identical across worker counts, and on hosts with
#              >= 4 cores additionally gates on a 2x exhaustive speedup
#              at 8 workers (a single-core host cannot speed up threads,
#              so the ratio check is skipped there)
#
# FUZZTIME overrides the per-target fuzzing budget (default 5s).
set -euo pipefail
cd "$(dirname "$0")"

# gate_test runs `go test` with a -run selector and fails when the
# selector matches no test in some package: a renamed test must not turn
# its gate into a silent no-op.
gate_test() {
	local out
	if ! out=$(go test "$@" 2>&1); then
		echo "$out"
		return 1
	fi
	echo "$out"
	if grep -q 'no tests to run' <<<"$out"; then
		echo "ci: go test $* matched no tests" >&2
		return 1
	fi
}

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== acqlint"
mkdir -p results
go run ./cmd/acqlint -json ./... | tee results/acqlint-report.json

echo "== fuzz smoke"
go test -run='^$' -fuzz=FuzzDecode -fuzztime="${FUZZTIME:-5s}" ./internal/plan
go test -run='^$' -fuzz=FuzzParse -fuzztime="${FUZZTIME:-5s}" ./internal/sql
go test -run='^$' -fuzz=FuzzServeRequest -fuzztime="${FUZZTIME:-5s}" ./internal/serve

echo "== acqserved smoke"
smokedir=$(mktemp -d)
trap 'jobs -p | xargs -r kill 2>/dev/null; rm -rf "$smokedir"' EXIT
go build -o "$smokedir/acqserved" ./cmd/acqserved
go build -o "$smokedir/acqload" ./cmd/acqload
go run ./cmd/acqgen -dataset lab -rows 2000 -seed 1 -out "$smokedir/lab.csv"
"$smokedir/acqserved" -addr 127.0.0.1:0 \
	-schema "hour:24:1,nodeid:45:1,voltage:16:1,light:32:100,temp:32:100,humidity:32:100" \
	-data "$smokedir/lab.csv" >"$smokedir/acqserved.log" 2>&1 &
serverpid=$!
url=""
for _ in $(seq 1 100); do
	url=$(grep -om1 'http://[0-9.:]*' "$smokedir/acqserved.log" || true)
	[ -n "$url" ] && break
	sleep 0.1
done
if [ -z "$url" ]; then
	echo "acqserved never reported a listening address:" >&2
	cat "$smokedir/acqserved.log" >&2
	exit 1
fi
"$smokedir/acqload" -addr "$url" -clients 8 -requests 16 -pool 8 -seed 1
"$smokedir/acqload" -addr "$url" -clients 2 -requests 4 -pool 4 -seed 2 -execute
kill -TERM "$serverpid"
wait "$serverpid"
grep -q "acqserved: done" "$smokedir/acqserved.log"

echo "== cluster smoke"
# Three nodes on fixed loopback ports, each configured with the full
# peer list (self is filtered out). acqload waits for every /readyz,
# drives the workload through random entry nodes, then -cluster-check
# replays the pool through every node (must add zero planner runs) and
# forces a refresh on node 1 (every peer's epoch must catch up via
# gossip). Nodes shut down cleanly on TERM like the standalone smoke.
cports="18471 18472 18473"
cpeers="http://127.0.0.1:18471,http://127.0.0.1:18472,http://127.0.0.1:18473"
cpids=""
for port in $cports; do
	"$smokedir/acqserved" -addr "127.0.0.1:$port" -peers "$cpeers" -gossip-interval 200ms \
		-schema "hour:24:1,nodeid:45:1,voltage:16:1,light:32:100,temp:32:100,humidity:32:100" \
		-data "$smokedir/lab.csv" >"$smokedir/cluster-$port.log" 2>&1 &
	cpids="$cpids $!"
done
mkdir -p results
"$smokedir/acqload" -targets "$cpeers" -wait-ready 15s \
	-clients 8 -requests 16 -pool 12 -seed 3 -cluster-check | tee results/cluster-smoke.txt
grep -q "cluster-check: singleflight OK" results/cluster-smoke.txt
grep -q "cluster-check: epoch coherence OK" results/cluster-smoke.txt
kill -TERM $cpids
wait $cpids
for port in $cports; do
	grep -q "acqserved: done" "$smokedir/cluster-$port.log"
done

echo "== network chaos smoke"
# Resilience gate: the same three-node topology on fresh ports, but every
# inter-node request now crosses the seeded chaos transport, which drops
# requests, injects synthetic 5xx, truncates response bodies, and adds
# latency. acqload itself enforces that every request is answered (it
# exits nonzero on any error — a failed forward must recover via retry,
# rendezvous failover, or a degraded local plan), and the chaos-report
# gate below requires that faults actually fired and that the resilience
# machinery actually engaged, so the run cannot pass vacuously.
nports="18481 18482 18483"
npeers="http://127.0.0.1:18481,http://127.0.0.1:18482,http://127.0.0.1:18483"
npids=""
for port in $nports; do
	"$smokedir/acqserved" -addr "127.0.0.1:$port" -peers "$npeers" -gossip-interval 200ms \
		-fail-after 1000 -forward-retries 2 -max-failovers 2 \
		-chaos-seed 4242 -chaos-drop 0.15 -chaos-5xx 0.10 -chaos-truncate 0.10 -chaos-latency 1ms \
		-schema "hour:24:1,nodeid:45:1,voltage:16:1,light:32:100,temp:32:100,humidity:32:100" \
		-data "$smokedir/lab.csv" >"$smokedir/chaosnet-$port.log" 2>&1 &
	npids="$npids $!"
done
mkdir -p results
"$smokedir/acqload" -targets "$npeers" -wait-ready 15s \
	-clients 8 -requests 16 -pool 12 -seed 4 -chaos-report | tee results/chaos-smoke.txt
kill -TERM $npids
wait $npids
for port in $nports; do
	grep -q "acqserved: done" "$smokedir/chaosnet-$port.log"
done
awk -F'[ ,]+' '
	/^chaos-report: total degraded/ {
		for (i = 1; i <= NF; i++) {
			if ($i == "degraded") deg = $(i + 1)
			if ($i == "retried") ret = $(i + 1)
			if ($i == "failover") fo = $(i + 1)
		}
		resil = 1
	}
	/^chaos-report: total injected requests/ {
		for (i = 1; i <= NF; i++) {
			if ($i == "dropped") d = $(i + 1)
			if ($i == "injected_5xx") x = $(i + 1)
			if ($i == "truncated") tr = $(i + 1)
		}
		fired = 1
	}
	END {
		if (!resil || !fired) {
			print "chaos smoke: report lines missing from results/chaos-smoke.txt" > "/dev/stderr"
			exit 1
		}
		printf "chaos smoke: faults dropped %d / 5xx %d / truncated %d; recovered via %d retries, %d failovers, %d degraded plans\n", d, x, tr, ret, fo, deg
		if (d + x + tr == 0) {
			print "chaos smoke: chaos transport never fired (vacuous run)" > "/dev/stderr"
			exit 1
		}
		if (ret + fo + deg == 0) {
			print "chaos smoke: resilience machinery never engaged despite injected faults" > "/dev/stderr"
			exit 1
		}
	}' results/chaos-smoke.txt

echo "== chaos smoke"
# Fault-injection gate: the policy tests pin exact retry-cost accounting
# and rate-zero byte-identity, the exec golden freezes fault-path results
# and profiles bit for bit, the sensornet test drives a seeded lossy
# network end to end, and the faults figure aborts on any panic, negative
# cost, or mismatch regression (its invariants are checked in-process).
gate_test -run='TestRunFaulty|TestExecGolden' -count=1 ./internal/exec
gate_test -run='TestZeroFaultProfileIsByteIdentical|TestLossyLinksChargeRetransmissions|TestDeployFaultyNeverNegative' -count=1 ./internal/sensornet
mkdir -p results
go run ./cmd/acqbench -fig faults | tee results/faults-bench.txt

echo "== model backend gate"
# The conformance suite pins every registry backend (empirical,
# independent, chowliu, bn) to the stats.Dist contract — normalized
# histograms, probabilities in [0,1], the Restrict chain rule, monotone
# weights, safe concurrent use — and the models figure self-checks its
# headline claim in-process: BN plans strictly cheaper than the Chow-Liu
# tree on the XOR workload, where the defining correlation is one no tree
# can represent.
gate_test -race -run='TestConformance|TestFit|TestBN' -count=1 ./internal/model
mkdir -p results
go run ./cmd/acqbench -fig models | tee results/models-bench.txt

echo "== trace zero-alloc gate"
# The disabled tracing path must cost nothing: testing.AllocsPerRun on
# nil-span/nil-profile hot loops must report exactly 0 allocs/op. Run
# without -race (the race runtime allocates; the test skips itself under
# it, which would silently void the gate).
gate_test -run='TestDisabledPathZeroAllocs' -count=1 ./internal/trace

echo "== serve hot-path alloc gate"
# A fast-path /v1/plan cache hit must serve in at most 3 allocations
# (pre-serialized replay slots + pooled buffers; see serve/fast.go).
# Like the trace gate, it must run without -race.
gate_test -run='TestServeCacheHitAllocs' -count=1 ./internal/serve
# The same hit on a cluster node that forwarded the key once and kept a
# copy of the owner's answer: the replay adds only the shard-owner check,
# which folds the rendezvous maximum over the member map allocation-free.
gate_test -run='TestServeClusterCacheHitAllocs' -count=1 ./internal/serve
gate_test -run='TestOwnerAllocs' -count=1 ./internal/cluster
# A cache miss is one opt.Greedy plan. It ranks candidate splits from a
# split sweep's counts (stats.SplitSweep), so what it allocates grows with
# leaves and attributes; a context derived per candidate side would push
# it past the gate several times over.
gate_test -run='TestGreedyPlanAllocs' -count=1 ./internal/opt
# One Execute over a 4,096-row table, plain and profiled, allocates a
# fixed handful (<= 6) whatever the row count; a per-tuple or per-node
# allocation in the plan walker would multiply it.
gate_test -run='TestExecuteAllocs' -count=1 ./internal/exec
# The Bayesian network's root, one restriction and the posterior of every
# attribute on the service-sized lab network allocate at most 40 objects:
# each posterior runs an elimination program compiled at fit on pooled
# scratch memory, so a per-call factor or order search would blow it.
gate_test -run='TestBNInferenceAllocs' -count=1 ./internal/model

echo "== exec benchmark"
# The streaming executor's per-tuple throughput over the unified
# acqp.Execute facade, archived for regression comparison.
mkdir -p results
go test -run='^$' -bench='BenchmarkExecutePerTuple' -benchtime=5x . | tee results/exec-bench.txt

echo "== trace figure smoke"
# The trace study self-checks its invariants in-process: traced plans
# byte-identical to untraced, profiled runs equal to unprofiled, and
# per-node costs summing bit-exactly to the executor total.
mkdir -p results
go run ./cmd/acqbench -fig trace | tee results/trace-bench.txt

echo "== serve benchmarks"
mkdir -p results
go test -run='^$' -bench='BenchmarkServe' -benchtime=200x ./internal/serve | tee results/serve-bench.txt

echo "== parallel plan benchmark"
# The benchmark itself fails if any worker count produces a different
# plan, so determinism is enforced on every host.
go test -run='^$' -bench='BenchmarkPlanParallel' -benchtime=1x . | tee results/parallel-bench.txt
cores=$(nproc)
if [ "$cores" -ge 4 ]; then
	awk '
		/\/workers=1[^0-9]/ { base = $3 }
		/\/workers=8[^0-9]/ { par = $3 }
		END {
			if (base == "" || par == "") {
				print "parallel-bench: missing workers=1 or workers=8 measurement" > "/dev/stderr"
				exit 1
			}
			speedup = base / par
			printf "parallel exhaustive speedup at 8 workers: %.2fx\n", speedup
			if (speedup < 2.0) {
				print "parallel-bench: speedup below the 2x gate" > "/dev/stderr"
				exit 1
			}
		}' results/parallel-bench.txt
else
	echo "parallel speedup gate skipped: $cores core(s); plans still verified byte-identical"
fi

echo "CI OK"
