#!/bin/sh
# ci.sh — the repo's verification gate.
#
# Tier 1 (required green before any merge):
#   go vet ./... && go build ./... && go test ./...
# plus the nested bench/ module (the repository benchmark compiles against
# internal/fock, internal/scf and internal/ddi but is invisible to the
# root ./... patterns). The source-shape gates are the rows of
# TestStructure (structure_test.go), which go test ./... runs: each row is
# a go/ast question with the mutants it must fail on. Tier 1 also fails
# unless TestStructure ran all structure_rows rows and passed, beside
# TestOptionBudget. What stays here is what the source alone cannot answer:
# - the link graph: every internal/ package is reached by a cmd/ main,
#   the root facade or bench/ (go list -deps); none of them reaches
#   internal/integrals/oracle, and no symbol of it is in the hfrun,
#   hfserve or benchmark binary (go tool nm); internal/simulate is a
#   leaf, its deps naming no repo package outside basis, molecule,
#   integrals, linalg and knl;
# - built programs: hfserve -h offers no loadgen flag, hfrun refuses -mp2
#   where there is no RHF reference (-uhf) with exit 2, and hfrun -xyz
#   refuses a NaN coordinate with an error (non-zero exit, no panic);
# - the barrier/loop-counter tests and the per-build barrier counts of
#   Algorithms 2-3 rerun under -race -count=3;
# - the pure-Go bodies of the ERI kernel, of MulAdd and of distmat's
#   parity check vet under GOARCH=arm64 (no assembly there); the kernel's
#   sweep and probe benchmarks, the digest benchmark, BenchmarkMulAdd (the
#   scalar loop and every body the host runs), BenchmarkSquare and
#   BenchmarkPurify (its plain and abft sub-benchmarks) run once
#   (-benchtime 1x);
# - the layout gate builds hfrun, hfserve and the benchmark and fails
#   unless the k loops of both matrix-product kernels,
#   linalg.gemm4x8AVX (ymm) and linalg.gemm8x16AVX512 (zmm), start at
#   0 mod 64 in each (go tool objdump), printing where they and the ERI
#   kernel's functions start.
#
# Tier 2 (concurrency soundness): the race detector over the packages
# with real parallelism and fault injection (internal/mpi includes the
# elastic membership and its tests), and over the one
# PairCache every rank and thread shares (8 goroutines, blocks
# bit-identical to a serial pass). The full ./internal/scf suite under -race takes ~5
# minutes; everything else is seconds.
#
# Tier 3 (observability gate): run a tiny SCF with -trace and check the
# emitted Chrome trace is valid JSON with properly nested spans covering
# the full span taxonomy (scf.iter, fock.build, fock.task, mpi.op,
# dlb.draw); then the same for a parallel UHF run, which rides the same
# loop; then a purified (tiled) run, whose trace must hold fock.build
# spans and whose summary must print a purified load-imbalance row.
#
# Tier 4 (chaos gate): `scaling -exp sdc` — the silent-data-corruption
# sweep plus the live detection gate: one corruption driven through each
# integrity site (transport bit-flip and NaN, Fock-task NaN, checkpoint
# bit-flip) on real fault-injected runs, requiring 100% detection
# (sdc.detected == sdc.injected) and a converged energy within 1e-8 Ha
# of the clean reference. The command exits non-zero on any miss.
#
# Tier 6 (performance-fault gate): `scaling -exp chaos` — live SCF under
# the full chaos menu (4x straggler, duplicated + reordered deliveries,
# transient partition) must match the clean energy to 1e-10 Ha with the
# seq-number dedup provably exercised, and the synthetic lease workload
# must hold a 4x straggler to <= 1.6x clean wall time with every task
# pushed exactly once. The chaos property tests (duplicate/reorder
# invariance, hedge-never-double-fires, a silent rank's lease reclaimed
# at half the deadline) rerun under -race, plus the synthetic lease
# workload's exactly-once test in cmd/scaling.
#
# Tier 5 (serve gate): build hfserve, start it on an ephemeral port with
# a deliberately tiny cluster budget (1 worker, queue cap 1), and drive
# the serving contract over real HTTP: submit a job and poll it to
# completion, verify an identical resubmission is served from the result
# cache instantly (HTTP 200 + cached:true, no queue round-trip), serve a
# mode:"purified" job (every preset of the plan table is servable) to
# done, force a 429 + Retry-After backpressure rejection by filling the
# worker and the queue, cancel the backlog via DELETE, and drain cleanly
# on SIGTERM. Then `scaling -exp serve`: the in-process load test (>= 50
# jobs, duplicate-stream cache-hit rate >= 40%, >= 1 absorbed 429, zero
# lost, stuck or failed jobs). Last, 30 s of native fuzzing each for the
# XYZ parser (a served job's inline geometry), the .gbs parser, the
# job hash (FuzzSpecCanonicalHash: Normalized is idempotent, a spec and
# its normalized form hash alike, and an inline XYZ hashes the same under
# atom reordering and re-spacing), the checkpoint decoder
# (FuzzLoadCheckpoint: no panic, only finite NumBF²-element densities
# accepted, a finite density round-trips bit for bit), the WAL segment
# decoder (FuzzReplaySegment: no panic, bytes discarded exactly when
# corruption is reported, framed records replay clean) and the submit
# handler (FuzzSubmitSpec: arbitrary POST /v1/jobs bodies never panic,
# bad JSON or a bad spec is a 400 only, and byte-different bodies
# accepted with one canonical hash are one job), from the seed corpora
# under each package's testdata/fuzz/.
#
# Tier 7 (fleet gate): `scaling -exp fleet` — three WAL-backed hfserve
# replicas with consistent-hash cache sharding serve a >= 1000-job
# duplicate-heavy storm twice: clean, then with one replica SIGKILL'd
# mid-run (victim jobs parked on its queue) and restarted from its
# write-ahead log. Gates: zero lost jobs, zero failures, exactly one SCF
# execution per content hash fleet-wide, the crash backlog provably
# re-enqueued, and an aggregate cache hit-rate within 5 points of the
# no-kill baseline. The WAL torn-write/bit-flip fuzz tests (truncate and
# corrupt at every byte boundary) rerun under -race.
#
# Tier 8 (observability gate): `scaling -exp obs` — a three-replica
# fleet serves one traced request end to end (forwarded submit, peer
# cache fetch, engineered failure with a flight-recorder dump) and the
# merged fleet trace must pass tracecheck -continuity: every svc.job
# span carries a trace ID that reaches scf.iter/fock.build/mpi.op/
# dlb.draw with no orphan spans.
#
# Tier 9 (elastic gate): `scaling -exp elastic` — the elastic rank
# runtime end to end: a live SCF doubles its rank pool mid-run through
# the join handshake (announce -> checkpoint handshake -> re-sized
# restart) with the converged energy unchanged to 1e-10 Ha; a 6x
# straggler is migrated off its node by the EWMA detector with the same
# energy bar; the synthetic lease workload shows mid-run doubling
# cutting wall time (<= 0.85x) and migration bounding a 4x straggler's
# tail (<= 1.6x clean) with every task pushed exactly once; and one
# hfserve replica rides a 40-job burst through the autoscaler (grow,
# zero jobs lost, hysteresis shrink back to the floor). The membership,
# elastic-driver and autoscaler tests rerun under -race.
#
# Tier 10 (distmat gate): `scaling -exp distmat` — the distributed
# 2D-blocked matrix runtime end to end: the purification SCF must match
# the replicated eigensolve on water (energy to 1e-10 Ha, density to
# 1e-8), and a benzene run on a 4x4 tile grid must converge to the
# replicated energy while its per-rank peak distributed bytes stay
# under a budget the replicated N^2 storage provably exceeds — the
# memory wall the layout exists to cross. The distmat suite and the
# bounded tiled-Fock / purified-SCF tests rerun under -race.
#
# Tier 11 (ABFT gate): `scaling -exp abft` — checksum-redundant
# distributed matrices end to end on benzene/STO-3G over a 4x4 grid:
# the clean ABFT run must match the replicated eigensolve to 1e-10 Ha
# in one quiet attempt; a rank killed mid-purification must be survived
# by rebuilding every lost tile from parity (reconstructed_tiles > 0)
# and resuming the interrupted iteration on the shrunken world; and a
# resident bit flip injected between sweeps must be detected and
# repaired in place by the checksum audit (zero recoveries, zero silent
# corruptions) with the energy still at the clean reference. The ABFT
# and resilient-purified suites rerun under -race.
#
# Every -run pattern of the race reruns (tiers 6, 7, 9-11) is checked
# with `go test -list` first: each alternative must still select at
# least one test, so a renamed test cannot silently drop out of a gate.
#
# Usage: ./ci.sh [-short] [tier]
#   -short skips the slow simulator sweeps; a bare tier number (1-11)
#   runs only that tier. Anything else exits 2.
set -eu

short=""
tier=""
for arg in "$@"; do
	case "$arg" in
	-short)
		short="-short"
		;;
	1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11)
		if [ -n "$tier" ]; then
			echo "ci.sh: at most one tier may be selected (got $tier and $arg)" >&2
			exit 2
		fi
		tier="$arg"
		;;
	*)
		echo "ci.sh: unknown argument '$arg'" >&2
		echo "usage: ./ci.sh [-short] [tier]   (tier is a number 1-11; default runs all)" >&2
		exit 2
		;;
	esac
done

# Scratch shared across tiers: tiers 3 and 8 write traces here, and
# tier 5 parks the server binary + logs.
tracedir=$(mktemp -d)
servedir=""
servepid=""
cleanup() {
	if [ -n "$servepid" ]; then
		kill "$servepid" 2>/dev/null || true
	fi
	rm -rf "$tracedir"
	if [ -n "$servedir" ]; then
		rm -rf "$servedir"
	fi
}
trap cleanup EXIT

tier_1() {
	echo "== tier 1: vet + build + test =="
	go vet ./...
	go build ./...
	go test $short ./...
	go vet -C bench ./...
	go test -C bench ./...

	# The structure gates: every row of TestStructure must run and pass.
	structure_rows=44
	out=$(go test -count=1 -run '^(TestOptionBudget|TestStructure)$' -v . 2>&1) || true
	rows=$(echo "$out" | grep -c '^    --- PASS: TestStructure/' || true)
	echo "$out" | grep -q '^--- PASS: TestOptionBudget' && echo "$out" | grep -q '^--- PASS: TestStructure ' &&
		[ "$rows" -eq "$structure_rows" ] ||
		{ echo "structure gate: TestOptionBudget and TestStructure must run and pass, TestStructure with $structure_rows rows (ran $rows)"; echo "$out"; exit 1; }
	race_rerun 'TestBarrier|TestFor' -count=3 ./internal/omp/
	race_rerun 'TestTeamBarrierCounts' -count=3 ./internal/fock/

	# Every extension earns its place: what no command, the facade or the
	# benchmark reaches is not kept.
	reached=$( (go list -deps ./cmd/... . && go list -C bench -deps ./...) | sort -u)
	for dir in internal/*/; do
		echo "$reached" | grep -qx "repro/${dir%/}" ||
			{ echo "structure gate: ${dir%/} is reached by no cmd/ main, the root facade or bench/"; exit 1; }
	done
	if echo "$reached" | grep -x 'repro/internal/integrals/oracle'; then
		echo "structure gate: a cmd/ main, the root facade or bench/ links the test oracle; production evaluates ERIs through the PairCache only"
		exit 1
	fi
	if go list -deps ./internal/simulate | grep '^repro/' |
		grep -vx 'repro/internal/\(basis\|molecule\|integrals\|linalg\|knl\|simulate\)'; then
		echo "structure gate: internal/simulate is a model and links no runtime; live workloads belong in cmd/scaling"
		exit 1
	fi
	if go run ./cmd/hfserve -h 2>&1 | grep -i loadgen; then
		echo "structure gate: hfserve serves; the load test is scaling -exp serve"
		exit 1
	fi

	# The pure-Go bodies of the ERI kernel and of MulAdd are all a CPU
	# without AVX/FMA, or another architecture, runs: they keep compiling
	# there. The kernel's sweep and probe benchmarks, the digest benchmark,
	# the product's scalar-vs-kernel benchmark and one SP2 density step run
	# once, so they keep compiling and their counts keep holding.
	GOARCH=arm64 go vet ./internal/integrals/ ./internal/linalg/ ./internal/distmat/
	go test -run '^$' -bench 'KernelSweep|KernelProbe' -benchtime 1x ./internal/integrals/ >/dev/null
	go test -run '^$' -bench 'Digest' -benchtime 1x ./internal/fock/ >/dev/null
	go test -run '^$' -bench '^BenchmarkMulAdd$' -benchtime 1x ./internal/linalg/ >/dev/null
	go test -run '^$' -bench '^Benchmark(Square|Purify)$' -benchtime 1x ./internal/distmat/ >/dev/null
	layout_gate
	for bin in hfrun hfserve bench; do
		if grep ' repro/internal/integrals/oracle\.' "$tracedir/$bin.nm"; then
			echo "structure gate: $bin links the test oracle"
			exit 1
		fi
	done
	mp2_exit=0
	"$tracedir/hfrun" -uhf 3 -mp2 >/dev/null 2>&1 || mp2_exit=$?
	[ "$mp2_exit" -eq 2 ] || { echo "structure gate: hfrun -uhf 3 -mp2 exited $mp2_exit, want 2 (MP2 needs an RHF reference)"; exit 1; }
	printf '2\nnan\nH NaN 0 0\nH 0 0 0.74\n' >"$tracedir/nan.xyz"
	xyz_exit=0
	"$tracedir/hfrun" -xyz "$tracedir/nan.xyz" >"$tracedir/nan.out" 2>&1 || xyz_exit=$?
	if [ "$xyz_exit" -eq 0 ] || grep -q '^panic' "$tracedir/nan.out"; then
		echo "structure gate: hfrun -xyz on a NaN coordinate exited $xyz_exit; want a parse error, not a run or a panic"
		cat "$tracedir/nan.out"
		exit 1
	fi
}

# layout_gate builds the shipped binaries and the benchmark and fails
# unless the k loop of each matrix-product kernel (linalg.gemm4x8AVX and
# linalg.gemm8x16AVX512, the density step's hot loops) starts at 0 mod 64
# in each: their PCALIGN $64 puts them there whatever text precedes them,
# and this checks that it still does. It prints where those loops and the
# ERI kernel's functions start, the assembly ones included, since new text
# upstream is what moves them.
layout_gate() {
	for bin in hfrun hfserve bench; do
		if [ "$bin" = bench ]; then
			go build -C bench -o "$tracedir/$bin" .
		else
			go build -o "$tracedir/$bin" "./cmd/$bin"
		fi
		go tool nm "$tracedir/$bin" >"$tracedir/$bin.nm"
		grep -E ' repro/internal/integrals\.(\(\*hermIndex\)\.quartet|[a-z0-9]+(FMA|AVX)(\.abi0)?)$' "$tracedir/$bin.nm" |
			while read -r addr _ sym; do
				echo "layout: $bin $sym at $((0x$addr % 64)) mod 64"
			done
		for kernel in gemm4x8AVX gemm8x16AVX512; do
			# the line after the kloop: label inside the kernel's TEXT block
			loop=$(awk -v text="TEXT ·$kernel(SB)" 'index($0, text) == 1 { in_kernel = 1; next }
				/^TEXT / { in_kernel = 0 }
				in_kernel && /^kloop:/ { print NR + 1; exit }' internal/linalg/gemm_amd64.s)
			addr=$(go tool objdump -s "^repro/internal/linalg\.$kernel" "$tracedir/$bin" |
				awk -v at="gemm_amd64.s:$loop" '$1 == at && !n++ { print $2 }')
			echo "layout: $bin linalg.$kernel k loop at $((${addr:-0} % 64)) mod 64"
			[ -n "$loop" ] && [ -n "$addr" ] && [ $((addr % 64)) -eq 0 ] ||
				{ echo "layout gate: the k loop of linalg.$kernel in $bin is not at 0 mod 64 (${addr:-missing}); it needs its PCALIGN \$64"; exit 1; }
		done
	done
}

# race_rerun PATTERN [FLAG...] PKG... reruns the tests PATTERN selects
# under -race, after checking that every |-alternative still names at
# least one test.
race_rerun() {
	pattern=$1
	shift
	listed=$(go test -list "$pattern" "$@")
	for alt in $(echo "$pattern" | tr '|' ' '); do
		echo "$listed" | grep -q "^$alt" || { echo "ci: -run alternative '$alt' selects no test in $*"; exit 1; }
	done
	go test -race -run "$pattern" "$@"
}

tier_2() {
	echo "== tier 2: race detector (mpi, ddi, fock, scf, integrity, telemetry, jobs, service, distmat) =="
	go test $short -race ./internal/mpi/ ./internal/ddi/ ./internal/fock/ ./internal/scf/ ./internal/integrity/ ./internal/telemetry/ ./internal/jobs/ ./internal/service/ ./internal/distmat/
	race_rerun 'TestKernelConcurrentBitIdentical' -count=10 ./internal/integrals/
}

tier_3() {
	echo "== tier 3: trace gate (hfrun -trace -> tracecheck) =="
	go run ./cmd/hfrun -mol water -basis sto-3g -alg shared-fock -ranks 2 -threads 2 \
		-trace "$tracedir/ci_trace.json" -metrics "$tracedir/ci_metrics.json" >/dev/null
	go run ./cmd/tracecheck -q \
		-require scf.iter,fock.build,fock.task,mpi.op,dlb.draw "$tracedir/ci_trace.json"
	# UHF rides the same loop and the same walker: a parallel open-shell
	# run must emit the same span taxonomy.
	go run ./cmd/hfrun -mol water -basis sto-3g -uhf 3 -maxiter 40 -alg shared-fock -ranks 2 -threads 2 \
		-trace "$tracedir/ci_trace_uhf.json" >/dev/null
	go run ./cmd/tracecheck -q \
		-require scf.iter,fock.build,fock.task,mpi.op,dlb.draw "$tracedir/ci_trace_uhf.json"
	# The tiled step records its builds like every other preset: one
	# fock.build span per rank per build, reduced to a purified row of the
	# load-imbalance table.
	go run ./cmd/hfrun -mol water -basis sto-3g -alg purified -ranks 2 \
		-trace "$tracedir/ci_trace_purified.json" >"$tracedir/ci_purified.out"
	go run ./cmd/tracecheck -q -require fock.build "$tracedir/ci_trace_purified.json"
	grep -q '^  purified  *[1-9]' "$tracedir/ci_purified.out" ||
		{ echo "trace gate: hfrun -alg purified printed no purified load-imbalance row"; cat "$tracedir/ci_purified.out"; exit 1; }
}

tier_4() {
	echo "== tier 4: chaos gate (scaling -exp sdc: 100% SDC detection) =="
	go run ./cmd/scaling -exp sdc
}

tier_5() {
	echo "== tier 5: serve gate (hfserve HTTP round-trip, cache hit, 429 backpressure) =="
	servedir=$(mktemp -d)
	go build -o "$servedir/hfserve" ./cmd/hfserve
	"$servedir/hfserve" -addr 127.0.0.1:0 -portfile "$servedir/port" \
		-workers 1 -queue-cap 1 -drain-timeout 30s >"$servedir/serve.log" 2>&1 &
	servepid=$!

	i=0
	while [ ! -s "$servedir/port" ]; do
		i=$((i + 1))
		[ "$i" -gt 100 ] && { echo "serve gate: server never bound"; cat "$servedir/serve.log"; exit 1; }
		sleep 0.1
	done
	base="http://$(cat "$servedir/port")"

	# Submit a job and poll it to a terminal state.
	id=$(curl -sf -X POST "$base/v1/jobs" \
		-d '{"molecule":"water","basis":"sto-3g","mode":"serial"}' | jq -r .id)
	state=queued
	i=0
	while [ "$state" != "done" ]; do
		i=$((i + 1))
		[ "$i" -gt 300 ] && { echo "serve gate: job $id stuck in $state"; exit 1; }
		state=$(curl -sf "$base/v1/jobs/$id" | jq -r .state)
		[ "$state" = "failed" ] || [ "$state" = "canceled" ] && { echo "serve gate: job $id ended $state"; exit 1; }
		sleep 0.1
	done
	echo "serve gate: job $id done"

	# The identical resubmission must be a synchronous cache hit: state done
	# and a result in the POST response itself, no polling needed.
	resub=$(curl -sf -X POST "$base/v1/jobs" \
		-d '{"molecule":"water","basis":"sto-3g","mode":"serial"}')
	[ "$(echo "$resub" | jq -r .cached)" = "true" ] || { echo "serve gate: resubmission missed the cache: $resub"; exit 1; }
	[ "$(echo "$resub" | jq -r .state)" = "done" ] || { echo "serve gate: cached resubmission not instantly done: $resub"; exit 1; }
	echo "serve gate: cached resubmission served instantly"

	# Every preset of the plan table is servable: a distributed-tiles SP2
	# job runs to done like any other mode.
	pid=$(curl -sf -X POST "$base/v1/jobs" -d '{"molecule":"water","mode":"purified"}' | jq -r .id)
	state=queued
	i=0
	while [ "$state" != "done" ]; do
		i=$((i + 1))
		[ "$i" -gt 300 ] && { echo "serve gate: purified job $pid stuck in $state"; exit 1; }
		state=$(curl -sf "$base/v1/jobs/$pid" | jq -r .state)
		[ "$state" = "failed" ] || [ "$state" = "canceled" ] && { echo "serve gate: purified job $pid ended $state"; exit 1; }
		sleep 0.1
	done
	echo "serve gate: purified job $pid done"

	# Backpressure: benzene/6-31G(d) occupies the only worker for ~13s
	# (STO-3G is ~1s since the pair-contracted kernel); a distinct quick
	# job fills the queue (cap 1); the next distinct submission must bounce
	# with 429 + Retry-After.
	slow=$(curl -sf -X POST "$base/v1/jobs" -d '{"molecule":"benzene","basis":"6-31g(d)","mode":"serial"}' | jq -r .id)
	# Fill the queue slot once the worker has claimed benzene (retry the
	# harmless 429 window between submit and claim).
	q1=""
	i=0
	while [ -z "$q1" ]; do
		i=$((i + 1))
		[ "$i" -gt 50 ] && { echo "serve gate: queue slot never freed"; exit 1; }
		q1=$(curl -s -X POST "$base/v1/jobs" \
			-d '{"molecule":"water","basis":"sto-3g","mode":"serial","max_iter":99}' | jq -r '.id // empty')
		[ -z "$q1" ] && sleep 0.1
	done
	code=$(curl -s -o "$servedir/resp429" -w '%{http_code}' -X POST "$base/v1/jobs" \
		-d '{"molecule":"water","basis":"sto-3g","mode":"serial","max_iter":98}')
	[ "$code" = "429" ] || { echo "serve gate: expected 429, got $code: $(cat "$servedir/resp429")"; exit 1; }
	retry_after=$(curl -s -D - -o /dev/null -X POST "$base/v1/jobs" \
		-d '{"molecule":"water","basis":"sto-3g","mode":"serial","max_iter":98}' | tr -d '\r' | awk 'tolower($1)=="retry-after:"{print $2}')
	[ -n "$retry_after" ] || { echo "serve gate: 429 carried no Retry-After"; exit 1; }
	echo "serve gate: backpressure 429 observed (Retry-After ${retry_after}s)"

	# Cancel the backlog (DELETE must stop both the running benzene and the
	# queued water) so the drain below is quick.
	curl -sf -X DELETE "$base/v1/jobs/$slow" >/dev/null
	curl -sf -X DELETE "$base/v1/jobs/$q1" >/dev/null

	kill -TERM "$servepid"
	wait "$servepid" || { echo "serve gate: drain failed"; cat "$servedir/serve.log"; exit 1; }
	servepid=""
	grep -q "drained cleanly" "$servedir/serve.log" || { echo "serve gate: no clean-drain confirmation"; cat "$servedir/serve.log"; exit 1; }
	echo "serve gate: drained cleanly"

	go run ./cmd/scaling -exp serve

	# The parsers behind a served job's inline geometry and a registered
	# basis, the content hash that dedups served jobs, the checkpoint
	# decoder, the WAL segment decoder and the submit handler's spec
	# decoder: 30 s of native fuzzing each, from the committed seed
	# corpora.
	go test -run '^$' -fuzz '^FuzzParseXYZ$' -fuzztime 30s ./internal/molecule/
	go test -run '^$' -fuzz '^FuzzParseGBS$' -fuzztime 30s ./internal/basis/
	go test -run '^$' -fuzz '^FuzzSpecCanonicalHash$' -fuzztime 30s ./internal/jobs/
	go test -run '^$' -fuzz '^FuzzLoadCheckpoint$' -fuzztime 30s ./internal/scf/
	go test -run '^$' -fuzz '^FuzzReplaySegment$' -fuzztime 30s ./internal/jobs/
	go test -run '^$' -fuzz '^FuzzSubmitSpec$' -fuzztime 30s ./internal/service/
}

tier_6() {
	echo "== tier 6: performance-fault gate (scaling -exp chaos + -race property tests) =="
	go run ./cmd/scaling -exp chaos
	race_rerun 'TestChaos|TestLeaseHedge|TestLeaseExpired|TestStraggler|TestResilientHedges|TestResilientReclaimsExpiredLease|TestRetryBackoffJitter' \
		./internal/mpi/ ./internal/ddi/ ./internal/fock/ ./cmd/scaling/
}

tier_7() {
	echo "== tier 7: fleet gate (scaling -exp fleet + -race WAL fuzz) =="
	go run ./cmd/scaling -exp fleet
	race_rerun 'TestWALCrashPoint|TestWALReplay|TestWALSegment|TestWALDisable|TestCrashReplay|TestFleet' \
		./internal/jobs/ ./internal/service/ ./cmd/scaling/
}

tier_8() {
	echo "== tier 8: observability gate (scaling -exp obs + tracecheck -continuity) =="
	go run ./cmd/scaling -exp obs -obs-trace "$tracedir/obs_trace.json"
	go run ./cmd/tracecheck -q -continuity \
		-require svc.job,job.run,scf.iter,fock.build,mpi.op,dlb.draw "$tracedir/obs_trace.json"
	echo "obs gate: waterfall + continuity held"
}

tier_9() {
	echo "== tier 9: elastic gate (scaling -exp elastic + -race membership tests) =="
	go run ./cmd/scaling -exp elastic
	race_rerun 'TestMembership|TestElastic|TestCheckpointGrow|TestAutoscaler|TestResize|TestFleetFetch|TestFetchBackoff' \
		./internal/mpi/ ./internal/scf/ ./internal/service/
}

tier_10() {
	echo "== tier 10: distmat gate (scaling -exp distmat + -race tile/purification tests) =="
	go run ./cmd/scaling -exp distmat
	go test -race ./internal/distmat/
	race_rerun 'TestTiledBuild|TestRunRHFPurified' ./internal/fock/ ./internal/scf/
}

tier_11() {
	echo "== tier 11: ABFT gate (scaling -exp abft + -race checksum/resilient tests) =="
	go run ./cmd/scaling -exp abft
	race_rerun 'TestABFT|TestSalvage|TestPurifyChaos|TestPurifiedResilient|TestTileReader|TestTileAccum' \
		-short ./internal/distmat/ ./internal/scf/
}

if [ -n "$tier" ]; then
	"tier_$tier"
	echo "ci: tier $tier green"
else
	tier_1
	tier_2
	tier_3
	tier_4
	tier_5
	tier_6
	tier_7
	tier_8
	tier_9
	tier_10
	tier_11
	echo "ci: all green"
fi
