#!/bin/sh
# ci.sh — the repo's verification gate.
#
# Tier 1 (required green before any merge):
#   go vet ./... && go build ./... && go test ./...
# plus the nested bench/ module (the repository benchmark compiles against
# internal/fock, internal/scf and internal/ddi but is invisible to the
# root ./... patterns), and the structure gate. Fock layer: non-test
# internal/fock has exactly one .ShellQuartet( call site, exactly one
# func digest and no per-element sink add (sinks take one addBlock call
# per block), Schwarz screening (sch.Screened/sch.Bound) in one function
# only, and no hand-synced copies (no "KEEP IN SYNC"). Integrals layer: exactly one
# ShellQuartet method in non-test internal/integrals (the production
# *PairCache; the direct McMurchie-Davidson oracle is the test-only
# package internal/integrals/oracle), and the production kernel
# file paircache.go stays flat and allocation-free by construction: no
# math.Pow( and no [][][]float64 in it, and it runs a quartet's primitive
# loops with one lanes.quartet call (no other lanes. body function).
# SCF layer: exactly one `for iter :=` loop in non-test internal/scf, exactly one
# mpi.RunWithOptions( world-launch site in non-test internal/scf plus
# the root package, basis.Build( in api.go/properties.go only in the one
# engine constructor and DescribeBasis, and no exported root function
# named Run*Ctx (one entry point, repro.Run, takes the context).
# Team runtime (internal/omp): exactly one sync.NewCond (the barrier's
# park fallback; everything before it is atomics) and exactly one
# tc.Barrier() inside walker.teamFetch; the barrier/loop-counter tests and
# the per-build barrier counts of Algorithms 2-3 rerun under -race -count=3.
# Nothing unreached stays: every internal/ package is a dependency of a
# cmd/ main, the root facade or bench/; internal/linalg does not import
# internal/omp (one eigensolver); non-test internal/mpi has no .root hop
# and no subWorlds (one world); walker.go has no dmax/keep branch.
# Production links one ERI implementation: no cmd/ main, the facade or
# bench/ depends on internal/integrals/oracle, no symbol of it is in the
# hfrun, hfserve or benchmark binary, and hfrun refuses -mp2 where there is
# no RHF reference (-uhf, -opt) with exit 2 instead of dropping it.
# Experiment code stays out of production packages: no non-test file of
# internal/service imports math/rand or defines a func Run*, and hfserve
# has no loadgen flag. The serving pool is not a rank pool: internal/service
# does not import internal/mpi, and the in-process join bus stays deleted
# (no non-test file outside bench/ names JoinBus, JoinFrame, JoinBackoff,
# corruptNext or AttachMembership). The model is a leaf: `go list -deps
# ./internal/simulate` names no repo package outside basis, molecule,
# integrals, linalg and knl (it is a model, not a runtime client).
# Every option earns its place: TestOptionBudget pins the exported-field
# count of the eight configuration structs; the knobs made constant or
# derived (LeaseTTL, HedgeMinSamples, WatchTick, MaxRetryAfter,
# WALSegment, WALKeepDone, HighDepthPerWorker, SharedThreadContentionLog,
# SCFModel, MigrateMinSamples, CostModel, NodeMTBFHours, the autoscaler's
# Interval and DownAfterTicks) are named by no non-test file outside
# bench/; and internal/simulate returns rows only — no func Format*, no func CSV* (cmd/scaling builds the one table of each
# artifact). One matrix product: the scalar update `crow[j] += ...
# brow[j]` appears in non-test Go only in linalg's pure-Go MulAdd body.
# The density step squares symmetric X: internal/distmat's ops.go and
# purify.go hold no GetTile( (every op reads through readTile, owned
# tiles in place) and purify.go no MatMul( (SP2 squares with Square).
# ABFT parity is one group table: non-test internal/distmat names none
# of the row/column twins (rowGroupSum, colGroupSum, rowParityTile,
# colParityTile, fromRowGroup, fromColGroup) nor rowOwner/colOwner, and
# the two placement rules rowParityOwner( and colParityOwner( are called
# from parityPlan only. One-sided windows are handles (mpi.Comm.WinCreate
# returns an *mpi.Win, matched across ranks by creation order): no
# non-test file outside bench/ names a name-keyed window method
# (WinCreateCounters, CounterLoad, CounterStore, CounterCAS, WinPut,
# WinGet, WinAcc, WinShared, a three-argument FetchAdd, an exported Comm
# method taking `name string`), getWindow, SetMembershipEpoch, NewShrunk,
# matSeq or a Sprintf-built "ddi.|dm.|fock.|purify.|lease." window name.
# Non-test internal/linalg declares no type Packed.
# One event ring per telemetry session: non-test internal/telemetry
# declares no FlightRecorder or FlightEntry and calls no .Note(, and
# Session holds exactly one event store (one *Recorder field, no
# []Event or other recorder beside it); flight dumps are the ring's tail.
# One record per Fock build: no non-test Go outside bench/ names
# LoadCollector, RecordLoad or Loads, exactly one non-test site under
# internal/ opens a "fock.build" span — scf's buildSpan — and both the
# replicated/serial wrapper (instrument) and the tiled step open their
# builds through it; the imbalance report is reduced from those spans.
# The pure-Go bodies of the ERI kernel and of MulAdd vet under
# GOARCH=arm64 (no assembly there); the kernel's sweep and probe
# benchmarks, the digest benchmark, BenchmarkMulAdd/{scalar,kernel},
# BenchmarkSquare and BenchmarkPurify run once (-benchtime 1x); hfrun -xyz refuses a NaN
# coordinate with an error (non-zero exit, no panic); and the layout gate
# builds hfrun, hfserve and the benchmark and fails unless the k loop of
# linalg.gemm4x8AVX starts at 0 mod 64 in each (go tool objdump),
# printing where it and the ERI kernel's functions start.
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
# accepted, a finite density round-trips bit for bit) and the WAL segment
# decoder (FuzzReplaySegment: no panic, bytes discarded exactly when
# corruption is reported, framed records replay clean), from the seed
# corpora under each package's testdata/fuzz/.
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

	fock_src=$(ls internal/fock/*.go | grep -v _test.go)
	calls=$(cat $fock_src | grep -c '\.ShellQuartet(' || true)
	[ "$calls" -eq 1 ] || { echo "structure gate: $calls .ShellQuartet( call sites in internal/fock, want exactly 1 (the walker)"; exit 1; }
	digests=$(cat $fock_src | grep -c '^func digest(' || true)
	[ "$digests" -eq 1 ] || { echo "structure gate: $digests func digest in internal/fock, want exactly 1 (the block-wise digest)"; exit 1; }
	if grep -nE '^[[:space:]]*add\(role, x, y int, v float64\)|^func \([^)]*\) add\(' $fock_src; then
		echo "structure gate: a per-element sink add is back in internal/fock; sinks take one addBlock call per block"
		exit 1
	fi
	screens=$(awk '/^func /{fn=FILENAME": "$0} /sch\.(Screened|Bound)\(/{print fn}' $fock_src | sort -u)
	[ "$(echo "$screens" | grep -c .)" -eq 1 ] || { echo "structure gate: Schwarz screening must live in exactly one function, found:"; echo "$screens"; exit 1; }
	if grep -l 'KEEP IN SYNC' $fock_src; then
		echo "structure gate: a hand-synced copy is back in internal/fock"
		exit 1
	fi

	int_src=$(ls internal/integrals/*.go | grep -v _test.go)
	kernels=$(cat $int_src | grep -c '^func (.*) ShellQuartet(' || true)
	[ "$kernels" -eq 1 ] && grep -q '^func ([a-z]* \*PairCache) ShellQuartet(' $int_src ||
		{ echo "structure gate: $kernels ShellQuartet methods in internal/integrals, want exactly 1 (*PairCache; the oracle lives in internal/integrals/oracle)"; exit 1; }
	if grep -n 'math\.Pow(\|\[\]\[\]\[\]float64' internal/integrals/paircache.go; then
		echo "structure gate: the production kernel file uses math.Pow or nested [][][]float64 tables again"
		exit 1
	fi
	if sed 's://.*$::' internal/integrals/paircache.go | grep -n '\blanes\.[A-Za-z_]' | grep -v '\blanes\.quartet('; then
		echo "structure gate: paircache.go reaches into a 4-lane body other than through lanes.quartet (one call per quartet)"
		exit 1
	fi

	conds=$(cat $(ls internal/omp/*.go | grep -v _test.go) | grep -c 'sync\.NewCond(' || true)
	[ "$conds" -eq 1 ] || { echo "structure gate: $conds sync.NewCond( in internal/omp, want exactly 1 (the barrier's park fallback)"; exit 1; }
	fetch_barriers=$(awk '/^func \(w \*walker\) teamFetch\(/{in_fn=1} in_fn&&/tc\.Barrier\(\)/{n++} in_fn&&/^}/{in_fn=0} END{print n+0}' internal/fock/walker.go)
	[ "$fetch_barriers" -eq 1 ] || { echo "structure gate: $fetch_barriers tc.Barrier() calls in walker.teamFetch, want exactly 1"; exit 1; }
	race_rerun 'TestBarrier|TestFor' -count=3 ./internal/omp/
	race_rerun 'TestTeamBarrierCounts' -count=3 ./internal/fock/

	scf_src=$(ls internal/scf/*.go | grep -v _test.go)
	root_src=$(ls *.go | grep -v _test.go)
	loops=$(cat $scf_src | grep -c 'for iter :=' || true)
	[ "$loops" -eq 1 ] || { echo "structure gate: $loops 'for iter :=' loops in internal/scf, want exactly 1 (iterate)"; exit 1; }
	launches=$(cat $scf_src $root_src | grep -c 'mpi\.RunWithOptions(' || true)
	[ "$launches" -eq 1 ] || { echo "structure gate: $launches mpi.RunWithOptions( sites in internal/scf + root, want exactly 1 (supervise)"; exit 1; }
	builds=$(cat api.go properties.go | grep -c 'basis\.Build(' || true)
	[ "$builds" -eq 2 ] || { echo "structure gate: $builds basis.Build( sites in api.go/properties.go, want exactly 2 (engineFor, DescribeBasis)"; exit 1; }
	if grep -n '^func Run.*Ctx' $root_src; then
		echo "structure gate: a Run*Ctx twin is back in the facade; repro.Run takes the context"
		exit 1
	fi

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
	if go list -f '{{join .Imports "\n"}}' ./internal/linalg | grep -x 'repro/internal/omp'; then
		echo "structure gate: internal/linalg imports internal/omp again (one eigensolver: tred2/tqli)"
		exit 1
	fi
	if grep -n '\.root\b\|subWorlds' $(ls internal/mpi/*.go | grep -v _test.go); then
		echo "structure gate: internal/mpi has one world; sub-communicators are gone"
		exit 1
	fi
	if grep -n 'dmax\|keep' internal/fock/walker.go; then
		echo "structure gate: walker.quartet is bound -> count -> ShellQuartet -> digest, with no extension branch"
		exit 1
	fi

	svc_src=$(ls internal/service/*.go | grep -v _test.go)
	if grep -n '"math/rand"\|^func Run[A-Z]' $svc_src; then
		echo "structure gate: an experiment harness is back in internal/service (it belongs in cmd/scaling)"
		exit 1
	fi
	if go list -deps ./internal/simulate | grep '^repro/' |
		grep -vx 'repro/internal/\(basis\|molecule\|integrals\|linalg\|knl\|simulate\)'; then
		echo "structure gate: internal/simulate is a model and links no runtime; live workloads belong in cmd/scaling"
		exit 1
	fi
	if go list -f '{{join .Imports "\n"}}' ./internal/service | grep -x 'repro/internal/mpi'; then
		echo "structure gate: internal/service imports internal/mpi again (the worker pool does not ride the rank join protocol)"
		exit 1
	fi
	if go run ./cmd/hfserve -h 2>&1 | grep -i loadgen; then
		echo "structure gate: hfserve serves; the load test is scaling -exp serve"
		exit 1
	fi

	# Every option earns its place (DESIGN.md §6).
	go test -count=1 -run '^TestOptionBudget$' -v . | grep -q '^--- PASS: TestOptionBudget' ||
		{ echo "structure gate: TestOptionBudget did not run and pass"; exit 1; }
	nontest=$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*')
	if grep -n 'LeaseTTL\|HedgeMinSamples\|WatchTick\|MaxRetryAfter\|WALSegment\b\|WALKeepDone\|HighDepthPerWorker\|SharedThreadContentionLog\|SCFModel\|MigrateMinSamples\|CostModel\|NodeMTBFHours\|\bInterval\b\|DownAfterTicks' $nontest; then
		echo "structure gate: an option made a constant (or derived) is back; see TestOptionBudget for the rule"
		exit 1
	fi
	if grep -n 'JoinBus\|JoinFrame\|JoinBackoff\|corruptNext\|AttachMembership' $nontest; then
		echo "structure gate: the in-process join bus is back; Membership.Announce appends under its lock"
		exit 1
	fi
	if grep -n '\.Steal()\|\.Hedge(\|\.Expired(\|\.DrawChunk(' $(echo "$nontest" | grep -v '^\./internal/ddi/'); then
		echo "structure gate: a lease consumer draws or re-issues tasks itself; ddi.LeaseDLB.Drain is the one drain loop"
		exit 1
	fi
	if grep -n '^func Format\|^func CSV' $(ls internal/simulate/*.go | grep -v _test.go); then
		echo "structure gate: internal/simulate returns rows; cmd/scaling renders each artifact's one table"
		exit 1
	fi

	# One matrix product: the scalar update of the i-k-j loop lives only in
	# linalg's pure-Go body of MulAdd; every other product calls MulAdd.
	updates=$(grep -n 'crow\[j\] +=.*brow\[j\]' $nontest || true)
	[ "$(echo "$updates" | grep -c .)" -eq 1 ] && echo "$updates" | grep -q '^\./internal/linalg/gemm\.go:' ||
		{ echo "structure gate: a scalar product loop outside linalg.mulAddGo; call linalg.MulAdd:"; echo "$updates"; exit 1; }

	# The density step: the distmat ops read tiles through readTile (owned
	# tiles in place, no copy), and SP2 squares X with Square (one product
	# per mirrored tile pair), not a general MatMul.
	if grep -n 'GetTile(' internal/distmat/ops.go internal/distmat/purify.go; then
		echo "structure gate: a distmat op copies tiles with GetTile; read through readTile"
		exit 1
	fi
	if grep -n 'MatMul(' internal/distmat/purify.go; then
		echo "structure gate: purify.go multiplies with MatMul; SP2 squares symmetric X with Square"
		exit 1
	fi

	# ABFT parity is one group table: one sum, one parity read and one
	# salvage peel over a group index, and one parityPlan that places the
	# groups for both NewABFT and the memory model (ABFTBytesPerRank).
	dm_src=$(ls internal/distmat/*.go | grep -v _test.go)
	if grep -nw 'rowGroupSum\|colGroupSum\|rowParityTile\|colParityTile\|fromRowGroup\|fromColGroup\|rowOwner\|colOwner' $dm_src; then
		echo "structure gate: a row/column twin of the ABFT parity code is back; work over the one group table"
		exit 1
	fi
	for rule in rowParityOwner colParityOwner; do
		all=$(sed 's://.*$::' $dm_src | grep -c "\b$rule(" || true)
		planned=$(sed -n '/^func parityPlan(/,/^}/p' $dm_src | sed 's://.*$::' | grep -c "\b$rule(" || true)
		# all counts the rule's own definition line too.
		[ "$planned" -ge 1 ] && [ "$all" -eq $((planned + 1)) ] ||
			{ echo "structure gate: $rule( is called outside parityPlan ($all sites, $planned in parityPlan); place parity groups through parityPlan only"; exit 1; }
	done
	# One-sided windows are handles: mpi.Comm.WinCreate creates them
	# collectively in call order and returns an *mpi.Win; nothing looks a
	# window up by name, keys one by membership epoch or numbers matrices.
	if grep -nwE 'WinCreateCounters|CounterLoad|CounterStore|CounterCAS|WinPut|WinGet|WinAcc|WinShared|getWindow|SetMembershipEpoch|NewShrunk|matSeq' $nontest ||
		grep -nE '^func \(c \*Comm\) [A-Z][A-Za-z]*\(name string|\.FetchAdd\([^,()]*,[^,()]*,|Sprintf\("(ddi|dm|fock|purify|lease)\.' $nontest; then
		echo "structure gate: a name-keyed window is back; create windows with Comm.WinCreate and keep the *mpi.Win it returns"
		exit 1
	fi
	if grep -n '^type Packed\b' $(ls internal/linalg/*.go | grep -v _test.go); then
		echo "structure gate: linalg.Packed is back; PackedIndex is the one packed-order helper"
		exit 1
	fi
	tel_src=$(ls internal/telemetry/*.go | grep -v _test.go)
	if grep -nw 'FlightRecorder\|FlightEntry' $tel_src || grep -n '\.Note(' $tel_src; then
		echo "structure gate: a second event store is back in internal/telemetry; Logf and flight dumps use the one trace ring"
		exit 1
	fi
	session=$(sed -n '/^type Session struct {/,/^}/p' $tel_src | sed 's://.*$::')
	stores=$(echo "$session" | grep -ci 'recorder\|flight\|\bring\b\|event' || true)
	recorders=$(echo "$session" | grep -c '^[[:space:]]*Recorder[[:space:]]*\*Recorder[[:space:]]*$' || true)
	[ "$stores" -eq 1 ] && [ "$recorders" -eq 1 ] ||
		{ echo "structure gate: telemetry.Session holds $stores event stores, want exactly one Recorder *Recorder:"; echo "$session"; exit 1; }
	if grep -nw 'LoadCollector\|RecordLoad\|Loads' $nontest; then
		echo "structure gate: a second per-build load store is back; the fock.build span is the one record and Summary reduces the ring"
		exit 1
	fi
	opens=$(grep -nE '\("fock\.build",' $(find internal -name '*.go' -not -name '*_test.go') || true)
	[ "$(echo "$opens" | grep -c .)" -eq 1 ] &&
		sed -n '/^func buildSpan(/,/^}/p' internal/scf/builders.go | grep -q '("fock\.build",' &&
		sed -n '/^func instrument(/,/^}/p' internal/scf/builders.go | grep -q 'buildSpan(' &&
		grep -q 'buildSpan(' internal/scf/tiled.go ||
		{ echo "structure gate: fock.build spans must be opened at exactly one site, scf.buildSpan, reached by instrument and the tiled step; openers:"; echo "$opens"; exit 1; }

	# The pure-Go bodies of the ERI kernel and of MulAdd are all a CPU
	# without AVX/FMA, or another architecture, runs: they keep compiling
	# there. The kernel's sweep and probe benchmarks, the digest benchmark,
	# the product's scalar-vs-kernel benchmark and one SP2 density step run
	# once, so they keep compiling and their counts keep holding.
	GOARCH=arm64 go vet ./internal/integrals/ ./internal/linalg/
	go test -run '^$' -bench 'KernelSweep|KernelProbe' -benchtime 1x ./internal/integrals/ >/dev/null
	go test -run '^$' -bench 'Digest' -benchtime 1x ./internal/fock/ >/dev/null
	go test -run '^$' -bench '^BenchmarkMulAdd$/^(scalar|kernel)$' -benchtime 1x ./internal/linalg/ >/dev/null
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
# unless the k loop of the matrix-product kernel (linalg.gemm4x8AVX, the
# density step's hot loop) starts at 0 mod 64 in each: its PCALIGN $64
# puts it there whatever text precedes it, and this checks that it still
# does. It prints where that loop and the ERI kernel's functions start, the
# assembly ones included, since new text upstream is what moves them.
layout_gate() {
	loop=$(awk '/^kloop:/ { print NR + 1; exit }' internal/linalg/gemm_amd64.s)
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
		addr=$(go tool objdump -s '^repro/internal/linalg\.gemm4x8AVX' "$tracedir/$bin" |
			awk -v at="gemm_amd64.s:$loop" '$1 == at && !n++ { print $2 }')
		echo "layout: $bin linalg.gemm4x8AVX k loop at $((${addr:-0} % 64)) mod 64"
		[ -n "$addr" ] && [ $((addr % 64)) -eq 0 ] ||
			{ echo "layout gate: the k loop of linalg.gemm4x8AVX in $bin is not at 0 mod 64 (${addr:-missing}); it needs its PCALIGN \$64"; exit 1; }
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
	# decoder and the WAL segment decoder: 30 s of native fuzzing each,
	# from the committed seed corpora.
	go test -run '^$' -fuzz '^FuzzParseXYZ$' -fuzztime 30s ./internal/molecule/
	go test -run '^$' -fuzz '^FuzzParseGBS$' -fuzztime 30s ./internal/basis/
	go test -run '^$' -fuzz '^FuzzSpecCanonicalHash$' -fuzztime 30s ./internal/jobs/
	go test -run '^$' -fuzz '^FuzzLoadCheckpoint$' -fuzztime 30s ./internal/scf/
	go test -run '^$' -fuzz '^FuzzReplaySegment$' -fuzztime 30s ./internal/jobs/
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
