package knl

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMachineSpecs(t *testing.T) {
	theta := Theta()
	if theta.MaxNodes != 3624 {
		t.Fatalf("Theta nodes = %d (Table 1 says 3,624)", theta.MaxNodes)
	}
	if theta.Node.Model != "Xeon Phi 7230" {
		t.Fatalf("Theta node = %s", theta.Node.Model)
	}
	jlse := JLSE()
	if jlse.MaxNodes != 10 || jlse.Node.Model != "Xeon Phi 7210" {
		t.Fatalf("JLSE spec wrong: %+v", jlse)
	}
}

func TestAllreduceTimeProperties(t *testing.T) {
	net := Aries()
	if net.AllreduceTime(1<<20, 1) != 0 {
		t.Fatal("single rank allreduce must be free")
	}
	// Grows with payload.
	if net.AllreduceTime(1<<30, 64) <= net.AllreduceTime(1<<20, 64) {
		t.Fatal("allreduce not monotone in bytes")
	}
	// Latency term grows with rank count (log), bandwidth term saturates:
	// time(2P) >= time(P) always.
	f := func(kb uint16, p uint8) bool {
		bytes := int64(kb)*1024 + 8
		ranks := int(p)%1000 + 2
		return net.AllreduceTime(bytes, 2*ranks) >= net.AllreduceTime(bytes, ranks)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworksDistinct(t *testing.T) {
	a, o := Aries(), OmniPath()
	if a.Name == o.Name {
		t.Fatal("networks should be distinguishable")
	}
	if a.RMALatencySec <= 0 || o.RMALatencySec <= 0 {
		t.Fatal("RMA latency unset")
	}
}

func TestJobArithmetic(t *testing.T) {
	j := Job{Nodes: 8, RanksPerNode: 4, ThreadsPerRank: 64}
	if j.TotalRanks() != 32 || j.HWThreadsPerNode() != 256 {
		t.Fatalf("job arithmetic wrong: %+v", j)
	}
}

func TestValidate(t *testing.T) {
	theta := Theta()
	cases := []struct {
		job Job
		ok  bool
	}{
		{Job{Nodes: 4, RanksPerNode: 4, ThreadsPerRank: 64}, true},
		{Job{Nodes: 3624, RanksPerNode: 256, ThreadsPerRank: 1}, true},
		{Job{Nodes: 0, RanksPerNode: 4, ThreadsPerRank: 64}, false},
		{Job{Nodes: 4000, RanksPerNode: 4, ThreadsPerRank: 64}, false},
		{Job{Nodes: 4, RanksPerNode: 0, ThreadsPerRank: 64}, false},
		{Job{Nodes: 4, RanksPerNode: 4, ThreadsPerRank: 65}, false}, // 260 > 256
	}
	for i, c := range cases {
		err := theta.Validate(c.job)
		if (err == nil) != c.ok {
			t.Fatalf("case %d: err=%v ok=%v", i, err, c.ok)
		}
	}
}

func TestWithModes(t *testing.T) {
	m := JLSE().WithModes(AllToAll, FlatDDR)
	if m.Node.ClusterModeUsed != AllToAll || m.Node.MemoryModeUsed != FlatDDR {
		t.Fatal("WithModes did not propagate to the node")
	}
	// Original untouched (value semantics).
	if JLSE().Node.ClusterModeUsed != Quadrant {
		t.Fatal("WithModes mutated the constructor default")
	}
}

func TestSystemMTBF(t *testing.T) {
	theta := Theta()
	// One node: the system MTBF is the node MTBF.
	if got := theta.SystemMTBFSec(1); got != nodeMTBFHours*3600 {
		t.Fatalf("1-node MTBF = %v s", got)
	}
	// Rates add: n nodes fail n times as often.
	if got, want := theta.SystemMTBFSec(3000), nodeMTBFHours*3600/3000.0; got != want {
		t.Fatalf("3000-node MTBF = %v s, want %v", got, want)
	}
	// Full Theta with a 2-year node MTBF fails about every 4.8 hours.
	if h := theta.SystemMTBFSec(3624) / 3600; h < 4 || h > 6 {
		t.Fatalf("full-Theta MTBF = %v h, expected ~4.8", h)
	}
	// Both machines share the one node MTBF: the system MTBF depends only
	// on the node count.
	if got, want := JLSE().SystemMTBFSec(10), theta.SystemMTBFSec(10); got != want || got != nodeMTBFHours*3600/10.0 {
		t.Fatalf("10-node MTBF: JLSE %v s, Theta %v s, want %v", got, want, nodeMTBFHours*3600/10.0)
	}
	if !math.IsInf((Machine{}).SystemMTBFSec(0), 1) {
		t.Fatal("zero nodes must never fail")
	}
}
