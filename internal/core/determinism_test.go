package core

// End-to-end determinism of the delta-repair pipeline: one scripted
// event stream, replayed through the controller, must leave the world's
// anycast Result and the advertisement config byte-identical across
// solver worker counts (extending the sharded_test contract through the
// event layer) and across separate OS processes (pinning that nothing —
// map iteration, pointer hashing, scheduling — leaks into the delta
// engine's output).

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"testing"

	"painter/internal/netsim"
)

// determinismDigest replays the scripted chaos stream through a repair
// controller with the given worker count and folds every post-sync
// anycast Result encoding and config encoding into one digest.
func determinismDigest(t *testing.T, workers int) []byte {
	t.Helper()
	b := newBench(t, 43)
	p := DefaultParams(ctrlBudget)
	p.Workers = workers
	c, err := NewController(b.world, b.ugs, ControllerParams{Solver: p})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	all := b.world.Deploy.AllPeeringIDs()
	asns := b.world.Graph.ASNs()
	events := []netsim.Event{
		{Kind: netsim.EventPeeringDown, Ingress: all[0]},
		{Kind: netsim.EventPrefFlip, AS: asns[len(asns)/3], Ingress: all[1]},
		{Kind: netsim.EventLatencySpike, Ingress: all[2], Ms: 45},
		{Kind: netsim.EventPeeringUp, Ingress: all[0]},
		{Kind: netsim.EventPoPDown, PoP: b.world.Deploy.Peering(all[3]).PoP},
		{Kind: netsim.EventProbeLoss, Ingress: all[1], Pct: 25},
		{Kind: netsim.EventPrefFlip, AS: asns[len(asns)/2], Ingress: all[0]},
		{Kind: netsim.EventPoPUp, PoP: b.world.Deploy.Peering(all[3]).PoP},
		{Kind: netsim.EventLatencySpike, Ingress: all[2], Ms: 0},
		{Kind: netsim.EventPrefFlip, AS: asns[2*len(asns)/3], Ingress: all[2]},
	}

	h := sha256.New()
	res, err := b.world.ResolveIngress(all)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(res.Bytes())
	for _, ev := range events {
		if err := b.world.ApplyEvent(ev); err != nil {
			t.Fatal(err)
		}
		cfg, _, err := c.Sync()
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.world.ResolveIngress(all)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(res.Bytes())
		h.Write(configBytes(cfg))
	}
	return h.Sum(nil)
}

func TestDeltaDeterminismAcrossWorkerCounts(t *testing.T) {
	base := determinismDigest(t, 1)
	for _, workers := range []int{2, 4, 7} {
		if got := determinismDigest(t, workers); !bytes.Equal(base, got) {
			t.Fatalf("digest with %d workers differs from sequential: %x vs %x", workers, got, base)
		}
	}
}

const determinismChildEnv = "PAINTER_DETERMINISM_CHILD"

// TestDeltaDeterminismAcrossProcesses re-executes the test binary and
// compares the child's digest with this process's own.
func TestDeltaDeterminismAcrossProcesses(t *testing.T) {
	if os.Getenv(determinismChildEnv) == "1" {
		fmt.Printf("determinism-digest:%x\n", determinismDigest(t, 2))
		return
	}
	if testing.Short() {
		t.Skip("short mode: no subprocess run")
	}
	want := fmt.Sprintf("determinism-digest:%x", determinismDigest(t, 2))

	cmd := exec.Command(os.Args[0], "-test.run=TestDeltaDeterminismAcrossProcesses$", "-test.v")
	cmd.Env = append(os.Environ(), determinismChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child process failed: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte(want)) {
		t.Fatalf("child digest differs from parent's %s\nchild output:\n%s", want, out)
	}
}
