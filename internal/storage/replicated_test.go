package storage_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

// faultBackend wraps a Backend with switchable failure injection: dead
// replicas error on everything, write-rejecting replicas keep serving
// stale reads — the "lagging replica" every quorum test needs.
type faultBackend struct {
	base storage.Backend

	mu         sync.Mutex
	dead       bool
	rejectPuts bool
}

func newFault(base storage.Backend) *faultBackend { return &faultBackend{base: base} }

func (f *faultBackend) setDead(v bool) {
	f.mu.Lock()
	f.dead = v
	f.mu.Unlock()
}

func (f *faultBackend) setRejectPuts(v bool) {
	f.mu.Lock()
	f.rejectPuts = v
	f.mu.Unlock()
}

func (f *faultBackend) check(write bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return errors.New("fault: replica dead")
	}
	if write && f.rejectPuts {
		return errors.New("fault: replica rejecting writes")
	}
	return nil
}

func (f *faultBackend) Name() string                       { return "fault+" + f.base.Name() }
func (f *faultBackend) Capabilities() storage.Capabilities { return f.base.Capabilities() }
func (f *faultBackend) Put(key string, data []byte) error {
	if err := f.check(true); err != nil {
		return err
	}
	return f.base.Put(key, data)
}
func (f *faultBackend) Get(key string) ([]byte, error) {
	if err := f.check(false); err != nil {
		return nil, err
	}
	return f.base.Get(key)
}
func (f *faultBackend) List(prefix string) ([]string, error) {
	if err := f.check(false); err != nil {
		return nil, err
	}
	return f.base.List(prefix)
}
func (f *faultBackend) Delete(key string) error {
	if err := f.check(true); err != nil {
		return err
	}
	return f.base.Delete(key)
}
func (f *faultBackend) Stat(key string) (storage.ObjectInfo, error) {
	if err := f.check(false); err != nil {
		return storage.ObjectInfo{}, err
	}
	return f.base.Stat(key)
}

// newFaultSet builds a 3-way replicated store over fault-injectable mem
// replicas with majority quorums (W=2, R=2) and fast health timing.
func newFaultSet(t *testing.T) (*storage.Replicated, [3]*faultBackend, [3]*storage.Mem) {
	t.Helper()
	var faults [3]*faultBackend
	var mems [3]*storage.Mem
	members := make([]storage.Replica, 3)
	for i := range members {
		mems[i] = storage.NewMem()
		faults[i] = newFault(mems[i])
		members[i] = storage.Replica{Backend: faults[i], Domain: fmt.Sprintf("zone-%d", i)}
	}
	rb, err := storage.NewReplicated(storage.ReplicatedOptions{
		FailureThreshold: 2,
		ProbeInterval:    time.Millisecond,
	}, members...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rb.Close() })
	return rb, faults, mems
}

func TestReplicatedQuorumGeometry(t *testing.T) {
	mk := func(n int) []storage.Replica {
		out := make([]storage.Replica, n)
		for i := range out {
			out[i] = storage.Replica{Backend: storage.NewMem()}
		}
		return out
	}
	rb, err := storage.NewReplicated(storage.ReplicatedOptions{}, mk(3)...)
	if err != nil {
		t.Fatal(err)
	}
	info := rb.ReplicationInfo()
	if info.Replicas != 3 || info.WriteQuorum != 2 || info.ReadQuorum != 2 {
		t.Errorf("default geometry = %+v, want R=3 W=2 ReadQ=2", info)
	}
	if len(info.Domains) != 3 || info.Domains[0] != "replica-0" {
		t.Errorf("default domains = %v", info.Domains)
	}
	if _, err := storage.NewReplicated(storage.ReplicatedOptions{WriteQuorum: 4}, mk(3)...); err == nil {
		t.Error("accepted write quorum larger than the replica set")
	}
	// The read quorum is derived, so it overlaps every write quorum.
	if rb, err := storage.NewReplicated(storage.ReplicatedOptions{WriteQuorum: 1}, mk(3)...); err != nil {
		t.Error(err)
	} else if got := rb.ReplicationInfo().ReadQuorum; got != 3 {
		t.Errorf("W=1 over 3 replicas reads at quorum %d, want 3", got)
	}
	if _, err := storage.NewReplicated(storage.ReplicatedOptions{}); err == nil {
		t.Error("accepted empty replica set")
	}
}

// TestReplicatedSurvivesDeadReplica is the headline degradation test:
// with 1 of 3 replicas dead, every operation keeps working, and the data
// written while degraded is readable even when the read must route
// around the corpse.
func TestReplicatedSurvivesDeadReplica(t *testing.T) {
	rb, faults, _ := newFaultSet(t)
	if err := rb.Put("before", []byte("v-before")); err != nil {
		t.Fatal(err)
	}
	faults[2].setDead(true)

	if err := rb.Put("during", []byte("v-during")); err != nil {
		t.Fatalf("put with 1/3 dead: %v", err)
	}
	for _, key := range []string{"before", "during"} {
		got, err := rb.Get(key)
		if err != nil {
			t.Fatalf("get %q with 1/3 dead: %v", key, err)
		}
		if want := "v-" + key; string(got) != want {
			t.Errorf("get %q = %q, want %q", key, got, want)
		}
	}
	keys, err := rb.List("")
	if err != nil {
		t.Fatalf("list with 1/3 dead: %v", err)
	}
	if len(keys) != 2 {
		t.Errorf("list = %v", keys)
	}
	if err := rb.Delete("before"); err != nil {
		t.Fatalf("delete with 1/3 dead: %v", err)
	}
	if _, err := rb.Get("before"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("deleted key readable: %v", err)
	}

	// Two dead replicas break quorum: writes must fail loudly, not fake
	// success.
	faults[1].setDead(true)
	if err := rb.Put("split", []byte("x")); err == nil {
		t.Error("write succeeded without a quorum")
	}
}

// TestReplicatedLaggingReplicaNeverServesStale pins the stale-shadow-copy
// regression: a replica that missed an overwrite (or a delete) must never
// win a later read, in any quorum the reader happens to draw.
func TestReplicatedLaggingReplicaNeverServesStale(t *testing.T) {
	rb, faults, _ := newFaultSet(t)
	if err := rb.Put("m/latest", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	rb.Close() // barrier: let the v1 straggler land on every replica

	// Replica 2 stops taking writes: it keeps v1 while quorum moves on.
	faults[2].setRejectPuts(true)
	if err := rb.Put("m/latest", []byte("v2")); err != nil {
		t.Fatalf("overwrite with lagging replica: %v", err)
	}
	faults[2].setRejectPuts(false) // heal: stale copy now live again

	// Every read — including ones whose quorum contains the stale
	// replica — must return v2. Repeat to exercise different gather
	// orders.
	for i := 0; i < 20; i++ {
		got, err := rb.Get("m/latest")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "v2" {
			t.Fatalf("read %d returned stale value %q", i, got)
		}
	}

	// Same for a missed delete: the tombstone must mask the stale copy.
	faults[2].setRejectPuts(true)
	if err := rb.Delete("m/latest"); err != nil {
		t.Fatal(err)
	}
	faults[2].setRejectPuts(false)
	for i := 0; i < 20; i++ {
		if _, err := rb.Get("m/latest"); !errors.Is(err, storage.ErrNotFound) {
			t.Fatalf("read %d resurrected a deleted key: %v", i, err)
		}
		keys, err := rb.List("m/")
		if err != nil {
			t.Fatal(err)
		}
		if len(keys) != 0 {
			t.Fatalf("list %d shows tombstoned key: %v", i, keys)
		}
	}
}

// TestReplicatedReadRepairConverges: a quorum read through a stale
// replica must leave it repaired (synchronously for the quorum it
// joined, asynchronously for the rest), so one read heals the lag.
func TestReplicatedReadRepairConverges(t *testing.T) {
	rb, faults, mems := newFaultSet(t)
	if err := rb.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	rb.Close()
	faults[0].setRejectPuts(true)
	if err := rb.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	faults[0].setRejectPuts(false)
	if _, err := rb.Get("k"); err != nil {
		t.Fatal(err)
	}
	rb.Close() // drain async top-ups
	want, err := mems[1].Get("k")
	if err != nil {
		t.Fatal(err)
	}
	got, err := mems[0].Get("k")
	if err != nil {
		t.Fatalf("stale replica still missing the repaired object: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("read repair did not converge replica 0 onto the winner")
	}
}

func TestReplicatedRepairAntiEntropy(t *testing.T) {
	rb, faults, mems := newFaultSet(t)
	if err := rb.Put("a", []byte("va1")); err != nil {
		t.Fatal(err)
	}
	if err := rb.Put("b", []byte("vb1")); err != nil {
		t.Fatal(err)
	}
	rb.Close()

	faults[2].setRejectPuts(true)
	if err := rb.Put("a", []byte("va2")); err != nil {
		t.Fatal(err)
	}
	if err := rb.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if err := rb.Put("c", []byte("vc1")); err != nil {
		t.Fatal(err)
	}
	faults[2].setRejectPuts(false)
	rb.Close()

	stats, err := rb.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pushed == 0 {
		t.Error("repair pushed nothing despite a lagging replica")
	}
	if stats.Errors != 0 {
		t.Errorf("repair errors = %d", stats.Errors)
	}
	// After anti-entropy every replica holds identical raw objects.
	for _, key := range []string{"a", "b", "c"} {
		ref, refErr := mems[0].Get(key)
		for i := 1; i < 3; i++ {
			got, err := mems[i].Get(key)
			if (err == nil) != (refErr == nil) || !bytes.Equal(got, ref) {
				t.Errorf("replica %d diverges on %q after repair", i, key)
			}
		}
	}
	// And the logical view is unchanged: a=va2, b deleted, c=vc1.
	if got, _ := rb.Get("a"); string(got) != "va2" {
		t.Errorf("a = %q after repair", got)
	}
	if _, err := rb.Get("b"); !errors.Is(err, storage.ErrNotFound) {
		t.Errorf("b resurrected by repair: %v", err)
	}
	if got, _ := rb.Get("c"); string(got) != "vc1" {
		t.Errorf("c = %q after repair", got)
	}
}

func TestReplicatedHealthLifecycle(t *testing.T) {
	rb, faults, _ := newFaultSet(t)
	if err := rb.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	faults[1].setDead(true)
	// Two failed operations cross the threshold (FailureThreshold: 2).
	for i := 0; i < 2; i++ {
		if _, err := rb.Get("k"); err != nil {
			t.Fatal(err)
		}
	}
	rb.Close()
	var st storage.ReplicaStatus
	for _, s := range rb.Health() {
		if s.Index == 1 {
			st = s
		}
	}
	if st.Up {
		t.Fatalf("replica 1 still up after repeated failures: %+v", st)
	}
	if !st.NeedsRepair || st.Failures == 0 || st.LastError == "" {
		t.Errorf("down status incomplete: %+v", st)
	}
	if st.Domain != "zone-1" {
		t.Errorf("domain = %q", st.Domain)
	}

	// Recovery: the replica answers again, the probe lets it back in, and
	// it is marked up but still needing repair until anti-entropy runs.
	faults[1].setDead(false)
	time.Sleep(2 * time.Millisecond) // past ProbeInterval
	if err := rb.Put("k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	rb.Close()
	deadline := time.Now().Add(time.Second)
	for {
		var rec storage.ReplicaStatus
		for _, s := range rb.Health() {
			if s.Index == 1 {
				rec = s
			}
		}
		if rec.Up {
			if !rec.NeedsRepair {
				t.Errorf("recovered replica lost its repair flag before Repair ran: %+v", rec)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica 1 never recovered: %+v", rec)
		}
		time.Sleep(time.Millisecond)
		if err := rb.Put("k2", []byte("v2")); err != nil {
			t.Fatal(err)
		}
		rb.Close()
	}
	if _, err := rb.Repair(); err != nil {
		t.Fatal(err)
	}
	for _, s := range rb.Health() {
		if s.NeedsRepair {
			t.Errorf("replica %d still flagged after a clean repair", s.Index)
		}
	}
}

// gatedBackend holds each Put that passed the fault check until release is
// closed, announcing it on held first: a write admitted while the replica
// was alive that lands after the replica died.
type gatedBackend struct {
	*faultBackend
	held, release chan struct{}
}

func (g *gatedBackend) Put(key string, data []byte) error {
	if err := g.check(true); err != nil {
		return err
	}
	g.held <- struct{}{}
	<-g.release
	return g.base.Put(key, data)
}

// TestStragglerSuccessDoesNotReviveDeadReplica: a top-up write set out
// before an outage and landing after the failures that marked its replica
// down says nothing about the replica now — it stays down, its streak
// intact, until a probe succeeds.
func TestStragglerSuccessDoesNotReviveDeadReplica(t *testing.T) {
	members := make([]storage.Replica, 3)
	for i := range members {
		members[i] = storage.Replica{Backend: storage.NewMem()}
	}
	fault := newFault(storage.NewMem())
	// held has room for every Put this test makes: only the first two are
	// received, the rest must not block.
	gate := &gatedBackend{faultBackend: fault, held: make(chan struct{}, 8), release: make(chan struct{})}
	members[1].Backend = gate
	rb, err := storage.NewReplicated(storage.ReplicatedOptions{FailureThreshold: 2, ProbeInterval: time.Millisecond}, members...)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	status := func() storage.ReplicaStatus { return rb.Health()[1] }
	if err := rb.Put("m", []byte("v")); err != nil {
		t.Fatal(err)
	}
	<-gate.held
	close(gate.release)
	rb.Close() // settled on every replica
	gate.release = make(chan struct{})

	// A chunk write has no pre-write version probe: the fan-out is all that
	// reaches replica 1, and only the two Gets below fail on it.
	chunk := []byte("chunk")
	addr := storage.Hash(chunk)
	if err := rb.Put("chunks/"+addr[:2]+"/"+addr, chunk); err != nil { // replicas 0 and 2 make the quorum
		t.Fatal(err)
	}
	<-gate.held // replica 1's copy is in flight
	fault.setDead(true)
	for i := 0; i < 2; i++ {
		if _, err := rb.Get("m"); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); status().Up; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("two failing Gets did not mark replica 1 down: %+v", status())
		}
	}
	close(gate.release)
	rb.Close() // the straggler lands, successfully
	if st := status(); st.Up || st.Consecutive != 2 || !st.NeedsRepair {
		t.Fatalf("a straggler admitted before the outage changed the dead replica's health: %+v", st)
	}

	fault.setDead(false)
	time.Sleep(2 * time.Millisecond) // past ProbeInterval
	if err := rb.Put("k2", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	rb.Close()
	if st := status(); !st.Up || st.Consecutive != 0 || !st.NeedsRepair {
		t.Fatalf("a successful probe did not bring replica 1 back up, pending repair: %+v", st)
	}
}

func TestReplicatedCaps(t *testing.T) {
	rb, _, _ := newFaultSet(t)
	c := storage.Caps(rb)
	if c.Range == nil || c.Batch == nil || c.Ingest == nil || c.ClassWrite == nil || c.ClassIngest == nil {
		t.Error("replicated store missing declared capabilities")
	}
	if c.Orphans != nil {
		t.Error("replicated store must not forward per-replica orphan collection")
	}
	if c.Occupancy != nil {
		t.Error("occupancy declared over plain mem replicas")
	}
	if c.Replication.Replicas != 3 || c.Replication.WriteQuorum != 2 {
		t.Errorf("replication info = %+v", c.Replication)
	}
}

func TestNewReplicatedDir(t *testing.T) {
	dir := t.TempDir()
	rb, err := storage.NewReplicatedDir(dir, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if err := rb.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	rb.Close()
	// The replicas are dot-prefixed: a plain Local over the same dir must
	// not see them.
	l, err := storage.NewLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := l.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Errorf("replica directories leak into the plain view: %v", keys)
	}
	// Reopening finds the data (and a fresh clock that still overwrites
	// above the stored versions).
	rb2, err := storage.NewReplicatedDir(dir, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rb2.Close()
	got, err := rb2.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("reopen get = %q, %v", got, err)
	}
	if err := rb2.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := rb2.Get("k"); string(got) != "v2" {
		t.Errorf("overwrite after reopen = %q", got)
	}
}
