package remote_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/storage"
)

// --- flaky transport -------------------------------------------------

type faultKind int

const (
	faultNone        faultKind = iota
	faultConnReset             // fails before the request reaches the server
	faultTimeout               // net.Error timeout before reaching the server
	faultAfterSend             // request APPLIED server-side, response dropped
	faultTruncateRsp           // response body cut off mid-stream
)

type timeoutError struct{}

func (timeoutError) Error() string   { return "request timed out (injected)" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// flakyTransport injects faults per (method, path, attempt) and counts
// how many requests actually reached the server.
type flakyTransport struct {
	base   http.RoundTripper
	decide func(method, path string, attempt int) faultKind

	mu        sync.Mutex
	attempts  map[string]int
	forwarded map[string]int
}

func newFlaky(base http.RoundTripper, decide func(method, path string, attempt int) faultKind) *flakyTransport {
	return &flakyTransport{
		base:      base,
		decide:    decide,
		attempts:  make(map[string]int),
		forwarded: make(map[string]int),
	}
}

func (f *flakyTransport) counts(method, path string) (attempts, forwarded int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := method + " " + path
	return f.attempts[k], f.forwarded[k]
}

// truncatedBody yields half the payload then a mid-stream read error.
type truncatedBody struct {
	r    io.Reader
	done bool
}

func (tb *truncatedBody) Read(p []byte) (int, error) {
	if tb.done {
		return 0, errors.New("connection reset mid-body (injected)")
	}
	n, err := tb.r.Read(p)
	if err == io.EOF {
		tb.done = true
		err = nil
	}
	return n, nil
}

func (tb *truncatedBody) Close() error { return nil }

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	k := req.Method + " " + req.URL.Path
	f.mu.Lock()
	f.attempts[k]++
	kind := f.decide(req.Method, req.URL.Path, f.attempts[k])
	f.mu.Unlock()

	switch kind {
	case faultConnReset:
		return nil, errors.New("connection reset by peer (injected)")
	case faultTimeout:
		return nil, timeoutError{}
	}
	f.mu.Lock()
	f.forwarded[k]++
	f.mu.Unlock()
	resp, err := f.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch kind {
	case faultAfterSend:
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errors.New("connection reset before response (injected)")
	case faultTruncateRsp:
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = &truncatedBody{r: bytes.NewReader(data[:len(data)/2])}
		return resp, nil
	}
	return resp, nil
}

// stack builds the full server stack and returns its URL plus the Local
// (for lease-clock control in tests).
func newStack(t *testing.T) (string, *api.Local) {
	t.Helper()
	svc, err := core.NewService(core.ServiceOptions{Backend: storage.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	local := api.NewLocalOptions(svc, api.NewLeases(time.Minute), api.LocalOptions{})
	ts := httptest.NewServer(server.New(local, server.Options{}))
	t.Cleanup(ts.Close)
	return ts.URL, local
}

func fullState(n int, fp string) *core.TrainingState {
	st := core.NewTrainingState()
	st.Params = make([]float64, n)
	rng := rand.New(rand.NewSource(42))
	for i := range st.Params {
		st.Params[i] = rng.NormFloat64()
	}
	st.Meta = core.Meta{FormatVersion: core.FormatVersion, CircuitFP: fp, ProblemFP: fp, OptimizerName: "adam"}
	return st
}

// TestSaveRestoreSurvivesFlakyNetwork drives a real Manager through a
// transport that times out, resets connections, and truncates response
// bodies on a rotating schedule. Idempotent retries must absorb all of
// it: the save succeeds and the restore is bitwise identical.
func TestSaveRestoreSurvivesFlakyNetwork(t *testing.T) {
	url, _ := newStack(t)
	var n int
	var mu sync.Mutex
	decide := func(method, path string, attempt int) faultKind {
		// Never fault the commit itself here (that protocol has its own
		// test below); fault every 4th of everything else, cycling kinds.
		if method == http.MethodPut && strings.HasPrefix(path, api.PathObjects) {
			return faultNone
		}
		mu.Lock()
		n++
		k := n
		mu.Unlock()
		switch {
		case k%12 == 3:
			return faultConnReset
		case k%12 == 7:
			return faultTimeout
		case k%12 == 11:
			return faultTruncateRsp
		}
		return faultNone
	}
	flaky := newFlaky(http.DefaultTransport, decide)
	client, err := remote.Dial(url, remote.Options{Transport: flaky, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	m, err := core.NewManager(core.Options{Backend: client, Strategy: core.StrategyFull, ChunkBytes: core.MinChunkBytes, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := fullState(4096, "flaky")
	if _, err := m.Save(want); err != nil {
		t.Fatalf("save over flaky wire: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	got, _, err := core.LoadLatestBackendOptions(client, nil, core.RestoreOptions{})
	if err != nil {
		t.Fatalf("restore over flaky wire: %v", err)
	}
	if len(got.Params) != len(want.Params) {
		t.Fatalf("param count %d != %d", len(got.Params), len(want.Params))
	}
	for i := range want.Params {
		if got.Params[i] != want.Params[i] {
			t.Fatalf("restore not bitwise at %d", i)
		}
	}
}

// TestCommitNotBlindlyRetried pins the non-idempotent commit protocol.
// The first manifest PUT is applied server-side but its response is
// dropped; the client must read the key back, see its bytes, and return
// success WITHOUT re-sending the commit.
func TestCommitNotBlindlyRetried(t *testing.T) {
	url, _ := newStack(t)
	key := "jobs/j/ckpt-000000000001-full.qckpt"
	decide := func(method, path string, attempt int) faultKind {
		if method == http.MethodPut && strings.HasPrefix(path, api.PathObjects) && attempt == 1 {
			return faultAfterSend
		}
		return faultNone
	}
	flaky := newFlaky(http.DefaultTransport, decide)
	client, err := remote.Dial(url, remote.Options{Transport: flaky, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := []byte("the one true manifest")
	if err := client.Put(key, data); err != nil {
		t.Fatalf("put with dropped response: %v", err)
	}
	if _, fwd := flaky.counts(http.MethodPut, api.PathObjects+key); fwd != 1 {
		t.Errorf("commit sent %d times, want exactly 1 (blind retry of a non-idempotent op)", fwd)
	}
	got, err := client.Get(key)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("committed object wrong: %q %v", got, err)
	}
}

// TestCommitRetriedWhenNotApplied is the other half: when the failure
// happens before the request reaches the server, read-back misses and
// the client re-sends. The commit lands exactly once.
func TestCommitRetriedWhenNotApplied(t *testing.T) {
	url, _ := newStack(t)
	key := "jobs/j/ckpt-000000000002-full.qckpt"
	decide := func(method, path string, attempt int) faultKind {
		if method == http.MethodPut && strings.HasPrefix(path, api.PathObjects) && attempt == 1 {
			return faultConnReset
		}
		return faultNone
	}
	flaky := newFlaky(http.DefaultTransport, decide)
	client, err := remote.Dial(url, remote.Options{Transport: flaky, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := []byte("manifest v2")
	if err := client.Put(key, data); err != nil {
		t.Fatalf("put with pre-send reset: %v", err)
	}
	att, fwd := flaky.counts(http.MethodPut, api.PathObjects+key)
	if att != 2 || fwd != 1 {
		t.Errorf("attempts=%d forwarded=%d, want 2 attempts with 1 reaching the server", att, fwd)
	}
	got, err := client.Get(key)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("committed object wrong: %q %v", got, err)
	}
}

// TestTruncatedUploadRejected: a chunk body cut off in transit must not
// land (the server hash-verifies), and a clean retry with the full body
// must succeed.
func TestTruncatedUploadRejected(t *testing.T) {
	url, _ := newStack(t)
	client, err := remote.Dial(url, remote.Options{Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := []byte("chunk that will be truncated")
	addr := storage.Hash(data)
	key := core.ChunkPrefix + "/" + addr[:2] + "/" + addr
	if _, _, err := client.IngestKeyed(key, addr, data[:len(data)-5]); err == nil {
		t.Fatal("truncated chunk body accepted")
	}
	if _, err := client.Get(key); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("truncated upload left state behind: %v", err)
	}
	if w, ok, err := client.IngestKeyed(key, addr, data); err != nil || !ok || w != len(data) {
		t.Fatalf("clean retry: w=%d ok=%v err=%v", w, ok, err)
	}
}

// TestKilledClientLeavesReapableOrphans is the crash story: a client
// uploads chunks, dies before committing any manifest, and its leases
// lapse. The server-side collection reaps every orphan.
func TestKilledClientLeavesReapableOrphans(t *testing.T) {
	url, local := newStack(t)
	client, err := remote.Dial(url, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}

	const chunks = 5
	for i := 0; i < chunks; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, 512)
		addr := storage.Hash(data)
		key := core.ChunkPrefix + "/" + addr[:2] + "/" + addr
		if _, _, err := client.IngestKeyed(key, addr, data); err != nil {
			t.Fatal(err)
		}
	}
	client.Close() // the "kill": no manifest ever committed

	survivor, err := remote.Dial(url, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()

	// While leases are live, nothing is reaped.
	if removed, _, _, err := survivor.CollectOrphans(); err != nil || removed != 0 {
		t.Fatalf("leased uploads collected: removed=%d err=%v", removed, err)
	}
	// The leases lapse…
	local.Leases().SetClock(func() time.Time { return time.Now().Add(2 * time.Minute) })
	removed, _, ok, err := survivor.CollectOrphans()
	if err != nil || !ok || removed != chunks {
		t.Fatalf("orphans not reaped: removed=%d ok=%v err=%v", removed, ok, err)
	}
	keys, err := survivor.List(core.ChunkPrefix + "/")
	if err != nil || len(keys) != 0 {
		t.Fatalf("chunks survived reap: %v %v", keys, err)
	}
}

// TestCorruptAnchorChunkBehindClientFallsBack: recovery over the wire reads
// chunks without hashing them against their addresses — the target's payload
// hash judges what they build — so damage at rest on the server must still be
// named, not merely survived. One chunk of the second chain's anchor is
// overwritten in the server's store; a fresh client's recovery walks that
// chain twice (the clean walk that dies on the target's hash, the walk with
// every check on that names the chunk), blames the chunk for every snapshot
// on that anchor, and restores the newest snapshot of the chain before it,
// bitwise.
func TestCorruptAnchorChunkBehindClientFallsBack(t *testing.T) {
	mem := storage.NewMem()
	svc, err := core.NewService(core.ServiceOptions{Backend: mem})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(server.New(api.NewLocalOptions(svc, api.NewLeases(time.Minute), api.LocalOptions{}), server.Options{}))
	defer ts.Close()
	saver, err := remote.Dial(ts.URL, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer saver.Close()

	const every, n = 3, 6
	m, err := core.NewManager(core.Options{Backend: saver, Strategy: core.StrategyDelta, AnchorEvery: every, ChunkBytes: core.MinChunkBytes, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	states := make([]*core.TrainingState, n)
	for i := range states {
		states[i] = fullState(4096, "anchor")
		states[i].Step = uint64(i)
		for j := range states[i].Params {
			states[i].Params[j] += float64(i) // every chunk of every anchor is its own
		}
		if _, err := m.Save(states[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// The second anchor's manifest, read as the restorer will read it.
	keys, err := saver.List("ckpt-")
	if err != nil || len(keys) != n {
		t.Fatalf("listed %v, %v", keys, err)
	}
	data, err := saver.Get(keys[every])
	if err != nil {
		t.Fatal(err)
	}
	h, manifest, err := core.DecodeSnapshotFile(data)
	if err != nil || h.Kind != core.KindFullChunked {
		t.Fatalf("%s: %+v, %v; want a chunked anchor", keys[every], h, err)
	}
	var victim string
	for _, line := range strings.Split(string(manifest), "\n") {
		if len(line) == 64 {
			victim = line
		}
	}
	frame, err := mem.Get(core.ChunkKey(victim))
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)/2] ^= 0x20
	if err := mem.Put(core.ChunkKey(victim), frame); err != nil {
		t.Fatal(err)
	}

	restorer, err := remote.Dial(ts.URL, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer restorer.Close()
	got, report, err := core.LoadLatestBackendOptions(restorer, nil, core.RestoreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if report.Seq != every-1 || !got.Equal(states[every-1]) {
		t.Fatalf("restored seq %d, want seq %d bitwise", report.Seq, every-1)
	}
	if len(report.Skipped) != n-every || report.ConvictionWalks != 1 {
		t.Fatalf("skipped %v after %d conviction walks, want %d snapshots and one walk", report.Skipped, report.ConvictionWalks, n-every)
	}
	for _, s := range report.Skipped {
		if !strings.Contains(s, "chunk "+victim+" corrupt in backend") {
			t.Errorf("Skipped says %q, want chunk %s named", s, victim)
		}
	}
}
