package harness

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/storage"
)

// T9Row is one line of Table 9: a preemption wave in reverse — one saver
// persists a delta chain through the networked service, then N restorers
// gang-restore it concurrently over loopback TCP. The headline columns
// are aggregate restore bandwidth and cold-tier read amplification: with
// the server's single-flight origin cache the store should serve each
// chunk roughly once however many restorers ask (Amp → ~1.0×), where a
// cache-less server pays ~N× (AmpNoCache, the contender column).
type T9Row struct {
	Restorers  int
	Saves      int           // saver snapshots forming the delta chain
	ChunkBytes int64         // resident chunk payload in the store
	StateBytes int64         // logical bytes each restorer recovers
	Wall       time.Duration // gang wall time, dial to last bitwise check
	MeanWall   time.Duration // mean per-restorer restore wall
	AggBW      float64       // aggregate restore bandwidth, MiB/s
	ColdBytes  int64         // chunk bytes read from the cold store during the gang
	Amp        float64       // ColdBytes / ChunkBytes with the origin cache
	AmpNoCache float64       // same fleet against a cache-less server
	Coalesced  int64         // readers that joined an in-flight origin fetch
	Bitwise    bool          // every restorer of both runs restored bitwise
}

// t9AnchorEvery bounds the saver's delta chain: with t9 steps past one
// anchor the restorers resolve a genuine multi-link chain, exercising
// the manifest-chain prefetch over the wire.
const t9AnchorEvery = 4

// t9CacheBytes is the with-cache server's origin budget — comfortably
// above the workload's resident chunk bytes, the fleet-scale deployment
// shape.
const t9CacheBytes int64 = 64 << 20

// countingStore wraps the service's backing store and counts the chunk
// payload bytes leaving it — the "cold tier" meter under the origin
// cache. Manifest and header traffic is deliberately excluded: the
// amplification target is about chunk bytes, the dominant volume.
type countingStore struct {
	storage.Forward
	chunkBytes atomic.Int64
	chunkReads atomic.Int64
}

func (cs *countingStore) count(key string, n int) {
	if strings.HasPrefix(key, core.ChunkPrefix+"/") {
		cs.chunkBytes.Add(int64(n))
		cs.chunkReads.Add(1)
	}
}

func (cs *countingStore) Caps() storage.CapSet { return storage.ForwardCaps(cs, cs.Backend) }

func (cs *countingStore) reset() {
	cs.chunkBytes.Store(0)
	cs.chunkReads.Store(0)
}

func (cs *countingStore) Get(key string) ([]byte, error) {
	data, err := cs.Backend.Get(key)
	if err == nil {
		cs.count(key, len(data))
	}
	return data, err
}

func (cs *countingStore) GetRange(key string, off, n int64) ([]byte, error) {
	data, err := storage.GetRange(cs.Backend, key, off, n)
	if err == nil {
		cs.count(key, len(data))
	}
	return data, err
}

func (cs *countingStore) GetBatch(keys []string) ([][]byte, []error) {
	out, errs := storage.GetBatch(cs.Backend, keys)
	for i := range out {
		if errs[i] == nil {
			cs.count(keys[i], len(out[i]))
		}
	}
	return out, errs
}

// t9States is the saver's stream: the Table 7 replica state drifting a
// few params per step, so StrategyDelta writes a chain of small deltas
// off shared anchors.
func t9States(steps int) []*core.TrainingState {
	return t7States(0, steps)
}

// t9Result is one server-mode run of the gang.
type t9Result struct {
	wall       time.Duration
	meanWall   time.Duration
	coldBytes  int64
	chunkBytes int64
	coalesced  int64
	stateBytes int64
	bitwise    bool
}

// t9RunOne saves the chain through one networked service configured with
// cacheBytes of origin cache (0 = none), then gang-restores it with
// restorers concurrent remote clients and meters the cold store.
func t9RunOne(restorers, steps int, cacheBytes int64) (t9Result, error) {
	cold := &countingStore{Forward: storage.Forward{Backend: storage.NewMem()}}
	svc, err := core.NewService(core.ServiceOptions{Backend: cold})
	if err != nil {
		return t9Result{}, err
	}
	defer svc.Close()
	local, url, shutdown, err := serveLoopback(svc, api.LocalOptions{CacheBytes: cacheBytes})
	if err != nil {
		return t9Result{}, err
	}
	defer shutdown()

	// One pooled transport for the whole gang, capped so 100 clients'
	// fan-outs share a bounded socket set instead of exhausting fds.
	transport := &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 128,
		MaxConnsPerHost:     256,
		IdleConnTimeout:     30 * time.Second,
	}
	defer transport.CloseIdleConnections()

	// Phase 1: one saver persists the delta chain.
	saver, err := remote.Dial(url, remote.Options{Tenant: "saver", Transport: transport})
	if err != nil {
		return t9Result{}, err
	}
	defer saver.Close()
	view, err := core.JobBackend(saver, "gang")
	if err != nil {
		return t9Result{}, err
	}
	mgr, err := core.NewManager(core.Options{
		Backend:     view,
		Strategy:    core.StrategyDelta,
		AnchorEvery: t9AnchorEvery,
		ChunkBytes:  t7ChunkKB << 10,
		Workers:     2,
	})
	if err != nil {
		return t9Result{}, err
	}
	states := t9States(steps)
	for _, s := range states {
		if _, err := mgr.Save(s); err != nil {
			return t9Result{}, err
		}
	}
	if err := mgr.Close(); err != nil {
		return t9Result{}, err
	}
	final := states[len(states)-1]
	payload, err := core.EncodePayload(final)
	if err != nil {
		return t9Result{}, err
	}

	res := t9Result{stateBytes: int64(len(payload)), bitwise: true}
	res.chunkBytes, err = svc.ChunkStore().TotalBytes()
	if err != nil {
		return t9Result{}, err
	}
	cold.reset() // only the gang's reads count
	statsBefore := local.Stats()

	// Phase 2: the gang. Each restorer dials its own client (bounded
	// per-client read concurrency), resolves the chain through the
	// parallel restore engine, and verifies bitwise.
	var wg sync.WaitGroup
	errs := make([]error, restorers)
	walls := make([]time.Duration, restorers)
	start := time.Now()
	for j := 0; j < restorers; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			t0 := time.Now()
			c, err := remote.Dial(url, remote.Options{
				Tenant:    fmt.Sprintf("restorer%03d", j),
				Transport: transport,
			})
			if err != nil {
				errs[j] = err
				return
			}
			defer c.Close()
			rview, err := core.JobBackend(c, "gang")
			if err != nil {
				errs[j] = err
				return
			}
			got, _, err := core.LoadLatestBackendOptions(rview, nil, core.RestoreOptions{Workers: 4})
			if err != nil {
				errs[j] = err
				return
			}
			walls[j] = time.Since(t0)
			if !got.Equal(final) {
				errs[j] = fmt.Errorf("restorer %d: state not bitwise", j)
			}
		}(j)
	}
	wg.Wait()
	res.wall = time.Since(start)
	for j, err := range errs {
		if err != nil {
			if strings.Contains(err.Error(), "bitwise") {
				res.bitwise = false
				continue
			}
			return t9Result{}, fmt.Errorf("restorer %d: %w", j, err)
		}
		res.meanWall += walls[j]
	}
	res.meanWall /= time.Duration(restorers)
	res.coldBytes = cold.chunkBytes.Load()
	res.coalesced = local.Stats().OriginCoalesced - statsBefore.OriginCoalesced
	return res, nil
}

// RunT9GangRestore runs the gang for each restorer count, twice per
// count: against a server with the origin cache (the headline row) and
// against a cache-less contender (the amplification baseline).
func RunT9GangRestore(restorerCounts []int, steps int) ([]T9Row, error) {
	if steps < 2 {
		return nil, fmt.Errorf("harness: T9 needs ≥2 steps")
	}
	var rows []T9Row
	for _, n := range restorerCounts {
		if n < 1 {
			return nil, fmt.Errorf("harness: T9 restorer count %d", n)
		}
		cached, err := t9RunOne(n, steps, t9CacheBytes)
		if err != nil {
			return nil, fmt.Errorf("harness: T9/%d cached: %w", n, err)
		}
		bare, err := t9RunOne(n, steps, 0)
		if err != nil {
			return nil, fmt.Errorf("harness: T9/%d no-cache: %w", n, err)
		}
		row := T9Row{
			Restorers:  n,
			Saves:      steps,
			ChunkBytes: cached.chunkBytes,
			StateBytes: cached.stateBytes,
			Wall:       cached.wall,
			MeanWall:   cached.meanWall,
			ColdBytes:  cached.coldBytes,
			Coalesced:  cached.coalesced,
			Bitwise:    cached.bitwise && bare.bitwise,
		}
		if cached.chunkBytes > 0 {
			row.Amp = float64(cached.coldBytes) / float64(cached.chunkBytes)
			row.AmpNoCache = float64(bare.coldBytes) / float64(bare.chunkBytes)
		}
		if cached.wall > 0 {
			row.AggBW = float64(int64(n)*cached.stateBytes) / (1 << 20) / cached.wall.Seconds()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// T9Table renders the rows.
func T9Table(rows []T9Row) *Table {
	t := &Table{
		Title:   "Table 9 — Fleet-scale gang-restore: N concurrent restorers vs one server (delta chain of a 32768-param state, origin cache vs none)",
		Columns: []string{"restorers", "saves", "chunk-bytes", "gang-wall", "restore-wall", "agg-MiB/s", "cold-read-bytes", "cold-amp-x", "no-cache-amp-x", "coalesced", "bitwise"},
	}
	for _, r := range rows {
		t.Add(r.Restorers, r.Saves, humanBytes(r.ChunkBytes),
			r.Wall.Round(time.Microsecond), r.MeanWall.Round(time.Microsecond),
			fmt.Sprintf("%.1f", r.AggBW), humanBytes(r.ColdBytes),
			fmt.Sprintf("%.2f", r.Amp), fmt.Sprintf("%.2f", r.AmpNoCache),
			r.Coalesced, r.Bitwise)
	}
	return t
}
