package harness

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/storage"
)

// T8Row is one line of Table 8: N trainers checkpointing through one
// networked checkpoint service (cmd/qckpt serve) instead of an
// in-process store. The workload is Table 7's mostly-shared replica
// fleet, so the address-first dedup handshake should keep the shared
// base off the wire: WireBytes is the upstream traffic that actually
// crossed the network, RawBytes what the fleet logically saved. The
// stall columns are what each trainer feels with the store a round-trip
// away; CostPerSave is the saturation-side fleet cost per checkpoint.
type T8Row struct {
	Clients    int
	Saves      int           // per client
	MeanStall  time.Duration // mean sync Save wall time, saves 2..N
	WorstStall time.Duration // worst per-client mean stall (the tail)
	// CostPerSave is fleet wall time / total saves — the server
	// saturation signal: it grows only when the service serializes the
	// fleet (see T7Row.CostPerSave for why per-save, not per-job).
	CostPerSave time.Duration
	RawBytes    int64   // logical snapshot bytes the fleet saved
	WireBytes   int64   // upstream bytes that crossed the wire
	StoreBytes  int64   // resident chunk bytes server-side after the run
	HasHitPct   float64 // address probes answered "already have it"
	Throttled   int64   // requests refused by admission control
	Bitwise     bool    // every client restored its state bitwise
}

// RunT8Network drives clientCounts fleets of remote Managers against one
// networked checkpoint service over real loopback TCP, steps saves each,
// on the Table 7 mostly-shared workload. Every client must restore its
// own final state bitwise through the wire.
func RunT8Network(clientCounts []int, steps int) ([]T8Row, error) {
	if steps < 3 {
		return nil, fmt.Errorf("harness: T8 needs ≥3 steps")
	}
	// The logical size of one snapshot, for the raw-vs-wire comparison.
	payload, err := core.EncodePayload(t3State(t7Params))
	if err != nil {
		return nil, err
	}
	rawPerSave := int64(len(payload))

	var rows []T8Row
	for _, clients := range clientCounts {
		if clients < 1 {
			return nil, fmt.Errorf("harness: T8 client count %d", clients)
		}
		row, err := t8RunOne(clients, steps, rawPerSave)
		if err != nil {
			return nil, fmt.Errorf("harness: T8/%d clients: %w", clients, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// serveLoopback puts svc on the qckpt wire protocol over a real loopback
// socket — api.Local, server.New, an http.Server on an ephemeral port —
// and returns the Local (for its counters), the server's base URL and
// the func that shuts the listener down.
func serveLoopback(svc *core.Service, opts api.LocalOptions) (local *api.Local, url string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	local = api.NewLocalOptions(svc, api.NewLeases(0), opts)
	httpSrv := &http.Server{Handler: server.New(local, server.Options{})}
	go httpSrv.Serve(ln)
	return local, "http://" + ln.Addr().String(), func() { httpSrv.Close() }, nil
}

func t8RunOne(clients, steps int, rawPerSave int64) (T8Row, error) {
	svc, err := core.NewService(core.ServiceOptions{Backend: storage.NewMem()})
	if err != nil {
		return T8Row{}, err
	}
	defer svc.Close()
	local, url, shutdown, err := serveLoopback(svc, api.LocalOptions{})
	if err != nil {
		return T8Row{}, err
	}
	defer shutdown()

	// One pooled transport for the fleet; traffic accounting comes from
	// each client's own ClientStats counters.
	transport := &http.Transport{
		MaxIdleConns:        128,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     30 * time.Second,
	}
	conns := make([]*remote.Client, clients)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	outcome, err := t7RunFleet(clients, steps,
		func(j int) (*core.Manager, error) {
			c, err := remote.Dial(url, remote.Options{
				Tenant:    fmt.Sprintf("tenant%02d", j),
				Transport: transport,
			})
			if err != nil {
				return nil, err
			}
			conns[j] = c
			view, err := core.JobBackend(c, fmt.Sprintf("job%02d", j))
			if err != nil {
				return nil, err
			}
			opt := t7JobOptions()
			opt.Backend = view
			return core.NewManager(opt)
		},
		func(j int) (storage.Backend, error) {
			return core.JobBackend(conns[j], fmt.Sprintf("job%02d", j))
		},
	)
	if err != nil {
		return T8Row{}, err
	}
	var wireUp int64
	for _, c := range conns {
		if c != nil {
			wireUp += c.ClientStats().BytesSent
		}
	}
	storeBytes, err := svc.ChunkStore().TotalBytes()
	if err != nil {
		return T8Row{}, err
	}
	st := local.Stats()
	row := T8Row{
		Clients: clients, Saves: steps,
		MeanStall: outcome.meanStall, WorstStall: outcome.worstStall,
		CostPerSave: outcome.costPerSave,
		RawBytes:    rawPerSave * int64(clients*steps),
		WireBytes:   wireUp,
		StoreBytes:  storeBytes,
		Throttled:   st.Throttled,
		Bitwise:     outcome.bitwise,
	}
	if st.HasQueries > 0 {
		row.HasHitPct = 100 * float64(st.HasHits) / float64(st.HasQueries)
	}
	return row, nil
}

// T8Table renders the rows.
func T8Table(rows []T8Row) *Table {
	t := &Table{
		Title:   "Table 8 — Networked checkpoint service: N clients vs one server over loopback TCP (replicas sharing a 32768-param base)",
		Columns: []string{"clients", "saves/client", "stall/save", "worst-stall", "cost/save", "raw-bytes", "wire-bytes", "store-bytes", "has-hit-%", "throttled", "bitwise"},
	}
	for _, r := range rows {
		t.Add(r.Clients, r.Saves, r.MeanStall.Round(time.Microsecond),
			r.WorstStall.Round(time.Microsecond), r.CostPerSave.Round(time.Microsecond),
			humanBytes(r.RawBytes), humanBytes(r.WireBytes), humanBytes(r.StoreBytes),
			fmt.Sprintf("%.1f", r.HasHitPct), r.Throttled, r.Bitwise)
	}
	return t
}
