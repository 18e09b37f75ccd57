package main

import (
	"fmt"
	"strings"
)

// metricDef names one metric. The endToEnd and perLayer tables are the
// source of BENCHMARK.json (a test keeps the file and the tables equal);
// every later issue claims against these names.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a trainer feels. Definitions are in README.md. The
// wall-clock bounds are the widest the contract allows because they are
// sized to the sandbox, not to the program: ten quiet runs put the
// quartiles 1–6% of the median apart, but the shared host has episodes of
// a minute or two in which everything runs 1.4–1.7 times slower, and
// three such runs in a set of ten already put the quartiles 20–30% apart.
// The amplification ratios are program counters that repeat to 1e-4.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"save_stall_p50_ms", "ms", lower, 0.25},
	{"save_throughput_mibps", "MiB/s", higher, 0.25},
	{"cpu_ms_per_save", "ms", lower, 0.25},
	{"restore_wall_p50_ms", "ms", lower, 0.25},
	{"restore_throughput_mibps", "MiB/s", higher, 0.25},
	{"write_amp", "ratio", lower, 0.02},
	{"space_amp", "ratio", lower, 0.02},
}

// reportedOnly are end-to-end quantities the command prints with the
// others but that cannot be in BENCHMARK.json's end_to_end list. That
// list needs every metric non-zero on every workload: the wire metrics
// are 0 on the local workloads (they are remote.* per-layer counts
// instead) and op_fail_ratio is 0 whenever the run is correct (failures
// travel in the result line's correct/attempted/failed). And it needs
// every metric steady within its bound: the tail percentiles sit on the
// edge between the common case and the rare one (a save or restore that
// met a GC cycle, the other tenant's anchor, a host hiccup), so they move
// far more than the medians — over ten quiet runs of substep_remote the
// quartiles of save_stall_p99_ms were 12% of the median apart, those of
// restore_wall_p90_ms 8%, and twice that when anything else ran on the
// box. Both are in the per-layer list, unbounded, under the same names.
var reportedOnly = []metricDef{
	{"save_stall_p99_ms", "ms", lower, 0},
	{"restore_wall_p90_ms", "ms", lower, 0},
	{"wire_bytes_per_restore", "B", lower, 0.05},
	{"wire_bytes_per_save", "B", lower, 0.05},
	{"wire_requests_per_save", "count", lower, 0.05},
	{"op_fail_ratio", "ratio", lower, 0},
}

// perLayer metrics have no bound: they explain the end-to-end numbers.
// README.md says which end-to-end metric each should move, and where.
var perLayer = []metricDef{
	{"save_stall_p99_ms", "ms", lower, 0},
	{"restore_wall_p90_ms", "ms", lower, 0},

	{"host.memmove_gbps", "GB/s", higher, 0},
	{"host.sha256_mibps", "MiB/s", higher, 0},
	{"host.flate_mibps", "MiB/s", higher, 0},
	{"host.fsync_4k_us", "us", lower, 0},
	{"host.loopback_rtt_us", "us", lower, 0},

	{"core.codec.encode_us", "us", lower, 0},
	{"core.codec.decode_us", "us", lower, 0},
	{"core.codec.encode_allocs", "count", lower, 0},
	{"core.codec.delta_encode_us", "us", lower, 0},
	{"core.codec.delta_apply_us", "us", lower, 0},

	{"core.save.busy_ms_per_save", "ms", lower, 0},
	{"core.save.encode_ms_per_save", "ms", lower, 0},
	{"core.save.write_ms_per_save", "ms", lower, 0},
	{"core.save.chunks_per_save", "count", lower, 0},
	{"core.save.clean_chunk_ratio", "ratio", higher, 0},
	{"core.save.dedup_hit_ratio", "ratio", higher, 0},
	{"core.save.raw_chunk_ratio", "ratio", lower, 0},
	{"core.save.bytes_written_per_save", "B", lower, 0},
	{"core.save.full_count", "count", lower, 0},
	{"core.save.delta_count", "count", higher, 0},
	{"core.save.allocs_per_save", "count", lower, 0},

	{"core.restore.busy_ms_per_restore", "ms", lower, 0},
	{"core.restore.chain_len", "count", lower, 0},
	{"core.restore.skipped", "count", lower, 0},
	{"core.restore.storage_ops_per_restore", "count", lower, 0},
	{"core.restore.bytes_read_per_restore", "B", lower, 0},

	{"storage.local.put_ops_per_save", "count", lower, 0},
	{"storage.local.put_bytes_per_save", "B", lower, 0},
	{"storage.local.put_busy_ms_per_save", "ms", lower, 0},
	{"storage.local.stat_ops_per_save", "count", lower, 0},
	{"storage.local.list_ops_per_save", "count", lower, 0},
	{"storage.local.delete_ops_per_save", "count", lower, 0},
	{"storage.local.get_ops_per_restore", "count", lower, 0},
	{"storage.local.get_bytes_per_restore", "B", lower, 0},
	{"storage.local.get_busy_ms_per_restore", "ms", lower, 0},
	{"storage.local.errors", "count", lower, 0},

	{"storage.replicated.busy_ms_per_save", "ms", lower, 0},
	{"storage.replicated.wait_ms_per_save", "ms", lower, 0},
	{"storage.replicated.fanout_ratio", "ratio", lower, 0},
	{"storage.replicated.busy_ms_per_restore", "ms", lower, 0},
	{"storage.replicated.replicas_down", "count", lower, 0},

	{"storage.tiered.nvme_put_bytes_per_save", "B", lower, 0},
	{"storage.tiered.object_put_bytes_per_save", "B", lower, 0},
	{"storage.tiered.nvme_hits", "count", higher, 0},
	{"storage.tiered.object_hits", "count", lower, 0},
	{"storage.tiered.misses", "count", lower, 0},

	{"api.busy_ms_per_save", "ms", lower, 0},
	{"api.busy_ms_per_restore", "ms", lower, 0},
	{"api.has_queries_per_save", "count", lower, 0},
	{"api.has_hit_ratio", "ratio", higher, 0},
	{"api.chunk_dedup_ratio", "ratio", higher, 0},
	{"api.origin_hit_ratio", "ratio", higher, 0},
	{"api.origin_coalesced", "count", higher, 0},
	{"api.origin_misses_per_restore", "count", lower, 0},
	{"api.active_leases_end", "count", lower, 0},

	{"server.handler_busy_ms_per_save", "ms", lower, 0},
	{"server.handler_busy_ms_per_restore", "ms", lower, 0},
	{"server.requests_per_save", "count", lower, 0},
	{"server.requests_per_restore", "count", lower, 0},
	{"server.bytes_served_per_restore", "B", lower, 0},
	{"server.throttled", "count", lower, 0},

	{"remote.busy_ms_per_save", "ms", lower, 0},
	{"remote.roundtrip_ms_per_save", "ms", lower, 0},
	{"remote.requests_per_save", "count", lower, 0},
	{"remote.requests_per_restore", "count", lower, 0},
	{"remote.retries", "count", lower, 0},
	{"remote.bytes_sent_per_save", "B", lower, 0},
	{"remote.bytes_received_per_restore", "B", lower, 0},

	{"proc.peak_rss_mib", "MiB", lower, 0},
	{"proc.heap_alloc_mib_per_save", "MiB", lower, 0},
	{"proc.gc_pause_ms", "ms", lower, 0},
	{"proc.goroutines_end", "count", lower, 0},

	{"trace.overhead_ratio", "ratio", lower, 0},
	{"trace.spans", "count", lower, 0},
}

// value is one reported metric: the run's value, its range over the
// repeats and how many samples stand behind it.
type value struct {
	v, lo, hi float64
	n         int
	note      string
}

const mib = 1 << 20

// overReps is the median, range and count of one per-repeat quantity.
func overReps(reps []*rep, f func(*rep) float64) value {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		vs[i] = f(r)
	}
	lo, hi := minMax(vs)
	return value{v: median(vs), lo: lo, hi: hi, n: len(vs)}
}

// bestRep is the best repeat's value of a wall-clock quantity (the lowest
// when lower is better), with the range over the repeats. Interference
// from whatever else runs on the box comes in bursts of seconds and only
// ever slows a repeat down, so the best of 5–8 repeats says what the
// program costs where the median says what the neighbours were doing:
// over nine consecutive fullstep_local runs beside a busy process the
// best repeat's p50 stayed within 7.33–7.76 ms while the pooled p50
// wandered over 7.58–8.74 ms.
func bestRep(reps []*rep, better string, f func(*rep) float64) value {
	v := overReps(reps, f)
	v.v = v.lo
	if better == higher {
		v.v = v.hi
	}
	return v
}

// pooled is a percentile over the samples of all repeats; the range is
// that of the same percentile taken repeat by repeat.
func pooled(reps []*rep, samples func(*rep) []float64, want float64, name string) value {
	var all, each []float64
	for _, r := range reps {
		s := samples(r)
		all = append(all, s...)
		if len(s) > 0 {
			v, _ := tail(s, want)
			each = append(each, v)
		}
	}
	v, used := tail(all, want)
	out := value{v: v, n: len(all)}
	out.lo, out.hi = minMax(each)
	if used < want {
		out.note = fmt.Sprintf("p%.1f stands in for %s: %d samples leave fewer than %d beyond p%g", used, name, len(all), tailMinBeyond, want)
	}
	return out
}

// endToEndValues computes every end-to-end and reported-only metric from
// the untraced repeats.
func endToEndValues(reps []*rep) map[string]value {
	stalls := func(r *rep) []float64 { return r.stallsMS }
	restores := func(r *rep) []float64 { return r.restoresMS }
	var attempted, failed int
	for _, r := range reps {
		attempted += r.attempted
		failed += len(r.failures)
	}
	return map[string]value{
		"setup_s":           overReps(reps, func(r *rep) float64 { return r.setupS }),
		"save_stall_p50_ms": bestRep(reps, lower, func(r *rep) float64 { return median(r.stallsMS) }),
		"save_stall_p99_ms": pooled(reps, stalls, 99, "p99"),
		"save_throughput_mibps": bestRep(reps, higher, func(r *rep) float64 {
			return ratio(float64(r.savedPayloadBytes)/mib, r.saveWallS)
		}),
		"cpu_ms_per_save":     bestRep(reps, lower, func(r *rep) float64 { return ratio(r.saveCPUS*1e3, float64(r.saves)) }),
		"restore_wall_p50_ms": bestRep(reps, lower, func(r *rep) float64 { return median(r.restoresMS) }),
		"restore_wall_p90_ms": pooled(reps, restores, 90, "p90"),
		"restore_throughput_mibps": bestRep(reps, higher, func(r *rep) float64 {
			return ratio(float64(r.restores)*float64(r.payloadBytes)/mib, r.restoreWallS)
		}),
		"write_amp": overReps(reps, func(r *rep) float64 {
			return ratio(float64(r.mgr.BytesWritten), float64(r.savedPayloadBytes))
		}),
		"space_amp": overReps(reps, func(r *rep) float64 {
			return ratio(float64(r.residentBytes), float64(r.payloadBytes))
		}),
		"wire_bytes_per_restore": overReps(reps, func(r *rep) float64 {
			return ratio(float64(r.restoreWire.BytesReceived), float64(r.restores))
		}),
		"wire_bytes_per_save": overReps(reps, func(r *rep) float64 {
			return ratio(float64(r.saveWire.BytesSent), float64(r.saves))
		}),
		"wire_requests_per_save": overReps(reps, func(r *rep) float64 {
			return ratio(float64(r.saveWire.Requests), float64(r.saves))
		}),
		"op_fail_ratio": {v: ratio(float64(failed), float64(attempted)), n: attempted},
	}
}

// sumOps adds up a per-op table over the named ops.
func sumOps(m map[string]int64, ops ...string) float64 {
	var n int64
	for _, op := range ops {
		n += m[op]
	}
	return float64(n)
}

var (
	readOps  = []string{"Get", "GetRange", "GetBatch"}
	writeOps = []string{"Put", "Ingest"}
)

// layerValuesOf derives one traced repeat's per-layer numbers from its
// span aggregates and the program's own counters.
func layerValuesOf(r *rep) map[string]float64 {
	S, R := float64(r.saves), float64(r.restores)
	ms := func(ns int64, per float64) float64 { return ratio(float64(ns)/1e6, per) }
	sa, ra := r.saveAgg, r.restAgg

	sb, rb := decompose(sa, layerCoreSave), decompose(ra, layerCoreRestore)
	sLeaf, rLeaf := sa.group(layerLocal), ra.group(layerLocal)
	// below is the boundary directly under core: what a restore asks of
	// its backend.
	below := rLeaf
	if ra.get(layerRemote).spans > 0 {
		below = ra.get(layerRemote)
	}
	replicaPut := float64(0)
	for name, a := range sa {
		if strings.HasPrefix(name, siteReplica) {
			replicaPut += float64(a.opByte["Put"])
		}
	}
	rep := sa.get(layerReplicated)
	offered := sumOps(rep.opByte, writeOps...)
	origin := float64(r.restoreAPI.OriginHits + r.restoreAPI.OriginMisses)
	var nvmeHits, objectHits int64
	if len(r.tiered.Hits) == 2 {
		nvmeHits, objectHits = r.tiered.Hits[0], r.tiered.Hits[1]
	}

	return map[string]float64{
		"host.memmove_gbps":    r.host.MemmoveGBps,
		"host.sha256_mibps":    r.host.SHA256MiBps,
		"host.flate_mibps":     r.host.FlateMiBps,
		"host.fsync_4k_us":     r.host.Fsync4kUs,
		"host.loopback_rtt_us": r.host.LoopbackRTTUs,

		"core.codec.encode_us":       r.codec.EncodeUs,
		"core.codec.decode_us":       r.codec.DecodeUs,
		"core.codec.encode_allocs":   r.codec.EncodeAllocs,
		"core.codec.delta_encode_us": r.codec.DeltaEncodeUs,
		"core.codec.delta_apply_us":  r.codec.DeltaApplyUs,

		"core.save.busy_ms_per_save":       ms(sb[layerCoreSave], S),
		"core.save.encode_ms_per_save":     ms(r.encodeNS, S),
		"core.save.write_ms_per_save":      ms(r.writeNS, S),
		"core.save.chunks_per_save":        ratio(float64(r.mgr.Chunks), S),
		"core.save.clean_chunk_ratio":      ratio(float64(r.mgr.CleanChunks), float64(r.mgr.Chunks)),
		"core.save.dedup_hit_ratio":        ratio(float64(r.mgr.DedupHits), float64(r.mgr.Chunks)),
		"core.save.raw_chunk_ratio":        ratio(float64(r.mgr.RawChunks), float64(r.mgr.Chunks)),
		"core.save.bytes_written_per_save": ratio(float64(r.mgr.BytesWritten), S),
		"core.save.full_count":             float64(r.mgr.FullCount),
		"core.save.delta_count":            float64(r.mgr.DeltaCount),

		"core.restore.busy_ms_per_restore":     ms(rb[layerCoreRestore], R),
		"core.restore.chain_len":               ratio(float64(r.chainLen), R),
		"core.restore.skipped":                 ratio(float64(r.skipped), R),
		"core.restore.storage_ops_per_restore": ratio(float64(below.spans), R),
		"core.restore.bytes_read_per_restore":  ratio(float64(below.bytes), R),

		"storage.local.put_ops_per_save":        ratio(float64(sLeaf.ops["Put"]), S),
		"storage.local.put_bytes_per_save":      ratio(float64(sLeaf.opByte["Put"]), S),
		"storage.local.put_busy_ms_per_save":    ms(sLeaf.opNS["Put"], S),
		"storage.local.stat_ops_per_save":       ratio(float64(sLeaf.ops["Stat"]), S),
		"storage.local.list_ops_per_save":       ratio(float64(sLeaf.ops["List"]), S),
		"storage.local.delete_ops_per_save":     ratio(float64(sLeaf.ops["Delete"]), S),
		"storage.local.get_ops_per_restore":     ratio(sumOps(rLeaf.ops, readOps...), R),
		"storage.local.get_bytes_per_restore":   ratio(sumOps(rLeaf.opByte, readOps...), R),
		"storage.local.get_busy_ms_per_restore": ratio(sumOps(rLeaf.opNS, readOps...)/1e6, R),
		"storage.local.errors":                  float64(sLeaf.errs + rLeaf.errs),

		"storage.replicated.busy_ms_per_save":    ms(sb[layerReplicated], S),
		"storage.replicated.wait_ms_per_save":    ms(rep.sumNS, S),
		"storage.replicated.fanout_ratio":        ratio(replicaPut, offered),
		"storage.replicated.busy_ms_per_restore": ms(rb[layerReplicated], R),
		"storage.replicated.replicas_down":       float64(r.replicasDown),

		"storage.tiered.nvme_put_bytes_per_save":   ratio(float64(sa.get(siteNVMe).opByte["Put"]), S),
		"storage.tiered.object_put_bytes_per_save": ratio(offered, S),
		"storage.tiered.nvme_hits":                 float64(nvmeHits),
		"storage.tiered.object_hits":               float64(objectHits),
		"storage.tiered.misses":                    float64(r.tiered.Misses),

		"api.busy_ms_per_save":          ms(sb[layerAPI], S),
		"api.busy_ms_per_restore":       ms(rb[layerAPI], R),
		"api.has_queries_per_save":      ratio(float64(r.saveAPI.HasQueries), S),
		"api.has_hit_ratio":             ratio(float64(r.saveAPI.HasHits), float64(r.saveAPI.HasQueries)),
		"api.chunk_dedup_ratio":         ratio(float64(r.saveAPI.ChunkDedupHits), float64(r.saveAPI.ChunksIngested)),
		"api.origin_hit_ratio":          ratio(float64(r.restoreAPI.OriginHits), origin),
		"api.origin_coalesced":          float64(r.restoreAPI.OriginCoalesced),
		"api.origin_misses_per_restore": ratio(float64(r.restoreAPI.OriginMisses), R),
		"api.active_leases_end":         float64(r.saveAPI.ActiveLeases),

		"server.handler_busy_ms_per_save":    ms(sb[layerServer], S),
		"server.handler_busy_ms_per_restore": ms(rb[layerServer], R),
		"server.requests_per_save":           ratio(float64(sa.get(layerServer).spans), S),
		"server.requests_per_restore":        ratio(float64(ra.get(layerServer).spans), R),
		"server.bytes_served_per_restore":    ratio(float64(ra.get(layerServer).bytes), R),
		"server.throttled":                   float64(sa.get(layerServer).errs + ra.get(layerServer).errs),

		"remote.busy_ms_per_save":           ms(sb[layerRemote], S),
		"remote.roundtrip_ms_per_save":      ms(sb[layerRoundTrip], S),
		"remote.requests_per_save":          ratio(float64(r.saveWire.Requests), S),
		"remote.requests_per_restore":       ratio(float64(r.restoreWire.Requests), R),
		"remote.retries":                    float64(r.saveWire.Retries + r.restoreWire.Retries),
		"remote.bytes_sent_per_save":        ratio(float64(r.saveWire.BytesSent), S),
		"remote.bytes_received_per_restore": ratio(float64(r.restoreWire.BytesReceived), R),

		"trace.spans": float64(r.spans),
	}
}

// decompose splits the time covered by a phase's root spans among the
// layers, root first: each layer gets the time covered by its own spans
// but by none of the next layer's, and the leaf stores keep all of
// theirs. On a local workload the manager's backend is the leaf store;
// on a remote one the call crosses every layer of the server stack,
// where the tier levels are the nvme Local and the Replicated, and the
// leaves are the nvme Local and the replica Locals. With one synchronous
// client the parts are self times and sum to the root's coverage; with
// concurrent clients they are busy times, each instant attributed to the
// deepest layer active in it.
func decompose(p phaseAgg, root string) map[string]int64 {
	names := []string{root, layerLocal}
	chain := []*layerAgg{p.get(root), p.group(layerLocal)}
	if p.get(layerRemote).spans > 0 {
		levels := append(append([]interval(nil), p.get(siteNVMe).cover...), p.get(layerReplicated).cover...)
		names = []string{root, layerRemote, layerRoundTrip, layerServer, layerAPI, layerReplicated, layerLocal}
		chain = []*layerAgg{
			p.get(root), p.get(layerRemote), p.get(layerRoundTrip), p.get(layerServer), p.get(layerAPI),
			{cover: merge(levels)}, p.group(layerLocal),
		}
	}
	out := make(map[string]int64, len(names))
	for i, a := range chain {
		if i+1 < len(chain) {
			out[names[i]] = minus(a.cover, chain[i+1].cover)
		} else {
			out[names[i]] = measure(a.cover)
		}
	}
	return out
}
