package core

import (
	"errors"
	"testing"
)

// TestInspectSnapshot reads every snapshot kind — full and delta over a
// monolithic body, fixed chunks and content-defined chunks — through a plain
// local store and through one job's view of a multi-tenant store, whose
// chunks sit at the store root beside every tenant's. A full kind comes back
// with its state and a delta without one. A flipped byte in a chunk the full
// names, or a full whose payload is not the one its header names, is
// ErrCorrupt.
func TestInspectSnapshot(t *testing.T) {
	states := bigSeqStates(2)
	payload, err := EncodePayload(states[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range []struct {
		name string
		opt  Options
	}{
		{"monolithic", Options{}},
		{"fixed", Options{ChunkBytes: MinChunkBytes}},
		{"cdc", Options{ChunkBytes: MinChunkBytes, Chunker: ChunkerCDC}},
	} {
		for _, jobView := range []bool{false, true} {
			name := layout.name + "/local"
			if jobView {
				name = layout.name + "/job view"
			}
			t.Run(name, func(t *testing.T) {
				root := dirStore(t, t.TempDir())
				b := root
				opt := layout.opt
				opt.Strategy, opt.AnchorEvery = StrategyDelta, 2
				var m *Manager
				var err error
				if jobView {
					svc, serr := NewService(ServiceOptions{Backend: root})
					if serr != nil {
						t.Fatal(serr)
					}
					defer svc.Close()
					if b, err = JobBackend(root, "job00"); err == nil {
						m, err = svc.OpenJob("job00", opt)
					}
				} else {
					opt.Backend = root
					m, err = NewManager(opt)
				}
				if err != nil {
					t.Fatal(err)
				}
				var keys []string
				for _, s := range states {
					res, err := m.Save(s)
					if err != nil {
						t.Fatal(err)
					}
					keys = append(keys, res.Path)
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				full, delta := keys[0], keys[1]

				chunked := layout.opt.ChunkBytes > 0
				s, err := InspectSnapshot(b, full)
				if err != nil {
					t.Fatalf("full: %v", err)
				}
				if s.Kind.Base() != KindFull || s.Kind.Chunked() != chunked || s.State == nil || !s.State.Equal(states[0]) || s.RawLen != len(payload) {
					t.Errorf("full: kind %v, %d body bytes, state %v; want the saved state's %d-byte payload", s.Kind, s.RawLen, s.State != nil, len(payload))
				}
				if chunked != (s.Chunks > 0 && s.Distinct > 0 && s.Distinct <= s.Chunks) {
					t.Errorf("full: %d chunks, %d distinct", s.Chunks, s.Distinct)
				}
				if cdc := layout.opt.Chunker == ChunkerCDC; cdc != (s.Chunker == cdcGearID && s.AvgSize == MinChunkBytes && s.MinSize <= s.AvgSize && s.AvgSize <= s.MaxSize) {
					t.Errorf("full: chunker %q (min %d, avg %d, max %d)", s.Chunker, s.MinSize, s.AvgSize, s.MaxSize)
				}
				if s, err := InspectSnapshot(b, delta); err != nil || s.Kind.Base() != KindDelta || s.State != nil || s.RawLen == 0 {
					t.Errorf("delta: kind %v, %d body bytes, state %v, %v; want a verified delta and no state", s.Kind, s.RawLen, s.State != nil, err)
				}
				if jobView { // the store root names the same snapshot by its full key
					if s, err := InspectSnapshot(root, JobPrefix+"/job00/"+full); err != nil || !s.State.Equal(states[0]) {
						t.Errorf("full key at the root: %v", err)
					}
				}

				if chunked {
					addrs, err := manifestAddrs(b, full)
					if err != nil || len(addrs) == 0 {
						t.Fatalf("manifest names %d chunks: %v", len(addrs), err)
					}
					key := ChunkKey(addrs[0])
					frame, err := b.Get(key)
					if err != nil {
						t.Fatal(err)
					}
					rewriteObject(t, b, key, func(data []byte) []byte {
						data[len(data)/2] ^= 0x01
						return data
					})
					if _, err := InspectSnapshot(b, full); !errors.Is(err, ErrCorrupt) {
						t.Errorf("flipped chunk byte: %v, want ErrCorrupt", err)
					}
					if err := b.Put(key, frame); err != nil {
						t.Fatal(err)
					}
				}
				h, body := getSnapshot(t, b, full)
				h.PayloadHash[0] ^= 0x01
				putSnapshot(t, b, full, h, body)
				if _, err := InspectSnapshot(b, full); !errors.Is(err, ErrCorrupt) {
					t.Errorf("wrong payload identity: %v, want ErrCorrupt", err)
				}
			})
		}
	}
}
