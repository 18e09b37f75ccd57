package consistency

import (
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// The Recorder sits between the engine and a replicated store in T12, so
// it must be a Backend in its own right over that base — including the
// capability cross-check: a handle that is the base's own is a call the
// recorder never sees.
func TestRecorderPassesConformance(t *testing.T) {
	storagetest.Run(t, func(t *testing.T) storage.Backend {
		rb, err := storage.NewReplicated(storage.ReplicatedOptions{},
			storage.Replica{Backend: storage.NewMem()},
			storage.Replica{Backend: storage.NewMem()},
			storage.Replica{Backend: storage.NewMem()},
		)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rb.Close() })
		return NewRecorder(rb)
	})
}
