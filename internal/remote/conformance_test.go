package remote_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/storage/storagetest"
)

// dialTestServer stands up a full stack — Mem store, core.Service,
// api.Local, HTTP server — and dials it, returning the remote client.
func dialTestServer(t *testing.T, opt remote.Options) *remote.Client {
	t.Helper()
	svc, err := core.NewService(core.ServiceOptions{Backend: storage.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	ts := httptest.NewServer(server.New(api.NewLocalOptions(svc, api.NewLeases(time.Minute), api.LocalOptions{}), server.Options{}))
	t.Cleanup(ts.Close)
	c, err := remote.Dial(ts.URL, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestRemoteBackendConformance runs the full storage conformance suite
// against the remote client over loopback HTTP: the network client is a
// Backend like any other, and the suite is the proof.
func TestRemoteBackendConformance(t *testing.T) {
	storagetest.Run(t, func(t *testing.T) storage.Backend {
		return dialTestServer(t, remote.Options{})
	})
}

// TestRemoteWithPrefixConformance nests the remote client under
// WithPrefix — the composition a client uses to scope itself into a
// namespace — and under a second nesting level, and re-runs the suite.
func TestRemoteWithPrefixConformance(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		storagetest.Run(t, func(t *testing.T) storage.Backend {
			return storage.WithPrefix(dialTestServer(t, remote.Options{}), "ns")
		})
	})
	t.Run("nested", func(t *testing.T) {
		storagetest.Run(t, func(t *testing.T) storage.Backend {
			return storage.WithPrefix(storage.WithPrefix(dialTestServer(t, remote.Options{}), "outer"), "inner")
		})
	})
}

// TestDialRejectsNonServer: a URL that is not a qckpt server fails at
// Dial, not mid-save.
func TestDialRejectsNonServer(t *testing.T) {
	if _, err := remote.Dial("not a url", remote.Options{}); err == nil {
		t.Error("garbage URL accepted")
	}
	ts := httptest.NewServer(nil) // 404s everything
	defer ts.Close()
	if _, err := remote.Dial(ts.URL, remote.Options{Retries: -1}); err == nil {
		t.Error("non-qckpt server accepted")
	}
}
