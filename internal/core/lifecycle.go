package core

import (
	"errors"
	"fmt"

	"repro/internal/storage"
)

// Tiered snapshot lifecycle: with a storage.Tiered backend every save
// lands on the hot level, and this engine demotes whole anchor chains —
// each chain's manifests plus the chunks only demoted chains reference —
// down the hierarchy once the chain falls out of the policy's hot set.
// Migration is copy-verify-delete in two phases (copy every object to the
// target level and read it back, only then delete the warm copies), and
// the Tiered read path falls through levels, so at no point does a
// readable manifest reference an unreadable chunk: a crash anywhere in a
// migration leaves at worst duplicate copies, which the next pass settles.

// LifecyclePolicy configures when anchor chains leave the hot level. The
// zero value disables the lifecycle engine.
type LifecyclePolicy struct {
	// KeepHotChains keeps the newest KeepHotChains anchor chains on the
	// hot level and demotes older ones to the coldest. <= 0 disables the
	// engine.
	KeepHotChains int
}

// enabled reports whether the lifecycle engine is active.
func (p LifecyclePolicy) enabled() bool { return p.KeepHotChains > 0 }

// MigrationReport summarizes one migration pass.
type MigrationReport struct {
	Level     string // target level name
	Chains    int    // anchor chains demoted (at least partially resident warm)
	Manifests int    // snapshot manifests moved
	Chunks    int    // chunks moved
	Bytes     int64  // object bytes copied down
}

// Migrate applies pol to the tiered backend t: anchor chains outside the
// hot set are demoted to the coldest level, manifests plus the chunks no
// kept chain references. The newest chain — the one still being written —
// is never demoted.
func Migrate(t *storage.Tiered, pol LifecyclePolicy) (MigrationReport, error) {
	target := t.Len() - 1
	rep := MigrationReport{Level: t.Level(target).Name}
	if !pol.enabled() || target == 0 {
		return rep, nil
	}
	refs, err := listSnapshots(t)
	if err != nil {
		return rep, err
	}
	chains := anchorChains(refs)
	if len(chains) < 2 {
		return rep, nil
	}
	// The oldest chains demote; KeepHotChains ≥ 1, so the newest never does.
	demote := make([]bool, len(chains))
	for i := 0; i < len(chains)-pol.KeepHotChains; i++ {
		demote[i] = true
	}
	// Cheap steady-state exit: find demoted manifests still resident warm.
	// If there are none, the pass's chunks are cold too (a pass deletes
	// warm chunk copies before warm manifest copies) and nothing moves —
	// without this, every save would re-read every demoted manifest body
	// at cold-device cost just to conclude that.
	var manifests []string
	warmChain := make([]bool, len(chains))
	for i, c := range chains {
		if !demote[i] {
			continue
		}
		for _, ref := range c {
			if lv, err := t.Residency(ref.key); err == nil && lv < target {
				manifests = append(manifests, ref.key)
				warmChain[i] = true
			}
		}
	}
	if len(manifests) == 0 {
		return rep, nil
	}
	// A chunk demotes only when no kept chain references it. Reading the
	// manifest bodies is the expensive half of a pass, which is why it waits
	// until manifests are known to move; a manifest retention deleted since
	// the listing references nothing, any other failed read aborts the pass
	// rather than shrink a kept chain's reference set.
	keepAddrs := make(map[string]bool)
	demoteAddrs := make([][]string, len(chains))
	for i, c := range chains {
		for _, ref := range c {
			addrs, err := manifestAddrs(t, ref.key)
			if err != nil && !errors.Is(err, storage.ErrNotFound) {
				return rep, fmt.Errorf("core: migrate read %s: %w", ref.key, err)
			}
			if demote[i] {
				demoteAddrs[i] = append(demoteAddrs[i], addrs...)
				continue
			}
			for _, a := range addrs {
				keepAddrs[a] = true
			}
		}
	}
	var chunkKeys []string
	chunkSeen := make(map[string]bool)
	for i, addrs := range demoteAddrs {
		for _, a := range addrs {
			if keepAddrs[a] || chunkSeen[a] {
				continue
			}
			chunkSeen[a] = true
			key := ChunkKey(a)
			if lv, err := t.Residency(key); err == nil && lv < target {
				chunkKeys = append(chunkKeys, key)
				warmChain[i] = true
			}
		}
	}
	for _, warm := range warmChain {
		if warm {
			rep.Chains++
		}
	}
	// Phase 1: copy everything to the target level and verify. Chunks
	// first, manifests after — immaterial for readability (reads fall
	// through levels) but it keeps the occupancy accounting conservative.
	all := append(append([]string(nil), chunkKeys...), manifests...)
	for _, key := range all {
		n, err := t.CopyTo(key, target)
		if err != nil {
			return rep, fmt.Errorf("core: migrate copy %s: %w", key, err)
		}
		rep.Bytes += n
	}
	// Phase 2: drop the warm copies.
	for _, key := range all {
		if _, err := t.DeleteOutside(key, target); err != nil {
			return rep, fmt.Errorf("core: migrate delete %s: %w", key, err)
		}
	}
	rep.Chunks = len(chunkKeys)
	rep.Manifests = len(manifests)
	return rep, nil
}

// Migrate runs one lifecycle pass under the manager's policy, returning
// what moved. It requires a Tiered backend.
func (m *Manager) Migrate() (MigrationReport, error) {
	if m.tiered == nil {
		return MigrationReport{}, errors.New("core: migration requires a tiered backend")
	}
	rep, err := Migrate(m.tiered, m.opt.Lifecycle)
	if err == nil {
		m.mu.Lock()
		m.stats.Migrated += rep.Manifests + rep.Chunks
		m.stats.MigratedBytes += rep.Bytes
		m.mu.Unlock()
	}
	return rep, err
}
