package mocca

import (
	"path/filepath"
	"time"

	"mocca/internal/information"
	"mocca/internal/information/logstore"
	"mocca/internal/netsim"
	"mocca/internal/placement"
)

// Option configures a Deployment.
type Option func(*Deployment)

// WithSeed fixes the simulation seed (default 1992).
func WithSeed(seed int64) Option {
	return func(d *Deployment) { d.seed = seed }
}

// WithDefaultLink sets network characteristics between sites.
func WithDefaultLink(latency time.Duration, loss float64) Option {
	return func(d *Deployment) {
		d.link = netsim.LinkProfile{Latency: latency, Loss: loss}
	}
}

// WithSyncInterval sets the anti-entropy interval for the per-site
// information replicas (default one second of simulated time).
func WithSyncInterval(interval time.Duration) Option {
	return func(d *Deployment) { d.syncEvery = interval }
}

// WithPlacement seeds the deployment's placement policy with rules, so
// partial replication is in force from the first site: each site only
// replicates the information spaces placed at it, resolves everything
// else through trader-mediated remote reads, and the policy can be
// re-tailored at runtime via Deployment.SetPlacementRules. Without this
// option the policy is the deterministic replicate-everywhere default —
// existing deployments are unchanged.
func WithPlacement(rules ...placement.Rule) Option {
	return func(d *Deployment) { d.placeRules = rules }
}

// WithGossip replaces the full-mesh site peering with the epidemic
// overlay (internal/gossip): each site maintains a partial active view
// of ~⌈log₂ n⌉+c peers discovered through trader membership offers, runs
// anti-entropy only against that view, and races fresh writes ahead of
// the sync rounds as rumors. The replicator's peer set follows the view
// (churn adds, removes and re-arms peers), so per-site channel counts
// and sync bytes scale with log n instead of n — the configuration for
// deployments past a few dozen sites. Without this option the full mesh
// remains the default and nothing changes.
func WithGossip() Option {
	return func(d *Deployment) { d.gossip = true }
}

// WithSiteBackend supplies per-site information storage: the factory is
// called whenever a site boots — AddSite and every Site.Restart — so a
// durable backend re-opened by the factory recovers the replica from
// disk. AddSite panics if the factory fails — a deployment whose storage
// cannot open has nothing sensible to simulate.
func WithSiteBackend(fn func(site string) (information.Backend, error)) Option {
	return func(d *Deployment) { d.backendFor = fn }
}

// WithDurableStore keeps every site's information replica in a tiered
// log-structured store under dir/<site> (write-ahead log + sorted
// segment files + manifest, see internal/information/logstore). A site
// killed with Site.Crash and brought back with Site.Restart recovers
// its replica from disk and re-enters anti-entropy with correct
// digests, so peers send it only what it missed. Store tuning knobs —
// logstore.WithFsync, WithCompactEvery, WithFlushBytes, WithMergeFanout,
// WithBackgroundMerge — pass through to every site's store, first boot
// and restart alike.
func WithDurableStore(dir string, opts ...logstore.Option) Option {
	return WithSiteBackend(func(site string) (information.Backend, error) {
		return logstore.Open(filepath.Join(dir, site), opts...)
	})
}
