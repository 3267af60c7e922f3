// Package core implements MRapid, the paper's contribution: the D+
// resource- and locality-aware scheduler (Algorithm 1), the U+ parallel
// in-memory Uber mode, the AM-pool job submission framework, the
// profile-driven completion-time estimator (Equations 2 and 3), and the
// speculative dual-mode executor with its decision maker.
package core

import (
	"cmp"
	"slices"

	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// DPlusOptions toggle the individual D+ optimizations so the Figure 14
// ablation can switch each one off independently. The zero value is the
// stock-equivalent configuration; FullDPlus() is the paper's D+ mode.
type DPlusOptions struct {
	// SameHeartbeat answers container requests from the RM's Cluster
	// Resource view in the requesting heartbeat instead of waiting for
	// NodeManager status reports ("reducing communication").
	SameHeartbeat bool

	// LocalityAware serves asks in NodeLocal → RackLocal → ANY tiers
	// ("locality awareness"). When off, every ask is treated as ANY.
	LocalityAware bool

	// BalancedSpread sorts nodes by available dominant resource in
	// descending order and hands out one container per node per sweep
	// (the paper's "round-robin technique"). When off, nodes are walked in
	// fixed order and packed greedily, like the stock scheduler.
	BalancedSpread bool
}

// FullDPlus returns the paper's complete D+ configuration.
func FullDPlus() DPlusOptions {
	return DPlusOptions{SameHeartbeat: true, LocalityAware: true, BalancedSpread: true}
}

// DPlusScheduler is MRapid's improved CapacityScheduler (Algorithm 1). It
// allocates from the ResourceManager's per-node resource snapshot the
// moment a request arrives, spreading containers across relatively idle
// nodes and honoring data locality tiers.
type DPlusScheduler struct {
	opts  DPlusOptions
	queue []*yarn.Ask // asks the cluster could not satisfy yet

	// sorted is allocate's scratch: the live nodes in the current tier's
	// order, kept between calls so a heartbeat allocates no node slice.
	sorted []*yarn.NodeTracker
}

// NewDPlusScheduler builds the scheduler with the given toggles.
func NewDPlusScheduler(opts DPlusOptions) *DPlusScheduler {
	return &DPlusScheduler{opts: opts}
}

// Name implements yarn.Scheduler.
func (s *DPlusScheduler) Name() string { return "mrapid-dplus" }

// Options returns the active toggles.
func (s *DPlusScheduler) Options() DPlusOptions { return s.opts }

// Queued reports the number of pending asks (for tests).
func (s *DPlusScheduler) Queued() int { return len(s.queue) }

// OnAllocate implements yarn.Scheduler. With SameHeartbeat on, Algorithm 1
// runs immediately against the Cluster Resource snapshot and the grants ride
// back in the same heartbeat's response; anything that did not fit stays
// queued. With SameHeartbeat off the asks queue like stock Hadoop and are
// only served on node heartbeats (but still with Algorithm 1's placement).
func (s *DPlusScheduler) OnAllocate(rm *yarn.RM, app *yarn.App, asks []*yarn.Ask) []*yarn.Container {
	for _, a := range asks {
		if a.App != app {
			panic("core: ask routed to wrong app")
		}
		s.queue = append(s.queue, a)
		app.AddPending(a)
	}
	if !s.opts.SameHeartbeat {
		return nil
	}
	return s.allocate(rm, app)
}

// OnNodeUpdate implements yarn.Scheduler: leftover queued asks (cluster was
// full, or SameHeartbeat is off) are served as resources free up. Grants
// here are buffered for the app's next heartbeat, as in stock Hadoop.
func (s *DPlusScheduler) OnNodeUpdate(rm *yarn.RM, nt *yarn.NodeTracker) {
	if len(s.queue) == 0 {
		return
	}
	s.allocate(rm, nil)
}

// allocate runs Algorithm 1 over the RM's Cluster Resource snapshot. Grants
// for requester ride back in the same heartbeat's response (returned);
// grants for any other app — or when requester is nil — are delivered
// through the normal buffered path.
func (s *DPlusScheduler) allocate(rm *yarn.RM, requester *yarn.App) []*yarn.Container {
	trackers := rm.Trackers()
	s.compactQueue()
	if len(s.queue) == 0 {
		return nil
	}
	var granted []*yarn.Container

	// Line 1: types = {NodeLocal, RackLocal, ANY}. Without locality
	// awareness everything is ANY.
	tiers := []yarn.Locality{yarn.NodeLocal, yarn.RackLocal, yarn.Any}
	if !s.opts.LocalityAware {
		tiers = tiers[2:]
	}

	// stale says the sort keys moved since s.sorted was ordered. Only a grant
	// moves them (a node's Avail, and through the totals the dominant
	// dimension), so a tier that follows one that granted nothing walks the
	// same order without sorting again: a stable sort is a function of the
	// keys and the starting order alone.
	stale := true
	grant := func(ask *yarn.Ask, nt *yarn.NodeTracker) {
		c := rm.Grant(ask, nt)
		stale = true
		ask.App.RemovePending(ask)
		if requester != nil && ask.App == requester && !ask.IsDirect() {
			granted = append(granted, c)
		} else {
			ask.Deliver(c)
		}
	}

	for _, tier := range tiers {
		// Lines 5–16, adapted to the paper's round-robin description: sweep
		// the sorted nodes granting at most one matching ask per node per
		// sweep, repeating until a full sweep grants nothing. (A literal
		// reading of the pseudocode packs each node before moving on, which
		// contradicts the paper's own "spreads tasks ... uniformly" and
		// "round-robin technique" discussion; we follow the prose. The
		// BalancedSpread=false ablation restores the literal greedy packing.)
		if s.opts.BalancedSpread {
			if stale {
				// Lines 3–4: decide the dominant resource and sort nodes by
				// available dominant resource, descending, so relatively idle
				// nodes come first. Every sort starts from the RM's order, so
				// ties fall the same way in every tier.
				dominant := topology.DominantOf(rm.TotalUsed(), rm.TotalCapacity())
				s.sorted = append(s.sorted[:0], trackers...)
				slices.SortStableFunc(s.sorted, func(a, b *yarn.NodeTracker) int {
					return cmp.Compare(dominant.Of(b.Avail), dominant.Of(a.Avail))
				})
				stale = false
			}
			for {
				progress := false
				for _, nt := range s.sorted {
					if ask := s.takeMatch(rm, nt, tier); ask != nil {
						grant(ask, nt)
						progress = true
					}
				}
				if !progress {
					break
				}
			}
		} else {
			for _, nt := range trackers {
				for {
					ask := s.takeMatch(rm, nt, tier)
					if ask == nil {
						break
					}
					grant(ask, nt)
				}
			}
		}
		if len(s.queue) == 0 {
			break
		}
	}
	return granted
}

// takeMatch removes and returns the first queued ask that fits the node,
// respects its tenant queue's capacity, and matches the locality tier (an
// ask whose achieved locality on this node equals the tier — under
// locality-blind operation every ask matches ANY).
func (s *DPlusScheduler) takeMatch(rm *yarn.RM, nt *yarn.NodeTracker, tier yarn.Locality) *yarn.Ask {
	for i, a := range s.queue {
		if !a.App.Alive() {
			continue // compacted later
		}
		if !a.Resource.FitsIn(nt.Avail) || !rm.QueueAllows(a.App, a.Resource) {
			continue
		}
		if s.opts.LocalityAware && a.LocalityOn(nt.Node) != tier {
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		return a
	}
	return nil
}

// compactQueue drops asks from dead apps.
func (s *DPlusScheduler) compactQueue() {
	keep := s.queue[:0]
	for _, a := range s.queue {
		if a.App.Alive() {
			keep = append(keep, a)
		} else {
			a.App.RemovePending(a)
		}
	}
	s.queue = keep
}
