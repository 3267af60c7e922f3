package core

import (
	"fmt"

	"mrapid/internal/mapreduce"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// PooledAM is one reserved ApplicationMaster: a warm JVM holding its
// container, waiting for the proxy to hand it a job.
type PooledAM struct {
	ID        int
	Container *yarn.Container
	Node      *topology.Node
	app       *yarn.App // the pool's own app owning the AM container
	busy      bool

	// lost marks an AM whose node died. A lost AM never returns to the idle
	// list; the pool launches a replacement in the background.
	lost bool

	// onLost, set by the framework while the AM serves a job, is how a job
	// in flight learns its AM just died under it.
	onLost func()
}

// Lost reports whether this AM's node died.
func (am *PooledAM) Lost() bool { return am.lost }

// Pool is the proxy's reserve of ApplicationMasters, the heart of the
// MRapid job submission framework: "reserves an ApplicationMaster pool for
// reuse and avoids the long waiting time to initialize new ones for short
// jobs." AMs are launched once at cluster start (cost paid outside any
// measured job) and handed out/returned over the proxy's RPC. An AM lost
// to node failure is replaced in the background; while none are alive the
// framework degrades to the stock submission path.
type Pool struct {
	rt      *mapreduce.Runtime
	size    int
	ams     []*PooledAM
	idle    []*PooledAM
	waiters []func(*PooledAM)
	nextID  int

	// Dispatches counts jobs served; Lost counts AMs that died with their
	// node; Replenished counts background replacement launches.
	Dispatches  int64
	Lost        int64
	Replenished int64
}

// NewPool creates an (unstarted) AM pool of the given size. Size zero is
// legal and models the framework being disabled.
func NewPool(rt *mapreduce.Runtime, size int) *Pool {
	if size < 0 {
		panic("core: negative pool size")
	}
	return &Pool{rt: rt, size: size}
}

// Size returns the configured pool size.
func (p *Pool) Size() int { return p.size }

// Idle returns how many AMs are currently free.
func (p *Pool) Idle() int { return len(p.idle) }

// AliveAMs returns how many pooled AMs currently exist (idle or serving a
// job). Replacements still launching don't count yet.
func (p *Pool) AliveAMs() int { return len(p.ams) }

// Exhausted reports that the pool has no live AM to offer — every reserved
// AM died and the replacements are still coming up (or the pool has size
// zero). The framework falls back to stock submission rather than queueing
// jobs behind the relaunches.
func (p *Pool) Exhausted() bool { return len(p.ams) == 0 }

// Start launches the reserved AMs through the normal YARN submission path
// (this is cluster startup work: the proxy pays AM allocation, container
// launch, and initialization once, before any job is measured). ready fires
// when every AM is up.
func (p *Pool) Start(ready func()) {
	if ready == nil {
		panic("core: Pool.Start needs a ready callback")
	}
	if p.size == 0 {
		p.rt.Eng.After(0, ready)
		return
	}
	remaining := p.size
	for i := 0; i < p.size; i++ {
		p.launchOne(func() {
			remaining--
			if remaining == 0 {
				ready()
			}
		})
	}
}

// launchOne brings one AM up through SubmitApp. The loss handler is
// registered on the pool's app before any container exists, so a node that
// dies at any point — during launch, while idle, or mid-job — is noticed.
// up, when non-nil, fires once the AM is serving (it does not fire for an
// AM that dies while launching; the replacement carries no callback).
func (p *Pool) launchOne(up func()) {
	id := p.nextID
	p.nextID++
	holder := &PooledAM{ID: id}
	app := p.rt.RM.SubmitApp(fmt.Sprintf("mrapid-am-pool-%d", id), p.rt.AMResource(), func(_ *yarn.App, c *yarn.Container) {
		p.rt.Eng.After(p.rt.Params.AMInit, func() {
			if holder.lost {
				return
			}
			holder.Container = c
			holder.Node = c.Node
			p.ams = append(p.ams, holder)
			p.idle = append(p.idle, holder)
			p.rt.Trace.Add("pool", "AM %d up on %s", holder.ID, c.Node.Name)
			if up != nil {
				up()
			}
			p.dispatch()
		})
	})
	holder.app = app
	app.OnContainerLost = func(*yarn.Container) { p.amLost(holder) }
}

// amLost handles an AM container dying with its node: the AM leaves the
// pool, any job it was serving is told, and a replacement launches in the
// background (jobs queued meanwhile fall back to stock submission via
// Exhausted, or wait for the replacement if other AMs remain).
func (p *Pool) amLost(am *PooledAM) {
	if am.lost {
		return
	}
	am.lost = true
	p.Lost++
	for i, x := range p.idle {
		if x == am {
			p.idle = append(p.idle[:i], p.idle[i+1:]...)
			break
		}
	}
	for i, x := range p.ams {
		if x == am {
			p.ams = append(p.ams[:i], p.ams[i+1:]...)
			break
		}
	}
	p.rt.Trace.Add("pool", "AM %d lost with its node; launching replacement", am.ID)
	if am.busy && am.onLost != nil {
		cb := am.onLost
		am.onLost = nil
		cb()
	}
	p.Replenished++
	p.launchOne(nil)
}

// Acquire hands an idle AM to the callback, queueing if all are busy. The
// handoff costs one proxy→AM RPC.
func (p *Pool) Acquire(fn func(*PooledAM)) {
	if fn == nil {
		panic("core: Pool.Acquire needs a callback")
	}
	if p.size == 0 {
		panic("core: Acquire on a disabled (size-0) pool")
	}
	p.waiters = append(p.waiters, fn)
	p.dispatch()
}

// Release returns an AM to the pool for the next short job. The completion
// report travels AM→proxy and is charged the same RPC as Acquire's dispatch
// (the paper runs both over Spring Hadoop) — the accounting must be symmetric.
// A lost AM is not re-idled; its replacement is already launching.
func (p *Pool) Release(am *PooledAM) {
	if !am.busy {
		panic(fmt.Sprintf("core: AM %d released while idle", am.ID))
	}
	am.busy = false
	am.onLost = nil
	if am.lost {
		return
	}
	p.rt.Eng.After(p.rt.Params.RPCLatency, func() {
		if am.lost {
			// The node died while the completion report was in flight.
			return
		}
		p.idle = append(p.idle, am)
		p.dispatch()
	})
}

func (p *Pool) dispatch() {
	for len(p.waiters) > 0 && len(p.idle) > 0 {
		am := p.idle[0]
		p.idle = p.idle[1:]
		fn := p.waiters[0]
		p.waiters = p.waiters[1:]
		am.busy = true
		p.Dispatches++
		p.rt.Eng.After(p.rt.Params.RPCLatency, func() {
			if am.lost {
				// The AM died while the dispatch RPC was in flight: put the
				// job back at the head of the queue for the next AM (or the
				// background replacement).
				p.waiters = append([]func(*PooledAM){fn}, p.waiters...)
				p.dispatch()
				return
			}
			fn(am)
		})
	}
}
