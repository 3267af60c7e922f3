package flight

import (
	"runtime"
	"time"

	"mrapid/internal/sim"
)

// SelfProfiler is the recorder's host-side lane: it watches the simulator
// itself — wall-clock event throughput, host time burned per virtual
// second, allocation pressure, event-heap depth. Everything here reads the
// host clock and runtime, so it is deliberately kept OUT of the
// deterministic series store and the Prometheus/dashboard series dumps;
// its only output is the EngineBench summary, which the dashboard's host
// lane and bench.ThroughputResult.Engine carry.
type SelfProfiler struct {
	eng *sim.Engine

	hostStart    time.Time
	virtualStart sim.Time
	firedStart   uint64
	memStart     runtime.MemStats

	running bool
	ticks   int64

	bench    EngineBench
	finished bool
}

func newSelfProfiler(eng *sim.Engine) *SelfProfiler {
	return &SelfProfiler{eng: eng}
}

func (p *SelfProfiler) start() {
	p.running = true
	p.hostStart = time.Now()
	p.virtualStart = p.eng.Now()
	p.firedStart = p.eng.Fired()
	runtime.ReadMemStats(&p.memStart)
}

func (p *SelfProfiler) tick() { p.ticks++ }

func (p *SelfProfiler) stop() {
	if !p.running || p.finished {
		return
	}
	p.finished = true

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	hostSec := time.Since(p.hostStart).Seconds()
	virtSec := p.eng.Now().Sub(p.virtualStart).Seconds()
	events := p.eng.Fired() - p.firedStart

	b := EngineBench{
		Events:            events,
		VirtualSeconds:    virtSec,
		HostSeconds:       hostSec,
		MaxEventHeapDepth: p.eng.MaxPending(),
		RecorderTicks:     p.ticks,
	}
	if hostSec > 0 {
		b.EventsPerHostSec = float64(events) / hostSec
	}
	if virtSec > 0 {
		b.HostNsPerVirtualSec = hostSec * 1e9 / virtSec
	}
	if events > 0 {
		b.AllocsPerEvent = float64(mem.Mallocs-p.memStart.Mallocs) / float64(events)
		b.BytesPerEvent = float64(mem.TotalAlloc-p.memStart.TotalAlloc) / float64(events)
	}
	p.bench = b
}

// Summary returns the host-lane figures gathered between Start and Stop.
// Only valid after the recorder is stopped.
func (p *SelfProfiler) Summary() EngineBench { return p.bench }

// EngineBench is the self-profiler's summary of one run: how efficiently
// the engine turned host time into virtual time. The numbers vary from
// host to host and run to run — they are benchmark output, never inputs to
// determinism checks.
type EngineBench struct {
	Events              uint64
	VirtualSeconds      float64
	HostSeconds         float64
	EventsPerHostSec    float64
	HostNsPerVirtualSec float64
	AllocsPerEvent      float64
	BytesPerEvent       float64
	MaxEventHeapDepth   int
	RecorderTicks       int64
}
