package costmodel

import (
	"testing"
	"time"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestContainerStart(t *testing.T) {
	p := Default()
	if got := p.ContainerStart(); got != p.ContainerLaunch+p.JVMStart {
		t.Fatalf("ContainerStart = %v", got)
	}
}

func TestValidateCatchesEachField(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Params)
	}{
		{"NMHeartbeat", func(p *Params) { p.NMHeartbeat = 0 }},
		{"AMHeartbeat", func(p *Params) { p.AMHeartbeat = -time.Second }},
		{"SortBufferBytes", func(p *Params) { p.SortBufferBytes = 0 }},
		{"UberCacheBytes", func(p *Params) { p.UberCacheBytes = -1 }},
		{"SortCPUBytesPerSec", func(p *Params) { p.SortCPUBytesPerSec = 0 }},
		{"HDFSBlockBytes", func(p *Params) { p.HDFSBlockBytes = 0 }},
		{"Replication", func(p *Params) { p.Replication = 0 }},
		{"AMPoolSize", func(p *Params) { p.AMPoolSize = -1 }},
	}
	for _, m := range mutations {
		p := Default()
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %s not caught by Validate", m.name)
		} else if err.Error() == "" {
			t.Errorf("mutation %s produced empty error", m.name)
		}
	}
}

func TestUberCacheZeroAllowed(t *testing.T) {
	// A zero cache budget is the "stock Uber" ablation: everything spills.
	p := Default()
	p.UberCacheBytes = 0
	if err := p.Validate(); err != nil {
		t.Fatalf("zero UberCacheBytes should be valid: %v", err)
	}
}

func TestDefaultsMatchHadoop2(t *testing.T) {
	p := Default()
	if p.NMHeartbeat != time.Second {
		t.Errorf("NMHeartbeat = %v, want 1s (Hadoop 2 default)", p.NMHeartbeat)
	}
	if p.SortBufferBytes != 100<<20 {
		t.Errorf("SortBufferBytes = %d, want 100 MB (io.sort.mb)", p.SortBufferBytes)
	}
	if p.HDFSBlockBytes != 128<<20 {
		t.Errorf("HDFSBlockBytes = %d, want 128 MB", p.HDFSBlockBytes)
	}
	if p.Replication != 3 {
		t.Errorf("Replication = %d, want 3", p.Replication)
	}
	if p.AMPoolSize != 3 {
		t.Errorf("AMPoolSize = %d, want 3 (paper default)", p.AMPoolSize)
	}
}
