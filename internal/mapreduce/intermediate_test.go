package mapreduce

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mrapid/internal/hdfs"
	"mrapid/internal/profiler"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// storeRuntime is a test runtime whose intermediate store admits memBudget
// bytes to memory.
func storeRuntime(t *testing.T, memBudget int64) (*Runtime, *IntermediateStore) {
	t.Helper()
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	rt.Params.UberCacheBytes = memBudget
	return rt, rt.EnsureIntermediates()
}

// commit runs one priced CommitIntermediate to completion and reports how
// long it took on the virtual clock.
func commit(t *testing.T, rt *Runtime, name string, data []byte, node *topology.Node) time.Duration {
	t.Helper()
	start, end := rt.Eng.Now(), sim.Time(-1)
	rt.CommitIntermediate(name, data, node, func(err error) {
		if err != nil {
			t.Errorf("commit %s: %v", name, err)
		}
		end = rt.Eng.Now()
	})
	rt.Eng.RunUntil(start.Add(time.Minute))
	if end < 0 {
		t.Fatalf("commit %s never completed", name)
	}
	return end.Sub(start)
}

// A commit is free while the memory budget lasts and a local disk write
// after; MemUsed/DiskUsed are what the store holds now and fall on Delete,
// while MemBytes/DiskBytes/HDFSBytesAvoided only ever count up.
func TestIntermediateStoreResidencyFollowsDeletes(t *testing.T) {
	rt, st := storeRuntime(t, 1000)
	node := rt.Cluster.Workers()[0]
	if d := commit(t, rt, "/q/a", make([]byte, 600), node); d != 0 {
		t.Errorf("in-memory commit took %v, want 0", d)
	}
	if d := commit(t, rt, "/q/b", make([]byte, 600), node); d != node.Disk.TransferTime(600) {
		t.Errorf("over-budget commit took %v, want one disk write of %v", d, node.Disk.TransferTime(600))
	}
	if d := commit(t, rt, "/q/empty", nil, node); d != 0 {
		t.Errorf("empty commit took %v, want 0", d)
	}
	if st.MemUsed() != 600 || st.DiskUsed() != 600 {
		t.Fatalf("resident %d in memory / %d on disk, want 600 / 600", st.MemUsed(), st.DiskUsed())
	}
	// Last-writer-wins: recommitting a name displaces the old entry first,
	// so its bytes are back in the budget before the new ones are admitted.
	commit(t, rt, "/q/a", make([]byte, 900), node)
	if st.MemUsed() != 900 || st.DiskUsed() != 600 {
		t.Fatalf("after recommit: %d in memory / %d on disk, want 900 / 600", st.MemUsed(), st.DiskUsed())
	}
	if n := st.DeletePrefix("/q/"); n != 3 {
		t.Fatalf("DeletePrefix dropped %d files, want 3", n)
	}
	if st.MemUsed() != 0 || st.DiskUsed() != 0 {
		t.Fatalf("after delete: %d in memory / %d on disk, want 0 / 0", st.MemUsed(), st.DiskUsed())
	}
	if st.MemBytes != 1500 || st.DiskBytes != 600 || st.HDFSBytesAvoided != 2100 {
		t.Fatalf("cumulative counters %d / %d / %d, want 1500 / 600 / 2100", st.MemBytes, st.DiskBytes, st.HDFSBytesAvoided)
	}
}

// Renaming onto an occupied name must refund the entry it displaces; before
// the fix the displaced in-memory bytes stayed charged forever.
func TestIntermediateRenameOverRefundsDisplaced(t *testing.T) {
	rt, st := storeRuntime(t, 1000)
	node := rt.Cluster.Workers()[0]
	st.Put("/tmp/part-00000", make([]byte, 100), node)
	st.Put("/out/part-00000", make([]byte, 200), node)
	if st.MemUsed() != 300 {
		t.Fatalf("MemUsed = %d, want 300", st.MemUsed())
	}
	if n := st.RenamePrefix("/tmp", "/out"); n != 1 {
		t.Fatalf("RenamePrefix moved %d files, want 1", n)
	}
	if st.MemUsed() != 100 {
		t.Errorf("MemUsed = %d after renaming over a 200-byte entry, want the 100 resident bytes", st.MemUsed())
	}
	if n, ok := st.Size("/out/part-00000"); !ok || n != 100 || st.Has("/tmp/part-00000") {
		t.Errorf("rename target holds %d bytes (present %v), source still present %v", n, ok, st.Has("/tmp/part-00000"))
	}
	if err := rt.CheckResidency(); err != nil {
		t.Error(err)
	}
}

// A rename whose targets fall under the prefix being renamed moves each
// file exactly once: the names are collected before anything moves.
func TestIntermediateRenameIntoOwnPrefix(t *testing.T) {
	rt, st := storeRuntime(t, 1<<20)
	node := rt.Cluster.Workers()[0]
	for _, name := range []string{"/x/1", "/x/2", "/x/3", "/x/4", "/x/5", "/x/6", "/x/7", "/x/8"} {
		st.Put(name, []byte(name), node)
	}
	if n := st.RenamePrefix("/x/", "/x/y/"); n != 8 {
		t.Fatalf("RenamePrefix moved %d files, want 8", n)
	}
	for _, name := range []string{"/x/y/1", "/x/y/8"} {
		if data, ok := st.Contents(name); !ok || string(data) != "/x/"+name[5:] {
			t.Errorf("%s holds %q (present %v)", name, data, ok)
		}
	}
	if st.Has("/x/1") || st.Has("/x/y/y/1") {
		t.Error("a file stayed behind or moved twice")
	}
}

// lostHolderFixture commits one spilled map output and one on-disk
// intermediate file on src, and names a reader in the other rack.
type lostHolderFixture struct {
	rt       *Runtime
	src, dst *topology.Node
	mo       *MapOutput
	split    *hdfs.Split
}

func newLostHolderFixture(t *testing.T) *lostHolderFixture {
	t.Helper()
	rt, _ := storeRuntime(t, 0) // nothing fits memory: the file lands on src's disk
	names, _ := stageWordCountInput(t, rt, 1, 256<<10)
	in, err := rt.DFS.Splits(names)
	if err != nil {
		t.Fatal(err)
	}
	fx := &lostHolderFixture{rt: rt, src: rt.Cluster.Workers()[0], dst: rt.Cluster.Workers()[1]}
	if fx.src.Rack == fx.dst.Rack {
		t.Fatal("fixture wants a cross-rack reader")
	}
	rt.RunMapTask(wcSpec(names, "/out"), in[0], fx.src, TaskOptions{}, func(mo *MapOutput, _ *profiler.TaskProfile, err error) {
		if err != nil {
			t.Errorf("map failed: %v", err)
		}
		fx.mo = mo
	})
	commit(t, rt, "/q/stage-0/part-00000", bytes.Repeat([]byte("row\n"), 64<<10), fx.src)
	if fx.mo == nil {
		t.Fatal("map never completed")
	}
	splits, err := rt.Splits([]string{"/q/stage-0/part-00000"})
	if err != nil || len(splits) != 1 || splits[0].Hosts[0] != fx.src {
		t.Fatalf("store splits = %v (%v), want one hosted on %s", splits, err, fx.src)
	}
	fx.split = splits[0]
	return fx
}

// lostRead is where and when a read's outcome landed; fetch and readSplit
// start one carrier's read on dst and return its size.
type lostRead struct {
	err error
	at  sim.Time
}

func (fx *lostHolderFixture) fetch(out *lostRead) int64 {
	fx.rt.FetchPartition(fx.mo, 0, fx.dst, func(err error) { *out = lostRead{err, fx.rt.Eng.Now()} })
	return fx.mo.PartBytes[0]
}

func (fx *lostHolderFixture) readSplit(out *lostRead) int64 {
	fx.rt.ReadSplit(fx.split, fx.dst, func(_ []byte, err error) { *out = lostRead{err, fx.rt.Eng.Now()} })
	return fx.split.Length
}

// The one read protocol, through both carriers this package owns (the memo
// entry's is TestMemoDiskHolderLost in internal/core). A holder that died
// before the read is a refused connection: the error arrives after the RPC
// latency and no device is charged. A holder that dies while the devices
// are busy is a dropped connection: the error arrives when the transfer
// would have completed — the slowest of source disk, the NICs and the core
// switch — with the devices charged in full. For a map output both instants
// are the parent commit's; for an intermediate file the first is, and the
// second used to come one more RPC latency later.
func TestLostHolderReadProtocol(t *testing.T) {
	carriers := []struct {
		name string
		read func(*lostHolderFixture, *lostRead) int64
		lost error
	}{
		{"map output", (*lostHolderFixture).fetch, ErrOutputLost},
		{"intermediate file", (*lostHolderFixture).readSplit, ErrIntermediateLost},
	}
	for _, c := range carriers {
		t.Run(c.name+"/during", func(t *testing.T) {
			fx := newLostHolderFixture(t)
			rt, start, busy := fx.rt, fx.rt.Eng.Now(), fx.dst.NIC.BusyTime()
			var got lostRead
			n := c.read(fx, &got)
			full := max(fx.src.Disk.TransferTime(n), fx.dst.NIC.TransferTime(n), rt.Cluster.CoreSwitch.TransferTime(n))
			rt.Eng.After(full/2, fx.src.Fail)
			rt.Eng.RunUntil(start.Add(time.Minute))
			if !errors.Is(got.err, c.lost) || got.at != start.Add(full) {
				t.Errorf("got %v at %v, want %v at %v", got.err, got.at, c.lost, start.Add(full))
			}
			if d := fx.dst.NIC.BusyTime() - busy; d != fx.dst.NIC.TransferTime(n) {
				t.Errorf("reader NIC charged %v, want the whole transfer %v", d, fx.dst.NIC.TransferTime(n))
			}
		})
		t.Run(c.name+"/before", func(t *testing.T) {
			fx := newLostHolderFixture(t)
			rt := fx.rt
			fx.src.Fail()
			fx.src.Restart() // a reboot does not bring the bytes back
			start, busy := rt.Eng.Now(), fx.dst.NIC.BusyTime()
			var got lostRead
			c.read(fx, &got)
			rt.Eng.RunUntil(start.Add(time.Minute))
			if !errors.Is(got.err, c.lost) || got.at != start.Add(rt.Params.RPCLatency) {
				t.Errorf("got %v at %v, want %v at %v", got.err, got.at, c.lost, start.Add(rt.Params.RPCLatency))
			}
			if fx.dst.NIC.BusyTime() != busy {
				t.Error("a refused read charged the reader's NIC")
			}
		})
	}
}
