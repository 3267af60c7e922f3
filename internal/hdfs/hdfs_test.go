package hdfs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"mrapid/internal/sim"
	"mrapid/internal/topology"
)

func testCluster(t *testing.T, workers int) (*sim.Engine, *topology.Cluster) {
	t.Helper()
	eng := sim.NewEngine()
	c, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: workers, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

func TestPutInstantAndContents(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 128<<20, 3, 1)
	data := []byte("hello mapreduce world")
	if _, err := d.PutInstant("/in/a.txt", data, nil); err != nil {
		t.Fatal(err)
	}
	got, err := d.Contents("/in/a.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Contents = %q, want %q", got, data)
	}
	if !d.Exists("/in/a.txt") || d.Exists("/in/b.txt") {
		t.Fatal("Exists wrong")
	}
}

func TestPutInstantDuplicateFails(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 128<<20, 3, 1)
	if _, err := d.PutInstant("/x", []byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PutInstant("/x", []byte("b"), nil); err == nil {
		t.Fatal("duplicate PutInstant did not fail")
	}
}

func TestDeleteAndList(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 128<<20, 3, 1)
	d.PutInstant("/b", []byte("b"), nil)
	d.PutInstant("/a", []byte("a"), nil)
	if got := d.List(); len(got) != 2 || got[0] != "/a" || got[1] != "/b" {
		t.Fatalf("List = %v", got)
	}
	if err := d.Delete("/a"); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete("/a"); err == nil {
		t.Fatal("double delete did not fail")
	}
	if got := d.List(); len(got) != 1 || got[0] != "/b" {
		t.Fatalf("List after delete = %v", got)
	}
}

func TestBlockSplitting(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 10, 3, 1) // 10-byte blocks
	data := make([]byte, 35)
	for i := range data {
		data[i] = byte(i)
	}
	f, err := d.PutInstant("/big", data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(f.Blocks))
	}
	if f.Size() != 35 {
		t.Fatalf("size = %d", f.Size())
	}
	wantSizes := []int64{10, 10, 10, 5}
	for i, b := range f.Blocks {
		if b.Size() != wantSizes[i] {
			t.Errorf("block %d size = %d, want %d", i, b.Size(), wantSizes[i])
		}
		if b.Offset != int64(i*10) {
			t.Errorf("block %d offset = %d", i, b.Offset)
		}
	}
	got, _ := d.Contents("/big")
	if !bytes.Equal(got, data) {
		t.Fatal("multi-block content mismatch")
	}
}

// TestContentsIsAReadOnlyView: a single-block file's Contents is its block's
// bytes, not a copy, and appending to it copies instead of writing past the
// block; a multi-block file is assembled into a copy; an Append after
// Contents leaves the earlier view as it was (copy on append).
func TestContentsIsAReadOnlyView(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 16, 3, 1)
	buf := make([]byte, 12, 64) // spare capacity a careless view would expose
	copy(buf, "twelve bytes")
	f, err := d.PutInstant("/one", buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	view, _ := d.Contents("/one")
	if &view[0] != &f.Blocks[0].Data[0] {
		t.Fatal("single-block Contents copied its block")
	}
	if grown := append(view, "!!"...); &grown[0] == &view[0] {
		t.Fatal("appending to a view wrote into the block's spare capacity")
	}
	if _, err := d.Append("/one", []byte("+abc"), nil); err != nil {
		t.Fatal(err)
	}
	if string(view) != "twelve bytes" {
		t.Fatalf("Append changed an earlier view to %q", view)
	}
	if now, _ := d.Contents("/one"); string(now) != "twelve bytes+abc" {
		t.Fatalf("Contents after Append = %q", now)
	}

	multi := []byte("0123456789abcdefghij") // two blocks of 16
	g, err := d.PutInstant("/two", multi, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := d.Contents("/two")
	if len(g.Blocks) != 2 || string(got) != string(multi) || &got[0] == &g.Blocks[0].Data[0] {
		t.Fatalf("multi-block Contents = %q over %d blocks, want a copy of %q", got, len(g.Blocks), multi)
	}
}

func TestPlacementPolicy(t *testing.T) {
	eng, c := testCluster(t, 6)
	d := New(eng, c, 128<<20, 3, 42)
	writer := c.Workers()[0]
	f, _ := d.PutInstant("/p", make([]byte, 100), writer)
	b := f.Blocks[0]
	if len(b.Replicas) != 3 {
		t.Fatalf("replicas = %d, want 3", len(b.Replicas))
	}
	if b.Replicas[0] != writer {
		t.Errorf("first replica should be the writer, got %v", b.Replicas[0])
	}
	if b.Replicas[1].Rack == writer.Rack {
		t.Errorf("second replica in writer's rack %s", b.Replicas[1].Rack)
	}
	if b.Replicas[2].Rack != b.Replicas[1].Rack {
		t.Errorf("third replica should share the second's rack: %s vs %s",
			b.Replicas[2].Rack, b.Replicas[1].Rack)
	}
	if b.Replicas[2] == b.Replicas[1] {
		t.Error("third replica duplicates the second")
	}
}

// Property: replicas are always distinct nodes and number min(replication,
// reachable workers).
func TestQuickPlacementDistinct(t *testing.T) {
	f := func(seed int64, workers8 uint8) bool {
		workers := 2 + int(workers8%9) // 2..10
		eng := sim.NewEngine()
		c, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A2, Workers: workers, Racks: 2})
		if err != nil {
			return false
		}
		d := New(eng, c, 128<<20, 3, seed)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			writer := c.Workers()[rng.Intn(workers)]
			reps := d.place(writer)
			seen := map[*topology.Node]bool{}
			for _, r := range reps {
				if seen[r] {
					return false
				}
				seen[r] = true
			}
			want := 3
			if workers < 3 {
				want = workers
			}
			if len(reps) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteChargesTime(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 128<<20, 3, 1)
	writer := c.Workers()[0]
	data := make([]byte, 60<<20) // 60 MB: ~1s+ of disk time on A3
	var doneAt sim.Time
	d.Write("/out", data, writer, func(f *File, err error) {
		if err != nil {
			t.Errorf("write failed: %v", err)
		}
		doneAt = eng.Now()
	})
	eng.Run()
	if doneAt == 0 {
		t.Fatal("write completion never fired")
	}
	// At least the disk-write time on one replica: 60MB / 55MB/s ≈ 1.09s.
	if doneAt.Seconds() < 1.0 {
		t.Errorf("write completed at %v, expected ≥ 1s of simulated cost", doneAt)
	}
	if d.BytesWritten != 60<<20 {
		t.Errorf("BytesWritten = %d", d.BytesWritten)
	}
}

func TestWriteDuplicateReportsError(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 128<<20, 3, 1)
	d.PutInstant("/dup", []byte("x"), nil)
	var gotErr error
	called := false
	d.Write("/dup", []byte("y"), c.Workers()[0], func(_ *File, err error) {
		called = true
		gotErr = err
	})
	eng.Run()
	if !called || gotErr == nil {
		t.Fatal("duplicate Write did not report an error")
	}
}

func TestReadLocalVsRemoteCost(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 128<<20, 3, 7)
	data := make([]byte, 30<<20)
	local := c.Workers()[0]
	f, _ := d.PutInstant("/r", data, local)

	// Find a node with no replica to act as the remote reader.
	var remote *topology.Node
	for _, n := range c.Workers() {
		if !f.Blocks[0].HostedOn(n) {
			remote = n
			break
		}
	}
	if remote == nil {
		t.Skip("all nodes host a replica (cluster too small)")
	}

	readAt := func(reader *topology.Node) float64 {
		e2 := sim.NewEngine()
		c2, _ := topology.NewCluster(e2, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
		d2 := New(e2, c2, 128<<20, 3, 7)
		l2 := c2.Workers()[reader.ID-1]
		d2.PutInstant("/r", data, c2.Workers()[local.ID-1])
		var at sim.Time
		d2.ReadAll("/r", l2, func(b []byte, err error) {
			if err != nil || len(b) != len(data) {
				t.Errorf("read failed: %v len=%d", err, len(b))
			}
			at = e2.Now()
		})
		e2.Run()
		return at.Seconds()
	}
	localT := readAt(local)
	remoteT := readAt(remote)
	if remoteT <= localT {
		t.Errorf("remote read (%.3fs) should cost more than local read (%.3fs)", remoteT, localT)
	}
}

func TestReadLocalityCounters(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 128<<20, 3, 7)
	local := c.Workers()[0]
	f, _ := d.PutInstant("/r", make([]byte, 1000), local)
	d.ReadAll("/r", local, func([]byte, error) {})
	eng.Run()
	if d.LocalReads != 1 || d.RackReads != 0 || d.RemoteReads != 0 {
		t.Errorf("locality counters = %d/%d/%d, want 1/0/0", d.LocalReads, d.RackReads, d.RemoteReads)
	}
	// A reader that holds no replica but shares a rack with one → rack read.
	var rackReader *topology.Node
	for _, n := range c.Workers() {
		if !f.Blocks[0].HostedOn(n) {
			for _, r := range f.Blocks[0].Replicas {
				if r.Rack == n.Rack {
					rackReader = n
				}
			}
		}
	}
	if rackReader != nil {
		d.ReadAll("/r", rackReader, func([]byte, error) {})
		eng.Run()
		if d.RackReads != 1 {
			t.Errorf("RackReads = %d, want 1", d.RackReads)
		}
	}
}

func TestReadRangeSlicing(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 10, 3, 1)
	data := []byte("abcdefghijklmnopqrstuvwxyz")
	d.PutInstant("/s", data, nil)
	var got []byte
	d.ReadRange("/s", 8, 10, c.Workers()[0], func(b []byte, err error) {
		if err != nil {
			t.Errorf("ReadRange: %v", err)
		}
		got = b
	})
	eng.Run()
	if string(got) != "ijklmnopqr" {
		t.Fatalf("ReadRange = %q, want %q", got, "ijklmnopqr")
	}
}

func TestReadErrors(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 128<<20, 3, 1)
	d.PutInstant("/e", []byte("abc"), nil)
	var missErr, rangeErr error
	d.ReadAll("/missing", c.Workers()[0], func(_ []byte, err error) { missErr = err })
	d.ReadRange("/e", 2, 10, c.Workers()[0], func(_ []byte, err error) { rangeErr = err })
	eng.Run()
	if missErr == nil {
		t.Error("read of missing file did not error")
	}
	if rangeErr == nil {
		t.Error("out-of-range read did not error")
	}
}

// Property: ReadRange(o, l) always returns data[o:o+l] regardless of block
// size and reader placement.
func TestQuickReadRangeCorrect(t *testing.T) {
	f := func(seed int64, blockSize8 uint8, o16, l16 uint16) bool {
		blockSize := 1 + int64(blockSize8%64)
		eng := sim.NewEngine()
		c, _ := topology.NewCluster(eng, topology.Spec{Instance: topology.A2, Workers: 4, Racks: 2})
		d := New(eng, c, blockSize, 3, seed)
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 500)
		rng.Read(data)
		d.PutInstant("/q", data, nil)
		off := int64(o16) % 500
		l := int64(l16) % (500 - off)
		var got []byte
		var gotErr error
		d.ReadRange("/q", off, l, c.Workers()[rng.Intn(4)], func(b []byte, err error) {
			got, gotErr = b, err
		})
		eng.Run()
		return gotErr == nil && bytes.Equal(got, data[off:off+l])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSplits(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 10, 3, 1)
	d.PutInstant("/a", make([]byte, 25), nil) // 3 blocks
	d.PutInstant("/b", make([]byte, 10), nil) // 1 block
	splits, err := d.Splits([]string{"/a", "/b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 4 {
		t.Fatalf("splits = %d, want 4", len(splits))
	}
	for i, s := range splits {
		if s.Index != i {
			t.Errorf("split %d has index %d", i, s.Index)
		}
		if len(s.Hosts) != 3 {
			t.Errorf("split %d has %d hosts", i, len(s.Hosts))
		}
	}
	if splits[2].Length != 5 {
		t.Errorf("tail split length = %d, want 5", splits[2].Length)
	}
	if _, err := d.Splits([]string{"/missing"}); err == nil {
		t.Fatal("Splits on missing file did not error")
	}
}

func TestSplitLocalityHelpers(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 128<<20, 3, 3)
	local := c.Workers()[1]
	d.PutInstant("/h", make([]byte, 100), local)
	splits, _ := d.Splits([]string{"/h"})
	s := splits[0]
	if !s.HostedOn(local) {
		t.Error("split not hosted on its writer")
	}
	if !s.RackLocalTo(local) {
		t.Error("split not rack-local to its writer")
	}
	if s.String() == "" {
		t.Error("empty split String()")
	}
}

func TestEmptyFileHasOneEmptyBlockAndNoSplits(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 10, 3, 1)
	f, err := d.PutInstant("/empty", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 {
		t.Fatalf("size = %d", f.Size())
	}
	splits, err := d.Splits([]string{"/empty"})
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 0 {
		t.Fatalf("splits for empty file = %d, want 0", len(splits))
	}
}

// TestUntracedIOAllocatesNothingForTracing: with a nil Trace a read or write
// builds no trace attributes. The budgets are the operations' own
// allocations (the device join, its completion events, the file's blocks);
// boxing the file name, sizes and offsets for a disabled log would add 3–4
// to each.
func TestUntracedIOAllocatesNothingForTracing(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 128<<20, 3, 1)
	node := c.Workers()[0]
	data := make([]byte, 4096)
	if _, err := d.PutInstant("/in/a", data, node); err != nil {
		t.Fatal(err)
	}
	read := func([]byte, error) {}
	wrote := func(*File, error) {}
	cases := []struct {
		name   string
		budget float64
		op     func()
	}{
		{"whole-file read", 7, func() { d.ReadRange("/in/a", 0, 4096, node, read) }},
		{"range read", 8, func() { d.ReadRange("/in/a", 1000, 2000, node, read) }},
		{"write and delete", 15, func() {
			d.Write("/out/a", data, node, wrote)
			eng.Run()
			d.Delete("/out/a")
		}},
	}
	for _, tc := range cases {
		tc.op() // warm the engine and the devices
		eng.Run()
		if got := testing.AllocsPerRun(100, func() { tc.op(); eng.Run() }); got > tc.budget {
			t.Errorf("untraced %s: %.0f allocations, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
