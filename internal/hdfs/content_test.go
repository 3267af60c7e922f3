package hdfs

import (
	"bytes"
	"sync"
	"testing"
)

// Two goroutines that ask one shared Content for its digest get the same
// value, and the bytes are hashed once between them. Under -race this
// checks Digest's locking, which simulations on parallel goroutines rely
// on once their DFSs share a generator's Contents.
func TestSharedContentDigestsOnce(t *testing.T) {
	data := bytes.Repeat([]byte("shared bytes\n"), 1<<16)
	for range 20 {
		c := &Content{Data: data}
		before := hashedBytes.Load()
		var got [2]uint64
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = c.Digest()
			}()
		}
		wg.Wait()
		if got[0] != got[1] || !c.Digested() {
			t.Fatalf("two readers of one Content got %#x and %#x", got[0], got[1])
		}
		if n := hashedBytes.Load() - before; n != int64(len(data)) {
			t.Fatalf("hashed %d bytes for one %d-byte Content", n, len(data))
		}
	}
}

// A file PutContentInstant stages in one block shares the caller's Content
// with every other DFS that stages it, and nothing is hashed on the way. A
// file of several blocks gets a Content per block over the same bytes, and
// bytes that are not capacity-clipped are refused.
func TestPutContentInstantSharesTheContent(t *testing.T) {
	eng, c := testCluster(t, 4)
	a, b := New(eng, c, 64, 3, 1), New(eng, c, 64, 3, 2)
	shared := &Content{Data: []byte("one generated file")}
	before := hashedBytes.Load()
	for _, d := range []*DFS{a, b} {
		f, err := d.PutContentInstant("/in", shared, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Blocks) != 1 || f.Blocks[0].Content != shared {
			t.Fatal("a one-block file does not share the Content it was staged with")
		}
	}
	if shared.Digested() || hashedBytes.Load() != before {
		t.Fatal("staging hashed the bytes")
	}
	if _, err := a.PutContentInstant("/in", shared, nil); err == nil {
		t.Fatal("staging over an existing file did not fail")
	}

	long := &Content{Data: bytes.Repeat([]byte("x"), 100)}
	f, err := a.PutContentInstant("/long", long, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks) != 2 || f.Blocks[0].Content == long || f.Blocks[1].Content == long {
		t.Fatal("a block of a multi-block file shares the whole file's Content")
	}
	if got, _ := a.Contents("/long"); !bytes.Equal(got, long.Data) {
		t.Fatal("a multi-block file staged from a Content lost its bytes")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("bytes with spare capacity were staged")
		}
	}()
	a.PutContentInstant("/spare", &Content{Data: make([]byte, 4, 8)}, nil)
}

// OverwriteInstant in one DFS gives that file a fresh Content, and the
// other DFSs that share the old one keep it, digest and bytes alike.
func TestOverwriteLeavesSharedContentAlone(t *testing.T) {
	eng, c := testCluster(t, 4)
	a, b := New(eng, c, 1<<20, 3, 1), New(eng, c, 1<<20, 3, 2)
	shared := &Content{Data: []byte("generated once")}
	digest := shared.Digest()
	for _, d := range []*DFS{a, b} {
		if _, err := d.PutContentInstant("/in", shared, nil); err != nil {
			t.Fatal(err)
		}
	}
	f, err := a.OverwriteInstant("/in", []byte("generated once"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Blocks[0].Content == shared || f.Blocks[0].Digested() {
		t.Fatal("an overwritten file kept the shared Content")
	}
	g, _ := b.Lookup("/in")
	if g.Blocks[0].Content != shared || shared.Digest() != digest || string(shared.Data) != "generated once" {
		t.Fatal("overwriting a file in one DFS changed another DFS's file")
	}
}

// Rebased carries the digest to bytes in a new buffer, and an undigested
// Content rebases undigested.
func TestRebasedCarriesTheDigest(t *testing.T) {
	c := &Content{Data: []byte("moved bytes")}
	if r := c.Rebased(bytes.Clone(c.Data)); r.Digested() {
		t.Fatal("rebasing an undigested Content hashed it")
	}
	want := c.Digest()
	moved := bytes.Clone(c.Data)
	before := hashedBytes.Load()
	r := c.Rebased(moved)
	if &r.Data[0] != &moved[0] || !r.Digested() || r.Digest() != want || hashedBytes.Load() != before {
		t.Fatal("the rebased Content does not carry the digest over its new bytes")
	}
}

// BenchmarkReadSplit reads one whole-block split on 256 workers in 8 racks
// from a worker holding no replica, through to its completion: the replica
// choice, the transfer's charges and its engine events.
func BenchmarkReadSplit(b *testing.B) {
	c := placeCluster(b)
	d := New(c.Eng, c, 128<<20, 3, 7)
	f, err := d.PutInstant("/in", make([]byte, 1<<20), nil)
	if err != nil {
		b.Fatal(err)
	}
	blk := f.Blocks[0]
	reader := c.Workers()[0]
	for _, n := range c.Workers() {
		if !blk.HostedOn(n) {
			reader = n
			break
		}
	}
	split := &Split{File: "/in", Length: blk.Size(), Hosts: blk.Replicas}
	done := func([]byte, *Content, error) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ReadSplit(split, reader, done)
		c.Eng.Run()
	}
}
