package hdfs

import (
	"fmt"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"mrapid/internal/sim"
	"mrapid/internal/topology"
)

// Split is one map task's input slice: a contiguous byte range of a file
// together with the nodes hosting it, the locality hints the scheduler
// consumes. Short jobs in the paper use one split per (sub-block-sized)
// file; larger files get one split per block.
type Split struct {
	File   string
	Index  int // ordinal within the job's split list
	Offset int64
	Length int64
	Hosts  []*topology.Node
}

func (s *Split) String() string {
	return fmt.Sprintf("split{%s[%d:%d)}", s.File, s.Offset, s.Offset+s.Length)
}

// HostedOn reports whether node n holds a replica of the split's data.
func (s *Split) HostedOn(n *topology.Node) bool {
	for _, h := range s.Hosts {
		if h == n {
			return true
		}
	}
	return false
}

// RackLocalTo reports whether any replica shares a rack with node n.
func (s *Split) RackLocalTo(n *topology.Node) bool {
	for _, h := range s.Hosts {
		if h.Rack == n.Rack {
			return true
		}
	}
	return false
}

// Splits computes the input splits for a list of files, one split per block,
// numbered in file order. It mirrors FileInputFormat.getSplits for inputs
// whose records never straddle block boundaries (our generators pad to
// record boundaries, so the simplification is lossless).
func (d *DFS) Splits(files []string) ([]*Split, error) {
	var splits []*Split
	for _, name := range files {
		f, err := d.Lookup(name)
		if err != nil {
			return nil, err
		}
		for _, b := range f.Blocks {
			if b.Size() == 0 {
				continue
			}
			splits = append(splits, &Split{
				File:   name,
				Index:  len(splits),
				Offset: b.Offset,
				Length: b.Size(),
				Hosts:  b.Replicas,
			})
		}
	}
	return splits, nil
}

// ReadSplit reads one split like ReadRange and hands done, with the bytes,
// a Content whose digest is that of those same bytes: the block's own when
// the split is still its block's whole bytes — kept on the block, and
// shared by every DFS that staged the same generated file, so its bytes are
// hashed at most once per process whoever reads them — and otherwise one
// holding the bytes read (a split listed before an Append grew its block).
// The Content is taken with the bytes, so no later write can pair its
// digest with bytes the reader never saw; nothing is hashed until Digest.
func (d *DFS) ReadSplit(s *Split, reader *topology.Node, done func([]byte, *Content, error)) {
	if done == nil {
		panic("hdfs: ReadSplit needs a completion callback")
	}
	var got struct {
		data    []byte
		content *Content
	}
	j := sim.NewJoin(d.eng, func() { done(got.data, got.content, nil) })
	data, whole, err := d.read(s.File, s.Offset, s.Length, reader, j)
	if err != nil {
		d.eng.After(0, func() { done(nil, nil, err) })
		return
	}
	got.data = data
	if whole != nil {
		got.content = whole.Content
	} else {
		got.content = &Content{Data: data}
	}
	j.Arm()
}

// Content is one generation of immutable bytes and their 64-bit digest,
// computed on the first Digest call and kept. Equal bytes have equal
// digests across every DFS in the process; the seed is per process, so no
// digest outlives it. A Content may be shared by blocks of many DFSs on
// many goroutines (see PutContentInstant), so bytes are hashed once per
// generated content per process, however many DFSs read them.
type Content struct {
	Data     []byte
	mu       sync.Mutex // held while the first Digest hashes
	digested atomic.Bool
	digest   uint64
}

var digestSeed = maphash.MakeSeed()

// hashedBytes counts the bytes every Digest has hashed in this process.
var hashedBytes atomic.Int64

// Digest returns the digest of c.Data, hashing it on the first call only.
// It is safe for concurrent use: a caller that arrives while another
// hashes waits for that digest.
func (c *Content) Digest() uint64 {
	if !c.digested.Load() {
		c.mu.Lock()
		if !c.digested.Load() {
			c.digest = maphash.Bytes(digestSeed, c.Data)
			hashedBytes.Add(int64(len(c.Data)))
			c.digested.Store(true)
		}
		c.mu.Unlock()
	}
	return c.digest
}

// Digested reports whether Digest has hashed the bytes yet.
func (c *Content) Digested() bool { return c.digested.Load() }

// Rebased returns a Content over data, which must hold the same bytes as
// c.Data, carrying c's digest if c has one: a generator that moves its
// bytes to a new buffer keeps what was hashed, and c keeps its own bytes
// for whoever holds it.
func (c *Content) Rebased(data []byte) *Content {
	r := &Content{Data: data}
	if c.digested.Load() {
		r.digest = c.digest
		r.digested.Store(true)
	}
	return r
}
