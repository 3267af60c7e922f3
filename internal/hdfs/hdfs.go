// Package hdfs implements the simulated distributed filesystem: a NameNode
// view of files split into blocks, block replicas placed rack-aware across
// DataNodes, and costed read/write paths that charge the owning nodes' disk
// and network devices on the virtual clock.
//
// Data is real: blocks hold actual bytes, so MapReduce jobs running on top
// of this filesystem compute real answers that tests can verify.
package hdfs

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
)

// Block is one replicated chunk of a file. A Block value is one write
// generation: a write that replaces its bytes replaces the block (same ID,
// fresh Gen), so the digest its Content keeps, and hands out with every
// split read, stays the digest of the bytes it was handed out with. A block
// that is a whole file staged by PutContentInstant shares the caller's
// Content, so every DFS that stages it shares one digest.
type Block struct {
	ID     int
	File   string
	Offset int64 // offset of this block within the file
	*Content
	Replicas []*topology.Node // placement order: first is the "primary"

	// Gen is the NameNode's monotonic write generation, stamped when the
	// block's bytes were (re)written. Any mutation — overwrite, append —
	// produces a fresh generation, so (ID, Gen) identifies block *content*
	// without hashing it. FileDigest folds these stamps into the cheap
	// input-freshness check the cross-job memoization cache keys on.
	Gen int64
}

// newBlock returns a block of one write generation over content, or, when
// content is nil, over a Content of its own holding data, allocated with
// the block.
func newBlock(id int, file string, offset int64, data []byte, content *Content, replicas []*topology.Node, gen int64) *Block {
	if content != nil {
		return &Block{ID: id, File: file, Offset: offset, Content: content, Replicas: replicas, Gen: gen}
	}
	own := &struct {
		Block
		content Content
	}{Block: Block{ID: id, File: file, Offset: offset, Replicas: replicas, Gen: gen}, content: Content{Data: data}}
	own.Block.Content = &own.content
	return &own.Block
}

// Size returns the block length in bytes.
func (b *Block) Size() int64 { return int64(len(b.Data)) }

// HostedOn reports whether a replica of b lives on node n.
func (b *Block) HostedOn(n *topology.Node) bool {
	for _, r := range b.Replicas {
		if r == n {
			return true
		}
	}
	return false
}

// File is a NameNode file entry.
type File struct {
	Name   string
	Blocks []*Block
}

// Size returns the total file length.
func (f *File) Size() int64 {
	var s int64
	for _, b := range f.Blocks {
		s += b.Size()
	}
	return s
}

// DFS is the simulated HDFS instance for one cluster.
type DFS struct {
	eng         *sim.Engine
	cluster     *topology.Cluster
	blockSize   int64
	replication int
	files       map[string]*File
	nextBlockID int
	gen         int64 // monotonic write-generation counter (see Block.Gen)
	rng         *rand.Rand

	// BytesRead / BytesWritten tally costed traffic for metrics.
	BytesRead    int64
	BytesWritten int64
	// LocalReads / RackReads / RemoteReads count read locality outcomes.
	LocalReads  int64
	RackReads   int64
	RemoteReads int64

	// Trace, when non-nil, records read/write events on the virtual clock.
	Trace *trace.Log
}

// New creates an empty filesystem over the cluster. blockSize and
// replication typically come from costmodel.Params. The seed fixes replica
// placement, keeping runs reproducible.
func New(eng *sim.Engine, cluster *topology.Cluster, blockSize int64, replication int, seed int64) *DFS {
	if blockSize <= 0 {
		panic("hdfs: block size must be positive")
	}
	if replication <= 0 {
		panic("hdfs: replication must be positive")
	}
	return &DFS{
		eng:         eng,
		cluster:     cluster,
		blockSize:   blockSize,
		replication: replication,
		files:       make(map[string]*File),
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// BlockSize returns the filesystem block size.
func (d *DFS) BlockSize() int64 { return d.blockSize }

// Lookup returns the file entry, or an error if it does not exist.
func (d *DFS) Lookup(name string) (*File, error) {
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("hdfs: file %q not found", name)
	}
	return f, nil
}

// Exists reports whether the named file exists.
func (d *DFS) Exists(name string) bool { _, ok := d.files[name]; return ok }

// Delete removes a file; deleting a missing file is an error.
func (d *DFS) Delete(name string) error {
	if _, ok := d.files[name]; !ok {
		return fmt.Errorf("hdfs: delete: file %q not found", name)
	}
	delete(d.files, name)
	return nil
}

// Rename moves a file to a new name. It is a pure NameNode metadata
// operation with no data movement, so it carries no simulated cost; the
// speculative executor uses it to promote the winning mode's temporary
// output. Renaming onto an existing name or from a missing one is an error.
func (d *DFS) Rename(oldName, newName string) error {
	f, ok := d.files[oldName]
	if !ok {
		return fmt.Errorf("hdfs: rename: file %q not found", oldName)
	}
	if _, exists := d.files[newName]; exists {
		return fmt.Errorf("hdfs: rename: file %q already exists", newName)
	}
	delete(d.files, oldName)
	f.Name = newName
	for _, b := range f.Blocks {
		b.File = newName
	}
	d.files[newName] = f
	return nil
}

// RenamePrefix renames every file under oldPrefix to the corresponding name
// under newPrefix (directory rename). It returns the number of files moved.
// Files move in name order, so which rename fails first is deterministic.
func (d *DFS) RenamePrefix(oldPrefix, newPrefix string) (int, error) {
	var moved []string
	for name := range d.files {
		if strings.HasPrefix(name, oldPrefix) {
			moved = append(moved, name)
		}
	}
	sort.Strings(moved)
	for _, name := range moved {
		if err := d.Rename(name, newPrefix+name[len(oldPrefix):]); err != nil {
			return 0, err
		}
	}
	return len(moved), nil
}

// DeletePrefix removes every file under the prefix and reports how many.
func (d *DFS) DeletePrefix(prefix string) int {
	n := 0
	for name := range d.files {
		if strings.HasPrefix(name, prefix) {
			delete(d.files, name)
			n++
		}
	}
	return n
}

// List returns all file names in sorted order.
func (d *DFS) List() []string {
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// place chooses replica nodes for one block following the policy the paper
// describes: one replica on the writer's node (or a random worker when the
// writer is not a DataNode), one on a node in a different rack, and one on a
// different node in that same remote rack. Additional replicas (replication
// > 3) go to random distinct workers.
//
// Only live DataNodes take new replicas — the NameNode never targets a dead
// node. (Existing replicas on a crashed node survive on its disk and are
// readable again after a restart; see bestReplica.) Each draw picks the i-th
// candidate in cluster order; candidates are counted and indexed in place
// rather than listed, so the replica slice is the only allocation.
func (d *DFS) place(writer *topology.Node) []*topology.Node {
	workers, master := d.cluster.Workers(), d.cluster.Master()
	anyNode := func(*topology.Node) bool { return true }
	nLive := countLive(workers, anyNode)
	if nLive == 0 {
		panic("hdfs: cluster has no live workers")
	}
	first := writer
	if writer == nil || writer == master || !writer.Alive() {
		first = nthLive(workers, anyNode, d.rng.Intn(nLive))
	}
	replicas := append(make([]*topology.Node, 0, d.replication), first)
	if d.replication == 1 {
		return replicas
	}

	// Second replica: a node in a different rack if one exists. A rack's
	// node list, in cluster order, holds the master too, never a candidate.
	notMaster := func(n *topology.Node) bool { return n != master }
	if k := nLive - countLive(d.cluster.NodesInRack(first.Rack), notMaster); k > 0 {
		second := nthLive(workers, func(n *topology.Node) bool { return n.Rack != first.Rack }, d.rng.Intn(k))
		replicas = append(replicas, second)
		if d.replication >= 3 {
			// Third replica: a different node in the second replica's rack.
			rack := d.cluster.NodesInRack(second.Rack)
			mate := func(n *topology.Node) bool { return n != master && n != second }
			if k := countLive(rack, mate); k > 0 {
				replicas = append(replicas, nthLive(rack, mate, d.rng.Intn(k)))
			}
		}
	}
	// Fill any remaining replication with distinct random workers.
	for len(replicas) < d.replication && len(replicas) < nLive {
		if cand := nthLive(workers, anyNode, d.rng.Intn(nLive)); !slices.Contains(replicas, cand) {
			replicas = append(replicas, cand)
		}
	}
	return replicas
}

// countLive counts the live nodes ok admits.
func countLive(nodes []*topology.Node, ok func(*topology.Node) bool) int {
	k := 0
	for _, n := range nodes {
		if n.Alive() && ok(n) {
			k++
		}
	}
	return k
}

// nthLive returns the i-th live node ok admits, counting from 0 in the
// order of nodes; i must be below countLive(nodes, ok).
func nthLive(nodes []*topology.Node, ok func(*topology.Node) bool, i int) *topology.Node {
	for _, n := range nodes {
		if n.Alive() && ok(n) {
			if i == 0 {
				return n
			}
			i--
		}
	}
	panic("hdfs: fewer live candidates than counted")
}

// makeBlocks cuts data into blocks. A file of one block takes whole as its
// Content when whole is non-nil (whole.Data is then data); every other
// block gets a Content of its own.
func (d *DFS) makeBlocks(name string, data []byte, whole *Content, writer *topology.Node) *File {
	if int64(len(data)) > d.blockSize {
		whole = nil
	}
	f := &File{Name: name}
	for off := int64(0); off < int64(len(data)) || (off == 0 && len(data) == 0); off += d.blockSize {
		end := off + d.blockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		d.nextBlockID++
		d.gen++
		f.Blocks = append(f.Blocks, newBlock(d.nextBlockID, name, off, data[off:end:end], whole, d.place(writer), d.gen))
		if len(data) == 0 {
			break
		}
	}
	return f
}

// PutInstant installs a file without charging any I/O cost. It exists for
// experiment setup (pre-loading the input corpus before the measured job
// begins), mirroring how the paper's inputs were staged before timing.
// Overwriting an existing file is an error.
func (d *DFS) PutInstant(name string, data []byte, writer *topology.Node) (*File, error) {
	return d.put(name, data, nil, writer)
}

// PutContentInstant is PutInstant for bytes that already have a Content,
// typically a generator's cached file: a file that fits in one block uses c
// as its block's Content, so every DFS that stages c shares one digest and
// the bytes are hashed at most once per process. Nothing is hashed here.
// c.Data must be capacity-clipped, as every block's bytes are.
func (d *DFS) PutContentInstant(name string, c *Content, writer *topology.Node) (*File, error) {
	if cap(c.Data) != len(c.Data) {
		panic("hdfs: PutContentInstant needs capacity-clipped bytes")
	}
	return d.put(name, c.Data, c, writer)
}

func (d *DFS) put(name string, data []byte, whole *Content, writer *topology.Node) (*File, error) {
	if d.Exists(name) {
		return nil, fmt.Errorf("hdfs: file %q already exists", name)
	}
	f := d.makeBlocks(name, data, whole, writer)
	d.files[name] = f
	return f, nil
}

// Write stores a file with full pipeline cost: for every block, the writer's
// NIC pushes the bytes once, the replica disks each write them, and replica
// NICs receive them (cross-rack hops also transit the core switch). done
// fires when the last replica of the last block is durable.
func (d *DFS) Write(name string, data []byte, writer *topology.Node, done func(*File, error)) {
	if done == nil {
		panic("hdfs: Write needs a completion callback")
	}
	if d.Exists(name) {
		d.eng.After(0, func() { done(nil, fmt.Errorf("hdfs: file %q already exists", name)) })
		return
	}
	f := d.makeBlocks(name, data, nil, writer)
	d.files[name] = f
	d.BytesWritten += int64(len(data))
	if d.Trace != nil {
		attrs := []trace.Attr{trace.A("file", name), trace.A("bytes", strconv.Itoa(len(data))), trace.A("blocks", strconv.Itoa(len(f.Blocks)))}
		if writer != nil {
			attrs = append(attrs, trace.A("from", writer.Name))
		}
		d.Trace.Mark(0, "hdfs", "write", attrs...)
	}

	// One writer-NIC use carries all of a block's replicas, so this is the
	// bare join rather than one Cluster.Transfer per replica.
	j := sim.NewJoin(d.eng, func() { done(f, nil) })
	for _, b := range f.Blocks {
		n := b.Size()
		if writer != nil {
			j.Use(writer.NIC, n*int64(len(b.Replicas)))
		}
		for _, r := range b.Replicas {
			j.Use(r.Disk, n) // disk write charged at the replica
			if writer != nil && r != writer {
				j.Use(r.NIC, n)
				if writer.Rack != r.Rack {
					j.Use(d.cluster.CoreSwitch, n)
				}
			}
		}
	}
	j.Arm()
}

// bestReplica picks the cheapest live replica for a reader, preferring
// node-local then rack-local then any (the first live one in placement
// order), and updates the locality counters. It returns nil when every
// replica's node is down (with the default replication of 3 that takes a
// multi-node failure), and the read fails.
func (d *DFS) bestReplica(b *Block, reader *topology.Node) *topology.Node {
	var rack, first *topology.Node
	for _, r := range b.Replicas {
		if !r.Alive() {
			continue
		}
		if r == reader {
			d.LocalReads++
			return r
		}
		if first == nil {
			first = r
		}
		if rack == nil && reader != nil && r.Rack == reader.Rack {
			rack = r
		}
	}
	switch {
	case rack != nil:
		d.RackReads++
		return rack
	case first != nil:
		d.RemoteReads++
	}
	return first
}

// ReadRange reads length bytes starting at offset from the named file on
// behalf of reader, charging the replica's disk and, for non-local reads,
// both NICs (plus the core switch across racks). done receives the bytes.
func (d *DFS) ReadRange(name string, offset, length int64, reader *topology.Node, done func([]byte, error)) {
	if done == nil {
		panic("hdfs: ReadRange needs a completion callback")
	}
	var out []byte
	j := sim.NewJoin(d.eng, func() { done(out, nil) })
	var err error
	if out, _, err = d.read(name, offset, length, reader, j); err != nil {
		d.eng.After(0, func() { done(nil, err) })
		return
	}
	j.Arm()
}

// read takes the bytes of [offset, offset+length) of the named file and
// charges their transfer to reader on j, which the caller arms. Besides the
// bytes it returns the block whose current bytes they are exactly, or nil
// for a range over several blocks or part of one. On an error nothing is to
// be armed: the blocks already charged complete unheard.
func (d *DFS) read(name string, offset, length int64, reader *topology.Node, j *sim.Join) ([]byte, *Block, error) {
	f, err := d.Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	if offset < 0 || length < 0 || offset+length > f.Size() {
		return nil, nil, fmt.Errorf("hdfs: read [%d,%d) out of range for %q (size %d)", offset, offset+length, name, f.Size())
	}

	if d.Trace != nil {
		attrs := []trace.Attr{trace.A("file", name), trace.A("range", fmt.Sprintf("[%d,%d)", offset, offset+length))}
		if reader != nil {
			attrs = append(attrs, trace.A("on", reader.Name))
		}
		d.Trace.Mark(0, "hdfs", "read", attrs...)
	}
	var out []byte
	// Fast path: a read covering exactly one whole block returns the block
	// bytes without copying. Readers must treat returned data as immutable,
	// which every consumer in this repository does.
	single := len(f.Blocks) == 1 && offset == 0 && length == f.Size()
	if !single {
		out = make([]byte, 0, length)
	}
	var whole *Block
	for _, b := range f.Blocks {
		bStart, bEnd := b.Offset, b.Offset+b.Size()
		if bEnd <= offset || bStart >= offset+length {
			continue
		}
		lo, hi := max(offset, bStart)-bStart, min(offset+length, bEnd)-bStart
		if lo == 0 && hi == b.Size() && hi == length {
			whole = b
		}
		if single {
			out = b.Data
		} else {
			out = append(out, b.Data[lo:hi]...)
		}
		n := hi - lo
		d.BytesRead += n
		src := d.bestReplica(b, reader)
		if src == nil {
			return nil, nil, fmt.Errorf("hdfs: all replicas of %q block %d are offline", name, b.ID)
		}
		// A reader outside the cluster (nil) pays the replica's disk only.
		d.cluster.Charge(j, src, cmp.Or(reader, src), n, n)
	}
	return out, whole, nil
}

// ReadAll reads a whole file.
func (d *DFS) ReadAll(name string, reader *topology.Node, done func([]byte, error)) {
	f, err := d.Lookup(name)
	if err != nil {
		d.eng.After(0, func() { done(nil, err) })
		return
	}
	d.ReadRange(name, 0, f.Size(), reader, done)
}

// Contents returns a file's bytes without charging any cost — for test
// verification and for the decision-maker's history lookups, which the
// paper treats as negligible. The returned bytes are read-only: a
// single-block file (every part file, at 128 MB blocks) is returned as its
// block's bytes, which other files and caches may share; only a multi-block
// file is assembled into a copy. Blocks are capacity-clipped, so appending
// to the result copies.
func (d *DFS) Contents(name string) ([]byte, error) {
	f, err := d.Lookup(name)
	if err != nil {
		return nil, err
	}
	if len(f.Blocks) == 1 {
		return f.Blocks[0].Data, nil
	}
	out := make([]byte, 0, f.Size())
	for _, b := range f.Blocks {
		out = append(out, b.Data...)
	}
	return out, nil
}

// FileDigest folds a file's per-block (ID, generation, length) triples into
// one 64-bit value. It is a pure NameNode metadata walk — no block data is
// hashed and no I/O cost is charged — yet any content change is visible:
// every write path stamps a fresh generation on the blocks it touches
// (PutInstant/Write on creation, OverwriteInstant/Append on mutation). The
// memoization cache uses it as the input-freshness half of its key.
func (d *DFS) FileDigest(name string) (uint64, error) {
	f, err := d.Lookup(name)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, b := range f.Blocks {
		word(uint64(b.ID))
		word(uint64(b.Gen))
		word(uint64(len(b.Data)))
	}
	return h.Sum64(), nil
}

// OverwriteInstant replaces an existing file's contents (or creates the file)
// without charging I/O cost, the mutation analogue of PutInstant. The old
// blocks are discarded and every new block gets a fresh write generation, so
// FileDigest changes and any memoized result derived from the old bytes is
// invalidated.
func (d *DFS) OverwriteInstant(name string, data []byte, writer *topology.Node) (*File, error) {
	delete(d.files, name)
	return d.PutInstant(name, data, writer)
}

// Append extends an existing file in place without charging I/O cost: the
// last block absorbs bytes up to the block size (it is replaced by a block
// of the same ID and a fresh generation — its content changed), and the
// remainder spills into fresh blocks. Like the
// other *Instant helpers it models out-of-band data arrival, e.g. a log
// shipper adding records between measured jobs.
func (d *DFS) Append(name string, data []byte, writer *topology.Node) (*File, error) {
	f, err := d.Lookup(name)
	if err != nil {
		return nil, err
	}
	if len(data) == 0 {
		return f, nil
	}
	if n := len(f.Blocks); n > 0 {
		last := f.Blocks[n-1]
		if room := d.blockSize - last.Size(); room > 0 {
			take := room
			if take > int64(len(data)) {
				take = int64(len(data))
			}
			// Copy-on-append: readers hold references to block data and
			// treat it as immutable, so never grow the old slice in place.
			grown := make([]byte, 0, last.Size()+take)
			grown = append(grown, last.Data...)
			grown = append(grown, data[:take]...)
			d.gen++
			f.Blocks[n-1] = newBlock(last.ID, name, last.Offset, grown, nil, last.Replicas, d.gen)
			data = data[take:]
		}
	}
	base := f.Size()
	for len(data) > 0 {
		end := d.blockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		d.nextBlockID++
		d.gen++
		f.Blocks = append(f.Blocks, newBlock(d.nextBlockID, name, base, data[:end:end], nil, d.place(writer), d.gen))
		base += end
		data = data[end:]
	}
	return f, nil
}
