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
	"sort"
	"strings"

	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/trace"
)

// Block is one replicated chunk of a file.
type Block struct {
	ID       int
	File     string
	Offset   int64 // offset of this block within the file
	Data     []byte
	Replicas []*topology.Node // placement order: first is the "primary"

	// Gen is the NameNode's monotonic write generation, stamped when the
	// block's bytes were (re)written. Any mutation — overwrite, append —
	// produces a fresh generation, so (ID, Gen) identifies block *content*
	// without hashing it. FileDigest folds these stamps into the cheap
	// input-freshness check the cross-job memoization cache keys on.
	Gen int64
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
func (d *DFS) place(writer *topology.Node) []*topology.Node {
	// Only live DataNodes take new replicas — the NameNode never targets a
	// dead node. (Existing replicas on a crashed node survive on its disk
	// and are readable again after a restart; see bestReplica.)
	var workers []*topology.Node
	for _, n := range d.cluster.Workers() {
		if n.Alive() {
			workers = append(workers, n)
		}
	}
	if len(workers) == 0 {
		panic("hdfs: cluster has no live workers")
	}
	var first *topology.Node
	if writer != nil && writer != d.cluster.Master() && writer.Alive() {
		first = writer
	} else {
		first = workers[d.rng.Intn(len(workers))]
	}
	replicas := []*topology.Node{first}
	if d.replication == 1 {
		return replicas
	}

	// Second replica: a node in a different rack if one exists.
	var remoteRack []*topology.Node
	for _, n := range workers {
		if n.Rack != first.Rack {
			remoteRack = append(remoteRack, n)
		}
	}
	if len(remoteRack) > 0 {
		second := remoteRack[d.rng.Intn(len(remoteRack))]
		replicas = append(replicas, second)
		if d.replication >= 3 {
			// Third replica: a different node in the second replica's rack.
			var sameRemote []*topology.Node
			for _, n := range workers {
				if n.Rack == second.Rack && n != second {
					sameRemote = append(sameRemote, n)
				}
			}
			if len(sameRemote) > 0 {
				replicas = append(replicas, sameRemote[d.rng.Intn(len(sameRemote))])
			}
		}
	}
	// Fill any remaining replication with distinct random workers.
	for len(replicas) < d.replication && len(replicas) < len(workers) {
		cand := workers[d.rng.Intn(len(workers))]
		dup := false
		for _, r := range replicas {
			if r == cand {
				dup = true
				break
			}
		}
		if !dup {
			replicas = append(replicas, cand)
		}
	}
	return replicas
}

func (d *DFS) makeBlocks(name string, data []byte, writer *topology.Node) *File {
	f := &File{Name: name}
	for off := int64(0); off < int64(len(data)) || (off == 0 && len(data) == 0); off += d.blockSize {
		end := off + d.blockSize
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		d.nextBlockID++
		d.gen++
		f.Blocks = append(f.Blocks, &Block{
			ID:       d.nextBlockID,
			File:     name,
			Offset:   off,
			Data:     data[off:end:end],
			Replicas: d.place(writer),
			Gen:      d.gen,
		})
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
	if d.Exists(name) {
		return nil, fmt.Errorf("hdfs: file %q already exists", name)
	}
	f := d.makeBlocks(name, data, writer)
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
	f := d.makeBlocks(name, data, writer)
	d.files[name] = f
	d.BytesWritten += int64(len(data))
	if writer != nil {
		d.Trace.Add("hdfs", "write %s (%d bytes, %d blocks) from %s", name, len(data), len(f.Blocks), writer.Name)
	} else {
		d.Trace.Add("hdfs", "write %s (%d bytes, %d blocks)", name, len(data), len(f.Blocks))
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
// node-local then rack-local then any, and updates the locality counters.
// It returns nil when every replica's node is down (with the default
// replication of 3 that takes a multi-node failure), and the read fails.
func (d *DFS) bestReplica(b *Block, reader *topology.Node) *topology.Node {
	var live []*topology.Node
	for _, r := range b.Replicas {
		if r.Alive() {
			live = append(live, r)
		}
	}
	if len(live) == 0 {
		return nil
	}
	if reader != nil {
		for _, r := range live {
			if r == reader {
				d.LocalReads++
				return r
			}
		}
		for _, r := range live {
			if r.Rack == reader.Rack {
				d.RackReads++
				return r
			}
		}
	}
	d.RemoteReads++
	return live[0]
}

// ReadRange reads length bytes starting at offset from the named file on
// behalf of reader, charging the replica's disk and, for non-local reads,
// both NICs (plus the core switch across racks). done receives the bytes.
func (d *DFS) ReadRange(name string, offset, length int64, reader *topology.Node, done func([]byte, error)) {
	if done == nil {
		panic("hdfs: ReadRange needs a completion callback")
	}
	f, err := d.Lookup(name)
	if err != nil {
		d.eng.After(0, func() { done(nil, err) })
		return
	}
	if offset < 0 || length < 0 || offset+length > f.Size() {
		d.eng.After(0, func() {
			done(nil, fmt.Errorf("hdfs: read [%d,%d) out of range for %q (size %d)", offset, offset+length, name, f.Size()))
		})
		return
	}

	if reader != nil {
		d.Trace.Add("hdfs", "read %s [%d,%d) on %s", name, offset, offset+length, reader.Name)
	} else {
		d.Trace.Add("hdfs", "read %s [%d,%d)", name, offset, offset+length)
	}
	var out []byte
	// Fast path: a read covering exactly one whole block returns the block
	// bytes without copying. Readers must treat returned data as immutable,
	// which every consumer in this repository does.
	single := len(f.Blocks) == 1 && offset == 0 && length == f.Size()
	if !single {
		out = make([]byte, 0, length)
	}
	j := sim.NewJoin(d.eng, func() { done(out, nil) })
	for _, b := range f.Blocks {
		bStart, bEnd := b.Offset, b.Offset+b.Size()
		if bEnd <= offset || bStart >= offset+length {
			continue
		}
		lo, hi := max(offset, bStart)-bStart, min(offset+length, bEnd)-bStart
		if single {
			out = b.Data
		} else {
			out = append(out, b.Data[lo:hi]...)
		}
		n := hi - lo
		d.BytesRead += n
		src := d.bestReplica(b, reader)
		if src == nil {
			// j is never armed: the blocks already charged complete unheard.
			bid := b.ID
			d.eng.After(0, func() {
				done(nil, fmt.Errorf("hdfs: all replicas of %q block %d are offline", name, bid))
			})
			return
		}
		// A reader outside the cluster (nil) pays the replica's disk only.
		d.cluster.Charge(j, src, cmp.Or(reader, src), n, n)
	}
	j.Arm()
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
// last block absorbs bytes up to the block size (its generation is bumped —
// its content changed), and the remainder spills into fresh blocks. Like the
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
			last.Data = grown
			d.gen++
			last.Gen = d.gen
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
		f.Blocks = append(f.Blocks, &Block{
			ID:       d.nextBlockID,
			File:     name,
			Offset:   base,
			Data:     data[:end:end],
			Replicas: d.place(writer),
			Gen:      d.gen,
		})
		base += end
		data = data[end:]
	}
	return f, nil
}
