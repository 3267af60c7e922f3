package mapreduce

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"mrapid/internal/hdfs"
	"mrapid/internal/topology"
)

// ErrIntermediateLost reports that an intra-query intermediate output died
// with its producer node before a consumer read it. Unlike HDFS files,
// intermediates are unreplicated — they live in the producer's memory or on
// its local disk, like U+ cache entries — so losing the node loses the
// data. The DAG runner answers this by reverting and re-running the
// producing stage (lineage recovery), the same move the AM makes for lost
// map outputs.
var ErrIntermediateLost = errors.New("mapreduce: intermediate output lost with its node")

// interFile is one committed intermediate file: the bytes and where they
// reside. An empty file is held nowhere (the zero Resident) and stays
// readable forever.
type interFile struct {
	data []byte
	topology.Resident
}

// IntermediateStore holds intra-query intermediate tables outside HDFS,
// extending the U+ in-memory cache idea from intra-job to inter-stage:
// committed reduce outputs stay in the producer node's memory while a
// shared budget lasts and spill to its local disk after, instead of paying
// a replicated HDFS write plus a re-read in the consuming stage. Entries
// are unreplicated and node-local, so consumers price their reads like
// shuffle fetches (memory | disk | network transports) and lose the data
// when the producer dies.
//
// All methods run on the engine goroutine, like every other Runtime method.
type IntermediateStore struct {
	files map[string]*interFile
	mem   topology.Budget // bytes held in memory across all entries
	disk  int64           // bytes currently on producers' local disks

	// MemBytes and DiskBytes count committed bytes by residence, cumulative
	// over the store's life (MemUsed and DiskUsed are what it holds now);
	// HDFSBytesAvoided totals every commit — bytes that skipped the
	// replicated HDFS write path entirely.
	MemBytes         int64
	DiskBytes        int64
	HDFSBytesAvoided int64
}

// EnsureIntermediates attaches an intermediate store to the runtime (reusing
// the U+ cache budget as its memory bound) and returns it. Idempotent.
func (rt *Runtime) EnsureIntermediates() *IntermediateStore {
	if rt.Intermediates == nil {
		rt.Intermediates = &IntermediateStore{
			files: make(map[string]*interFile),
			mem:   topology.Budget{Cap: rt.Params.UberCacheBytes},
		}
	}
	return rt.Intermediates
}

// Has reports whether the store holds a file under name (readable or not).
func (st *IntermediateStore) Has(name string) bool {
	_, ok := st.files[name]
	return ok
}

// Size returns a held file's length in bytes.
func (st *IntermediateStore) Size(name string) (int64, bool) {
	f, ok := st.files[name]
	if !ok {
		return 0, false
	}
	return int64(len(f.data)), true
}

// MemUsed and DiskUsed report the bytes currently resident in producers'
// memory and on their local disks.
func (st *IntermediateStore) MemUsed() int64  { return st.mem.Used() }
func (st *IntermediateStore) DiskUsed() int64 { return st.disk }

// Contents returns a held file's bytes without charging any cost — the
// store-side counterpart of DFS.Contents, used by the memoization cache to
// snapshot a committed output. It refuses entries whose producer node died
// (the bytes are gone; pretending otherwise would cache data no consumer
// could have read).
func (st *IntermediateStore) Contents(name string) ([]byte, bool) {
	f, ok := st.files[name]
	if !ok || !f.Readable() {
		return nil, false
	}
	return f.data, true
}

// Put stores a file instantly, without charging any device — the
// bookkeeping primitive behind empty-stage short-circuits and memo hits; in
// memory while the budget lasts, on node's local disk after. Use
// Runtime.CommitIntermediate for priced commits.
func (st *IntermediateStore) Put(name string, data []byte, node *topology.Node) {
	st.Delete(name) // before admitting, so a replaced entry's bytes are back
	f := &interFile{data: data}
	st.files[name] = f
	if n := int64(len(data)); n > 0 {
		f.Resident = topology.ResidentOn(node, st.mem.Admit(n))
		if !f.InMemory {
			st.disk += n
		}
	}
}

// Delete drops a file, refunding its residence. Unknown names are a no-op.
func (st *IntermediateStore) Delete(name string) {
	f, ok := st.files[name]
	if !ok {
		return
	}
	if f.InMemory {
		st.mem.Refund(int64(len(f.data)))
	} else {
		st.disk -= int64(len(f.data))
	}
	delete(st.files, name)
}

// DeletePrefix drops every file under a path prefix and reports how many.
func (st *IntermediateStore) DeletePrefix(prefix string) int {
	n := 0
	for name := range st.files {
		if strings.HasPrefix(name, prefix) {
			st.Delete(name)
			n++
		}
	}
	return n
}

// RenamePrefix moves every file under oldPrefix to newPrefix, in name order
// like DFS.RenamePrefix, and reports how many — the store half of a
// speculative winner's output promotion.
func (st *IntermediateStore) RenamePrefix(oldPrefix, newPrefix string) int {
	var names []string
	for name := range st.files {
		if strings.HasPrefix(name, oldPrefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, target := st.files[name], newPrefix+name[len(oldPrefix):]
		delete(st.files, name)
		st.Delete(target) // refund whatever the move displaces
		st.files[target] = f
	}
	return len(names)
}

// CommitIntermediate stores a reduce task's output bytes as an intermediate
// file on the producing node: free while the memory budget lasts, a local
// disk write after (no replication pipeline either way — that is the entire
// point). Last-writer-wins like the HDFS commit path: any stale entry from
// a superseded attempt is dropped first.
func (rt *Runtime) CommitIntermediate(name string, data []byte, node *topology.Node, done func(error)) {
	st := rt.Intermediates
	if st == nil {
		panic("mapreduce: CommitIntermediate without an intermediate store")
	}
	n := int64(len(data))
	st.HDFSBytesAvoided += n
	disk := int64(0)
	if st.Put(name, data, node); st.files[name].InMemory {
		st.MemBytes += n
	} else {
		st.DiskBytes += n
		disk = n
	}
	rt.Cluster.Transfer(node, node, disk, 0, func() { done(nil) })
}

// Splits computes a job's input splits with the intermediate store layered
// over HDFS: files the store holds get synthesized splits (chunked at the
// HDFS block size, hosted on the producer node); everything else falls
// through to DFS.Splits. Split indices are renumbered to stay ordinal
// within the combined list. Entries whose node died are still listed — the
// read surfaces ErrIntermediateLost, which the failing job's owner answers
// with lineage recovery.
func (rt *Runtime) Splits(files []string) ([]*hdfs.Split, error) {
	st := rt.Intermediates
	if st == nil {
		return rt.DFS.Splits(files)
	}
	var splits []*hdfs.Split
	for _, name := range files {
		if f, ok := st.files[name]; ok {
			block := rt.Params.HDFSBlockBytes
			for off := int64(0); off < int64(len(f.data)); off += block {
				length := min(block, int64(len(f.data))-off)
				splits = append(splits, &hdfs.Split{
					File: name, Index: len(splits), Offset: off, Length: length,
					Hosts: []*topology.Node{f.Node},
				})
			}
			continue
		}
		fs, err := rt.DFS.Splits([]string{name})
		if err != nil {
			return nil, err
		}
		for _, s := range fs {
			s.Index = len(splits)
			splits = append(splits, s)
		}
	}
	return splits, nil
}

// ReadSplit reads one input split on behalf of a map task running on node.
// Intermediate-store splits are priced like shuffle fetches, by where the
// file resides (see topology.Cluster.Read), observed under kind
// "intermediate" with the matching transport label, and fail with
// ErrIntermediateLost when the producer died before or during the read.
// Everything else is a plain locality-priced HDFS range read.
func (rt *Runtime) ReadSplit(split *hdfs.Split, node *topology.Node, done func([]byte, error)) {
	var f *interFile
	if st := rt.Intermediates; st != nil {
		f = st.files[split.File]
	}
	if f == nil {
		rt.DFS.ReadRange(split.File, split.Offset, split.Length, node, done)
		return
	}
	rt.Cluster.Read(f.Resident, node, split.Length, rt.Params.RPCLatency, ErrIntermediateLost, func(err error) {
		if err != nil {
			done(nil, fmt.Errorf("reading %s: %w", split, err))
			return
		}
		rt.ObserveShuffle("intermediate", f.Transport(node), split.Length)
		done(f.data[split.Offset:split.Offset+split.Length], nil)
	})
}

// DeleteOutput removes one committed output file from wherever it lives —
// the intermediate store, HDFS, or both. Used by recovery paths that wipe
// a superseded attempt's part files.
func (rt *Runtime) DeleteOutput(name string) {
	if rt.Intermediates != nil {
		rt.Intermediates.Delete(name)
	}
	if rt.DFS.Exists(name) {
		_ = rt.DFS.Delete(name)
	}
}

// DeleteOutputPrefix removes every output file under a prefix from both the
// intermediate store and HDFS.
func (rt *Runtime) DeleteOutputPrefix(prefix string) {
	if rt.Intermediates != nil {
		rt.Intermediates.DeletePrefix(prefix)
	}
	rt.DFS.DeletePrefix(prefix)
}

// RenameOutputPrefix moves every output file under oldPrefix to newPrefix
// in both the intermediate store and HDFS — the speculative race's winner
// promotion, which must work whether the racing modes committed to HDFS or
// to the store.
func (rt *Runtime) RenameOutputPrefix(oldPrefix, newPrefix string) error {
	if rt.Intermediates != nil {
		rt.Intermediates.RenamePrefix(oldPrefix, newPrefix)
	}
	_, err := rt.DFS.RenamePrefix(oldPrefix, newPrefix)
	return err
}
