package mapreduce

import "sync"

// The flat record path (record.go) keeps its pairs in pointer-free indexes
// and byte slabs that belong to the output they were built for, so there is
// nothing to hand back and no ownership rule to follow. The one piece of
// scratch left is the values slice a merge fills per key for the reducer or
// combiner. Simulations on different goroutines merge at the same time,
// hence a sync.Pool rather than a per-runtime free list; the slice is
// cleared before pooling so stale value headers do not pin a finished job's
// stores.

var valsPool = sync.Pool{New: func() any { vs := make([][]byte, 0, 64); return &vs }}

func getVals() [][]byte { return *valsPool.Get().(*[][]byte) }

// putVals pools vs, which the caller has resliced to the longest length it
// filled: everything a pooled slice holds up to its capacity is nil, and
// clearing to that high-water mark — not to the last length, which would
// leave a longer group's headers behind, nor to the capacity, which can be
// a million entries — keeps it so.
func putVals(vs [][]byte) {
	clear(vs)
	vs = vs[:0]
	valsPool.Put(&vs)
}
