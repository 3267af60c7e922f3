package mapreduce

import "sync"

// FreeList holds values of T for reuse: Put keeps one until a Get takes it
// back. Unlike a sync.Pool, it is never emptied by the garbage collector
// (nor at random under the race detector), so a process builds at most as
// many values as were ever out at once — one per goroutine using them — and
// reuses those for the rest of its run. The map tasks' output builders come
// from one, and so do the per-split tables of the map functions that count
// in the mapper. The zero value is an empty list; it is safe for concurrent
// use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get takes a value off the list, or returns nil when the list is empty.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return nil
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// Put hands x back for a later Get; the caller must not use it after.
func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
