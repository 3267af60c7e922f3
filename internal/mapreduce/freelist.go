package mapreduce

import "sync"

// FreeList holds values of T for reuse: Put keeps one until a Get takes it
// back. Unlike a sync.Pool, it is never emptied by the garbage collector
// (nor at random under the race detector), so a process builds at most as
// many values as were ever out at once and reuses those for the rest of its
// run. It keeps one stack per Lane: a body on a Lane gets back only what
// bodies on that Lane put, in the order the Lane ran them, so what the list
// builds does not depend on which goroutine ran which body (see lanes.go).
// The map tasks' output builders come from one, and so do the per-split
// tables of the map functions that count in the mapper. The zero value is
// an empty list; it is safe for concurrent use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free [][]*T // by Lane index; 0 is the shared stack
}

// Get takes a value off lane's stack, or returns nil when it is empty.
func (l *FreeList[T]) Get(lane *Lane) *T {
	i := lane.index()
	l.mu.Lock()
	defer l.mu.Unlock()
	if i >= len(l.free) || len(l.free[i]) == 0 {
		return nil
	}
	s := l.free[i]
	x := s[len(s)-1]
	s[len(s)-1] = nil
	l.free[i] = s[:len(s)-1]
	return x
}

// Put hands x back to lane's stack for a later Get; the caller must not use
// it after.
func (l *FreeList[T]) Put(lane *Lane, x *T) {
	i := lane.index()
	l.mu.Lock()
	for len(l.free) <= i {
		l.free = append(l.free, nil)
	}
	l.free[i] = append(l.free[i], x)
	l.mu.Unlock()
}
