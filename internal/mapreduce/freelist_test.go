package mapreduce

import "testing"

// A free list keeps every value put on it, across collections, and hands
// the last one put back first; an empty list gives nil.
func TestFreeListKeepsEveryPut(t *testing.T) {
	var l FreeList[int]
	a, b := new(int), new(int)
	l.Put(nil, a)
	l.Put(nil, b)
	for _, want := range []*int{b, a, nil} {
		if got := l.Get(nil); got != want {
			t.Fatalf("Get = %p, want %p", got, want)
		}
	}
}

// Each Lane has a stack of its own: a value put on one Lane is handed back
// only to a Get on that Lane, never to another or to the shared stack.
func TestFreeListKeepsLanesApart(t *testing.T) {
	var l FreeList[int]
	a, b := &Lane{slot: 1}, &Lane{slot: 2}
	x, y := new(int), new(int)
	l.Put(a, x)
	l.Put(b, y)
	for _, get := range []struct {
		lane *Lane
		want *int
	}{{nil, nil}, {b, y}, {b, nil}, {a, x}, {a, nil}} {
		if got := l.Get(get.lane); got != get.want {
			t.Fatalf("Get(%v) = %p, want %p", get.lane, got, get.want)
		}
	}
}
