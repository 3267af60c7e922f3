package mapreduce

import "testing"

// A free list keeps every value put on it, across collections, and hands
// the last one put back first; an empty list gives nil.
func TestFreeListKeepsEveryPut(t *testing.T) {
	var l FreeList[int]
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	for _, want := range []*int{b, a, nil} {
		if got := l.Get(); got != want {
			t.Fatalf("Get = %p, want %p", got, want)
		}
	}
}
