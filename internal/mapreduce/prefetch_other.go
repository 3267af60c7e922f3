//go:build !amd64

package mapreduce

// prefetch does nothing where no prefetch instruction is wired up. A load
// in its place would be slower than no hint at all: it stalls retirement
// until the line arrives, which is the wait a prefetch exists to hide.
func prefetch(addr uintptr) {}
