package mapreduce

// prefetch hints that the cache line holding addr will be read soon. It is
// one non-blocking instruction (prefetch_amd64.s): it never faults,
// whatever addr is, and retires without waiting for memory.
func prefetch(addr uintptr)
