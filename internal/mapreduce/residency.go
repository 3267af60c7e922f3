package mapreduce

import "fmt"

// CheckResidency recomputes every byte budget from the resident copies it
// accounts for and reports the first disagreement — the conservation law of
// topology.Budget, in the manner of RM.CheckView: the intermediate store's
// memory budget and on-disk total equal the sums over its files; every
// running in-AM executor's cache holds exactly what its attempts admitted,
// and no finished or killed one holds anything; no shuffle byte is in
// flight. Call it on a drained simulation (test teardown, the end of an
// experiment); nothing on a job's path does.
func (rt *Runtime) CheckResidency() error {
	if st := rt.Intermediates; st != nil {
		var mem, disk int64
		for _, f := range st.files {
			if f.InMemory {
				mem += int64(len(f.data))
			} else {
				disk += int64(len(f.data))
			}
		}
		if st.MemUsed() != mem || st.DiskUsed() != disk {
			return fmt.Errorf("mapreduce: intermediate store accounts %d B in memory and %d B on disk, its files sum to %d and %d",
				st.MemUsed(), st.DiskUsed(), mem, disk)
		}
	}
	for am := range rt.inAMs {
		if am.killed {
			return fmt.Errorf("mapreduce: in-AM executor of %q ended still holding %d cache bytes", am.spec.Name, am.cache.Used())
		}
		var admitted int64
		for _, b := range am.admitted {
			admitted += b
		}
		if am.cache.Used() != admitted {
			return fmt.Errorf("mapreduce: in-AM cache of %q holds %d B, its attempts admitted %d", am.spec.Name, am.cache.Used(), admitted)
		}
	}
	if rt.shuffleInFlight != 0 {
		return fmt.Errorf("mapreduce: %d shuffle bytes in flight at quiescence", rt.shuffleInFlight)
	}
	return nil
}
