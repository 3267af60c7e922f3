package mapreduce

import (
	"bytes"
	"runtime"
	"testing"

	"mrapid/internal/costmodel"
	"mrapid/internal/hdfs"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// stagingRuntime is a runtime whose RM never starts heartbeating, so the
// engine drains as soon as an upload's writes are durable.
func stagingRuntime(t *testing.T, jarBytes int64) *Runtime {
	t.Helper()
	eng := sim.NewEngine()
	cluster, err := topology.NewCluster(eng, topology.Spec{Instance: topology.A3, Workers: 4, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	params := costmodel.Default()
	params.JobJarBytes = jarBytes
	dfs := hdfs.New(eng, cluster, params.HDFSBlockBytes, params.Replication, 42)
	return NewRuntime(eng, cluster, dfs, yarn.NewRM(eng, cluster, params, yarn.NewStockScheduler()), params)
}

func stage(t *testing.T, rt *Runtime, job string) {
	t.Helper()
	done := false
	rt.UploadArtifacts(&JobSpec{Name: job}, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	rt.Eng.Run()
	if !done {
		t.Fatalf("upload of %s never completed", job)
	}
}

// Staging a job costs the same heap whatever the jar's size: the artifacts
// are views of one shared buffer, not fresh megabytes per job.
func TestUploadArtifactsHeapIndependentOfJarSize(t *testing.T) {
	staged := func(jarBytes int64) uint64 {
		rt := stagingRuntime(t, jarBytes)
		stage(t, rt, "warm") // the first upload sizes the shared buffer
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stage(t, rt, "measured")
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := staged(2<<20), staged(64<<20)
	t.Logf("one upload allocates %d B with a 2 MiB jar, %d B with a 64 MiB jar", small, large)
	if diff := max(small, large) - min(small, large); diff > 8<<10 || small > 64<<10 {
		t.Fatalf("upload heap depends on the jar size: %d B vs %d B", small, large)
	}
}

// The shared buffer is read-only in effect: appending to a staged artifact
// and staging a second job leave it all-zero, and every file has the size
// and NameNode digest it had when each artifact owned fresh bytes.
func TestStagedArtifactsAliasSharedZeros(t *testing.T) {
	rt := stagingRuntime(t, costmodel.Default().JobJarBytes)
	a, b := &JobSpec{Name: "job-a"}, &JobSpec{Name: "job-b"}
	stage(t, rt, a.Name)
	stage(t, rt, b.Name)
	if _, err := rt.DFS.Append(JarPath(a), []byte("xyz"), nil); err != nil {
		t.Fatal(err)
	}
	if len(bytes.Trim(rt.zeros, "\x00")) != 0 {
		t.Fatal("the shared zero buffer was written to")
	}
	jarB, err := rt.DFS.Lookup(JarPath(b))
	if err != nil {
		t.Fatal(err)
	}
	if &jarB.Blocks[0].Data[0] != &rt.zeros[0] {
		t.Fatal("a staged jar owns its bytes instead of aliasing the shared buffer")
	}
	jarA, err := rt.DFS.Contents(JarPath(a))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(jarA) - 3; string(jarA[n:]) != "xyz" || len(bytes.Trim(jarA[:n], "\x00")) != 0 {
		t.Fatalf("appended jar ends %q", jarA[n:])
	}
	// Sizes and digests as produced by the parent of this change, where
	// UploadArtifacts allocated each artifact: same block IDs, generations
	// and lengths, so same replica-placement draws as well.
	for _, want := range []struct {
		file   string
		size   int64
		digest uint64
	}{
		{JarPath(a), 2<<20 + 3, 0x1ff7a2a9d2bb0122},
		{ConfPath(a), 64 << 10, 0x548f028b66f4010c},
		{JarPath(b), 2 << 20, 0xec4859a868c9bc45},
		{ConfPath(b), 64 << 10, 0x46958dd568f7144c},
	} {
		f, err := rt.DFS.Lookup(want.file)
		if err != nil {
			t.Fatal(err)
		}
		digest, _ := rt.DFS.FileDigest(want.file)
		if f.Size() != want.size || digest != want.digest {
			t.Errorf("%s: size %d digest %#x, want %d and %#x", want.file, f.Size(), digest, want.size, want.digest)
		}
	}
	if rt.DFS.BytesWritten != 2*(2<<20+64<<10) {
		t.Errorf("charged %d bytes for two uploads", rt.DFS.BytesWritten)
	}
}
