package bench

import (
	"testing"
	"time"

	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
)

// TestFreshEnvsShareGeneratedContents: a generated input is hashed once
// per process, not once per environment. One WordCount and one TeraGen
// configuration are staged into two fresh environments; once the first has
// run its jobs, every block of the second carries the first's Content,
// already digested, so the second's maps key the MapCache without hashing.
func TestFreshEnvsShareGeneratedContents(t *testing.T) {
	t.Parallel()
	stage := func() (*Env, []*mapreduce.JobSpec) {
		env, err := NewEnv(A3x4(), VariantUber())
		if err != nil {
			t.Fatal(err)
		}
		// Seeds no other test stages, so no other test digests these files.
		wc, err := StageWordCount(env, 2, 256<<10, 4801)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := StageTeraSort(env, 20_000, 2, 4802)
		if err != nil {
			t.Fatal(err)
		}
		return env, []*mapreduce.JobSpec{wc, ts}
	}
	blocks := func(env *Env, specs []*mapreduce.JobSpec) []*hdfs.Block {
		var out []*hdfs.Block
		for _, spec := range specs {
			for _, name := range spec.InputFiles {
				f, err := env.DFS.Lookup(name)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, f.Blocks...)
			}
		}
		return out
	}

	first, specs := stage()
	for _, b := range blocks(first, specs) {
		if b.Digested() {
			t.Fatalf("%s was hashed when it was staged", b.File)
		}
	}
	for _, spec := range specs {
		if _, err := first.Run(VariantUber(), spec); err != nil {
			t.Fatal(err)
		}
	}
	second, again := stage()
	want := blocks(first, specs)
	got := blocks(second, again)
	if len(got) != len(want) || len(got) != 4 {
		t.Fatalf("staged %d and %d blocks, want 4 each", len(want), len(got))
	}
	for i, b := range got {
		if b.Content != want[i].Content {
			t.Errorf("%s: the second environment's block has a Content of its own", b.File)
		} else if !b.Digested() {
			t.Errorf("%s: the first environment's jobs did not digest it", b.File)
		}
	}
}

// TestFreshEnvReusesTheStagingZeros: a job's jar and conf are views of one
// zero buffer for the whole process, so a second environment's upload
// aliases the first's bytes instead of allocating its own megabytes.
func TestFreshEnvReusesTheStagingZeros(t *testing.T) {
	t.Parallel()
	jar := func() *hdfs.Block {
		env, err := NewEnv(A3x4(), VariantHadoop())
		if err != nil {
			t.Fatal(err)
		}
		spec := &mapreduce.JobSpec{Name: "staged"}
		uploaded := false
		env.RT.UploadArtifacts(spec, func(err error) {
			if err != nil {
				t.Error(err)
			}
			uploaded = true
		})
		env.Eng.RunUntil(env.Eng.Now().Add(time.Minute))
		f, err := env.DFS.Lookup(mapreduce.JarPath(spec))
		if !uploaded || err != nil {
			t.Fatalf("upload done=%v: %v", uploaded, err)
		}
		return f.Blocks[0]
	}
	a, b := jar(), jar()
	if a.Size() != b.Size() || &a.Data[0] != &b.Data[0] {
		t.Fatal("the second environment staged its jar from a zero buffer of its own")
	}
}
