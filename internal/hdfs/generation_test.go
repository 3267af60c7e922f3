package hdfs

import (
	"bytes"
	"testing"
)

// TestGenerationBumpsOnMutation is the memoization cache's invalidation
// contract: FileDigest must change on every mutation (overwrite, append)
// and stay stable when nothing was written.
func TestGenerationBumpsOnMutation(t *testing.T) {
	eng, c := testCluster(t, 4)
	d := New(eng, c, 16, 3, 1) // tiny block size so multi-block paths run

	if _, err := d.PutInstant("/t/a", []byte("twelve bytes"), nil); err != nil {
		t.Fatal(err)
	}
	d0, err := d.FileDigest("/t/a")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := d.FileDigest("/t/a"); again != d0 {
		t.Fatalf("FileDigest not stable without writes: %#x vs %#x", again, d0)
	}

	// Overwrite with identical bytes: the content is the same but the write
	// happened — the generation (and therefore the digest) must move, which
	// is what makes the digest a metadata-only check.
	if _, err := d.OverwriteInstant("/t/a", []byte("twelve bytes"), nil); err != nil {
		t.Fatal(err)
	}
	d1, err := d.FileDigest("/t/a")
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d0 {
		t.Fatal("overwrite did not change FileDigest")
	}

	// Append within the last block's slack: the block keeps its ID, so its
	// generation must bump even though no new block ID is allocated.
	f, _ := d.Lookup("/t/a")
	lastGen := f.Blocks[len(f.Blocks)-1].Gen
	if _, err := d.Append("/t/a", []byte("+abc"), nil); err != nil {
		t.Fatal(err)
	}
	if got := f.Blocks[len(f.Blocks)-1].Gen; got <= lastGen {
		t.Fatalf("in-place append kept generation %d (was %d)", got, lastGen)
	}
	d2, err := d.FileDigest("/t/a")
	if err != nil {
		t.Fatal(err)
	}
	if d2 == d1 {
		t.Fatal("append did not change FileDigest")
	}
	want := []byte("twelve bytes+abc")
	if got, _ := d.Contents("/t/a"); !bytes.Equal(got, want) {
		t.Fatalf("Contents after append = %q, want %q", got, want)
	}

	// Append past the block boundary: the spill must land in fresh blocks
	// with correct offsets and contents.
	tail := bytes.Repeat([]byte("x"), 40)
	if _, err := d.Append("/t/a", tail, nil); err != nil {
		t.Fatal(err)
	}
	want = append(want, tail...)
	if got, _ := d.Contents("/t/a"); !bytes.Equal(got, want) {
		t.Fatalf("Contents after spilling append = %q, want %q", got, want)
	}
	var off int64
	for i, b := range f.Blocks {
		if b.Offset != off {
			t.Fatalf("block %d offset = %d, want %d", i, b.Offset, off)
		}
		off += b.Size()
	}
	if d3, _ := d.FileDigest("/t/a"); d3 == d2 {
		t.Fatal("spilling append did not change FileDigest")
	}

	// Distinct files never share a digest, even with identical bytes: block
	// IDs and generations are cluster-global.
	if _, err := d.PutInstant("/t/b", want, nil); err != nil {
		t.Fatal(err)
	}
	da, _ := d.FileDigest("/t/a")
	db, _ := d.FileDigest("/t/b")
	if da == db {
		t.Fatal("two files with identical bytes share a FileDigest")
	}

	if _, err := d.FileDigest("/t/missing"); err == nil {
		t.Fatal("FileDigest of a missing file did not error")
	}
}
