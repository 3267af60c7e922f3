package mapreduce

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"mrapid/internal/hdfs"
	"mrapid/internal/sim"
	"mrapid/internal/topology"
)

func TestLineFormat(t *testing.T) {
	var lines []string
	LineFormat{}.Scan([]byte("a\nbb\n\nccc"), func(_, v []byte) {
		lines = append(lines, string(v))
	})
	want := []string{"a", "bb", "", "ccc"}
	if len(lines) != len(want) {
		t.Fatalf("lines = %q", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("lines = %q, want %q", lines, want)
		}
	}
}

func TestLineFormatEmpty(t *testing.T) {
	n := 0
	LineFormat{}.Scan(nil, func(_, _ []byte) { n++ })
	if n != 0 {
		t.Fatalf("empty input yielded %d records", n)
	}
}

// Property: joining LineFormat records with newlines reproduces the input
// (modulo one trailing newline).
func TestQuickLineFormatRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		data := bytes.ReplaceAll(raw, []byte{0}, []byte{'x'})
		var got [][]byte
		LineFormat{}.Scan(data, func(_, v []byte) {
			got = append(got, v)
		})
		joined := bytes.Join(got, []byte("\n"))
		trimmed := bytes.TrimSuffix(data, []byte("\n"))
		return bytes.Equal(joined, trimmed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedFormat(t *testing.T) {
	var keys, vals []string
	FixedFormat{KeyLen: 2, ValLen: 3}.Scan([]byte("aaBBBccDDDx"), func(k, v []byte) {
		keys = append(keys, string(k))
		vals = append(vals, string(v))
	})
	if len(keys) != 2 || keys[0] != "aa" || keys[1] != "cc" || vals[0] != "BBB" || vals[1] != "DDD" {
		t.Fatalf("keys=%q vals=%q", keys, vals)
	}
}

func TestFixedFormatBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero record length did not panic")
		}
	}()
	FixedFormat{}.Scan([]byte("x"), func(_, _ []byte) {})
}

func TestHashPartitionInRange(t *testing.T) {
	f := func(key []byte, n8 uint8) bool {
		n := 1 + int(n8%16)
		p := HashPartition(key, n)
		return p >= 0 && p < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func validSpec() *JobSpec {
	return &JobSpec{
		Name:       "j",
		InputFiles: []string{"/in"},
		OutputFile: "/out",
		NumReduces: 1,
		Format:     LineFormat{},
		MapFor: func(string, *Lane) (MapFunc, func(CountedEmit)) {
			return func(_, _ []byte, _ Emit) {}, nil
		},
		Reduce: func(_ []byte, _ Values, _ Emit) {},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*JobSpec){
		func(s *JobSpec) { s.Name = "" },
		func(s *JobSpec) { s.InputFiles = nil },
		func(s *JobSpec) { s.OutputFile = "" },
		func(s *JobSpec) { s.NumReduces = 0 },
		func(s *JobSpec) { s.Format = nil },
		func(s *JobSpec) { s.MapFor = nil },
		func(s *JobSpec) { s.Reduce = nil },
		func(s *JobSpec) { s.MapRate = -1 },
	}
	for i, mut := range bad {
		s := validSpec()
		mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d passed validation", i)
		}
	}
}

func TestSpecKey(t *testing.T) {
	s := validSpec()
	if s.Key() != "j" {
		t.Fatalf("Key = %q", s.Key())
	}
	s.JobKey = "wordcount"
	if s.Key() != "wordcount" {
		t.Fatalf("Key = %q", s.Key())
	}
}

func TestComputeTimes(t *testing.T) {
	eng := sim.NewEngine()
	node := topology.NewNode(eng, 1, "rack-0", topology.A3)
	s := validSpec()
	s.MapRate = 10e6
	s.SplitCost = func(*hdfs.Split) time.Duration { return time.Second }
	if got := s.MapComputeTime(&hdfs.Split{}, 20e6, node); got != 3*time.Second {
		t.Fatalf("MapComputeTime = %v, want 3s", got)
	}
	s.ReduceRate = 5e6
	if got := s.ReduceComputeTime(10e6, node); got != 2*time.Second {
		t.Fatalf("ReduceComputeTime = %v, want 2s", got)
	}
	s.ReduceRate = 0
	if got := s.ReduceComputeTime(10e6, node); got != 0 {
		t.Fatalf("zero-rate reduce = %v", got)
	}
}
