// Package mapreduce implements the simulated MapReduce runtime: job
// specifications with real map/reduce functions, record formats, the map
// task's sub-phases (read, map, spill, merge), shuffle, reduce, and the
// ApplicationMasters — one lifecycle core under the distributed AM and the
// in-AM executor (stock Uber with zero options, U+ with FullUPlus). Jobs compute
// real answers over real bytes in the simulated HDFS while every phase is
// charged to the virtual clock.
package mapreduce

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"mrapid/internal/hdfs"
	"mrapid/internal/topology"
)

// Emit is the output callback handed to map, combine, and reduce functions.
// The callee copies what it keeps (or, for bytes of the split's input block,
// indexes them where they lie), so the caller may reuse or share the
// memory behind key and value as soon as the call returns, and the callee
// must not write to it.
type Emit func(key, value []byte)

// MapFunc consumes one record and emits intermediate pairs.
type MapFunc func(key, value []byte, emit Emit)

// ReduceFunc consumes one key and all its values (sorted ordering of keys is
// guaranteed by the framework) and emits output pairs.
type ReduceFunc func(key []byte, values [][]byte, emit Emit)

// PartitionFunc routes a key to one of n reduce partitions.
type PartitionFunc func(key []byte, n int) int

// HashPartition is the default partitioner (Hadoop's HashPartitioner).
func HashPartition(key []byte, n int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(n))
}

// RecordFormat splits raw input bytes into records.
type RecordFormat interface {
	// Scan invokes yield for every record in data.
	Scan(data []byte, yield func(key, value []byte))
}

// LineFormat yields one record per newline-terminated line (TextInputFormat):
// the key is unused (nil) and the value is the line without its newline.
type LineFormat struct{}

// Scan implements RecordFormat.
func (LineFormat) Scan(data []byte, yield func(key, value []byte)) {
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			yield(nil, data)
			return
		}
		yield(nil, data[:i])
		data = data[i+1:]
	}
}

// FixedFormat yields fixed-length records of KeyLen+ValLen bytes, the shape
// of TeraSort's 100-byte rows (10-byte key, 90-byte payload). A trailing
// partial record is ignored, matching TeraInputFormat.
type FixedFormat struct {
	KeyLen int
	ValLen int
}

// Scan implements RecordFormat.
func (f FixedFormat) Scan(data []byte, yield func(key, value []byte)) {
	rec := f.KeyLen + f.ValLen
	if rec <= 0 {
		panic("mapreduce: FixedFormat needs positive record length")
	}
	for len(data) >= rec {
		yield(data[:f.KeyLen], data[f.KeyLen:rec])
		data = data[rec:]
	}
}

// JobSpec describes one MapReduce job: its real functions, its input and
// output locations, and the compute-cost coefficients the virtual clock
// charges for the map and reduce functions.
type JobSpec struct {
	// Name labels this submission; JobKey identifies the program for the
	// decision-maker's history ("the execution records of the same job,
	// even if they were executed with different input data").
	Name   string
	JobKey string

	InputFiles []string
	OutputFile string
	NumReduces int

	// IntermediateOutput marks a job whose output is an intra-query
	// intermediate: when the runtime has an IntermediateStore attached, the
	// reduce commit lands there (producer-local memory or disk, no HDFS
	// replication) and downstream stages read it shuffle-style. The final
	// stage of a query leaves this false so results stay in HDFS.
	IntermediateOutput bool

	// Queue is the YARN tenant queue every app of this job submits to
	// ("" = default). The JobServer stamps it from the submitting tenant so
	// the RM's per-queue capacity ceilings bound the job's containers on
	// every execution path, pooled or stock.
	Queue string

	Format    RecordFormat
	Map       MapFunc
	Combine   ReduceFunc // optional map-side combiner
	Reduce    ReduceFunc
	Partition PartitionFunc // defaults to HashPartition

	// MapFor, when set, selects the map function per input file and
	// overrides Map wherever it returns non-nil. Repartition joins use it
	// to tag the two sides of the join differently.
	MapFor func(file string) MapFunc

	// MapRate is the map function's compute throughput in input bytes per
	// second on one reference core; zero means the map function itself is
	// free (I/O only). MapFixedCost is charged per task regardless of input
	// size — compute-bound jobs like PI put their whole cost here via
	// SplitCost.
	MapRate      float64
	MapFixedCost time.Duration
	// SplitCost, when set, returns extra per-split compute (e.g. PI's
	// sample count encoded in the split's file).
	SplitCost func(s *hdfs.Split) time.Duration

	// ReduceRate is the reduce function's throughput over its input bytes
	// per second on one reference core.
	ReduceRate float64

	// ClosureSig, when non-empty, is the builder's signature of everything
	// the spec's closures capture (the query compiler sets it to the stage's
	// plan signature). Specs built from one definition site share a JobKey
	// and function symbols whatever they capture; the MapCache adds this to
	// its key so that two of them mapping the same bytes never share a
	// result. Specs whose JobKey already pins what their closures compute
	// (TeraSort's cut-point partitioner) leave it empty.
	ClosureSig string

	// MemoKey / MemoDigest, when MemoKey is non-empty, override the
	// memoization cache's automatic identity for this job: MemoKey names the
	// computation and MemoDigest fingerprints its inputs. The query layer
	// sets them from plan-content signatures and lineage digests, because
	// its transform closures all share one function symbol — the automatic
	// SpecFingerprint/MemoSafe path would either refuse them or, worse,
	// collide distinct predicates. Callers that set MemoKey take over the
	// collision-freedom obligation.
	MemoKey    string
	MemoDigest uint64
}

// Validate checks the spec is runnable.
func (s *JobSpec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("mapreduce: job needs a name")
	case len(s.InputFiles) == 0:
		return fmt.Errorf("mapreduce: job %q has no input files", s.Name)
	case s.OutputFile == "":
		return fmt.Errorf("mapreduce: job %q has no output file", s.Name)
	case s.NumReduces <= 0:
		return fmt.Errorf("mapreduce: job %q needs at least one reduce", s.Name)
	case s.Format == nil:
		return fmt.Errorf("mapreduce: job %q has no record format", s.Name)
	case s.Map == nil && s.MapFor == nil:
		return fmt.Errorf("mapreduce: job %q has no map function", s.Name)
	case s.Reduce == nil:
		return fmt.Errorf("mapreduce: job %q has no reduce function", s.Name)
	case s.MapRate < 0 || s.ReduceRate < 0:
		return fmt.Errorf("mapreduce: job %q has negative compute rates", s.Name)
	}
	return nil
}

// Key returns the history key, falling back to the name.
func (s *JobSpec) Key() string {
	if s.JobKey != "" {
		return s.JobKey
	}
	return s.Name
}

// ClassKey fingerprints the job's workload class: the structural program
// shape (record format, compute rates, reduce count, presence of combiner /
// per-file maps / split costs) without its identity or inputs. Jobs that
// share a class key behave alike per input byte, so the decision maker's
// calibrating estimator can generalize execution records across similar
// jobs that never share an exact Key.
//
// ClassKey is intentionally shape-only and therefore lossy: two different
// programs with the same structure (say, grep-for-ERROR and grep-for-WARN,
// both LineFormat × 1 reduce × equal rates) share a class, which is exactly
// what lets the estimator pool their timing samples. That lossiness makes it
// unusable as a cache key — reusing grep-for-ERROR's output for a
// grep-for-WARN submission would be wrong. SpecFingerprint is the
// content-sensitive counterpart the memoization cache keys on.
func (s *JobSpec) ClassKey() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%T|%d|%g|%g|%d|%v|%v|%v",
		s.Format, s.NumReduces, s.MapRate, s.ReduceRate, s.MapFixedCost,
		s.Combine != nil, s.MapFor != nil, s.SplitCost != nil)
	return fmt.Sprintf("class-%016x", h.Sum64())
}

// funcSymbol resolves a function value to its linker symbol name
// ("mrapid/internal/workloads.wordCountMap"), the identity the memoization
// fingerprint hashes. Nil-safe: nil functions map to "".
func funcSymbol(fn interface{}) string {
	v := reflect.ValueOf(fn)
	if !v.IsValid() || v.IsNil() {
		return ""
	}
	f := runtime.FuncForPC(v.Pointer())
	if f == nil {
		return ""
	}
	return f.Name()
}

// SpecFingerprint fingerprints the job's *computation*: which transform
// functions run (by linker symbol), with which parameters, over which input
// set. Unlike the shape-only ClassKey it distinguishes grep-for-ERROR from
// grep-for-WARN, WordCount with and without its combiner, and the same
// program pointed at different files — any two specs that could produce
// different output bytes get different fingerprints. Paired with the HDFS
// write-generation digest of the inputs it forms the memoization cache key:
// same fingerprint × same input digest ⇒ same committed output.
//
// The function identity is the package-level symbol name, which is exact for
// named functions but blind to captured state — every closure from one
// definition site shares a symbol. MemoSafe gates on that: specs carrying
// closures are never auto-memoized (the query layer provides explicit
// MemoKeys built from plan content instead).
func (s *JobSpec) SpecFingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%T|%d|%g|%g|%d", s.Format, s.NumReduces,
		s.MapRate, s.ReduceRate, s.MapFixedCost)
	fmt.Fprintf(h, "|map=%s|combine=%s|reduce=%s|part=%s|mapfor=%s|splitcost=%s",
		funcSymbol(s.Map), funcSymbol(s.Combine), funcSymbol(s.Reduce),
		funcSymbol(s.Partition), funcSymbol(s.MapFor), funcSymbol(s.SplitCost))
	// The input *set* is part of the computation; order is not (splits are
	// planned per file), so hash a sorted copy.
	inputs := append([]string(nil), s.InputFiles...)
	sort.Strings(inputs)
	for _, in := range inputs {
		fmt.Fprintf(h, "|in=%s", in)
	}
	return fmt.Sprintf("spec-%016x", h.Sum64())
}

// MemoSafe reports whether SpecFingerprint fully captures this job's
// computation: every configured transform must be a named package-level
// function. A closure's symbol ends in a ".funcN" segment and is shared by
// all instances from that definition site regardless of captured variables,
// so two semantically different jobs could collide — such specs are only
// memoized when the caller supplies an explicit MemoKey.
func (s *JobSpec) MemoSafe() bool {
	for _, sym := range []string{
		funcSymbol(s.Map), funcSymbol(s.Combine), funcSymbol(s.Reduce),
		funcSymbol(s.Partition), funcSymbol(s.MapFor), funcSymbol(s.SplitCost),
	} {
		if i := strings.LastIndexByte(sym, '.'); i >= 0 && strings.HasPrefix(sym[i+1:], "func") {
			return false
		}
	}
	return true
}

// partitioner returns the configured or default partition function.
func (s *JobSpec) partitioner() PartitionFunc {
	if s.Partition != nil {
		return s.Partition
	}
	return HashPartition
}

// MapComputeTime returns the virtual compute duration of the map function
// over n input bytes on the given node.
func (s *JobSpec) MapComputeTime(split *hdfs.Split, n int64, node *topology.Node) time.Duration {
	d := s.MapFixedCost
	if s.MapRate > 0 {
		d += time.Duration(float64(n) / (s.MapRate * node.Type.CPUSpeed) * float64(time.Second))
	}
	if s.SplitCost != nil && split != nil {
		d += time.Duration(float64(s.SplitCost(split)) / node.Type.CPUSpeed)
	}
	return d
}

// ReduceComputeTime returns the virtual compute duration of the reduce
// function over n shuffled bytes on the given node.
func (s *JobSpec) ReduceComputeTime(n int64, node *topology.Node) time.Duration {
	if s.ReduceRate <= 0 {
		return 0
	}
	return time.Duration(float64(n) / (s.ReduceRate * node.Type.CPUSpeed) * float64(time.Second))
}
