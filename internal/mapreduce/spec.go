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
	"slices"
	"strconv"
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
type ReduceFunc func(key []byte, values Values, emit Emit)

// Values is one key's values in merged order, as runs: At(i) is a value and
// how many times in a row it occurs. A map task's folded pairs arrive as one
// run each, so a reducer that counts or sums works per run, not per
// occurrence. Where one run ends and the next begins is not defined — equal
// values may come as one run or as several — only the occurrences are. The
// view is scratch: do not retain it past the call. Retaining a value's bytes
// is fine; they point into immutable stores.
type Values struct {
	vals   [][]byte
	counts []int
}

// NewValues is the view of the runs vals[i] × counts[i], each count at least
// 1, for handing values to a ReduceFunc outside a merge.
func NewValues(vals [][]byte, counts []int) Values { return Values{vals, counts[:len(vals)]} }

// Len returns the number of runs.
func (vs Values) Len() int { return len(vs.vals) }

// At returns run i: its value and how many times it occurs.
func (vs Values) At(i int) (v []byte, n int) { return vs.vals[i], vs.counts[i] }

// Each calls f once per occurrence, in order: the runs expanded, for a
// reducer that needs every value on its own.
func (vs Values) Each(f func(v []byte)) {
	for i, v := range vs.vals {
		for range vs.counts[i] {
			f(v)
		}
	}
}

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

	// ClosureSig is the builder's signature of everything the spec's
	// closures and method values capture: the query compiler's plan
	// signature, Grep's pattern, TeraSort's cut points. Transforms built at
	// one definition site share a function symbol whatever they capture, so
	// Identity refuses a spec that has such a transform and no ClosureSig.
	ClosureSig string

	// MemoDigest is the DAG runner's lineage digest of a query stage's
	// intermediate inputs, whose query-scoped names say nothing about their
	// content; the memo cache folds it into the input digest.
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

// Identity is the job's computation identity, the one key of both result
// caches (the MapCache with the split, the memo cache with the inputs): the
// record format, reduce count and rates, each transform's linker symbol, and
// ClosureSig — not Name or JobKey, since two computations of one program
// differ. A symbol is blind to captured state, so a spec with a closure or
// method value and no ClosureSig is not reusable: ok is false. Identity
// allocates nothing, since the MapCache computes it per map task; never
// cache it on the JobSpec, which races copy and tests mutate and resubmit.
func (s *JobSpec) Identity() (id uint64, ok bool) {
	format := "<nil>"
	if s.Format != nil {
		format = reflect.TypeOf(s.Format).String() // as %T prints it
	}
	var num [96]byte
	b := strconv.AppendInt(append(num[:0], '|'), int64(s.NumReduces), 10)
	b = strconv.AppendFloat(append(b, '|'), s.MapRate, 'g', -1, 64)
	b = strconv.AppendFloat(append(b, '|'), s.ReduceRate, 'g', -1, 64)
	b = strconv.AppendInt(append(b, '|'), int64(s.MapFixedCost), 10)
	h := fnvAdd(fnvAdd(fnvOffset64, format), b)
	ok = true
	fields := [...]string{"|map=", "|combine=", "|reduce=", "|part=", "|mapfor=", "|splitcost="}
	for i, fn := range [...]any{s.Map, s.Combine, s.Reduce, s.Partition, s.MapFor, s.SplitCost} {
		sym := funcSymbol(fn)
		h = fnvAdd(fnvAdd(h, fields[i]), sym)
		ok = ok && !capturesState(sym)
	}
	if s.ClosureSig != "" {
		h = fnvAdd(fnvAdd(h, "|sig="), s.ClosureSig)
		ok = true
	}
	return h, ok
}

// SpecFingerprint is Identity over the job's input set by name: the memo
// cache's key for a job whose inputs are all HDFS files.
func (s *JobSpec) SpecFingerprint() string {
	id, _ := s.Identity()
	return Fingerprint(id, s.InputFiles)
}

// Fingerprint extends a computation identity with an input set. Order is not
// part of the computation — splits are planned per file — so the names are
// hashed sorted.
func Fingerprint(id uint64, inputs []string) string {
	sorted := slices.Clone(inputs)
	slices.Sort(sorted)
	for _, in := range sorted {
		id = fnvAdd(fnvAdd(id, "|in="), in)
	}
	return fmt.Sprintf("spec-%016x", id)
}

const fnvOffset64, fnvPrime64 = 14695981039346656037, 1099511628211

// fnvAdd folds b into an FNV-1a hash, the stream hash/fnv's New64a computes
// from fnvOffset64.
func fnvAdd[T string | []byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	return h
}

// funcSymbol resolves a function value to its linker symbol name
// ("mrapid/internal/workloads.wordCountMap"). Nil-safe: nil functions map
// to "".
func funcSymbol(fn any) string {
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

// capturesState reports whether a symbol names code that every instance from
// one definition site shares: a closure ("pkg.F.func1", "pkg.F.func1.2",
// "pkg.glob..func1") or a method value ("pkg.T.Map-fm").
func capturesState(sym string) bool {
	for rest := sym; ; {
		_, after, found := strings.Cut(rest, ".func")
		if !found {
			return strings.HasSuffix(sym, "-fm")
		}
		if after != "" && '0' <= after[0] && after[0] <= '9' {
			return true
		}
		rest = after
	}
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
