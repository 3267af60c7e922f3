package core

import (
	"time"

	"mrapid/internal/costmodel"
	"mrapid/internal/profiler"
	"mrapid/internal/topology"
)

// EstimatorInputs carries the Table I quantities the decision maker plugs
// into Equations 2 and 3. Measured values (t^m, s^i, s^o) come from the
// profiler; structural values (n^m, n^c, n_u^m) from the job and cluster;
// rates (d^i, d^o, b^i, t^l) from the cost model and instance type.
type EstimatorInputs struct {
	TM time.Duration // t^m: map-function compute time per task
	SI int64         // s^i: average map input bytes
	SO int64         // s^o: average map output bytes

	NM  int // n^m: number of map tasks
	NC  int // n^c: task containers available cluster-wide (D+)
	NUM int // n_u^m: maps per wave in U+ (vcores × threads per core)

	TL time.Duration // t^l: container launch + JVM start
	DI float64       // d^i: disk input (write) rate, bytes/s
	DO float64       // d^o: disk output (read) rate, bytes/s
	BI float64       // b^i: network bandwidth, bytes/s

	// ShuffleRatio scales s^o in the shuffle term of Equation 3:
	// with the node-level shuffle service attached, in-node combining and
	// compression move fewer bytes across the network than the maps
	// emitted (Runtime.ShuffleWireRatio supplies the factor). Zero (unset)
	// and 1 both mean an unscaled shuffle. Spill and merge terms stay at
	// the raw s^o — the service transforms data after the map materializes
	// it.
	ShuffleRatio float64
}

// shuffleBytes is s^o scaled by ShuffleRatio for the shuffle term.
func (in EstimatorInputs) shuffleBytes() int64 {
	r := in.ShuffleRatio
	if r <= 0 || r >= 1 {
		return in.SO
	}
	return int64(float64(in.SO) * r)
}

// InputsFromProfile builds estimator inputs from a measured job summary and
// the cluster configuration. Framework.estimatorInputs assembles every
// input the decision maker prices through it.
func InputsFromProfile(s profiler.Summary, nm, nc, num int, it topology.InstanceType, p costmodel.Params) EstimatorInputs {
	return EstimatorInputs{
		TM:  s.AvgMapCPU,
		SI:  s.AvgIn,
		SO:  s.AvgOut,
		NM:  nm,
		NC:  nc,
		NUM: num,
		TL:  p.ContainerStart(),
		DI:  it.DiskWriteBps,
		DO:  it.DiskReadBps,
		BI:  it.NetworkBps,
	}
}

// waves returns ceil(tasks / perWave); the paper writes the plain ratio
// n^m/n^c but a fractional wave is physically a whole extra wave.
func waves(tasks, perWave int) int {
	if perWave <= 0 {
		return tasks
	}
	return (tasks + perWave - 1) / perWave
}

// ioTime converts bytes over a rate into a duration.
func ioTime(bytes int64, rate float64) time.Duration {
	if rate <= 0 || bytes <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / rate * float64(time.Second))
}

// EstimateUPlus implements Equation 2: with the AM pool removing setup, the
// single container removing shuffle, and the memory cache removing spill
// and merge, only the map compute remains, repeated over the U+ waves:
//
//	t_u = t^m · (n^m / n_u^m)
func EstimateUPlus(in EstimatorInputs) time.Duration {
	return in.TM * time.Duration(waves(in.NM, in.NUM))
}

// EstimateDPlus implements Equation 3: launch, map compute, and a single
// spill per wave, plus one overlapped shuffle term:
//
//	t_d = (t^l + t^m + s^o/d^i) · (n^m / n^c) + (s^o · n^c)/b^i
func EstimateDPlus(in EstimatorInputs) time.Duration {
	perWave := in.TL + in.TM + ioTime(in.SO, in.DI)
	shuffle := ioTime(in.shuffleBytes()*int64(in.NC), in.BI)
	return perWave*time.Duration(waves(in.NM, in.NC)) + shuffle
}

// ModeKind identifies one of the four execution modes.
type ModeKind string

// Execution modes, matching the labels used throughout the benchmarks.
const (
	ModeHadoop ModeKind = "hadoop" // stock distributed
	ModeUber   ModeKind = "uber"   // stock Uber
	ModeDPlus  ModeKind = "dplus"  // MRapid improved distributed
	ModeUPlus  ModeKind = "uplus"  // MRapid improved Uber
)

// Decide compares the Equation 2 and 3 estimates and returns the faster
// MRapid mode. Ties go to U+, the cheaper mode to keep running (one
// container).
func Decide(in EstimatorInputs) ModeKind {
	tu := EstimateUPlus(in)
	td := EstimateDPlus(in)
	if td < tu {
		return ModeDPlus
	}
	return ModeUPlus
}
