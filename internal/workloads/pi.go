package workloads

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mrapid/internal/hdfs"
	"mrapid/internal/mapreduce"
	"mrapid/internal/topology"
)

// PiSampleRate is the quasi-Monte-Carlo sampling throughput per reference
// core, calibrated to the 2013-era JVM PiEstimator (~10M Halton points per
// second).
const PiSampleRate = 10e6

// PiMaxRealSamples caps how many Halton points each map actually evaluates.
// The paper's sweeps reach 1.6 billion samples, which the virtual clock
// charges in full via SplitCost, but evaluating them for real would burn
// minutes of host CPU for no extra fidelity — the estimate converges long
// before the cap. This is the simulation/reality split documented in
// DESIGN.md: cost is charged for the full count, the numeric answer uses up
// to this many real points.
const PiMaxRealSamples = 200_000

// PiConfig controls one PI run: Maps tasks, Samples points per map.
type PiConfig struct {
	Maps    int
	Samples int64
}

// GeneratePiInput writes the tiny per-map control files (offset and sample
// count), one per map task, the way PiEstimator stages its inputs.
func GeneratePiInput(dfs *hdfs.DFS, cluster *topology.Cluster, prefix string, cfg PiConfig) ([]string, error) {
	if cfg.Maps <= 0 || cfg.Samples <= 0 {
		return nil, fmt.Errorf("workloads: pi needs positive maps and samples, got %d/%d", cfg.Maps, cfg.Samples)
	}
	workers := cluster.Workers()
	var names []string
	for i := 0; i < cfg.Maps; i++ {
		name := InputFileName(prefix, i)
		content := fmt.Sprintf("%d,%d\n", int64(i)*cfg.Samples, cfg.Samples)
		if _, err := dfs.PutInstant(name, []byte(content), workers[i%len(workers)]); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// PiSpec builds the PI estimation job. The map's virtual compute cost is
// its full sample count at PiSampleRate; its real computation evaluates up
// to PiMaxRealSamples Halton points. The SplitCost closure captures only the
// filesystem it reads each split's control file from, so its ClosureSig is
// a constant.
func PiSpec(dfs *hdfs.DFS, name string, inputs []string, output string) *mapreduce.JobSpec {
	return &mapreduce.JobSpec{
		Name:       name,
		JobKey:     "pi",
		InputFiles: inputs,
		OutputFile: output,
		NumReduces: 1,
		Format:     mapreduce.LineFormat{},
		Map:        piMap,
		Reduce:     piReduce,
		SplitCost: func(s *hdfs.Split) time.Duration {
			_, samples, err := parsePiControl(dfs, s)
			if err != nil {
				return 0
			}
			return time.Duration(float64(samples) / PiSampleRate * float64(time.Second))
		},
		ClosureSig: "splitcost=pi-control",
	}
}

// parsePiControl reads a PI control file's (offset, samples) pair.
func parsePiControl(dfs *hdfs.DFS, s *hdfs.Split) (offset, samples int64, err error) {
	data, err := dfs.Contents(s.File)
	if err != nil {
		return 0, 0, err
	}
	return parsePiLine(data)
}

func parsePiLine(data []byte) (offset, samples int64, err error) {
	parts := strings.SplitN(strings.TrimSpace(string(data)), ",", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("workloads: malformed pi control %q", data)
	}
	offset, err = strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	samples, err = strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return 0, 0, err
	}
	return offset, samples, nil
}

func piMap(_, line []byte, emit mapreduce.Emit) {
	offset, samples, err := parsePiLine(line)
	if err != nil {
		panic(err)
	}
	evaluated := samples
	if evaluated > PiMaxRealSamples {
		evaluated = PiMaxRealSamples
	}
	var inside, outside int64
	h := newHalton(offset)
	for i := int64(0); i < evaluated; i++ {
		x, y := h.next()
		dx, dy := x-0.5, y-0.5
		if dx*dx+dy*dy <= 0.25 {
			inside++
		} else {
			outside++
		}
	}
	// Scale the real counts back to the full virtual sample count so the
	// final estimate reflects the requested precision's sample total.
	if evaluated < samples && evaluated > 0 {
		scale := float64(samples) / float64(evaluated)
		inside = int64(float64(inside) * scale)
		outside = samples - inside
	}
	emit([]byte("inside"), []byte(strconv.FormatInt(inside, 10)))
	emit([]byte("outside"), []byte(strconv.FormatInt(outside, 10)))
}

func piReduce(key []byte, values mapreduce.Values, emit mapreduce.Emit) {
	var total int64
	for i := range values.Len() {
		v, times := values.At(i)
		n, err := strconv.ParseInt(string(v), 10, 64)
		if err != nil {
			panic(err)
		}
		total += int64(times) * n
	}
	emit(key, []byte(strconv.FormatInt(total, 10)))
}

// PiEstimate decodes the job output into the final π estimate.
func PiEstimate(dfs *hdfs.DFS, output string) (float64, error) {
	data, err := dfs.Contents(mapreduce.PartFileName(output, 0))
	if err != nil {
		return 0, err
	}
	var inside, outside int64
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			continue
		}
		n, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return 0, err
		}
		switch parts[0] {
		case "inside":
			inside = n
		case "outside":
			outside = n
		}
	}
	if inside+outside == 0 {
		return 0, fmt.Errorf("workloads: pi output empty")
	}
	return 4 * float64(inside) / float64(inside+outside), nil
}

// halton generates the 2-D Halton low-discrepancy sequence (bases 2 and 3),
// the same quasi-random point set Hadoop's PiEstimator uses.
type halton struct{ index int64 }

func newHalton(start int64) *halton { return &halton{index: start} }

func (h *halton) next() (x, y float64) {
	h.index++
	return radicalInverse(h.index, 2), radicalInverse(h.index, 3)
}

// radicalInverse reflects n's base-b digits around the radix point.
func radicalInverse(n int64, b int64) float64 {
	var v float64
	inv := 1.0 / float64(b)
	f := inv
	for n > 0 {
		v += float64(n%b) * f
		n /= b
		f *= inv
	}
	return v
}
