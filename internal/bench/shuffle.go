package bench

import (
	"bytes"
	"fmt"
	"strings"

	"mrapid/internal/mapreduce"
	"mrapid/internal/metrics"
	"mrapid/internal/workloads"
)

// ShuffleRun summarizes one workload execution under one shuffle-service
// configuration.
type ShuffleRun struct {
	Fetches   int64   // shuffle fetch operations (per-map or consolidated)
	NetworkMB float64 // shuffle bytes that crossed a NIC
	TotalMB   float64 // all shuffle bytes (memory + disk + network transports)
	Seconds   float64 // client-observed job completion time

	outputs map[string][]byte // part-file contents, for byte-identity checks
}

// shuffleConfig is one service setting column of the experiment.
type shuffleConfig struct {
	Name    string
	Enabled bool
	Codec   string
}

func shuffleConfigs() []shuffleConfig {
	return []shuffleConfig{
		{Name: "off", Enabled: false, Codec: "none"},
		{Name: "svc", Enabled: true, Codec: "none"},
		{Name: "svc+lz", Enabled: true, Codec: "lz"},
	}
}

// shuffleCase is one workload row: gen stages input and builds the job.
type shuffleCase struct {
	Name     string
	Reduces  int
	Combiner bool // whether the spec carries a combiner the service can re-apply
	Gen      func(env *Env, o Options) (*mapreduce.JobSpec, string, error)
}

func shuffleCases() []shuffleCase {
	return []shuffleCase{
		{
			// WordCount with the map-side combiner on: the service's in-node
			// re-combine collapses duplicate words across a node's map tasks.
			Name: "wordcount", Reduces: 1, Combiner: true,
			Gen: func(env *Env, o Options) (*mapreduce.JobSpec, string, error) {
				names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/shuf/wc", workloads.WordCountConfig{
					Files: 8, FileBytes: o.bytes(4 * mb), Seed: o.Seed,
				})
				if err != nil {
					return nil, "", err
				}
				return workloads.WordCountSpec("shuffle-wordcount", names, "/out/shuf/wc", true), "/out/shuf/wc", nil
			},
		},
		{
			// Grep search: sum combiner over matched words (every word
			// containing "a" matches — a dense, skewed match set).
			Name: "grep", Reduces: 1, Combiner: true,
			Gen: func(env *Env, o Options) (*mapreduce.JobSpec, string, error) {
				names, err := workloads.GenerateWordCountInput(env.DFS, env.Cluster, "/in/shuf/grep", workloads.WordCountConfig{
					Files: 8, FileBytes: o.bytes(2 * mb), Seed: o.Seed,
				})
				if err != nil {
					return nil, "", err
				}
				return workloads.GrepSearchSpec("shuffle-grep", names, "/out/shuf/grep", "a"), "/out/shuf/grep", nil
			},
		},
		{
			// TeraSort: no combiner (identity reduce), so the service's win is
			// fetch consolidation and, under lz, wire compression alone.
			Name: "terasort", Reduces: 2, Combiner: false,
			Gen: func(env *Env, o Options) (*mapreduce.JobSpec, string, error) {
				rows := int64(200_000 * o.Scale)
				if rows < 16 {
					rows = 16
				}
				names, err := workloads.TeraGen(env.DFS, env.Cluster, "/in/shuf/ts", workloads.TeraGenConfig{
					Rows: rows, Files: 8, Seed: o.Seed,
				})
				if err != nil {
					return nil, "", err
				}
				spec, err := workloads.TeraSortSpec(env.DFS, "shuffle-terasort", names, "/out/shuf/ts", 2)
				return spec, "/out/shuf/ts", err
			},
		},
	}
}

// RunShuffleCase executes one workload under one shuffle-service
// configuration on the stock distributed engine (the mode whose shuffle the
// service replaces) and reads the fetch/byte counters from the run's
// metrics registry.
func RunShuffleCase(setup ClusterSetup, c shuffleCase, cfg shuffleConfig, o Options) (*ShuffleRun, error) {
	o = o.normalized()
	setup = o.Apply(setup)
	setup.Params.ShuffleService = cfg.Enabled
	setup.Params.ShuffleCodec = cfg.Codec
	v := VariantHadoop()
	env, err := NewEnv(setup, v)
	if err != nil {
		return nil, err
	}
	env.EnableObservability(1 << 16)
	spec, output, err := c.Gen(env, o)
	if err != nil {
		return nil, err
	}
	res, err := env.Run(v, spec)
	if err != nil {
		return nil, err
	}
	run := &ShuffleRun{Seconds: res.Elapsed(), outputs: map[string][]byte{}}
	for name, n := range env.Reg.Counters() {
		if strings.HasPrefix(name, "mapreduce_shuffle_fetch_total{") {
			run.Fetches += n
		}
	}
	for name, h := range env.Reg.Histograms() {
		if !strings.HasPrefix(name, "mapreduce_shuffle_bytes{") || h == nil {
			continue
		}
		run.TotalMB += h.Sum / mb
		if name == metrics.With("mapreduce_shuffle_bytes", "transport", "network") {
			run.NetworkMB += h.Sum / mb
		}
	}
	for p := 0; p < c.Reduces; p++ {
		part := mapreduce.PartFileName(output, p)
		data, err := env.DFS.Contents(part)
		if err != nil {
			return nil, fmt.Errorf("bench: reading %s: %w", part, err)
		}
		run.outputs[part] = data
	}
	return run, nil
}

// Shuffle is the registered shuffle-service experiment: each workload runs
// under the per-map baseline ("off"), the consolidating service ("svc"), and
// the service with lz wire compression ("svc+lz") on the stock distributed
// engine. Besides the measurements, the experiment enforces the service's
// two contracts: every workload's final output is byte-identical across all
// three configurations, and consolidated fetch counts never exceed
// nodes × reduces.
func Shuffle(o Options) (*Figure, error) {
	o = o.normalized()
	setup := A3x4()
	fig := &Figure{
		ID:      "shuffle",
		Title:   "Shuffle service: per-map vs consolidated fetches (A3×4, distributed engine)",
		XLabel:  "workload / service",
		Columns: []string{"fetches", "net-MB", "shuffle-MB", "seconds"},
		Notes: []string{
			"outputs verified byte-identical across off/svc/svc+lz for every workload",
		},
	}
	for _, c := range shuffleCases() {
		var base *ShuffleRun
		for _, cfg := range shuffleConfigs() {
			r, err := RunShuffleCase(setup, c, cfg, o)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", c.Name, cfg.Name, err)
			}
			if base == nil {
				base = r
			} else {
				for part, want := range base.outputs {
					if !bytes.Equal(want, r.outputs[part]) {
						return nil, fmt.Errorf("%s/%s: output %s differs from the per-map baseline", c.Name, cfg.Name, part)
					}
				}
				if maxFetches := int64(setup.Workers * c.Reduces); r.Fetches > maxFetches {
					return nil, fmt.Errorf("%s/%s: %d consolidated fetches, want ≤ nodes×reduces = %d", c.Name, cfg.Name, r.Fetches, maxFetches)
				}
			}
			fig.Points = append(fig.Points, Point{
				X: float64(len(fig.Points)), Label: c.Name + "/" + cfg.Name,
				Seconds: map[string]float64{
					"fetches": float64(r.Fetches), "net-MB": r.NetworkMB,
					"shuffle-MB": r.TotalMB, "seconds": r.Seconds,
				},
			})
		}
	}
	return fig, nil
}
