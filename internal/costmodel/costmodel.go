// Package costmodel centralizes every framework time constant charged to the
// virtual clock: heartbeat periods, container and JVM launch costs, RPC
// latencies, and the MapReduce runtime's buffer sizes. Workload compute
// rates live with the workloads; device (disk/NIC) rates live with the
// instance types. Keeping the knobs in one struct makes experiments and
// ablations explicit about what they vary.
package costmodel

import "time"

// Params is the set of framework cost constants for one simulation. The
// zero value is not useful; start from Default().
type Params struct {
	// NMHeartbeat is the NodeManager → ResourceManager heartbeat period
	// (yarn.resourcemanager.nodemanagers.heartbeat-interval-ms, default 1 s).
	// The stock scheduler can only hand out a node's resources when that
	// node's heartbeat arrives, which is the latency D+ removes.
	NMHeartbeat time.Duration

	// AMHeartbeat is the ApplicationMaster → ResourceManager allocate
	// heartbeat period. Stock Hadoop delivers allocations on the heartbeat
	// *after* the one carrying the request; D+ answers in the same beat.
	AMHeartbeat time.Duration

	// RPCLatency is the one-way latency of a direct RPC (client↔RM,
	// AM↔NM start-container, proxy↔AM).
	RPCLatency time.Duration

	// ContainerAllocate is the ResourceManager-side bookkeeping cost to
	// grant one container (small; the waiting dominates).
	ContainerAllocate time.Duration

	// ContainerLaunch is the NodeManager-side cost to localize and start a
	// container before the JVM boots (t^l's non-JVM half).
	ContainerLaunch time.Duration

	// JVMStart is the cost of starting a task JVM inside a fresh container.
	JVMStart time.Duration

	// AMInit is the ApplicationMaster's own initialization after its JVM is
	// up: parsing configuration, registering with the RM, computing splits.
	// The jar/configuration download from HDFS is charged separately as
	// real I/O.
	AMInit time.Duration

	// TaskCommit is the per-task cleanup/commit handshake with the AM.
	TaskCommit time.Duration

	// JobJarBytes and JobConfBytes are the sizes of the artifacts a client
	// uploads to HDFS at submission and every container localizes before
	// running (step 6 of the Hadoop submission flow).
	JobJarBytes  int64
	JobConfBytes int64

	// SortBufferBytes is io.sort.mb: the map-side in-memory sort buffer. A
	// map whose output exceeds it spills multiple times and pays a merge
	// pass (Eq. 1's s^o/d^o + s^o/d^i term).
	SortBufferBytes int64

	// UberCacheBytes is the U+ in-memory intermediate-data budget per job.
	// Below it, map outputs stay in memory and the reduce reads them for
	// free; above it, U+ degrades to spilling like the stock Uber mode
	// (the knee visible in the paper's Figure 7 at 160 MB total input).
	UberCacheBytes int64

	// SortCPUBytesPerSec is the CPU cost of sorting/serializing
	// intermediate data during spill and merge, charged on a core.
	SortCPUBytesPerSec float64

	// HDFSBlockBytes is the HDFS block size. The paper's short jobs use
	// one map per file, each file well under a block, so the default is
	// the Hadoop 2 default of 128 MB.
	HDFSBlockBytes int64

	// Replication is the HDFS replication factor (paper: "HDFS's default
	// replica is three").
	Replication int

	// AMPoolSize is the number of ApplicationMasters the submission
	// framework keeps reserved ("which is 3 by default").
	AMPoolSize int

	// ClientPollInterval is how often a stock Hadoop client polls the job
	// status (mapreduce.client.progressmonitor.pollinterval). A stock
	// submission only observes completion at the next poll tick; the MRapid
	// proxy notifies the client over a direct RPC instead, which is part of
	// the "reducing communication" contribution in the paper's Figures
	// 14–15 ablations.
	ClientPollInterval time.Duration

	// MaxTaskAttempts is how many times a failed task attempt is retried
	// before the job fails (mapreduce.map.maxattempts, default 4).
	MaxTaskAttempts int

	// NMLivenessInterval is how often the RM's liveness monitor scans for
	// NodeManagers that stopped heartbeating
	// (yarn.resourcemanager.nm.liveness-monitor.interval-ms).
	NMLivenessInterval time.Duration

	// NMExpiry is how long a NodeManager may stay silent before the RM
	// declares the node lost and reports its containers to their AMs
	// (yarn.nm.liveness-monitor.expiry-interval-ms; Hadoop defaults to 10
	// min — far longer than a short job — so the simulation uses a few
	// heartbeat periods to keep failure experiments in the same time scale
	// as the jobs).
	NMExpiry time.Duration

	// MaxAMAttempts bounds how many times the framework relaunches a job
	// whose ApplicationMaster was lost to node failure
	// (yarn.resourcemanager.am.max-attempts, default 2).
	MaxAMAttempts int

	// AMContainerMB and AMContainerVCores size the ApplicationMaster
	// container (yarn.app.mapreduce.am.resource.mb / .cpu-vcores). The AM
	// resource is a job-configuration constant, never derived from any
	// particular node's shape — deriving it from Workers()[0] breaks on
	// heterogeneous clusters.
	AMContainerMB     int
	AMContainerVCores int

	// ShuffleService enables the per-node shuffle service
	// (internal/shuffle): committed map outputs register with their node,
	// are merged and re-combined across tasks, and reducers issue one fetch
	// per (node, partition) instead of one per (map, partition). Off by
	// default — stock Hadoop (and the paper's measurements) shuffle per map.
	ShuffleService bool

	// ShuffleCodec names the codec the shuffle service compresses
	// consolidated partitions with before they cross the network: "" or
	// "none" for no compression, "lz" for an LZ-class splittable codec
	// modeled by ShuffleLZRatio and the instance type's compression rates
	// (mapreduce.map.output.compress).
	ShuffleCodec string

	// ShuffleLZRatio is the modeled compressed/raw size ratio of the "lz"
	// codec on shuffled key-value data. Snappy/LZ4-class codecs land near
	// half size on the text-heavy intermediate data of the paper's
	// workloads.
	ShuffleLZRatio float64

	// MemoCache enables the cross-job memoization cache (internal/memo): a
	// repeat submission of an identical job spec over unchanged inputs
	// (same transform symbols, parameters, and input write generations) is
	// served from the cached output — no AM, no containers — under the
	// "memo" transport label. Off by default; the served bytes are the
	// committed output verbatim, so results are byte-identical either way.
	MemoCache bool

	// MemoMemBytes bounds the memoization cache's memory tier (the cache
	// service's replicated RAM, always readable); MemoDiskBytes bounds the
	// disk tier entries demote to (a single copy on one worker's local
	// disk, lost with the node). Zero means the 256 MB / 1 GB defaults.
	MemoMemBytes  int64
	MemoDiskBytes int64
}

// Default returns the calibrated baseline used by all experiments. Values
// follow Hadoop 2.2 defaults where one exists and 2013-era measurements
// otherwise.
func Default() Params {
	return Params{
		NMHeartbeat:        1000 * time.Millisecond,
		AMHeartbeat:        1000 * time.Millisecond,
		RPCLatency:         30 * time.Millisecond,
		ContainerAllocate:  20 * time.Millisecond,
		ContainerLaunch:    800 * time.Millisecond,
		JVMStart:           1700 * time.Millisecond,
		AMInit:             1500 * time.Millisecond,
		TaskCommit:         100 * time.Millisecond,
		JobJarBytes:        2 << 20,   // 2 MB job jar
		JobConfBytes:       64 << 10,  // 64 KB configuration
		SortBufferBytes:    100 << 20, // io.sort.mb = 100
		UberCacheBytes:     128 << 20,
		SortCPUBytesPerSec: 120e6,
		HDFSBlockBytes:     128 << 20,
		Replication:        3,
		AMPoolSize:         3,
		ClientPollInterval: 1000 * time.Millisecond,
		MaxTaskAttempts:    4,
		NMLivenessInterval: 1000 * time.Millisecond,
		NMExpiry:           5000 * time.Millisecond,
		MaxAMAttempts:      2,
		AMContainerMB:      1024,
		AMContainerVCores:  1,
		ShuffleService:     false,
		ShuffleCodec:       "none",
		ShuffleLZRatio:     0.55,
		MemoCache:          false,
		MemoMemBytes:       256 << 20,
		MemoDiskBytes:      1 << 30,
	}
}

// ContainerStart returns the full cost of bringing up a task in a fresh
// container: the launch plus the JVM boot (the paper's t^l).
func (p Params) ContainerStart() time.Duration {
	return p.ContainerLaunch + p.JVMStart
}

// Validate reports whether the parameters are internally consistent.
func (p Params) Validate() error {
	switch {
	case p.NMHeartbeat <= 0:
		return errBad("NMHeartbeat")
	case p.AMHeartbeat <= 0:
		return errBad("AMHeartbeat")
	case p.SortBufferBytes <= 0:
		return errBad("SortBufferBytes")
	case p.UberCacheBytes < 0:
		return errBad("UberCacheBytes")
	case p.SortCPUBytesPerSec <= 0:
		return errBad("SortCPUBytesPerSec")
	case p.HDFSBlockBytes <= 0:
		return errBad("HDFSBlockBytes")
	case p.Replication <= 0:
		return errBad("Replication")
	case p.AMPoolSize < 0:
		return errBad("AMPoolSize")
	case p.ClientPollInterval <= 0:
		return errBad("ClientPollInterval")
	case p.MaxTaskAttempts <= 0:
		return errBad("MaxTaskAttempts")
	case p.NMLivenessInterval <= 0:
		return errBad("NMLivenessInterval")
	case p.NMExpiry < p.NMHeartbeat:
		return errBad("NMExpiry") // would expire nodes between healthy heartbeats
	case p.MaxAMAttempts <= 0:
		return errBad("MaxAMAttempts")
	case p.AMContainerMB <= 0:
		return errBad("AMContainerMB")
	case p.AMContainerVCores <= 0:
		return errBad("AMContainerVCores")
	case p.ShuffleCodec != "" && p.ShuffleCodec != "none" && p.ShuffleCodec != "lz":
		return errBad("ShuffleCodec")
	case p.ShuffleCodec == "lz" && (p.ShuffleLZRatio <= 0 || p.ShuffleLZRatio > 1):
		return errBad("ShuffleLZRatio")
	case p.MemoMemBytes < 0:
		return errBad("MemoMemBytes")
	case p.MemoDiskBytes < 0:
		return errBad("MemoDiskBytes")
	}
	return nil
}

type errBad string

func (e errBad) Error() string { return "costmodel: invalid parameter " + string(e) }
