package mapreduce

import (
	"sync"

	"mrapid/internal/hdfs"
)

// JarPath and ConfPath name the job artifacts a client uploads to HDFS.
func JarPath(spec *JobSpec) string  { return "/staging/" + spec.Name + "/job.jar" }
func ConfPath(spec *JobSpec) string { return "/staging/" + spec.Name + "/job.xml" }

// stagingZeros is the one immutable all-zero buffer every staged job
// artifact in the process is a view of (see UploadArtifacts). It only
// grows, under mu, when some runtime's Params ask for more bytes than it
// holds; views of a smaller buffer stay valid, since nothing writes to it.
var stagingZeros struct {
	mu  sync.Mutex
	buf []byte
}

// zeros returns n zero bytes, capacity-clipped, as a view of stagingZeros.
func zeros(n int64) []byte {
	stagingZeros.mu.Lock()
	defer stagingZeros.mu.Unlock()
	if int64(len(stagingZeros.buf)) < n {
		stagingZeros.buf = make([]byte, n)
	}
	return stagingZeros.buf[:n:n]
}

// UploadArtifacts stages the job jar and configuration into HDFS from the
// client (master) node, charged as real writes — step 1 of the flow. A
// resubmission of the same job name replaces the previous staging files
// (each submission pays the upload, as each Hadoop job ID stages afresh).
//
// The artifacts carry a size, not content: nothing ever looks inside a jar,
// so both files are capacity-clipped views of one process-wide zero buffer.
// HDFS blocks alias the bytes they are given, Append copies before it grows
// a block and readers treat what they get as immutable, so the views charge,
// place and digest exactly as freshly allocated buffers would while no job
// and no runtime allocates or pins its own megabytes.
func (rt *Runtime) UploadArtifacts(spec *JobSpec, done func(error)) {
	for _, name := range []string{JarPath(spec), ConfPath(spec)} {
		if rt.DFS.Exists(name) {
			if err := rt.DFS.Delete(name); err != nil {
				rt.Eng.After(0, func() { done(err) })
				return
			}
		}
	}
	jar, conf := zeros(rt.Params.JobJarBytes), zeros(rt.Params.JobConfBytes)
	rt.DFS.Write(JarPath(spec), jar, rt.Cluster.Master(), func(_ *hdfs.File, err error) {
		if err != nil {
			done(err)
			return
		}
		rt.DFS.Write(ConfPath(spec), conf, rt.Cluster.Master(), func(_ *hdfs.File, err2 error) {
			done(err2)
		})
	})
}
