package mapreduce

import (
	"errors"
	"fmt"
	"path"
	"runtime"
	"strings"
)

// ErrTaskFailed marks a task attempt that died mid-execution (JVM crash,
// node blip, a panic in user code). ApplicationMasters react the way
// Hadoop's do: the attempt is rescheduled until mapreduce.map.maxattempts is
// exhausted, and then the job fails.
var ErrTaskFailed = errors.New("mapreduce: task attempt failed")

// AttemptError carries the failing attempt's coordinates. When user code
// (map, partitioner, combiner, reduce) panicked, Cause is the panic value and
// At the frame that raised it; both are zero for a scripted crash.
type AttemptError struct {
	Kind    string
	Index   int
	Attempt int
	Cause   any
	At      string
}

func (e *AttemptError) Error() string {
	msg := fmt.Sprintf("mapreduce: %s task %d attempt %d failed", e.Kind, e.Index, e.Attempt)
	if e.Cause != nil {
		msg += fmt.Sprintf(": panic: %v at %s", e.Cause, e.At)
	}
	return msg
}

// Unwrap lets errors.Is(err, ErrTaskFailed) match.
func (e *AttemptError) Unwrap() error { return ErrTaskFailed }

// taskID names one task of a job; attemptID one execution of it.
type taskID struct {
	kind  string // "map" or "reduce"
	index int
}

type attemptID struct {
	taskID
	attempt int
}

// FaultInjector scripts which task attempts crash. A crashed attempt is
// charged its read phase plus the scripted fraction of its compute before the
// failure surfaces, like a real mid-task crash. The zero value scripts
// nothing.
type FaultInjector struct {
	// JobFilter, when non-nil, restricts injection to executions whose
	// output file it accepts. Speculative execution gives each racing mode
	// a distinct temporary output prefix, so a filter on the output file
	// can crash exactly one mode of a race.
	JobFilter func(outputFile string) bool

	// Injected counts failures actually delivered.
	Injected int64

	script map[attemptID]float64
}

// Fail scripts attempt attempt of task (kind, index) — kind is "map" or
// "reduce" — to crash once it has done the fraction point of its compute.
func (fi *FaultInjector) Fail(kind string, index, attempt int, point float64) {
	if point < 0 || point >= 1 {
		panic("mapreduce: failure point must be within [0,1)")
	}
	if fi.script == nil {
		fi.script = make(map[attemptID]float64)
	}
	fi.script[attemptID{taskID{kind, index}, attempt}] = point
}

// crashPoint reports whether attempt id of the job writing outputFile is
// scripted to crash, and at which fraction of its compute.
func (fi *FaultInjector) crashPoint(outputFile string, id attemptID) (point float64, crash bool) {
	if fi == nil || fi.JobFilter != nil && !fi.JobFilter(outputFile) {
		return 0, false
	}
	point, crash = fi.script[id]
	return point, crash
}

// contain runs body, an attempt's user code, when the attempt's compute
// timer fires, and reports how the attempt died instead: scripted to crash
// there (body never runs), or body panicked — bad user code fails its
// attempt, not the process. failAttempt stamps the error with the attempt's
// coordinates.
func contain[T any](crash bool, body func() T) (v T, died *AttemptError) {
	if crash {
		return v, &AttemptError{}
	}
	defer func() {
		if p := recover(); p != nil {
			died = &AttemptError{Cause: p, At: raiser()}
		}
	}()
	return body(), nil
}

// raiser names the frame that raised the panic being recovered — the first
// one past runtime.gopanic outside the runtime — as function (file:line).
// No stack and no directory: a trace must not depend on where the code was
// built or loaded.
func raiser() string {
	var pcs [32]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs[:])])
	for past := false; ; {
		f, more := frames.Next()
		if past && !strings.HasPrefix(f.Function, "runtime.") || !more {
			return fmt.Sprintf("%s (%s:%d)", f.Function, path.Base(f.File), f.Line)
		}
		past = past || f.Function == "runtime.gopanic"
	}
}
