package topology

import (
	"time"

	"mrapid/internal/sim"
)

// Transfer prices moving bytes from src to dst: diskBytes come off src's
// disk and, between two different nodes, wireBytes cross src's NIC, dst's
// NIC and — across racks — the core switch, all in parallel. done fires when
// the slowest device finishes, or as the next event when nothing was
// charged. The devices are enqueued in exactly that order: event sequence
// numbers, and so every tie between same-instant events downstream, depend
// on it.
func (c *Cluster) Transfer(src, dst *Node, diskBytes, wireBytes int64, done func()) {
	if diskBytes <= 0 && (src == dst || wireBytes <= 0) {
		c.Eng.After(0, done) // what an empty join does, without building one
		return
	}
	j := sim.NewJoin(c.Eng, done)
	c.Charge(j, src, dst, diskBytes, wireBytes)
	j.Arm()
}

// Charge is Transfer's device sequence on a join the caller owns, for reads
// that complete only when several transfers have (a multi-block HDFS range).
func (c *Cluster) Charge(j *sim.Join, src, dst *Node, diskBytes, wireBytes int64) {
	if diskBytes > 0 {
		j.Use(src.Disk, diskBytes)
	}
	if src != dst && wireBytes > 0 {
		j.Use(src.NIC, wireBytes)
		j.Use(dst.NIC, wireBytes)
		if src.Rack != dst.Rack {
			j.Use(c.CoreSwitch, wireBytes)
		}
	}
}

// Resident records where the one unreplicated copy of some bytes lives: the
// holder node, the holder's boot epoch when the bytes landed, and whether
// they sit in its memory or on its local disk. Map outputs, intermediate-
// store files and memo-cache entries all carry one. The zero Resident has
// no holder: nothing is stored on any one machine (an empty file, or the
// memo service's replicated RAM), so nothing can be lost.
type Resident struct {
	Node     *Node
	Epoch    int
	InMemory bool
}

// ResidentOn records a copy landing on n now.
func ResidentOn(n *Node, inMemory bool) Resident {
	return Resident{Node: n, Epoch: n.Epoch(), InMemory: inMemory}
}

// Readable is the one liveness rule for stored bytes: the holder is up and
// has not rebooted since they landed. A holder-less copy is always readable.
func (r Resident) Readable() bool { return r.Node == nil || r.Node.AliveEpoch(r.Epoch) }

// Transport classifies how a read by dst moves — "memory" (the holder's own
// heap), "disk" (its local disk) or "network" — the label on
// mapreduce_shuffle_bytes.
func (r Resident) Transport(dst *Node) string {
	switch {
	case r.Node != dst:
		return "network"
	case r.InMemory:
		return "memory"
	default:
		return "disk"
	}
}

// Read prices dst reading n bytes of the copy; done receives nil, or lost
// when the holder died. A copy already lost fails after rpc (the refused
// connection); otherwise the bytes move — off the holder's disk unless they
// are in memory, over the wire unless dst is the holder — and a holder lost
// meanwhile fails the read at completion, the devices still charged like a
// connection that dropped partway.
func (c *Cluster) Read(r Resident, dst *Node, n int64, rpc time.Duration, lost error, done func(error)) {
	if !r.Readable() {
		c.Eng.After(rpc, func() { done(lost) })
		return
	}
	disk := n
	if r.InMemory {
		disk = 0
	}
	c.Transfer(r.Node, dst, disk, n, func() {
		if !r.Readable() {
			done(lost)
			return
		}
		done(nil)
	})
}

// Budget bounds the bytes a store holds in one tier. Admit takes n bytes if
// they fit; Hold takes them regardless, for a store that over-commits and
// then evicts until it is no longer Over; Refund gives them back.
type Budget struct {
	Cap  int64
	used int64
}

func (b *Budget) Admit(n int64) bool {
	if b.used+n > b.Cap {
		return false
	}
	b.used += n
	return true
}

func (b *Budget) Hold(n int64)   { b.used += n }
func (b *Budget) Refund(n int64) { b.used -= n }
func (b *Budget) Used() int64    { return b.used }
func (b *Budget) Over() bool     { return b.used > b.Cap }
