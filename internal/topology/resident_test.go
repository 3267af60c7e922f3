package topology

import (
	"errors"
	"testing"
	"time"

	"mrapid/internal/sim"
)

func transferCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := NewCluster(sim.NewEngine(), Spec{Instance: A3, Workers: 4, Racks: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Every priced read in the repository is one Transfer. The table pins, per
// shape, which devices it charges and when it completes, against the closed
// forms the five hand-rolled sites it replaced computed: each device is busy
// for bytes/rate, and the completion is the slowest of them.
func TestTransferChargesDevicesByPlacement(t *testing.T) {
	const mib = 1 << 20
	cases := []struct {
		name          string
		src, dst      int // worker indices; workers alternate racks
		disk, wire    int64
		wantNIC, core bool
	}{
		{"same node from memory", 0, 0, 0, 8 * mib, false, false},
		{"same node from disk", 0, 0, 8 * mib, 8 * mib, false, false},
		{"same rack", 0, 2, 8 * mib, 8 * mib, true, false},
		{"same rack from memory", 0, 2, 0, 8 * mib, true, false},
		{"cross rack", 0, 1, 8 * mib, 8 * mib, true, true},
		{"zero bytes", 0, 1, 0, 0, false, false},
		{"codec: disk and wire differ", 0, 1, 8 * mib, 2 * mib, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := transferCluster(t)
			src, dst := c.Workers()[tc.src], c.Workers()[tc.dst]
			if tc.core && src.Rack == dst.Rack {
				t.Fatalf("test topology: %s and %s share a rack", src, dst)
			}
			var want time.Duration
			busy := map[*sim.Device]time.Duration{src.Disk: 0, src.NIC: 0, dst.Disk: 0, dst.NIC: 0, c.CoreSwitch: 0}
			charge := func(d *sim.Device, n int64) {
				busy[d] = d.TransferTime(n)
				want = max(want, busy[d])
			}
			if tc.disk > 0 {
				charge(src.Disk, tc.disk)
			}
			if tc.wantNIC {
				charge(src.NIC, tc.wire)
				charge(dst.NIC, tc.wire)
			}
			if tc.core {
				charge(c.CoreSwitch, tc.wire)
			}
			done := sim.Time(-1)
			c.Transfer(src, dst, tc.disk, tc.wire, func() { done = c.Eng.Now() })
			if done != -1 {
				t.Fatal("Transfer completed synchronously; it must always be an event")
			}
			c.Eng.Run()
			if done != sim.Time(want) {
				t.Errorf("completed at %v, want %v", done, sim.Time(want))
			}
			for d, w := range busy {
				if d.BusyTime() != w {
					t.Errorf("%s busy %v, want %v", d.Name(), d.BusyTime(), w)
				}
			}
		})
	}
}

// The liveness rule and the read protocol, once: a copy lost before the
// read fails after the RPC latency with no device charged; a copy lost
// while the devices are busy fails at completion, the devices charged in
// full; an intact read succeeds at the same instant; the holder-less copy
// is never lost.
func TestResidentReadProtocol(t *testing.T) {
	const n, rpc = 4 << 20, 30 * time.Millisecond
	errLost := errors.New("lost")
	{
		c := transferCluster(t)
		at := sim.Time(-1)
		c.Read(ResidentOn(c.Workers()[0], true), c.Workers()[0], n, rpc, errLost, func(err error) {
			if err != nil {
				t.Errorf("intact read failed: %v", err)
			}
			at = c.Eng.Now()
		})
		c.Eng.Run()
		if at != 0 {
			t.Errorf("read from the holder's own memory completed at %v, want 0", at)
		}
	}
	for _, inMemory := range []bool{false, true} {
		c := transferCluster(t)
		src, dst := c.Workers()[0], c.Workers()[1]
		r := ResidentOn(src, inMemory)
		if !r.Readable() || r.Transport(dst) != "network" {
			t.Fatalf("fresh copy: readable=%v transport=%q", r.Readable(), r.Transport(dst))
		}
		if want := map[bool]string{true: "memory", false: "disk"}[inMemory]; r.Transport(src) != want {
			t.Fatalf("holder-local transport = %q, want %q", r.Transport(src), want)
		}
		full := max(src.NIC.TransferTime(n), c.CoreSwitch.TransferTime(n))
		if !inMemory {
			full = max(full, src.Disk.TransferTime(n))
		}

		// Lost while the devices are busy.
		var got error
		at := sim.Time(-1)
		c.Read(r, dst, n, rpc, errLost, func(err error) { got, at = err, c.Eng.Now() })
		c.Eng.After(full/2, src.Fail)
		c.Eng.Run()
		if got != errLost || at != sim.Time(full) {
			t.Errorf("inMemory=%v, lost mid-read: %v at %v, want %v at %v", inMemory, got, at, errLost, sim.Time(full))
		}
		if dst.NIC.BusyTime() != dst.NIC.TransferTime(n) {
			t.Errorf("inMemory=%v, lost mid-read: reader NIC busy %v, want the whole transfer", inMemory, dst.NIC.BusyTime())
		}

		// Lost before the read — and still lost after the reboot.
		src.Restart()
		if r.Readable() {
			t.Fatal("copy survived its holder's reboot")
		}
		start, before := c.Eng.Now(), dst.NIC.BusyTime()
		got, at = nil, -1
		c.Read(r, dst, n, rpc, errLost, func(err error) { got, at = err, c.Eng.Now() })
		c.Eng.Run()
		if got != errLost || at != start.Add(rpc) {
			t.Errorf("inMemory=%v, lost before the read: %v at %v, want %v at %v", inMemory, got, at, errLost, start.Add(rpc))
		}
		if dst.NIC.BusyTime() != before {
			t.Errorf("inMemory=%v: a refused read charged the reader's NIC", inMemory)
		}
	}
	if !(Resident{}).Readable() || !(Resident{InMemory: true}).Readable() {
		t.Error("a holder-less copy must always be readable")
	}
}

func TestBudgetAdmitRefund(t *testing.T) {
	b := Budget{Cap: 100}
	if !b.Admit(60) || b.Admit(41) || !b.Admit(40) || !b.Admit(0) {
		t.Fatalf("admissions against cap 100 went wrong, used = %d", b.Used())
	}
	if b.Used() != 100 || b.Over() {
		t.Fatalf("used = %d over = %v, want 100 and not over", b.Used(), b.Over())
	}
	b.Hold(1)
	if !b.Over() {
		t.Fatal("a forced hold past the cap is not Over")
	}
	b.Refund(101)
	if b.Used() != 0 {
		t.Fatalf("used = %d after refunding everything", b.Used())
	}
}
