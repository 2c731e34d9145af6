package sdram

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func dev() *Device { return New(DefaultConfig()) }

func TestAddressMapping(t *testing.T) {
	d := dev()
	g := d.Config().Geometry
	// consecutive columns stay in the same row/bank
	a0, a1 := uint64(0), uint64(g.BytesPerCol)
	if d.BankOf(a0) != d.BankOf(a1) || d.RowOf(a0) != d.RowOf(a1) {
		t.Fatal("adjacent columns must share bank and row")
	}
	// stepping past the column range changes bank (bank-interleaved)
	rowBytes := uint64(1<<uint(g.ColBits)) * uint64(g.BytesPerCol)
	if d.BankOf(0) == d.BankOf(rowBytes) {
		t.Fatal("bank interleave expected at row-size stride")
	}
	// stepping past banks*rowsize changes row, same bank
	bigStride := rowBytes * uint64(g.Banks)
	if d.BankOf(0) != d.BankOf(bigStride) {
		t.Fatal("same bank expected")
	}
	if d.RowOf(0) == d.RowOf(bigStride) {
		t.Fatal("different row expected")
	}
}

func TestActivateReadSequence(t *testing.T) {
	d := dev()
	tm := d.Config().Timing
	addr := uint64(0x1000)
	bk, row := d.BankOf(addr), d.RowOf(addr)
	now := int64(100)
	if !d.CanActivate(bk, now) {
		t.Fatal("fresh bank must accept activate")
	}
	d.Activate(bk, row, now)
	if d.OpenRow(bk) != row {
		t.Fatal("row not open")
	}
	if d.CanAccess(addr, now+int64(tm.TRCD)-1) {
		t.Fatal("access before tRCD must be illegal")
	}
	if !d.CanAccess(addr, now+int64(tm.TRCD)) {
		t.Fatal("access at tRCD must be legal")
	}
	first, busCycles := d.Access(addr, 8, false, now+int64(tm.TRCD))
	if first != now+int64(tm.TRCD)+int64(tm.TCAS) {
		t.Fatalf("first data at %d", first)
	}
	if busCycles != 4 { // DDR: 8 cols / 2
		t.Fatalf("bus cycles = %d, want 4", busCycles)
	}
}

func TestSDRModeBusCycles(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DDR = false
	d := New(cfg)
	addr := uint64(0)
	d.Activate(d.BankOf(addr), d.RowOf(addr), 0)
	_, busCycles := d.Access(addr, 8, false, int64(cfg.Timing.TRCD))
	if busCycles != 8 {
		t.Fatalf("SDR bus cycles = %d, want 8", busCycles)
	}
}

func TestRowMissRequiresPrecharge(t *testing.T) {
	d := dev()
	tm := d.Config().Timing
	g := d.Config().Geometry
	rowStride := uint64(1<<uint(g.ColBits)) * uint64(g.BytesPerCol) * uint64(g.Banks)
	a, b := uint64(0), rowStride // same bank, different rows
	bk := d.BankOf(a)
	d.Activate(bk, d.RowOf(a), 0)
	if d.CanActivate(bk, 100) {
		t.Fatal("activate with open row must be illegal")
	}
	if d.CanPrecharge(bk, int64(tm.TRAS)-1) {
		t.Fatal("precharge before tRAS must be illegal")
	}
	now := int64(tm.TRAS)
	d.Precharge(bk, now)
	if d.OpenRow(bk) != -1 {
		t.Fatal("row still open after precharge")
	}
	if d.CanActivate(bk, now+int64(tm.TRP)-1) {
		t.Fatal("activate before tRP must be illegal")
	}
	// also respect tRC from the first activate
	earliest := now + int64(tm.TRP)
	if int64(tm.TRC) > earliest {
		earliest = int64(tm.TRC)
	}
	if !d.CanActivate(bk, earliest) {
		t.Fatal("activate should be legal after tRP and tRC")
	}
	d.Activate(bk, d.RowOf(b), earliest)
}

func TestWriteRecoveryBlocksPrecharge(t *testing.T) {
	d := dev()
	tm := d.Config().Timing
	addr := uint64(0)
	bk := d.BankOf(addr)
	d.Activate(bk, d.RowOf(addr), 0)
	wNow := int64(tm.TRCD)
	first, busCycles := d.Access(addr, 4, true, wNow)
	dataEnd := first + busCycles
	if d.CanPrecharge(bk, dataEnd+int64(tm.TWR)-1) {
		t.Fatal("precharge before write recovery must be illegal")
	}
	minPre := dataEnd + int64(tm.TWR)
	if int64(tm.TRAS) > minPre {
		minPre = int64(tm.TRAS)
	}
	if !d.CanPrecharge(bk, minPre) {
		t.Fatal("precharge should be legal after tWR and tRAS")
	}
}

func TestDataBusConflict(t *testing.T) {
	d := dev()
	tm := d.Config().Timing
	// open rows in two banks
	g := d.Config().Geometry
	rowBytes := uint64(1<<uint(g.ColBits)) * uint64(g.BytesPerCol)
	a, b := uint64(0), rowBytes // different banks
	if d.BankOf(a) == d.BankOf(b) {
		t.Fatal("test setup: expected different banks")
	}
	d.Activate(d.BankOf(a), d.RowOf(a), 0)
	d.Activate(d.BankOf(b), d.RowOf(b), 1)
	now := int64(tm.TRCD) + 1
	_, busCycles := d.Access(a, 8, false, now)
	// the second access must wait for the data bus
	if d.CanAccess(b, now+1) {
		t.Fatal("data bus conflict not detected")
	}
	if !d.CanAccess(b, now+int64(tm.TCAS)+busCycles) {
		t.Fatal("access should be legal once the data bus frees")
	}
}

func TestRefreshCycle(t *testing.T) {
	d := dev()
	tm := d.Config().Timing
	if d.RefreshDue(0) {
		t.Fatal("refresh must not be due at reset")
	}
	if !d.RefreshDue(int64(tm.TREFI)) {
		t.Fatal("refresh must be due at tREFI")
	}
	// refresh illegal with open row
	d.Activate(0, 5, 0)
	if d.CanRefresh(int64(tm.TRAS) + 1) {
		t.Fatal("refresh with open row must be illegal")
	}
	d.Precharge(0, int64(tm.TRAS))
	rNow := int64(tm.TRAS + tm.TRP)
	if !d.CanRefresh(rNow) {
		t.Fatal("refresh should be legal with all banks precharged")
	}
	d.Refresh(rNow)
	if d.CanActivate(0, rNow+int64(tm.TRFC)-1) {
		t.Fatal("activate during tRFC must be illegal")
	}
	if !d.CanActivate(0, rNow+int64(tm.TRFC)) {
		t.Fatal("activate after tRFC should be legal")
	}
	if d.Stats().Refreshes != 1 {
		t.Fatal("refresh not counted")
	}
}

func TestIsRowHitAndStats(t *testing.T) {
	d := dev()
	addr := uint64(0x2000)
	if d.IsRowHit(addr) {
		t.Fatal("no row open yet")
	}
	d.Activate(d.BankOf(addr), d.RowOf(addr), 0)
	if !d.IsRowHit(addr) {
		t.Fatal("row hit expected")
	}
	d.NoteRowHit()
	d.NoteRowMiss()
	s := d.Stats()
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
	if s.Activates != 1 {
		t.Fatalf("activates = %d", s.Activates)
	}
}

func TestHitRateEmpty(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("empty hit rate must be 0")
	}
}

func TestIllegalCommandsPanic(t *testing.T) {
	cases := []struct {
		name string
		f    func(d *Device)
	}{
		{"activate-open-bank", func(d *Device) { d.Activate(0, 1, 0); d.Activate(0, 2, 1) }},
		{"access-closed-row", func(d *Device) { d.Access(0, 4, false, 0) }},
		{"early-precharge", func(d *Device) { d.Activate(0, 1, 0); d.Precharge(0, 1) }},
		{"early-refresh", func(d *Device) { d.Activate(0, 1, 0); d.Refresh(1) }},
		{"zero-cols", func(d *Device) {
			d.Activate(0, 0, 0)
			d.Access(0, 0, false, int64(d.Config().Timing.TRCD))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.f(dev())
		})
	}
}

// TestNewPanicsOnBadGeometry requires Validate to reject, and New to panic
// on, every geometry the bit-field decode cannot address; and both to
// accept the extremes it can.
func TestNewPanicsOnBadGeometry(t *testing.T) {
	geom := func(edit func(g *Geometry)) Config {
		c := DefaultConfig()
		edit(&c.Geometry)
		return c
	}
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"no-banks", Config{Geometry: Geometry{Banks: 0, BytesPerCol: 8}}, "banks"},
		{"3-banks", geom(func(g *Geometry) { g.Banks = 3 }), "power-of-two number of banks"},
		{"negative-banks", geom(func(g *Geometry) { g.Banks = -4 }), "banks"},
		{"no-column-bytes", geom(func(g *Geometry) { g.BytesPerCol = 0 }), "BytesPerCol"},
		{"6-column-bytes", geom(func(g *Geometry) { g.BytesPerCol = 6 }), "BytesPerCol"},
		{"negative-row-bits", geom(func(g *Geometry) { g.RowBits = -1 }), "RowBits"},
		{"negative-column-bits", geom(func(g *Geometry) { g.ColBits = -1 }), "ColBits"},
		{"64-address-bits", geom(func(g *Geometry) { g.RowBits = 64 - 3 - 10 - 2 }), "exceed 63"},
		{"huge-row-and-column-bits", geom(func(g *Geometry) { g.RowBits, g.ColBits = math.MaxInt, math.MaxInt }), "exceed 63"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate returned %v, want an error mentioning %q", err, c.want)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("New did not panic")
				}
			}()
			New(c.cfg)
		})
	}
	for _, g := range []Geometry{
		DefaultGeometry(),
		{Banks: 1, RowBits: 0, ColBits: 0, BytesPerCol: 1},
		{Banks: 8, RowBits: 63 - 3 - 10 - 3, ColBits: 10, BytesPerCol: 8},
	} {
		if err := (Config{Timing: DDR2_400Like(), Geometry: g}).Validate(); err != nil {
			t.Errorf("geometry %+v rejected: %v", g, err)
		}
	}
}

// TestDecodeMatchesArithmetic holds the shift-and-mask bank and row decode to
// its arithmetic definition: the bank is the address above the column bits
// modulo the bank count, the row the address above the bank bits modulo the
// row count.
func TestDecodeMatchesArithmetic(t *testing.T) {
	for _, g := range []Geometry{
		DefaultGeometry(),
		{Banks: 8, RowBits: 14, ColBits: 9, BytesPerCol: 4},
		{Banks: 1, RowBits: 3, ColBits: 2, BytesPerCol: 16},
		{Banks: 2, RowBits: 40, ColBits: 12, BytesPerCol: 2},
	} {
		d := New(Config{Timing: DDR2_400Like(), Geometry: g})
		colBytes := uint64(g.BytesPerCol) << uint(g.ColBits)
		rows := uint64(1) << uint(g.RowBits)
		prop := func(addr uint64) bool {
			bank := addr / colBytes % uint64(g.Banks)
			row := addr / colBytes / uint64(g.Banks) % rows
			return d.BankOf(addr) == int(bank) && d.RowOf(addr) == int64(row)
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("geometry %+v: %v", g, err)
		}
	}
}

// Property: a controller loop that always consults Can* before issuing never
// triggers a panic and always makes forward progress.
func TestPropertyLegalScheduleProgress(t *testing.T) {
	prop := func(seed uint64) bool {
		d := dev()
		tm := d.Config().Timing
		rng := newRand(seed)
		now := int64(0)
		served := 0
		var pendingAddr uint64
		havePending := false
		for step := 0; step < 5000 && served < 50; step++ {
			if !havePending {
				pendingAddr = uint64(rng.next() % (1 << 26))
				havePending = true
			}
			bk := d.BankOf(pendingAddr)
			switch {
			case d.RefreshDue(now) && d.CanRefresh(now):
				d.Refresh(now)
			case d.RefreshDue(now):
				// close all banks for refresh
				for i := 0; i < d.Config().Geometry.Banks; i++ {
					if d.OpenRow(i) != -1 && d.CanPrecharge(i, now) {
						d.Precharge(i, now)
					}
				}
			case d.IsRowHit(pendingAddr) && d.CanAccess(pendingAddr, now):
				d.Access(pendingAddr, 1+int(rng.next()%8), rng.next()%2 == 0, now)
				served++
				havePending = false
			case d.OpenRow(bk) == -1 && d.CanActivate(bk, now):
				d.Activate(bk, d.RowOf(pendingAddr), now)
			case d.OpenRow(bk) != -1 && d.OpenRow(bk) != d.RowOf(pendingAddr) && d.CanPrecharge(bk, now):
				d.Precharge(bk, now)
			}
			now++
		}
		_ = tm
		return served >= 50
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// minimal local PRNG to avoid importing sim into this leaf package's tests
type xrand struct{ s uint64 }

func newRand(seed uint64) *xrand { return &xrand{s: seed | 1} }

func (r *xrand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}
