// Package sdram models an SDR/DDR SDRAM device at the command level: banks
// with open-row state, the command set the paper's LMI controller generates
// (precharge, activate, read, write, auto-refresh) and the JEDEC-style
// timing constraints (tRCD, tCAS, tRP, tRAS, tRC, tWR, tRFC, tREFI) that the
// controller's scheduler must respect.
//
// The device is passive bookkeeping: the memory controller asks whether a
// command is legal at the current cycle (CanX) and then commits it (X). Time
// is the controller-clock cycle count passed in by the caller, so the device
// needs no clock of its own.
package sdram

import "fmt"

// Timing holds the device timing constraints in controller-clock cycles.
type Timing struct {
	TRCD int // activate to read/write delay
	TCAS int // read command to first data
	TRP  int // precharge to activate delay
	TRAS int // activate to precharge minimum
	TRC  int // activate to activate (same bank) minimum
	TWR  int // write recovery before precharge
	TRFC int // auto-refresh cycle time
	// TREFI is the average refresh interval; the controller must issue
	// one auto-refresh at least this often.
	TREFI int
}

// DDR2_400Like returns timing numbers representative of the DDR SDRAM
// behind a mid-2000s LMI, expressed in 133-200 MHz controller cycles.
func DDR2_400Like() Timing {
	return Timing{TRCD: 3, TCAS: 3, TRP: 3, TRAS: 8, TRC: 11, TWR: 3, TRFC: 21, TREFI: 1560}
}

// Geometry describes the address organization.
type Geometry struct {
	Banks       int
	RowBits     int
	ColBits     int
	BytesPerCol int
}

// DefaultGeometry is a 4-bank device with 8 KiB rows of 8-byte columns.
func DefaultGeometry() Geometry {
	return Geometry{Banks: 4, RowBits: 13, ColBits: 10, BytesPerCol: 8}
}

// Config combines timing, geometry and the data-rate mode.
type Config struct {
	Timing   Timing
	Geometry Geometry
	// DDR transfers two columns per controller cycle.
	DDR bool
}

// DefaultConfig returns a DDR device with representative timings.
func DefaultConfig() Config {
	return Config{Timing: DDR2_400Like(), Geometry: DefaultGeometry(), DDR: true}
}

// bank tracks one bank's row state and timing fences.
type bank struct {
	openRow        int64 // -1 when precharged
	activateAt     int64 // cycle of last activate
	lastWriteData  int64 // cycle the last write's data finished
	prechargeReady int64 // earliest cycle activate is allowed (after tRP)
}

// Device is one SDRAM device.
type Device struct {
	cfg   Config
	banks []bank
	// bankShift/bankMask and rowShift/rowMask decode an address's bank and
	// row (BankOf, RowOf), computed once from the geometry.
	bankShift, rowShift uint
	bankMask, rowMask   uint64

	// dataFreeAt is the first cycle the shared data bus is free.
	dataFreeAt int64
	// refreshReady is the earliest cycle a new command may issue after an
	// in-progress auto-refresh.
	refreshReady int64
	// refreshDeadline is the cycle by which the next auto-refresh must
	// have been issued.
	refreshDeadline int64

	activates  int64
	precharges int64
	reads      int64
	writes     int64
	refreshes  int64
	rowHits    int64
	rowMisses  int64
}

// Validate reports a geometry the device cannot address with its bit-field
// decode (BankOf, RowOf): a bank count or column width that is not a
// positive power of two, a negative row or column bit count, or more than
// 63 address bits in all.
func (c Config) Validate() error {
	g := c.Geometry
	if g.Banks <= 0 || !isPow2(g.Banks) {
		return fmt.Errorf("sdram: need a power-of-two number of banks, got %d", g.Banks)
	}
	if g.BytesPerCol <= 0 || !isPow2(g.BytesPerCol) {
		return fmt.Errorf("sdram: BytesPerCol must be a positive power of two, got %d", g.BytesPerCol)
	}
	if g.RowBits < 0 || g.ColBits < 0 {
		return fmt.Errorf("sdram: RowBits and ColBits must not be negative, got %d and %d", g.RowBits, g.ColBits)
	}
	// The first two tests keep the sum from overflowing.
	if g.ColBits > 63 || g.RowBits > 63 || int(log2(g.BytesPerCol))+g.ColBits+int(log2(g.Banks))+g.RowBits > 63 {
		return fmt.Errorf("sdram: column, bank and row address bits exceed 63 (%d bytes per column, ColBits %d, %d banks, RowBits %d)",
			g.BytesPerCol, g.ColBits, g.Banks, g.RowBits)
	}
	return nil
}

func isPow2(v int) bool { return v&(v-1) == 0 }

// New builds a device; all banks start precharged. It panics on a config
// Validate rejects.
func New(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := cfg.Geometry
	d := &Device{cfg: cfg, banks: make([]bank, g.Banks)}
	d.bankShift = log2(g.BytesPerCol) + uint(g.ColBits)
	d.bankMask = uint64(g.Banks - 1)
	d.rowShift = d.bankShift + log2(g.Banks)
	d.rowMask = 1<<uint(g.RowBits) - 1
	for i := range d.banks {
		// Start every timing fence far in the past so cycle-0 commands
		// are legal on a fresh device.
		past := -int64(cfg.Timing.TRC + cfg.Timing.TRFC + 1)
		d.banks[i] = bank{openRow: -1, activateAt: past, lastWriteData: past, prechargeReady: 0}
	}
	d.refreshDeadline = int64(cfg.Timing.TREFI)
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// BankOf returns the bank index addr maps to (bank bits above the column
// bits, the usual bank-interleaved mapping that spreads sequential bursts).
func (d *Device) BankOf(addr uint64) int { return int((addr >> d.bankShift) & d.bankMask) }

// RowOf returns the row index addr maps to (the row bits above the bank
// bits).
func (d *Device) RowOf(addr uint64) int64 { return int64((addr >> d.rowShift) & d.rowMask) }

// log2 returns the base-2 logarithm of a power of two.
func log2(v int) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// OpenRow returns the open row of the bank (-1 if precharged).
func (d *Device) OpenRow(bankIdx int) int64 { return d.banks[bankIdx].openRow }

// IsRowHit reports whether addr's row is open in its bank.
func (d *Device) IsRowHit(addr uint64) bool {
	return d.banks[d.BankOf(addr)].openRow == d.RowOf(addr)
}

// RefreshDue reports whether the refresh deadline has passed at now.
func (d *Device) RefreshDue(now int64) bool { return now >= d.refreshDeadline }

// CanActivate reports whether an activate to the bank is legal at now.
func (d *Device) CanActivate(bankIdx int, now int64) bool {
	if now < d.refreshReady {
		return false
	}
	b := &d.banks[bankIdx]
	if b.openRow != -1 {
		return false // must precharge first
	}
	if now < b.prechargeReady {
		return false // tRP not elapsed
	}
	if now < b.activateAt+int64(d.cfg.Timing.TRC) {
		return false // tRC not elapsed
	}
	return true
}

// Activate opens row in the bank. It panics on an illegal command — the
// controller must check CanActivate.
func (d *Device) Activate(bankIdx int, row int64, now int64) {
	if !d.CanActivate(bankIdx, now) {
		panic(fmt.Sprintf("sdram: illegal ACTIVATE bank %d at %d", bankIdx, now))
	}
	b := &d.banks[bankIdx]
	b.openRow = row
	b.activateAt = now
	d.activates++
}

// CanPrecharge reports whether a precharge of the bank is legal at now.
func (d *Device) CanPrecharge(bankIdx int, now int64) bool {
	if now < d.refreshReady {
		return false
	}
	b := &d.banks[bankIdx]
	if b.openRow == -1 {
		return true // NOP precharge is legal
	}
	if now < b.activateAt+int64(d.cfg.Timing.TRAS) {
		return false // tRAS not satisfied
	}
	if now < b.lastWriteData+int64(d.cfg.Timing.TWR) {
		return false // write recovery
	}
	return true
}

// Precharge closes the bank's row.
func (d *Device) Precharge(bankIdx int, now int64) {
	if !d.CanPrecharge(bankIdx, now) {
		panic(fmt.Sprintf("sdram: illegal PRECHARGE bank %d at %d", bankIdx, now))
	}
	b := &d.banks[bankIdx]
	if b.openRow != -1 {
		d.precharges++
	}
	b.openRow = -1
	b.prechargeReady = now + int64(d.cfg.Timing.TRP)
}

// CanAccess reports whether a read or write of cols columns at addr is legal
// at now (row open, tRCD satisfied, data bus free).
func (d *Device) CanAccess(addr uint64, now int64) bool {
	if now < d.refreshReady {
		return false
	}
	b := &d.banks[d.BankOf(addr)]
	if b.openRow != d.RowOf(addr) {
		return false
	}
	if now < b.activateAt+int64(d.cfg.Timing.TRCD) {
		return false
	}
	return now >= d.dataFreeAt
}

// Access performs a read or write burst of cols columns and returns the
// cycle of the first data transfer and the number of data-bus cycles the
// burst occupies. write selects the direction.
func (d *Device) Access(addr uint64, cols int, write bool, now int64) (firstData, busCycles int64) {
	if cols <= 0 {
		panic("sdram: access with no columns")
	}
	if !d.CanAccess(addr, now) {
		panic(fmt.Sprintf("sdram: illegal access @%#x at %d", addr, now))
	}
	bk := &d.banks[d.BankOf(addr)]
	per := int64(cols)
	if d.cfg.DDR {
		per = (per + 1) / 2
	}
	firstData = now + int64(d.cfg.Timing.TCAS)
	d.dataFreeAt = firstData + per
	if write {
		bk.lastWriteData = firstData + per
		d.writes++
	} else {
		d.reads++
	}
	return firstData, per
}

// CanRefresh reports whether an auto-refresh is legal at now (all banks
// precharged).
func (d *Device) CanRefresh(now int64) bool {
	if now < d.refreshReady {
		return false
	}
	for i := range d.banks {
		if d.banks[i].openRow != -1 {
			return false
		}
		if now < d.banks[i].prechargeReady {
			return false
		}
	}
	return true
}

// Refresh issues an auto-refresh; all commands are fenced for tRFC.
func (d *Device) Refresh(now int64) {
	if !d.CanRefresh(now) {
		panic(fmt.Sprintf("sdram: illegal REFRESH at %d", now))
	}
	d.refreshReady = now + int64(d.cfg.Timing.TRFC)
	d.refreshDeadline = now + int64(d.cfg.Timing.TREFI)
	d.refreshes++
}

// NoteRowHit/NoteRowMiss let the controller attribute its scheduling
// decisions for statistics.
func (d *Device) NoteRowHit() { d.rowHits++ }

// NoteRowMiss records a row-miss scheduling decision.
func (d *Device) NoteRowMiss() { d.rowMisses++ }

// Stats reports device activity.
func (d *Device) Stats() Stats {
	return Stats{
		Activates:  d.activates,
		Precharges: d.precharges,
		Reads:      d.reads,
		Writes:     d.writes,
		Refreshes:  d.refreshes,
		RowHits:    d.rowHits,
		RowMisses:  d.rowMisses,
	}
}

// Stats summarizes command counts.
type Stats struct {
	Activates  int64
	Precharges int64
	Reads      int64
	Writes     int64
	Refreshes  int64
	RowHits    int64
	RowMisses  int64
}

// HitRate returns the row-hit fraction of attributed accesses.
func (s Stats) HitRate() float64 {
	tot := s.RowHits + s.RowMisses
	if tot == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(tot)
}
