package interp

import (
	"testing"

	"ltsp/internal/ir"
)

func TestSelSemantics(t *testing.T) {
	s := NewState()
	s.GR[4], s.GR[5] = 111, 222
	s.PR[6] = true
	s.Exec(ir.Sel(ir.GR(7), ir.PR(6), ir.GR(4), ir.GR(5)))
	if s.GR[7] != 111 {
		t.Errorf("sel true = %d", s.GR[7])
	}
	s.PR[6] = false
	s.Exec(ir.Sel(ir.GR(7), ir.PR(6), ir.GR(4), ir.GR(5)))
	if s.GR[7] != 222 {
		t.Errorf("sel false = %d", s.GR[7])
	}
}

func TestFSelSemantics(t *testing.T) {
	s := NewState()
	s.FR[4], s.FR[5] = 1.5, 2.5
	s.PR[6] = true
	s.Exec(ir.FSel(ir.FR(7), ir.PR(6), ir.FR(4), ir.FR(5)))
	if s.FR[7] != 1.5 {
		t.Errorf("fsel true = %v", s.FR[7])
	}
}

func TestSelPredicatedOff(t *testing.T) {
	// A sel under a false qualifying predicate must not write at all
	// (the if-converter relies on this for nested regions).
	s := NewState()
	s.GR[7] = 999
	s.PR[6] = true  // selector true
	off := ir.PR(5) // qualifying predicate false
	s.Exec(ir.Predicated(off, ir.Sel(ir.GR(7), ir.PR(6), ir.GR(4), ir.GR(5))))
	if s.GR[7] != 999 {
		t.Errorf("predicated-off sel wrote %d", s.GR[7])
	}
}

func TestSelRotating(t *testing.T) {
	// Sel reads rotating operands under renaming like any other op.
	s := NewState()
	s.Exec(ir.MovI(ir.GR(32), 5))
	s.rotate(false)
	s.PR[0] = true
	s.Exec(ir.Sel(ir.GR(10), ir.PR(0), ir.GR(33), ir.GR(0)))
	if s.GR[10] != 5 {
		t.Errorf("rotating sel = %d", s.GR[10])
	}
}

func TestChkIsNoOp(t *testing.T) {
	s := NewState()
	s.GR[4] = 42
	eff, _ := s.Exec(ir.Chk(ir.GR(4)))
	if !eff.Executed || eff.IsMem {
		t.Errorf("chk effect = %+v", eff)
	}
	if s.GR[4] != 42 {
		t.Error("chk modified state")
	}
}

func TestCtopDrainOnlyEC(t *testing.T) {
	// LC already zero: the kernel runs EC drain iterations only.
	s := NewState()
	s.LC, s.EC = 0, 3
	iters := 1
	for s.Ctop() {
		iters++
	}
	if iters != 3 {
		t.Errorf("drain iterations = %d, want 3", iters)
	}
}

func TestCtopECZero(t *testing.T) {
	s := NewState()
	s.LC, s.EC = 0, 0
	if s.Ctop() {
		t.Error("ctop taken with LC=EC=0")
	}
}

func TestRotationFRIndependent(t *testing.T) {
	// GR/FR/PR rename bases rotate together but index separate files.
	s := NewState()
	s.Exec(ir.FMovI(ir.FR(32), 7.5))
	s.Exec(ir.MovI(ir.GR(32), 9))
	s.rotate(true)
	if s.ReadRegF(ir.FR(33)) != 7.5 {
		t.Error("FR rotation broken")
	}
	if s.ReadReg(ir.GR(33)) != 9 {
		t.Error("GR rotation broken")
	}
	if !s.PR[s.RenamePR(16)] {
		t.Error("predicate injection lost")
	}
}
