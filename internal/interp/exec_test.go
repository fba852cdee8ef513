package interp

import "ltsp/internal/ir"

// Effect is what executing one instruction did, as the unit tests check
// it: whether it executed, the memory activity it classified as, and its
// effective address (before post-increment).
type Effect struct {
	Executed                           bool
	IsMem, IsLoad, IsStore, IsPrefetch bool
	Addr                               int64
	FP                                 bool
}

// Group executes the instructions of one issue group through the
// decoded form, with reads-before-writes semantics.
func (s *State) Group(ins []*ir.Instr) error {
	var c Code
	if err := c.Decode(&Program{Groups: [][]*ir.Instr{ins}}, nil); err != nil {
		return err
	}
	return s.issue(c.insts)
}

// Exec executes a single instruction immediately (one-instruction group)
// and reports its effect.
func (s *State) Exec(in *ir.Instr) (Effect, error) {
	d, err := decode(in, nil)
	if err != nil {
		return Effect{}, err
	}
	s.Pending = s.Pending[:0]
	_, on := s.Pred(&d)
	addr, err := s.Step(&d, on)
	if err != nil {
		return Effect{}, err
	}
	for i := range s.Pending {
		s.Retire(&s.Pending[i])
	}
	if !on {
		return Effect{}, nil
	}
	return Effect{
		Executed:   true,
		IsMem:      d.Access != NoAccess,
		IsLoad:     d.Access == AccessLoad,
		IsStore:    d.Access == AccessStore,
		IsPrefetch: d.Access == AccessPrefetchL1 || d.Access == AccessPrefetchL2,
		Addr:       addr,
		FP:         d.FP,
	}, nil
}
