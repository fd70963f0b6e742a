package journal

// Cell is one key's folded state: what every reader of the journal agrees
// on after applying the key's records in file order.
type Cell struct {
	// OK is the winning completion, nil while the cell is not done (never
	// completed, or un-completed by a fail at or above the winning epoch).
	OK *Record
	// Claim is the live lease claim (Deadline > 0) with the holder's latest
	// deadline, nil when no lease is live. A done cell keeps the claim of a
	// holder at a higher epoch than its completion.
	Claim *Record
	// MaxEpoch is the highest fencing epoch any of the key's records
	// carried; the key's next claim must exceed it.
	MaxEpoch int64
}

// Fold applies journal records, in file order, to one Cell per key. It is
// the journal's single statement of its conflict rules: resume
// (Completed), compaction, the lease store (internal/core.LeaseStore) and
// the fleet view (internal/fleetstatus) all apply records through it, so
// every reader agrees on which completion won and who holds which cell.
//
//   - An ok record completes the cell unless a higher-epoch completion
//     already won (file order breaks ties), and consumes a claim at or
//     below its own epoch.
//   - A fail record at or above the winning epoch un-completes the cell.
//   - A claimed record with Deadline <= 0 releases only the holder's own
//     claim at that epoch.
//   - A claim (Deadline > 0) becomes the live claim when there is none or
//     when its epoch is higher; the holder's re-claim at the same epoch
//     only extends the deadline. Any other claim lost the race in file
//     order and changes nothing.
//
// The zero Fold is empty and ready to use. It is not safe for concurrent
// use.
type Fold struct {
	cells map[string]*Cell
	keys  []string // first-seen file order
	done  int
}

// Apply folds rec into its key's cell and returns the cell as it was
// before rec, so a caller reads the transition from prev and rec instead
// of re-deriving the rules.
func (f *Fold) Apply(rec Record) (prev Cell) {
	c := f.cells[rec.Key]
	if c == nil {
		if f.cells == nil {
			f.cells = make(map[string]*Cell)
		}
		c = &Cell{}
		f.cells[rec.Key] = c
		f.keys = append(f.keys, rec.Key)
	}
	prev = *c
	if rec.Epoch > c.MaxEpoch {
		c.MaxEpoch = rec.Epoch
	}
	switch rec.Status {
	case StatusOK:
		if c.OK == nil || rec.Epoch >= c.OK.Epoch {
			ok := rec
			c.OK = &ok
			if c.Claim != nil && rec.Epoch >= c.Claim.Epoch {
				c.Claim = nil
			}
		}
	case StatusFail:
		if c.OK != nil && rec.Epoch >= c.OK.Epoch {
			c.OK = nil
		}
	case StatusClaimed:
		holder := c.Claim != nil && c.Claim.Worker == rec.Worker && c.Claim.Epoch == rec.Epoch
		switch {
		case rec.Deadline <= 0:
			if holder {
				c.Claim = nil
			}
		case c.Claim == nil || rec.Epoch > c.Claim.Epoch, // a first claim or a steal
			holder && rec.Deadline > c.Claim.Deadline: // a renewal
			claim := rec
			c.Claim = &claim
		}
	}
	switch {
	case prev.OK == nil && c.OK != nil:
		f.done++
	case prev.OK != nil && c.OK == nil:
		f.done--
	}
	return prev
}

// Cell returns key's folded state (the zero Cell for an unseen key).
func (f *Fold) Cell(key string) Cell {
	if c := f.cells[key]; c != nil {
		return *c
	}
	return Cell{}
}

// Completed returns the number of done cells.
func (f *Fold) Completed() int { return f.done }

// Range calls fn for every key in first-seen file order, stopping early
// when fn returns false.
func (f *Fold) Range(fn func(key string, c Cell) bool) {
	for _, k := range f.keys {
		if !fn(k, *f.cells[k]) {
			return
		}
	}
}
