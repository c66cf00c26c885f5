package trrs

// RawRing is a stream's raw-CSI window store: the rows of every committed
// snapshot, copied into one flat slot-major ring, with one flag per
// antenna beside each slot (core.Streamer keeps its loss mask there).
// Nothing in it aliases a caller's rows.
//
// The window is the absolute slot range [start, end). Slot s lives at ring
// slot s mod C, C the capacity in slots, so an append writes one slot in
// place and a trim only advances the head. A hold (see Hold) keeps the
// slots from a given one on from being overwritten after the head has
// passed them: a ring that must make room while a hold blocks it grows and
// carries the held slots over, and a holder that would rather copy them
// out first asks Blocked before appending.
//
// Storage starts small and grows on demand, doubling but stopping at the
// declared peak (SetPeak) when that holds what must be kept; a window
// larger than the peak still fits. Growth never shrinks the ring.
type RawRing struct {
	numAnt, numTx, tones int
	// per is the values of one slot: numAnt·numTx·tones, row (a, tx) at
	// (a·numTx + tx)·tones.
	per int
	// vals and flags store the ring's slots; slots counts them.
	vals       []complex128
	flags      []bool
	slots      int
	start, end int
	// hold is the oldest slot kept (-1: none, the window head rules).
	hold int
	// peak is the declared capacity cap in slots (0: none).
	peak int
}

// rawMinSlots is the capacity of a ring's first slab, in slots: small, so
// that opening a stream does not allocate its whole peak window.
const rawMinSlots = 16

// NewRawRing returns an empty ring for snapshots of the given shape. It
// allocates its storage on the first Append.
func NewRawRing(numAnt, numTx, tones int) *RawRing {
	return &RawRing{numAnt: numAnt, numTx: numTx, tones: tones, per: numAnt * numTx * tones, hold: -1}
}

// SetPeak declares the most slots the ring must hold at once (the window
// plus whatever a hold keeps): growth stops there. A raised peak lets the
// ring regrow once, when it next needs room; a lowered one shrinks
// nothing.
func (r *RawRing) SetPeak(slots int) { r.peak = slots }

// Start returns the absolute slot of the window's head.
func (r *RawRing) Start() int { return r.start }

// End returns one past the absolute slot of the newest snapshot.
func (r *RawRing) End() int { return r.end }

// Len returns the window length in slots.
func (r *RawRing) Len() int { return r.end - r.start }

// Capacity returns the ring's size in slots.
func (r *RawRing) Capacity() int { return r.slots }

// Row returns row (a, tx) of absolute slot s, which must be in the window
// or held. The slice aliases the ring: it is valid until slot s is
// overwritten, and callers must not modify it.
func (r *RawRing) Row(s, a, tx int) []complex128 {
	o := (s%r.slots)*r.per + (a*r.numTx+tx)*r.tones
	return r.vals[o : o+r.tones : o+r.tones]
}

// Flags returns the per-antenna flags of absolute slot s (in the window or
// held), for the owner to read or set in place.
func (r *RawRing) Flags(s int) []bool {
	o := (s % r.slots) * r.numAnt
	return r.flags[o : o+r.numAnt : o+r.numAnt]
}

// Append copies one snapshot (shape [ant][tx][tone], validated by the
// caller; a nil row reads as zeros) into the slot after the newest, with
// its flags cleared, making room first if the ring is full.
func (r *RawRing) Append(snap [][][]complex128) {
	lo := r.start
	if r.hold >= 0 && r.hold < lo {
		lo = r.hold
	}
	if need := r.end + 1 - lo; need > r.slots {
		r.grow(need, lo)
	}
	c := r.slots
	dst := r.vals[(r.end%c)*r.per : (r.end%c+1)*r.per]
	for a := range snap {
		for tx, row := range snap[a] {
			o := (a*r.numTx + tx) * r.tones
			clear(dst[o+copy(dst[o:o+r.tones], row) : o+r.tones])
		}
	}
	clear(r.Flags(r.end))
	r.end++
}

// grow reallocates the ring to hold at least need slots, carrying over
// the slots [lo, end).
func (r *RawRing) grow(need, lo int) {
	old := r.slots
	c := max(2*old, rawMinSlots, need)
	if r.peak >= need {
		c = min(c, r.peak)
	}
	vals := make([]complex128, c*r.per)
	flags := make([]bool, c*r.numAnt)
	for s := lo; s < r.end; s++ {
		copy(vals[(s%c)*r.per:(s%c+1)*r.per], r.vals[(s%old)*r.per:(s%old+1)*r.per])
		copy(flags[(s%c)*r.numAnt:(s%c+1)*r.numAnt], r.flags[(s%old)*r.numAnt:(s%old+1)*r.numAnt])
	}
	r.vals, r.flags, r.slots = vals, flags, c
}

// DropFront advances the window head by n slots (at most the window).
// Nothing is cleared: the slots are overwritten by later appends.
func (r *RawRing) DropFront(n int) {
	r.start += min(max(n, 0), r.Len())
}

// Hold keeps every slot from absolute slot s on (s at or before the head)
// from being overwritten until Release.
func (r *RawRing) Hold(s int) { r.hold = s }

// Release drops the hold.
func (r *RawRing) Release() { r.hold = -1 }

// Blocked reports whether the next Append can make room only by growing
// past the declared peak to keep held slots the head has passed: the ring
// has reached its peak and the window plus one slot fits it, but not with
// the held slots below the head as well.
func (r *RawRing) Blocked() bool {
	c := r.slots
	return r.hold >= 0 && r.hold < r.start && r.peak > 0 && c >= r.peak &&
		r.end+1-r.start <= c && r.end+1-r.hold > c
}
