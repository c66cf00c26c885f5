package trrs

import (
	"fmt"

	"rim/internal/sigproc"
)

// MatrixArena recycles the flat backings of the matrices a streaming hop
// builds and discards every 500 ms: the virtual-massive matrices it
// derives (see Scratch.Derive; a hop's pair averages and reversed twins
// are made row by row, with no matrix of their own), and any reversed
// twin a caller lists to ExtendMatrices. A hop takes the arena of a
// Scratch (core keeps them in a sync.Pool shared across streamers),
// Resets it and lends the scratch to its incremental engine (see
// Incremental.Lend); matrices produced since the Reset stay valid until
// the next Reset, which reclaims all of them at once. The zero value is
// ready to use. An arena is not goroutine-safe; it serves one hop at a
// time.
type MatrixArena struct {
	free []*arenaSlab
	used []*arenaSlab
}

// arenaSlab is one reusable matrix backing plus its header, so a recycled
// matrix allocates nothing at all.
type arenaSlab struct {
	flat []float64
	rows [][]float64
	hdr  Matrix
}

// Reset reclaims every matrix handed out since the previous Reset. The
// caller must have dropped all references to them.
func (a *MatrixArena) Reset() {
	if a == nil {
		return
	}
	a.free = append(a.free, a.used...)
	a.used = a.used[:0]
}

// Bytes reports the total backing size held by the arena, for the
// scratch-pool gauge.
func (a *MatrixArena) Bytes() int {
	if a == nil {
		return 0
	}
	n := 0
	for _, s := range a.free {
		n += cap(s.flat) * 8
	}
	for _, s := range a.used {
		n += cap(s.flat) * 8
	}
	return n
}

// matrix returns a slots×(2w+1) matrix backed by a free slab: one large
// enough if there is one, else a too-small one regrown to fit, and a new
// slab only when none is free. So the arena holds as many slabs as one
// hop takes at once, each at the size of the largest matrix it has
// served, not a slab of every size a warm-up asked for; hop geometry is
// uniform, so after warm-up every request fits. The returned values are
// NOT zeroed; every caller fully overwrites them. A nil arena
// degenerates to plain allocation.
func (a *MatrixArena) matrix(i, j, w, slots int, rate float64) *Matrix {
	if a == nil {
		return newMatrix(i, j, w, slots, rate)
	}
	width := 2*w + 1
	var slab *arenaSlab
	if n := len(a.free); n == 0 {
		slab = &arenaSlab{}
	} else {
		// The last free slab that fits, else the first, regrown below.
		k := n - 1
		for k > 0 && (cap(a.free[k].flat) < slots*width || cap(a.free[k].rows) < slots) {
			k--
		}
		slab = a.free[k]
		a.free[k] = a.free[n-1]
		a.free = a.free[:n-1]
	}
	if cap(slab.flat) < slots*width {
		slab.flat = make([]float64, slots*width)
	}
	if cap(slab.rows) < slots {
		slab.rows = make([][]float64, slots)
	}
	a.used = append(a.used, slab)
	flat := slab.flat[:slots*width]
	rows := slab.rows[:slots]
	for t := 0; t < slots; t++ {
		rows[t] = flat[t*width : (t+1)*width]
	}
	slab.flat, slab.rows = flat, rows
	slab.hdr = Matrix{I: i, J: j, W: w, Rate: rate, Vals: rows}
	return &slab.hdr
}

// newMatrix allocates a slots×(2w+1) matrix with flat backing.
func newMatrix(i, j, w, slots int, rate float64) *Matrix {
	m := &Matrix{I: i, J: j, W: w, Rate: rate, Vals: make([][]float64, slots)}
	width := 2*w + 1
	flat := make([]float64, slots*width)
	for t := range m.Vals {
		m.Vals[t] = flat[t*width : (t+1)*width]
	}
	return m
}

// checkInput checks input k of a derived matrix (or of an average)
// against input 0, first: it must not be nil, must have a non-negative
// window and rows 2W+1 wide, and must agree with first on W, Rate and
// slot count, or the filter and the average would misindex (or average
// physically incomparable lags).
func checkInput(k int, m, first *Matrix) error {
	switch {
	case m == nil || first == nil:
		return fmt.Errorf("trrs: derived-matrix input %d is nil", k)
	case m.W < 0:
		return fmt.Errorf("trrs: derived-matrix input %d has negative window W=%d", k, m.W)
	case m.W != first.W:
		return fmt.Errorf("trrs: derived-matrix window mismatch: input %d has W=%d, input 0 has W=%d",
			k, m.W, first.W)
	case m.Rate != first.Rate:
		return fmt.Errorf("trrs: derived-matrix rate mismatch: input %d has %v Hz, input 0 has %v Hz",
			k, m.Rate, first.Rate)
	case len(m.Vals) != len(first.Vals):
		return fmt.Errorf("trrs: derived-matrix slot-count mismatch: input %d has %d slots, input 0 has %d",
			k, len(m.Vals), len(first.Vals))
	}
	width := 2*m.W + 1
	for t, row := range m.Vals {
		if len(row) != width {
			return fmt.Errorf("trrs: derived-matrix input %d row %d has %d columns, want 2W+1 = %d",
				k, t, len(row), width)
		}
	}
	return nil
}

// VirtualMassiveInto is VirtualMassive allocating the result from the
// arena (nil arena = plain allocation, exactly VirtualMassive).
func VirtualMassiveInto(a *MatrixArena, base *Matrix, v int) (*Matrix, error) {
	if err := checkInput(0, base, base); err != nil {
		return nil, err
	}
	out := a.matrix(base.I, base.J, base.W, len(base.Vals), base.Rate)
	// BoxFilterColumns fully overwrites dst, so a recycled dirty backing
	// is safe.
	sigproc.BoxFilterColumns(out.Vals, base.Vals, v/2)
	return out, nil
}

// AverageMatricesInto returns the element-wise mean of several equal-shape
// matrices — the §4.2 augmentation that merges parallel isometric antenna
// pairs, whose alignment delays are identical — allocated from the arena
// (nil arena = plain allocation). The result borrows the identity of the
// first matrix. Matrices that disagree on W, Rate or slot count would
// silently misindex (or average physically incomparable lags), so any
// mismatch is reported as an error; an empty input is an error too. It is
// Derive's average with V = 1, where the filter copies each averaged row.
func AverageMatricesInto(a *MatrixArena, ms ...*Matrix) (*Matrix, error) {
	ins := make([]Input, len(ms))
	for k, m := range ms {
		ins[k] = Input{M: m}
	}
	return derive(a, nil, ins, 1)
}

// Input is one base matrix a derived matrix reads: M as stored or, with
// Twin set, the reversed twin of M, the (M.J, M.I) base matrix, read row
// by row through the κ̄ reflection (see reflectRow) without being built.
type Input struct {
	M    *Matrix
	Twin bool
}

// CheckDerive returns the error Derive would return for ins — no input,
// a nil input, a negative window, inputs that disagree on W, Rate or slot
// count, or a row that is not 2W+1 wide — without building anything.
func CheckDerive(ins []Input) error {
	if len(ins) == 0 {
		return fmt.Errorf("trrs: Derive of no matrices")
	}
	for k, in := range ins {
		if err := checkInput(k, in.M, ins[0].M); err != nil {
			return err
		}
	}
	return nil
}

// Derive returns the virtual-massive matrix (Eq. 4, V virtual antennas) of
// the element-wise mean of ins: a parallel group's §4.2 pair average, or
// with one input that input's matrix. It borrows the identity of the
// first input (reversed for a twin) and comes from the scratch's arena
// (a nil Scratch allocates).
//
// It is one pass per output row (see sigproc.BoxFilterRows): an input
// row is made when it enters the filter window, into a ring of
// 2·⌊V/2⌋+2 rows of the scratch (one more, as a lone twin makes two rows
// at a time), and subtracted from that same ring row when it leaves.
// Making a row is a copy of the first input's row, or its reflection for
// a twin, plus each other input's row, times 1/n when there are n > 1
// inputs; a lone input that is not a twin is read in place. No averaged
// or reflected matrix is built, and the output holds the bits of the
// three-pass build: each twin reflected into a matrix, the average into
// another, then the box filter in three row passes.
func (s *Scratch) Derive(ins []Input, v int) (*Matrix, error) {
	if s == nil {
		return derive(nil, nil, ins, v)
	}
	return derive(&s.Arena, &s.rows, ins, v)
}

// derive is Derive with the output from arena and the ring from buf (nil
// arena or buf: fresh allocations).
func derive(arena *MatrixArena, buf *[]float64, ins []Input, v int) (*Matrix, error) {
	if err := CheckDerive(ins); err != nil {
		return nil, err
	}
	first := ins[0]
	i, j := first.M.I, first.M.J
	if first.Twin {
		i, j = j, i
	}
	slots, width := len(first.M.Vals), 2*first.M.W+1
	out := arena.matrix(i, j, first.M.W, slots, first.M.Rate)
	half := v / 2
	if len(ins) == 1 && !first.Twin {
		src := first.M.Vals
		sigproc.BoxFilterRows(out.Vals, floats(buf, width), half, func(r int) []float64 { return src[r] })
		return out, nil
	}
	// The ring holds the window's 2·half+2 rows, plus one: a lone twin
	// makes its rows two at a time (see reflectPair).
	n := min(2*max(half, 0)+3, slots)
	rows := floats(buf, (n+2)*width)
	sums, twin, ring := rows[:width], rows[width:2*width], rows[2*width:]
	inv := 1 / float64(len(ins))
	// With two inputs MeanRow scales their sum by 1/2; with more, the rest
	// are added first and the sum is scaled once all are in.
	pairScale := 1.0
	if len(ins) == 2 {
		pairScale = inv
	}
	// made is the last row made and slot its ring row; next moves them
	// on to the next row and returns its ring row.
	made, slot := -1, -1
	next := func() []float64 {
		made++
		if slot++; slot == n {
			slot = 0
		}
		return ring[slot*width : (slot+1)*width]
	}
	sigproc.BoxFilterRows(out.Vals, sums, half, func(r int) []float64 {
		if r <= made { // a row made earlier, less than n rows ago
			k := slot - (made - r)
			if k < 0 {
				k += n
			}
			return ring[k*width : (k+1)*width]
		}
		// Rows are asked for in order, so r is made+1; with one input the
		// input is a twin (a lone pair is read in place above).
		row := next()
		if len(ins) == 1 {
			if r+1 < slots {
				reflectPair(row, next(), first.M, r)
			} else {
				reflectRow(row, first.M, r)
			}
			return row
		}
		a := row
		if first.Twin {
			reflectRow(row, first.M, r)
		} else {
			a = first.M.Vals[r]
		}
		for k, in := range ins[1:] {
			b := in.M.Vals[r]
			if in.Twin {
				reflectRow(twin, in.M, r)
				b = twin
			}
			if k == 0 {
				sigproc.MeanRow(row, a, b, pairScale)
			} else {
				sigproc.AddRow(row, b)
			}
		}
		if len(ins) > 2 {
			sigproc.ScaleRow(row, inv)
		}
		return row
	})
	return out, nil
}

// floats returns n floats of *buf, growing it if it is shorter, or a
// fresh slice for a nil buf. Their contents are undefined.
func floats(buf *[]float64, n int) []float64 {
	if buf == nil {
		return make([]float64, n)
	}
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}
