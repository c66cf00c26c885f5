package trrs

import (
	"fmt"

	"rim/internal/sigproc"
)

// MatrixArena recycles the flat backings of derived matrices — the
// virtual-massive and pair-averaged matrices a streaming hop builds and
// discards every 500 ms. A hop takes an arena (core keeps them in a
// sync.Pool shared across streamers), Resets it, and routes its
// VirtualMassiveInto/AverageMatricesInto calls through it; matrices
// produced since the Reset stay valid until the next Reset, which
// reclaims all of them at once. The zero value is ready to use. An arena
// is not goroutine-safe; it serves one hop at a time.
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

// matrix returns a slots×(2w+1) matrix backed by a recycled slab when one
// is large enough (hop geometry is uniform, so after warm-up every
// request hits), else by a fresh allocation that joins the arena. The
// returned values are NOT zeroed; every caller fully overwrites them. A
// nil arena degenerates to plain allocation.
func (a *MatrixArena) matrix(i, j, w, slots int, rate float64) *Matrix {
	width := 2*w + 1
	if a == nil {
		m := &Matrix{I: i, J: j, W: w, Rate: rate}
		m.Vals = make([][]float64, slots)
		flat := make([]float64, slots*width)
		for t := 0; t < slots; t++ {
			m.Vals[t] = flat[t*width : (t+1)*width]
		}
		return m
	}
	var slab *arenaSlab
	for k := len(a.free) - 1; k >= 0; k-- {
		s := a.free[k]
		if cap(s.flat) >= slots*width && cap(s.rows) >= slots {
			last := len(a.free) - 1
			a.free[k] = a.free[last]
			a.free = a.free[:last]
			slab = s
			break
		}
	}
	if slab == nil {
		slab = &arenaSlab{
			flat: make([]float64, slots*width),
			rows: make([][]float64, slots),
		}
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

// CheckVirtualMassive returns the error VirtualMassive would return for
// base — nil, a negative window or a row that is not 2W+1 wide — without
// computing anything, so a caller can validate shapes up front and build
// the matrix later.
func CheckVirtualMassive(base *Matrix) error {
	if base == nil {
		return fmt.Errorf("trrs: VirtualMassive of nil matrix")
	}
	if base.W < 0 {
		return fmt.Errorf("trrs: VirtualMassive matrix has negative window W=%d", base.W)
	}
	width := 2*base.W + 1
	for t, row := range base.Vals {
		if len(row) != width {
			return fmt.Errorf("trrs: VirtualMassive matrix row %d has %d columns, want 2W+1 = %d",
				t, len(row), width)
		}
	}
	return nil
}

// CheckAverageMatrices returns the error AverageMatricesInto would return
// for ms — no input, a nil input, or inputs that disagree on W, Rate, slot
// count or row width — without computing the average.
func CheckAverageMatrices(ms ...*Matrix) error {
	if len(ms) == 0 {
		return fmt.Errorf("trrs: AverageMatrices of no matrices")
	}
	first := ms[0]
	if first == nil {
		return fmt.Errorf("trrs: AverageMatrices input 0 is nil")
	}
	slots := len(first.Vals)
	width := 2*first.W + 1
	for k, m := range ms {
		switch {
		case m == nil:
			return fmt.Errorf("trrs: AverageMatrices input %d is nil", k)
		case m.W != first.W:
			return fmt.Errorf("trrs: AverageMatrices window mismatch: input %d has W=%d, input 0 has W=%d",
				k, m.W, first.W)
		case m.Rate != first.Rate:
			return fmt.Errorf("trrs: AverageMatrices rate mismatch: input %d has %v Hz, input 0 has %v Hz",
				k, m.Rate, first.Rate)
		case len(m.Vals) != slots:
			return fmt.Errorf("trrs: AverageMatrices slot-count mismatch: input %d has %d slots, input 0 has %d",
				k, len(m.Vals), slots)
		}
		for t, row := range m.Vals {
			if len(row) != width {
				return fmt.Errorf("trrs: AverageMatrices input %d row %d has %d columns, want 2W+1 = %d",
					k, t, len(row), width)
			}
		}
	}
	return nil
}

// VirtualMassiveInto is VirtualMassive allocating the result from the
// arena (nil arena = plain allocation, exactly VirtualMassive).
func VirtualMassiveInto(a *MatrixArena, base *Matrix, v int) (*Matrix, error) {
	if err := CheckVirtualMassive(base); err != nil {
		return nil, err
	}
	out := a.matrix(base.I, base.J, base.W, len(base.Vals), base.Rate)
	// BoxFilterColumns fully overwrites dst, so a recycled dirty backing
	// is safe.
	sigproc.BoxFilterColumns(out.Vals, base.Vals, v/2)
	return out, nil
}

// ReflectInto returns the reversed twin of src, the (J, I) base matrix,
// allocated from the arena (nil arena = plain allocation): every entry is
// reflected from src by the κ̄ reflection base_ji[t][l] = base_ij[t−l][−l]
// (see reflectRow), so it holds the bits a sweep of the twin would.
func ReflectInto(a *MatrixArena, src *Matrix) *Matrix {
	out := a.matrix(src.J, src.I, src.W, len(src.Vals), src.Rate)
	for t, row := range out.Vals {
		reflectRow(row, src.Vals, src.W, t, 0, len(row))
	}
	return out
}

// AverageMatricesInto returns the element-wise mean of several equal-shape
// matrices — the §4.2 augmentation that merges parallel isometric antenna
// pairs, whose alignment delays are identical — allocated from the arena
// (nil arena = plain allocation). The result borrows the identity of the
// first matrix. Matrices that disagree on W, Rate or slot count would
// silently misindex (or average physically incomparable lags), so any
// mismatch is reported as an error; an empty input is an error too.
func AverageMatricesInto(a *MatrixArena, ms ...*Matrix) (*Matrix, error) {
	if err := CheckAverageMatrices(ms...); err != nil {
		return nil, err
	}
	first := ms[0]
	slots := len(first.Vals)
	width := 2*first.W + 1
	out := a.matrix(first.I, first.J, first.W, slots, first.Rate)
	inv := 1 / float64(len(ms))
	for t := 0; t < slots; t++ {
		row := out.Vals[t]
		// The backing may be recycled and dirty: initialize by copy of the
		// first input, then accumulate the rest.
		copy(row, ms[0].Vals[t])
		for _, m := range ms[1:] {
			src := m.Vals[t]
			for c := 0; c < width; c++ {
				row[c] += src[c]
			}
		}
		for c := 0; c < width; c++ {
			row[c] *= inv
		}
	}
	return out, nil
}
