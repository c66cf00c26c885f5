package core

import (
	"errors"
	"fmt"

	"rim/internal/trrs"
)

// StreamCheckpoint is a point-in-time capture of a Streamer's resumable
// state: the buffered CSI window, the loss mask, the emit frontier, the
// health counters and the dead-antenna detector. All fields are exported
// (and gob/encoding-friendly — complex128 rows included) so a host can
// serialize it with whatever framing it owns; internal/session wraps it in
// a versioned, checksummed file format.
//
// The checkpoint deliberately excludes derived state: the incremental TRRS
// engine is rebuilt on restore by replaying Buf through it, which PR 2's
// equivalence guarantee makes bit-for-bit identical to the engine that was
// running at capture time. Configuration is also excluded — the restoring
// host supplies the StreamConfig, and restore validates the checkpoint's
// shape against it.
type StreamCheckpoint struct {
	// Stream shape, used to validate the checkpoint against the restoring
	// configuration.
	Rate    float64
	NumAnts int
	NumTx   int
	NumSub  int

	// Buffered window: Buf[ant][tx][slot][tone] snapshots, the per-slot
	// loss mask, and the last accepted row per (ant, tx) for hold-last
	// substitution (entries may be nil before the first sample).
	Buf      [][][][]complex128
	Missing  [][]bool
	LastGood [][][]complex128

	// Frontier bookkeeping: slots trimmed from the front of Buf, the
	// absolute finalized-emit index, slots accumulated since the last
	// analysis, the hop stretch factor, and the causal hop sequence.
	Dropped   int
	Finalized int
	Pending   int
	HopFactor int
	HopSeq    int64

	// Health counters, with the last analysis error flattened to message
	// plus ErrAnalysis classification (same detachment as Health).
	Samples         int
	MissTotal       int
	CorruptSlots    int
	Failures        int
	TotalFails      int
	LastErr         string
	LastErrAnalysis bool

	// Dead-antenna detector: the trailing missing-flag ring, its
	// per-antenna counts, ring cursor and fill, the per-antenna power EMA
	// and the current dead flags.
	RecentMiss []bool // flattened [ant*deadWin + i]
	DeadWin    int
	RecentCnt  []int
	RecentIdx  int
	RecentN    int
	EnergyEMA  []float64
	Dead       []bool
}

// Checkpoint captures the streamer's resumable state. The outer slices are
// deep-copied so the checkpoint stays stable while the stream keeps
// ingesting; the complex128 row arrays are shared (the streamer never
// mutates a committed row), keeping a capture cheap enough to run on a
// periodic ticker. Goroutine-safe.
func (st *Streamer) Checkpoint() *StreamCheckpoint {
	st.mu.Lock()
	defer st.mu.Unlock()
	cp := &StreamCheckpoint{
		Rate:      st.rate,
		NumAnts:   st.numAnts,
		NumTx:     st.numTx,
		NumSub:    st.numSub,
		Dropped:   st.dropped,
		Finalized: st.finalized,
		Pending:   st.pending,
		HopFactor: st.hopFactor,
		HopSeq:    st.hopSeq,
		Samples:   st.samples,
		MissTotal: st.missTotal,

		CorruptSlots: st.corruptSlots,
		Failures:     st.failures,
		TotalFails:   st.totalFails,
		DeadWin:      st.deadWin,
		RecentIdx:    st.recentIdx,
		RecentN:      st.recentN,
		RecentCnt:    append([]int(nil), st.recentCnt...),
		EnergyEMA:    append([]float64(nil), st.energyEMA...),
		Dead:         append([]bool(nil), st.dead...),
	}
	if st.lastErr != nil {
		cp.LastErr = st.lastErr.Error()
		cp.LastErrAnalysis = errors.Is(st.lastErr, ErrAnalysis)
	}
	cp.Buf = make([][][][]complex128, st.numAnts)
	cp.Missing = make([][]bool, st.numAnts)
	cp.LastGood = make([][][]complex128, st.numAnts)
	cp.RecentMiss = make([]bool, st.numAnts*st.deadWin)
	for a := 0; a < st.numAnts; a++ {
		cp.Buf[a] = make([][][]complex128, st.numTx)
		cp.LastGood[a] = make([][]complex128, st.numTx)
		for tx := 0; tx < st.numTx; tx++ {
			cp.Buf[a][tx] = append([][]complex128(nil), st.buf[a][tx]...)
			cp.LastGood[a][tx] = st.lastGood[a][tx]
		}
		cp.Missing[a] = append([]bool(nil), st.missing[a]...)
		copy(cp.RecentMiss[a*st.deadWin:(a+1)*st.deadWin], st.recentMiss[a])
	}
	return cp
}

// NewStreamerFromCheckpoint rebuilds a Streamer from a checkpoint: the
// buffered window, frontier, health counters and dead-antenna detector are
// restored verbatim, and the incremental TRRS engine is reconstructed by
// replaying the buffered snapshots through it (bit-for-bit equivalent to
// the engine state at capture). The restored stream resumes exactly where
// the captured one stopped: the next PushMasked continues the same
// timeline.
//
// The checkpoint is validated in full against cfg before any state is
// built, so a corrupt or mismatched checkpoint never yields a half-restored
// stream. Ingest timestamps cannot survive a restart; when lag tracing is
// on, the buffered slots are re-stamped at restore time, so the first
// post-restore lag samples under-report by the downtime.
func NewStreamerFromCheckpoint(cfg StreamConfig, cp *StreamCheckpoint) (*Streamer, error) {
	if cp == nil {
		return nil, fmt.Errorf("core: nil checkpoint")
	}
	if err := cp.validate(); err != nil {
		return nil, err
	}
	st, err := NewStreamer(cfg, cp.Rate, cp.NumAnts, cp.NumTx, cp.NumSub)
	if err != nil {
		return nil, err
	}
	if st.deadWin != cp.DeadWin {
		return nil, fmt.Errorf("core: checkpoint dead-detection window is %d slots, config derives %d",
			cp.DeadWin, st.deadWin)
	}

	st.dropped = cp.Dropped
	st.finalized = cp.Finalized
	st.pending = cp.Pending
	st.hopFactor = cp.HopFactor
	st.hopSeq = cp.HopSeq
	st.samples = cp.Samples
	st.missTotal = cp.MissTotal
	st.corruptSlots = cp.CorruptSlots
	st.failures = cp.Failures
	st.totalFails = cp.TotalFails
	if cp.LastErr != "" {
		st.lastErr = &healthError{msg: cp.LastErr, analysis: cp.LastErrAnalysis}
	}
	st.recentIdx = cp.RecentIdx
	st.recentN = cp.RecentN
	copy(st.recentCnt, cp.RecentCnt)
	copy(st.energyEMA, cp.EnergyEMA)
	copy(st.dead, cp.Dead)
	for a := 0; a < cp.NumAnts; a++ {
		copy(st.recentMiss[a], cp.RecentMiss[a*cp.DeadWin:(a+1)*cp.DeadWin])
		for tx := 0; tx < cp.NumTx; tx++ {
			st.buf[a][tx] = append([][]complex128(nil), cp.Buf[a][tx]...)
			st.lastGood[a][tx] = cp.LastGood[a][tx]
		}
		st.missing[a] = append([]bool(nil), cp.Missing[a]...)
	}

	// Rebuild the incremental engine by replaying the buffered window
	// through it, slot by slot, exactly as ingest committed it.
	n := len(cp.Buf[0][0])
	if st.inc != nil {
		for s := 0; s < n; s++ {
			for a := 0; a < cp.NumAnts; a++ {
				for tx := 0; tx < cp.NumTx; tx++ {
					st.incSnap[a][tx] = st.buf[a][tx][s]
				}
			}
			if err := st.inc.Append(st.incSnap); err != nil {
				return nil, fmt.Errorf("core: checkpoint replay failed at slot %d: %w", s, err)
			}
		}
	}
	if st.lagOn {
		st.ingestNs = make([]int64, n)
		now := st.nowNs()
		for i := range st.ingestNs {
			st.ingestNs[i] = now
		}
	}
	if st.ob.dead != nil {
		nd := 0
		for _, d := range cp.Dead {
			if d {
				nd++
			}
		}
		st.ob.dead.Set(float64(nd))
	}
	return st, nil
}

// validate checks the checkpoint's internal consistency: every per-antenna
// structure present and every buffered slot fully shaped. A checkpoint
// that fails validation is rejected before any Streamer state exists.
func (cp *StreamCheckpoint) validate() error {
	if !trrs.ValidRate(cp.Rate) || cp.NumAnts <= 0 || cp.NumTx <= 0 || cp.NumSub <= 0 {
		return fmt.Errorf("core: checkpoint shape (%v Hz, %d antennas, %d tx, %d tones) must be positive, at most %g Hz",
			cp.Rate, cp.NumAnts, cp.NumTx, cp.NumSub, trrs.MaxRate)
	}
	if len(cp.Buf) != cp.NumAnts || len(cp.Missing) != cp.NumAnts || len(cp.LastGood) != cp.NumAnts {
		return fmt.Errorf("core: checkpoint buffers cover %d/%d/%d antennas, want %d",
			len(cp.Buf), len(cp.Missing), len(cp.LastGood), cp.NumAnts)
	}
	if cp.DeadWin <= 0 || len(cp.RecentMiss) != cp.NumAnts*cp.DeadWin ||
		len(cp.RecentCnt) != cp.NumAnts || len(cp.EnergyEMA) != cp.NumAnts || len(cp.Dead) != cp.NumAnts {
		return fmt.Errorf("core: checkpoint dead-detection state inconsistent (win=%d)", cp.DeadWin)
	}
	if cp.RecentIdx < 0 || cp.RecentIdx >= cp.DeadWin || cp.RecentN < 0 || cp.RecentN > cp.DeadWin {
		return fmt.Errorf("core: checkpoint dead-detection cursor out of range")
	}
	n := -1
	for a := 0; a < cp.NumAnts; a++ {
		if len(cp.Buf[a]) != cp.NumTx || len(cp.LastGood[a]) != cp.NumTx {
			return fmt.Errorf("core: checkpoint antenna %d has %d/%d tx, want %d",
				a, len(cp.Buf[a]), len(cp.LastGood[a]), cp.NumTx)
		}
		for tx := 0; tx < cp.NumTx; tx++ {
			if n < 0 {
				n = len(cp.Buf[a][tx])
			}
			if len(cp.Buf[a][tx]) != n {
				return fmt.Errorf("core: checkpoint antenna %d tx %d holds %d slots, want %d",
					a, tx, len(cp.Buf[a][tx]), n)
			}
			for s, row := range cp.Buf[a][tx] {
				if len(row) != cp.NumSub {
					return fmt.Errorf("core: checkpoint antenna %d tx %d slot %d has %d tones, want %d",
						a, tx, s, len(row), cp.NumSub)
				}
			}
			if lg := cp.LastGood[a][tx]; lg != nil && len(lg) != cp.NumSub {
				return fmt.Errorf("core: checkpoint antenna %d tx %d last-good row has %d tones, want %d",
					a, tx, len(lg), cp.NumSub)
			}
		}
		if len(cp.Missing[a]) != n {
			return fmt.Errorf("core: checkpoint antenna %d loss mask covers %d slots, want %d",
				a, len(cp.Missing[a]), n)
		}
	}
	if cp.Samples < 0 || cp.Dropped < 0 || cp.Dropped+n != cp.Samples {
		return fmt.Errorf("core: checkpoint frontier inconsistent: %d dropped + %d buffered != %d ingested",
			cp.Dropped, n, cp.Samples)
	}
	// Bounds a live streamer keeps: SetHopFactor clamps to [1, 4], pending
	// slots are still buffered, and the emit frontier lies between the
	// trimmed head and the newest slot.
	if cp.HopFactor < 1 || cp.HopFactor > 4 || cp.Pending < 0 || cp.Pending > n ||
		cp.Finalized < cp.Dropped || cp.Finalized > cp.Samples {
		return fmt.Errorf("core: checkpoint frontier out of range: hop factor %d, %d pending of %d buffered, finalized %d outside [%d, %d]",
			cp.HopFactor, cp.Pending, n, cp.Finalized, cp.Dropped, cp.Samples)
	}
	return nil
}
