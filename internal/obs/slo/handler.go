package slo

import (
	"encoding/json"
	"net/http"
	"time"

	"rim/internal/obs"
)

// Report is the /slo payload.
type Report struct {
	// State is the worst state across objectives (a fleet-level rollup).
	State      string   `json:"state"`
	Objectives []Status `json:"objectives"`
}

// Snapshot builds the /slo payload from the engine's latest evaluations.
func (e *Engine) Snapshot() Report {
	rep := Report{State: StateOK.String(), Objectives: e.Statuses()}
	worst := StateOK
	for _, s := range rep.Objectives {
		switch s.State {
		case StatePage.String():
			worst = StatePage
		case StateWarn.String():
			if worst < StateWarn {
				worst = StateWarn
			}
		}
	}
	rep.State = worst.String()
	return rep
}

// Handler serves the engine's Snapshot as indented JSON (the /slo
// endpoint, shaped for rimtop and CI scripts).
func (e *Engine) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(e.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Run ticks the engine every interval until stop is closed, reading the
// wall clock once per tick. Tests use Tick directly instead.
func (e *Engine) Run(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-t.C:
			e.Tick(now)
		}
	}
}

// LatencySource builds a Source from a latency histogram: an observation
// is good when it lands in a bucket bounded at or below le (so le should
// be one of the histogram's bucket bounds). Nil-safe.
func LatencySource(h *obs.Histogram, le float64) Source {
	return func() Sample {
		return Sample{Good: float64(h.CountAtOrBelow(le)), Total: float64(h.Count())}
	}
}
