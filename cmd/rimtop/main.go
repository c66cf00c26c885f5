// Command rimtop is a terminal fleet console for a running rimserved: it
// polls the daemon's debug endpoints (/metrics, /sessions, /slo) and
// renders a worst-first per-session table — supervisor state, queue depth,
// ingest-to-emit lag p99, degraded-estimate share, restarts, and the
// session's SLO error budget — plus a fleet header with the SLO rollup.
//
// Usage:
//
//	rimtop [-addr http://127.0.0.1:7171] [-interval 2s] [-rows 0]
//	rimtop -once -json        # one machine-readable snapshot, then exit
//
// It is stdlib-only: the Prometheus text parser lives in prom.go and the
// p99 comes from the same bucket interpolation rimloadgen uses
// (obs.QuantileFromBuckets), so console numbers match load-test numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"rim/internal/obs/slo"
)

// sessionInfo mirrors the wire shape of rimserved's /sessions entries
// (session.SessionInfo). State arrives as a string.
type sessionInfo struct {
	ID                     string       `json:"id"`
	State                  string       `json:"state"`
	QueueDepth             int          `json:"queue_depth"`
	Restarts               int          `json:"restarts_total"`
	Estimates              int          `json:"estimates"`
	EstimatesDegraded      int          `json:"estimates_degraded"`
	LowConfidence          int          `json:"low_confidence"`
	LastEstimateAgeSeconds float64      `json:"last_estimate_age_seconds"`
	Quality                *qualityInfo `json:"quality"`
}

// qualityInfo mirrors session.QualityInfo: the estimator-consistency
// verdict attached to a session when the daemon runs with -quality.
type qualityInfo struct {
	State       string  `json:"state"`
	OutsideFrac float64 `json:"outside_frac"`
	Samples     uint64  `json:"samples"`
}

// jsonFloat marshals NaN/Inf (no reading available) as null instead of
// failing the whole encode the way encoding/json does for bare float64.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = jsonFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

// row is one session's joined view across the three endpoints.
type row struct {
	ID                     string    `json:"id"`
	State                  string    `json:"state"`
	QueueDepth             int       `json:"queue_depth"`
	Restarts               int       `json:"restarts"`
	Estimates              int       `json:"estimates"`
	DegradedRatio          float64   `json:"degraded_ratio"`
	LagP99Seconds          jsonFloat `json:"lag_p99_seconds"`
	LastEstimateAgeSeconds float64   `json:"last_estimate_age_seconds"`
	SLOState               string    `json:"slo_state,omitempty"`
	BudgetRemaining        jsonFloat `json:"budget_remaining"`
	QualityState           string    `json:"quality_state,omitempty"`
	QualityOutsideFrac     float64   `json:"quality_outside_frac,omitempty"`
}

// snapshot is one poll of the whole fleet; also the -json wire shape.
type snapshot struct {
	Addr          string     `json:"addr"`
	FleetState    string     `json:"fleet_state"`
	Sessions      []row      `json:"sessions"`
	FleetLagP99   jsonFloat  `json:"fleet_lag_p99_seconds"`
	FleetDegraded float64    `json:"fleet_degraded_ratio"`
	QueueDepth    jsonFloat  `json:"queue_depth"`
	SLO           slo.Report `json:"slo"`
	SLOAvailable  bool       `json:"slo_available"`
	// Go runtime telemetry (rim_runtime_*; NaN when the daemon predates
	// the sampler).
	Goroutines jsonFloat `json:"goroutines"`
	HeapBytes  jsonFloat `json:"heap_bytes"`
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:7171", "rimserved debug address")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	rows := flag.Int("rows", 0, "max sessions shown (0 = all)")
	once := flag.Bool("once", false, "poll once and exit")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of the table")
	flag.Parse()

	client := &http.Client{Timeout: 5 * time.Second}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	for {
		snap, err := poll(client, strings.TrimRight(*addr, "/"))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rimtop: %v\n", err)
			if *once {
				os.Exit(1)
			}
		} else if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(snap)
		} else {
			render(os.Stdout, snap, *rows, !*once)
		}
		if *once {
			return
		}
		select {
		case <-stop:
			return
		case <-time.After(*interval):
		}
	}
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// poll joins /metrics, /sessions, and /slo into one snapshot. /slo is
// optional (older daemons): its absence only blanks the budget columns.
func poll(client *http.Client, addr string) (*snapshot, error) {
	resp, err := client.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: %s", addr, resp.Status)
	}
	samples, err := parseProm(strings.NewReader(string(body)))
	if err != nil {
		return nil, err
	}
	ix := metricIndex{samples: samples}

	var infos []sessionInfo
	if err := getJSON(client, addr+"/sessions", &infos); err != nil {
		return nil, err
	}

	snap := &snapshot{Addr: addr, FleetState: "ok"}
	if err := getJSON(client, addr+"/slo", &snap.SLO); err == nil {
		snap.SLOAvailable = true
		// The header's fleet state rolls up only fleet-entity objectives;
		// one paging session shows in its own row, not as a fleet page.
		for _, o := range snap.SLO.Objectives {
			if o.Entity == "fleet" && stateRank(o.State) > stateRank(snap.FleetState) {
				snap.FleetState = o.State
			}
		}
	}

	// Per-entity SLO rollup: worst state and lowest budget among the
	// objectives attached to each entity ("fleet" or a session id).
	type entSLO struct {
		state  string
		budget float64
	}
	bySess := map[string]entSLO{}
	for _, o := range snap.SLO.Objectives {
		cur, ok := bySess[o.Entity]
		if !ok {
			cur = entSLO{state: "ok", budget: math.Inf(1)}
		}
		if stateRank(o.State) > stateRank(cur.state) {
			cur.state = o.State
		}
		if o.BudgetRemaining < cur.budget {
			cur.budget = o.BudgetRemaining
		}
		bySess[o.Entity] = cur
	}

	for _, si := range infos {
		r := row{
			ID:                     si.ID,
			State:                  si.State,
			QueueDepth:             si.QueueDepth,
			Restarts:               si.Restarts,
			Estimates:              si.Estimates,
			LastEstimateAgeSeconds: si.LastEstimateAgeSeconds,
			LagP99Seconds:          jsonFloat(ix.p99("rim_session_lag_seconds", "session", si.ID)),
			BudgetRemaining:        jsonFloat(math.NaN()),
		}
		if si.Estimates > 0 {
			r.DegradedRatio = float64(si.EstimatesDegraded) / float64(si.Estimates)
		}
		if e, ok := bySess[si.ID]; ok {
			r.SLOState = e.state
			r.BudgetRemaining = jsonFloat(e.budget)
		}
		if si.Quality != nil {
			r.QualityState = si.Quality.State
			r.QualityOutsideFrac = si.Quality.OutsideFrac
		}
		snap.Sessions = append(snap.Sessions, r)
	}
	sort.SliceStable(snap.Sessions, func(i, j int) bool {
		return worse(snap.Sessions[i], snap.Sessions[j])
	})

	snap.FleetLagP99 = jsonFloat(ix.p99("rim_stream_lag_seconds", "", ""))
	snap.QueueDepth = jsonFloat(ix.gauge("rim_session_queue_depth"))
	snap.Goroutines = jsonFloat(ix.gauge("rim_runtime_goroutines"))
	snap.HeapBytes = jsonFloat(ix.gauge("rim_runtime_heap_bytes"))
	emitted, degraded := ix.sum("rim_stream_estimates_total"), ix.sum("rim_stream_estimates_degraded_total")
	if emitted > 0 {
		snap.FleetDegraded = degraded / emitted
	}
	return snap, nil
}

func stateRank(s string) int {
	switch s {
	case "page":
		return 2
	case "warn":
		return 1
	}
	return 0
}

// sessRank orders supervisor states by operator concern.
func sessRank(s string) int {
	switch s {
	case "quarantined", "failed":
		return 3
	case "backoff", "restarting", "degraded":
		return 2
	case "starting", "idle":
		return 1
	}
	return 0 // running
}

// qualityRank orders estimator-quality verdicts by operator concern.
func qualityRank(s string) int {
	switch s {
	case "alert":
		return 2
	case "warn":
		return 1
	}
	return 0 // ok or unmonitored
}

// worse is the worst-first sort: paging SLOs, then statistically
// inconsistent estimators (a quality alert means the filter is lying about
// its covariance — worse than any throughput symptom), then unhealthy
// supervisor states, then symptoms (degraded share, lag, queue depth),
// with the remaining error budget as the final tiebreaker — a
// 90%-budgeted session should not outrank one that is visibly lagging
// just because the lagging one has no SLO attached.
func worse(a, b row) bool {
	if ar, br := stateRank(a.SLOState), stateRank(b.SLOState); ar != br {
		return ar > br
	}
	if ar, br := qualityRank(a.QualityState), qualityRank(b.QualityState); ar != br {
		return ar > br
	}
	if ar, br := sessRank(a.State), sessRank(b.State); ar != br {
		return ar > br
	}
	if a.DegradedRatio != b.DegradedRatio {
		return a.DegradedRatio > b.DegradedRatio
	}
	al, bl := float64(a.LagP99Seconds), float64(b.LagP99Seconds)
	if math.IsNaN(al) {
		al = -1
	}
	if math.IsNaN(bl) {
		bl = -1
	}
	if al != bl {
		return al > bl
	}
	if a.QueueDepth != b.QueueDepth {
		return a.QueueDepth > b.QueueDepth
	}
	ab, bb := float64(a.BudgetRemaining), float64(b.BudgetRemaining)
	if math.IsNaN(ab) {
		ab = math.Inf(1)
	}
	if math.IsNaN(bb) {
		bb = math.Inf(1)
	}
	if ab != bb {
		return ab < bb
	}
	return a.ID < b.ID
}

func fmtSeconds(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v < 0:
		return "never"
	case v < 1:
		return fmt.Sprintf("%.0fms", v*1e3)
	case v < 120:
		return fmt.Sprintf("%.1fs", v)
	default:
		return fmt.Sprintf("%.0fm", v/60)
	}
}

func fmtRatio(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", v*100)
}

func render(w io.Writer, snap *snapshot, maxRows int, clear bool) {
	var sb strings.Builder
	if clear {
		sb.WriteString("\x1b[2J\x1b[H")
	}
	fmt.Fprintf(&sb, "rimtop — %s   fleet: %s   sessions: %d   queue: %.0f   lag p99: %s   degraded: %s%s\n",
		snap.Addr, strings.ToUpper(snap.FleetState), len(snap.Sessions),
		nanZero(float64(snap.QueueDepth)), fmtSeconds(float64(snap.FleetLagP99)), fmtRatio(snap.FleetDegraded),
		fmtRuntime(float64(snap.Goroutines), float64(snap.HeapBytes)))
	if snap.SLOAvailable {
		for _, o := range snap.SLO.Objectives {
			if o.Entity != "fleet" {
				continue
			}
			fmt.Fprintf(&sb, "  slo %-28s %-4s budget %5s  burn %5.1f/%5.1f\n",
				o.Name, o.State, fmtRatio(o.BudgetRemaining), o.BurnShort, o.BurnLong)
		}
	} else {
		sb.WriteString("  (no /slo endpoint — budgets unavailable)\n")
	}
	fmt.Fprintf(&sb, "\n%-20s %-11s %5s %4s %8s %6s %8s %7s %6s %-4s %-5s\n",
		"SESSION", "STATE", "QUEUE", "RST", "EST", "DEG%", "LAGp99", "AGE", "BUDGET", "SLO", "QUAL")
	rows := snap.Sessions
	if maxRows > 0 && len(rows) > maxRows {
		rows = rows[:maxRows]
	}
	for _, r := range rows {
		sloState := r.SLOState
		if sloState == "" {
			sloState = "-"
		}
		qual := r.QualityState
		if qual == "" {
			qual = "-"
		}
		fmt.Fprintf(&sb, "%-20s %-11s %5d %4d %8d %6s %8s %7s %6s %-4s %-5s\n",
			r.ID, r.State, r.QueueDepth, r.Restarts, r.Estimates,
			fmtRatio(r.DegradedRatio), fmtSeconds(float64(r.LagP99Seconds)),
			fmtSeconds(r.LastEstimateAgeSeconds), fmtRatio(float64(r.BudgetRemaining)), sloState, qual)
	}
	if n := len(snap.Sessions) - len(rows); n > 0 {
		fmt.Fprintf(&sb, "  … %d more (raise -rows)\n", n)
	}
	io.WriteString(w, sb.String())
}

func nanZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// fmtRuntime renders the rim_runtime_* header chunk, or nothing when the
// daemon predates the runtime sampler.
func fmtRuntime(goroutines, heap float64) string {
	if math.IsNaN(goroutines) && math.IsNaN(heap) {
		return ""
	}
	return fmt.Sprintf("   go: %.0fg %s", nanZero(goroutines), fmtBytes(heap))
}

func fmtBytes(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v >= 1<<30:
		return fmt.Sprintf("%.1fGiB", v/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}
