// Package slo layers service-level objectives over the cumulative
// counters internal/obs already collects. An Objective declares what
// fraction of events must be good (a target like 0.99) over a sliding
// window; a Source reports the cumulative (good, total) counts backing
// it. The Engine samples every source on Tick, maintains the sliding
// window, and derives the three readings SRE practice cares about:
//
//   - the good ratio over the window,
//   - the error-budget fraction remaining (how much of the allowed
//     badness the window has already spent), and
//   - multi-window burn rates: how fast the budget is burning over a
//     short and a long window, in multiples of the all-window-exactly-
//     at-target rate. Burn 1.0 spends the budget exactly at expiry;
//     burn 14.4 spends 2% of a 30-day budget in an hour.
//
// State is ok / warn / page, with the standard multi-window AND: a page
// requires both the short and the long burn above the page threshold, so
// a brief spike (short high, long low) and a stale ancient burn (long
// high, short low) both stay quiet. Transitions into page invoke OnPage,
// which rimserved wires to the flight recorder for a postmortem bundle.
//
// The engine never reads the wall clock: callers pass now into Tick, so
// tests (and replay tooling) drive time explicitly.
package slo

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"rim/internal/obs"
)

// State is an objective's paging state.
type State int

const (
	StateOK State = iota
	StateWarn
	StatePage
)

// String returns the state's wire spelling.
func (s State) String() string {
	switch s {
	case StateWarn:
		return "warn"
	case StatePage:
		return "page"
	}
	return "ok"
}

// Sample is a point-in-time reading of the cumulative event counts
// behind an objective: Total events seen, Good of them within objective.
// Both are cumulative (monotone); the engine differences them itself.
type Sample struct {
	Good  float64
	Total float64
}

// Source produces the current cumulative Sample for an objective.
type Source func() Sample

// Objective declares one SLO.
type Objective struct {
	// Name identifies the objective; it is the slo label value on every
	// rim_slo_* metric and must be unique within the engine.
	Name string
	// Entity attributes the objective ("fleet", or a session id).
	Entity string
	// Target is the required good fraction in (0, 1), e.g. 0.99.
	Target float64
	// Window is the error-budget window the budget is accounted over.
	Window time.Duration
	// Source reports cumulative (good, total); required.
	Source Source
}

// pageBurn and warnBurn are the burn-rate thresholds: an objective pages
// (warns) when both its short- and long-window burn rates reach them.
const (
	pageBurn = 14.4
	warnBurn = 3
)

// Config parameterizes the engine.
type Config struct {
	// Obs receives the rim_slo_* metric families (nil disables).
	Obs *obs.Registry
	// OnPage, when set, is invoked (outside the engine lock) each time an
	// objective transitions into StatePage.
	OnPage func(o Objective, s Status)
}

// Status is one objective's current evaluation, JSON-shaped for /slo.
type Status struct {
	Name          string  `json:"name"`
	Entity        string  `json:"entity"`
	Target        float64 `json:"target"`
	WindowSeconds float64 `json:"window_seconds"`
	// GoodRatio is the good fraction over the budget window (1 when the
	// window saw no events).
	GoodRatio float64 `json:"good_ratio"`
	// BudgetRemaining is the unspent error-budget fraction over the
	// budget window, clamped to [0, 1].
	BudgetRemaining float64 `json:"budget_remaining"`
	// BurnShort/BurnLong are the burn rates over the two windows.
	BurnShort float64 `json:"burn_short"`
	BurnLong  float64 `json:"burn_long"`
	State     string  `json:"state"`
	// Events is the total event count inside the budget window.
	Events float64 `json:"events"`
}

// sample is one retained source reading.
type sample struct {
	t time.Time
	s Sample
}

// tracked is one objective plus its sliding sample history.
type tracked struct {
	o     Objective
	hist  []sample // time-ascending; trimmed to the budget window
	state State
	last  Status
}

// Engine evaluates a dynamic set of objectives. Safe for concurrent use.
type Engine struct {
	cfg Config

	mu   sync.Mutex
	objs map[string]*tracked

	mState  *obs.GaugeFamily
	mBudget *obs.GaugeFamily
	mBurn   *obs.GaugeFamily
	mTrans  *obs.CounterFamily
}

// New builds an engine.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg, objs: make(map[string]*tracked)}
	if r := cfg.Obs; r != nil {
		lbl := obs.FamilyOpts{Labels: []string{"slo"}}
		e.mState = r.GaugeFamily("rim_slo_state",
			"objective paging state (0 ok, 1 warn, 2 page)", lbl)
		e.mBudget = r.GaugeFamily("rim_slo_budget_remaining_ratio",
			"unspent error-budget fraction over the objective window", lbl)
		e.mBurn = r.GaugeFamily("rim_slo_burn_rate",
			"error-budget burn rate in multiples of the sustainable rate",
			obs.FamilyOpts{Labels: []string{"slo", "window"}})
		e.mTrans = r.CounterFamily("rim_slo_transitions_total",
			"objective state transitions", obs.FamilyOpts{Labels: []string{"slo", "to"}})
	}
	return e
}

// Register adds (or replaces) an objective. The sample history starts
// empty; the objective reports ok until Tick has seen enough of it.
func (e *Engine) Register(o Objective) error {
	if o.Name == "" || o.Source == nil {
		return fmt.Errorf("slo: objective needs a name and a source")
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("slo: objective %q target %v outside (0, 1)", o.Name, o.Target)
	}
	if o.Window <= 0 {
		return fmt.Errorf("slo: objective %q needs a positive window", o.Name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.objs[o.Name] = &tracked{o: o, last: Status{
		Name: o.Name, Entity: o.Entity, Target: o.Target,
		WindowSeconds: o.Window.Seconds(), GoodRatio: 1, BudgetRemaining: 1,
		State: StateOK.String(),
	}}
	return nil
}

// Unregister drops an objective (a closed session's, typically) and
// forgets its metric children.
func (e *Engine) Unregister(name string) {
	e.mu.Lock()
	_, ok := e.objs[name]
	delete(e.objs, name)
	e.mu.Unlock()
	if !ok {
		return
	}
	e.mState.Forget(name)
	e.mBudget.Forget(name)
	e.mBurn.Forget(name, "short")
	e.mBurn.Forget(name, "long")
}

// windows resolves the burn windows for one objective: the long window is
// the objective's budget window and the short one a twelfth of it (the
// 1h/5m shape at a 1h budget window).
func windows(o Objective) (short, long time.Duration) {
	long = o.Window
	short = long / 12
	if short <= 0 {
		short = long
	}
	return short, long
}

// deltaOver returns the (good, total) deltas across the trailing window
// ending at the newest sample: newest minus the youngest sample at least
// window old (or the oldest retained when none is).
func deltaOver(hist []sample, window time.Duration) (good, total float64) {
	if len(hist) < 2 {
		return 0, 0
	}
	newest := hist[len(hist)-1]
	base := hist[0]
	cutoff := newest.t.Add(-window)
	for _, s := range hist {
		if s.t.After(cutoff) {
			break
		}
		base = s
	}
	return newest.s.Good - base.s.Good, newest.s.Total - base.s.Total
}

// burn converts a window's (good, total) delta into a burn rate: the
// observed bad fraction in multiples of the objective's allowance.
func burn(good, total, target float64) float64 {
	if total <= 0 {
		return 0
	}
	bad := (total - good) / total
	if bad < 0 {
		bad = 0
	}
	return bad / (1 - target)
}

// Tick samples every objective's source at now, slides the windows and
// re-evaluates states. OnPage fires (after the lock is released) for
// every objective that transitioned into page this tick.
func (e *Engine) Tick(now time.Time) {
	type paged struct {
		o Objective
		s Status
	}
	var fire []paged

	e.mu.Lock()
	for _, tr := range e.objs {
		s := tr.o.Source()
		tr.hist = append(tr.hist, sample{t: now, s: s})
		// Retain one sample beyond the window so deltaOver always has a
		// base that is at least window old once the history is mature.
		cut := 0
		for cut < len(tr.hist)-1 && !tr.hist[cut+1].t.After(now.Add(-tr.o.Window)) {
			cut++
		}
		tr.hist = tr.hist[cut:]

		short, long := windows(tr.o)
		goodW, totalW := deltaOver(tr.hist, tr.o.Window)
		goodS, totalS := deltaOver(tr.hist, short)
		goodL, totalL := deltaOver(tr.hist, long)

		st := Status{
			Name: tr.o.Name, Entity: tr.o.Entity, Target: tr.o.Target,
			WindowSeconds: tr.o.Window.Seconds(),
			GoodRatio:     1, BudgetRemaining: 1,
			Events: totalW,
		}
		if totalW > 0 {
			st.GoodRatio = goodW / totalW
			st.BudgetRemaining = 1 - burn(goodW, totalW, tr.o.Target)
			if st.BudgetRemaining < 0 {
				st.BudgetRemaining = 0
			}
		}
		st.BurnShort = burn(goodS, totalS, tr.o.Target)
		st.BurnLong = burn(goodL, totalL, tr.o.Target)

		next := StateOK
		switch {
		case st.BurnShort >= pageBurn && st.BurnLong >= pageBurn:
			next = StatePage
		case st.BurnShort >= warnBurn && st.BurnLong >= warnBurn:
			next = StateWarn
		}
		st.State = next.String()
		if next != tr.state {
			e.mTrans.With(tr.o.Name, next.String()).Inc()
			if next == StatePage && e.cfg.OnPage != nil {
				fire = append(fire, paged{o: tr.o, s: st})
			}
		}
		tr.state = next
		tr.last = st

		e.mState.With(tr.o.Name).Set(float64(next))
		e.mBudget.With(tr.o.Name).Set(st.BudgetRemaining)
		e.mBurn.With(tr.o.Name, "short").Set(st.BurnShort)
		e.mBurn.With(tr.o.Name, "long").Set(st.BurnLong)
	}
	e.mu.Unlock()

	for _, p := range fire {
		e.cfg.OnPage(p.o, p.s)
	}
}

// Statuses returns every objective's latest evaluation, name-sorted.
func (e *Engine) Statuses() []Status {
	e.mu.Lock()
	out := make([]Status, 0, len(e.objs))
	for _, tr := range e.objs {
		out = append(out, tr.last)
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Status returns one objective's latest evaluation.
func (e *Engine) Status(name string) (Status, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	tr, ok := e.objs[name]
	if !ok {
		return Status{}, false
	}
	return tr.last, true
}
