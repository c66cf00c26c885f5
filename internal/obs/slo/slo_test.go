package slo

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rim/internal/obs"
)

// fakeSource is a hand-cranked cumulative counter pair.
type fakeSource struct{ good, total float64 }

func (f *fakeSource) src() Sample { return Sample{Good: f.good, Total: f.total} }

// add records n events, g of them good.
func (f *fakeSource) add(n, g float64) { f.total += n; f.good += g }

func newTestEngine(t *testing.T, reg *obs.Registry, fs *fakeSource, onPage func(Objective, Status)) *Engine {
	t.Helper()
	e := New(Config{Obs: reg, OnPage: onPage})
	if err := e.Register(Objective{
		Name: "lag", Entity: "fleet", Target: 0.99,
		Window: time.Hour, Source: fs.src,
	}); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineStaysOKWithinBudget(t *testing.T) {
	fs := &fakeSource{}
	e := newTestEngine(t, nil, fs, nil)
	now := time.Unix(1000, 0)
	for i := 0; i < 20; i++ {
		fs.add(100, 99.5) // 0.5% bad against a 1% budget: burn 0.5
		now = now.Add(time.Minute)
		e.Tick(now)
	}
	st, ok := e.Status("lag")
	if !ok {
		t.Fatal("objective missing")
	}
	if st.State != "ok" {
		t.Fatalf("state = %s, want ok (burn %.2f/%.2f)", st.State, st.BurnShort, st.BurnLong)
	}
	if st.BudgetRemaining < 0.4 || st.BudgetRemaining > 0.6 {
		t.Fatalf("budget remaining = %v, want ~0.5", st.BudgetRemaining)
	}
	if st.GoodRatio < 0.99 {
		t.Fatalf("good ratio = %v, want 0.995", st.GoodRatio)
	}
}

func TestEnginePagesOnFastBurn(t *testing.T) {
	fs := &fakeSource{}
	var pages []Status
	e := newTestEngine(t, nil, fs, func(_ Objective, s Status) { pages = append(pages, s) })
	now := time.Unix(1000, 0)
	// Healthy traffic first, then total failure: burn jumps to 100x the
	// allowance on both windows.
	for i := 0; i < 10; i++ {
		fs.add(100, 100)
		now = now.Add(time.Minute)
		e.Tick(now)
	}
	for i := 0; i < 10; i++ {
		fs.add(100, 0)
		now = now.Add(time.Minute)
		e.Tick(now)
	}
	st, _ := e.Status("lag")
	if st.State != "page" {
		t.Fatalf("state = %s, want page (burn %.1f/%.1f)", st.State, st.BurnShort, st.BurnLong)
	}
	if len(pages) != 1 {
		t.Fatalf("OnPage fired %d times, want once per transition", len(pages))
	}
	if st.BudgetRemaining != 0 {
		t.Fatalf("budget remaining = %v, want 0 after total failure", st.BudgetRemaining)
	}
	// Recovery: long window still remembers the failure but the short
	// window clears, so the page de-asserts (multi-window AND).
	for i := 0; i < 8; i++ {
		fs.add(100, 100)
		now = now.Add(time.Minute)
		e.Tick(now)
	}
	st, _ = e.Status("lag")
	if st.State == "page" {
		t.Fatalf("still paging after short-window recovery (burn %.1f/%.1f)", st.BurnShort, st.BurnLong)
	}
	if len(pages) != 1 {
		t.Fatalf("OnPage re-fired without a new transition (%d)", len(pages))
	}
}

func TestEngineWarnBetweenThresholds(t *testing.T) {
	fs := &fakeSource{}
	e := newTestEngine(t, nil, fs, nil)
	now := time.Unix(1000, 0)
	for i := 0; i < 20; i++ {
		fs.add(100, 95) // 5% bad = burn 5: above warn (3), below page (14.4)
		now = now.Add(time.Minute)
		e.Tick(now)
	}
	st, _ := e.Status("lag")
	if st.State != "warn" {
		t.Fatalf("state = %s, want warn (burn %.1f/%.1f)", st.State, st.BurnShort, st.BurnLong)
	}
}

func TestEngineNoTrafficStaysOK(t *testing.T) {
	fs := &fakeSource{}
	e := newTestEngine(t, nil, fs, nil)
	now := time.Unix(1000, 0)
	for i := 0; i < 5; i++ {
		now = now.Add(time.Minute)
		e.Tick(now)
	}
	st, _ := e.Status("lag")
	if st.State != "ok" || st.GoodRatio != 1 || st.BudgetRemaining != 1 {
		t.Fatalf("idle objective not pristine: %+v", st)
	}
}

func TestEngineSlidingWindowForgets(t *testing.T) {
	fs := &fakeSource{}
	e := New(Config{})
	if err := e.Register(Objective{
		Name: "w", Target: 0.9, Window: 10 * time.Minute, Source: fs.src,
	}); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	// A burst of failure, then a quiet hour: the window slides past the
	// failure and the budget refills.
	fs.add(100, 0)
	now = now.Add(time.Minute)
	e.Tick(now)
	for i := 0; i < 30; i++ {
		fs.add(10, 10)
		now = now.Add(time.Minute)
		e.Tick(now)
	}
	st, _ := e.Status("w")
	if st.BudgetRemaining != 1 {
		t.Fatalf("budget = %v, want 1 after the failure aged out", st.BudgetRemaining)
	}
}

func TestEngineMetricsAndUnregister(t *testing.T) {
	reg := obs.NewRegistry()
	fs := &fakeSource{}
	e := newTestEngine(t, reg, fs, nil)
	now := time.Unix(1000, 0)
	fs.add(100, 0)
	now = now.Add(time.Minute)
	e.Tick(now)
	fs.add(100, 0)
	now = now.Add(time.Minute)
	e.Tick(now)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`rim_slo_state{slo="lag"} 2`,
		`rim_slo_budget_remaining_ratio{slo="lag"} 0`,
		`rim_slo_burn_rate{slo="lag",window="short"} 99.9`,
		`rim_slo_transitions_total{slo="lag",to="page"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics missing %q:\n%s", want, out)
		}
	}
	if bad := obs.LintMetricNames(reg.Snapshot()); len(bad) != 0 {
		t.Fatalf("rim_slo_* metrics fail lint: %v", bad)
	}

	e.Unregister("lag")
	if len(e.Statuses()) != 0 {
		t.Fatal("Unregister left the objective")
	}
	sb.Reset()
	reg.WritePrometheus(&sb)
	if strings.Contains(sb.String(), `rim_slo_state{slo="lag"}`) {
		t.Fatalf("Unregister left live metric children:\n%s", sb.String())
	}
}

func TestHandlerAndRollup(t *testing.T) {
	good, bad := &fakeSource{}, &fakeSource{}
	e := New(Config{})
	e.Register(Objective{Name: "a", Entity: "fleet", Target: 0.99, Window: time.Hour, Source: good.src})
	e.Register(Objective{Name: "b", Entity: "sess-1", Target: 0.99, Window: time.Hour, Source: bad.src})
	now := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		good.add(100, 100)
		bad.add(100, 0)
		now = now.Add(time.Minute)
		e.Tick(now)
	}
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var rep Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.State != "page" {
		t.Fatalf("rollup state = %s, want page (worst objective)", rep.State)
	}
	if len(rep.Objectives) != 2 || rep.Objectives[0].Name != "a" || rep.Objectives[1].Name != "b" {
		t.Fatalf("objectives wrong: %+v", rep.Objectives)
	}
	if rep.Objectives[0].State != "ok" || rep.Objectives[1].State != "page" {
		t.Fatalf("per-objective states wrong: %+v", rep.Objectives)
	}
}

func TestSources(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("l_seconds", "", []float64{0.1, 0.25, 1})
	h.Observe(0.05)
	h.Observe(0.2)
	h.Observe(2)
	ls := LatencySource(h, 0.25)()
	if ls.Good != 2 || ls.Total != 3 {
		t.Fatalf("LatencySource = %+v, want good 2 total 3", ls)
	}

	var nilH *obs.Histogram
	if s := LatencySource(nilH, 1)(); s.Good != 0 || s.Total != 0 {
		t.Fatalf("nil-histogram source = %+v", s)
	}
}

func TestRegisterValidation(t *testing.T) {
	e := New(Config{})
	src := func() Sample { return Sample{} }
	for _, o := range []Objective{
		{Name: "", Target: 0.9, Window: time.Hour, Source: src},
		{Name: "x", Target: 0, Window: time.Hour, Source: src},
		{Name: "x", Target: 1, Window: time.Hour, Source: src},
		{Name: "x", Target: 0.9, Window: 0, Source: src},
		{Name: "x", Target: 0.9, Window: time.Hour},
	} {
		if err := e.Register(o); err == nil {
			t.Fatalf("Register(%+v) accepted", o)
		}
	}
}
