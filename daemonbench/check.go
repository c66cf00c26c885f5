package main

import (
	"fmt"
	"math"
	"os/exec"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"

	"rim/internal/core"
	"rim/internal/csi"
)

// driftGuard runs `rimserved -h` and fails when a flag default the harness
// copies (see served) differs from the daemon's.
func driftGuard(rimserved string) error {
	out, err := exec.Command(rimserved, "-h").CombinedOutput()
	if err != nil {
		return fmt.Errorf("drift guard: %s -h: %v", rimserved, err)
	}
	defaults := parseFlagDefaults(string(out))
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	want := map[string]string{
		"span":       num(served.span),
		"hop":        num(served.hop),
		"window":     num(served.window),
		"queue":      strconv.Itoa(served.queue),
		"policy":     served.policy,
		"shards":     strconv.Itoa(served.shards),
		"kernel":     served.kernel,
		"precision":  served.precision,
		"quality":    strconv.FormatBool(served.quality),
		"slo-lag-le": num(served.sloLagLE),
	}
	var drift []string
	for name, w := range want {
		got, ok := defaults[name]
		if !ok {
			drift = append(drift, fmt.Sprintf("-%s: flag missing", name))
		} else if got != w {
			drift = append(drift, fmt.Sprintf("-%s: rimserved default %q, harness copies %q", name, got, w))
		}
	}
	if len(drift) > 0 {
		return fmt.Errorf("drift guard: %s", strings.Join(drift, "; "))
	}
	return nil
}

var defaultRe = regexp.MustCompile(`\(default (.*)\)$`)

// parseFlagDefaults reads the flag package's usage listing: each flag is a
// "  -name [type]" line followed by indented usage lines, the last ending
// in "(default v)" unless the default is the type's zero value. A flag
// without that suffix maps to "" (callers compare zero values as "").
func parseFlagDefaults(usage string) map[string]string {
	out := map[string]string{}
	var name string
	for _, line := range strings.Split(usage, "\n") {
		if strings.HasPrefix(line, "  -") {
			name = strings.Fields(strings.TrimPrefix(line, "  -"))[0]
			out[name] = ""
			continue
		}
		if name == "" || !strings.HasPrefix(line, "    ") {
			continue
		}
		if m := defaultRe.FindStringSubmatch(strings.TrimSpace(line)); m != nil {
			v := m[1]
			if u, err := strconv.Unquote(v); err == nil {
				v = u
			}
			out[name] = v
		}
	}
	// The flag package omits zero-valued defaults; a bool that prints no
	// default is false.
	if v, ok := out["quality"]; ok && v == "" {
		out["quality"] = "false"
	}
	return out
}

// walkerSeries is a walker's exact frame sequence as a csi.Series; its
// rows alias the template.
func (f *fleet) walkerSeries(ti int) *csi.Series {
	s := f.templates[ti].series
	out := &csi.Series{
		Rate: s.Rate, NumAnts: s.NumAnts, NumTx: s.NumTx, NumSub: s.NumSub,
		H:       make([][][][]complex128, s.NumAnts),
		Missing: make([][]bool, s.NumAnts),
	}
	n := s.NumSlots()
	for a := 0; a < s.NumAnts; a++ {
		out.H[a] = make([][][]complex128, s.NumTx)
		for tx := 0; tx < s.NumTx; tx++ {
			out.H[a][tx] = make([][]complex128, f.frames)
			for k := range out.H[a][tx] {
				out.H[a][tx][k] = s.H[a][tx][k%n]
			}
		}
		out.Missing[a] = make([]bool, f.frames)
		for k := range out.Missing[a] {
			out.Missing[a][k] = s.Missing != nil && k%n < len(s.Missing[a]) && s.Missing[a][k%n]
		}
	}
	return out
}

// referenceEstimates replays every template's walker sequence offline
// through core.StreamSeries with the daemon's stream configuration, two
// templates at a time. Each replay gets its own configuration, as each
// daemon session does: an array.Array caches its pair list lazily and is
// not safe for concurrent use.
func referenceEstimates(f *fleet) ([][]core.Estimate, error) {
	ref := make([][]core.Estimate, len(f.templates))
	errs := make([]error, len(f.templates))
	sem := make(chan struct{}, 2)
	var wg sync.WaitGroup
	for ti := range f.templates {
		wg.Add(1)
		sem <- struct{}{}
		go func(ti int) {
			defer wg.Done()
			defer func() { <-sem }()
			cfg, err := streamConfig(f.wl.ants)
			if err != nil {
				errs[ti] = err
				return
			}
			ref[ti], errs[ti] = core.StreamSeries(f.walkerSeries(ti), cfg)
		}(ti)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ref, nil
}

// mismatches counts the slots where got differs from want, field by field
// with NaN equal to NaN, plus any length difference.
func mismatches(got, want []core.Estimate) int {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	bad := len(got) + len(want) - 2*n
	for i := 0; i < n; i++ {
		if !sameEstimate(got[i], want[i]) {
			bad++
		}
	}
	return bad
}

func sameEstimate(a, b core.Estimate) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			x, y := fa.Float(), fb.Float()
			if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
				return false
			}
			continue
		}
		if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			return false
		}
	}
	return true
}

// regularEmits is how many estimates a stream emits from its regular hops
// over n frames, before the close-time Flush: the Streamer hops once hop
// frames are pending and 2·guard are buffered, finalizing all but the
// last guard slots.
func regularEmits(n int) int {
	hop := int(served.hop * rate)
	guard := int(math.Ceil(served.window * rate))
	pending, last := 0, 0
	for k := 1; k <= n; k++ {
		pending++
		if pending >= hop && k >= 2*guard {
			pending = 0
			last = k - guard
		}
	}
	return last
}
