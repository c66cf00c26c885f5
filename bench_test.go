package rim

// This file is the benchmark harness required by the reproduction: one
// testing.B benchmark per evaluation figure of the paper (each runs the
// corresponding experiment at Fast scale and reports its headline metric via
// b.ReportMetric), plus micro-benchmarks for the §6.2.9 system-complexity
// claims (TRRS matrix throughput and memory). Run
//
//	go test -bench=. -benchmem
//
// for the whole suite, or cmd/rimbench for the full-scale experiment run
// with paper-vs-measured tables.

import (
	"runtime"
	"testing"

	"rim/internal/align"
	"rim/internal/array"
	"rim/internal/csi"
	"rim/internal/experiments"
	"rim/internal/geom"
	"rim/internal/rf"
	"rim/internal/sigproc"
	"rim/internal/traj"
	"rim/internal/trrs"
)

func BenchmarkFig04TRRSResolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(experiments.Fast)
		b.ReportMetric(r.SelfTRRS[len(r.SelfTRRS)-1], "selfTRRS@40mm")
	}
}

func BenchmarkFig05AlignmentMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(experiments.Fast)
		b.ReportMetric(float64(len(r.LegHeadings)), "legs-resolved")
	}
}

func BenchmarkFig06DeviatedRetracing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6(experiments.Fast)
		b.ReportMetric(r.PromByDeviation[15], "prominence@15deg")
	}
}

func BenchmarkFig07MovementDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(experiments.Fast)
		b.ReportMetric(float64(r.StopsDetectedRIM), "stops-detected-rim")
		b.ReportMetric(float64(r.StopsDetectedIMU), "stops-detected-imu")
	}
}

func BenchmarkFig08PeakTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(experiments.Fast)
		b.ReportMetric(r.HitRate, "lag-hit-rate")
	}
}

func BenchmarkFig11DistanceAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11(experiments.Fast)
		b.ReportMetric(sigproc.Median(r.Desktop.Centimeters()), "desktop-median-cm")
		b.ReportMetric(sigproc.Median(r.CartNLOS.Centimeters()), "cart-nlos-median-cm")
	}
}

func BenchmarkFig12HeadingAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(experiments.Fast)
		b.ReportMetric(r.MeanErrDeg, "mean-heading-err-deg")
	}
}

func BenchmarkFig13RotationAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13(experiments.Fast)
		b.ReportMetric(sigproc.Median(r.RIMErrDeg), "rim-median-err-deg")
		b.ReportMetric(sigproc.Median(r.GyroErrDeg), "gyro-median-err-deg")
	}
}

func BenchmarkFig14APLocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig14(experiments.Fast)
		worst := 0.0
		for _, v := range r.MedianCmByAP {
			if v > worst {
				worst = v
			}
		}
		b.ReportMetric(worst, "worst-ap-median-cm")
	}
}

func BenchmarkFig15Accumulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig15(experiments.Fast)
		b.ReportMetric(r.ErrCmAtMeter[len(r.ErrCmAtMeter)-1], "err-at-last-meter-cm")
	}
}

func BenchmarkFig16SamplingRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig16(experiments.Fast)
		b.ReportMetric(r.MedianCmByRate[200], "median-cm@200Hz")
		b.ReportMetric(r.MedianCmByRate[20], "median-cm@20Hz")
	}
}

func BenchmarkFig17VirtualAntennas(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig17(experiments.Fast)
		b.ReportMetric(r.MedianCmByV[1], "median-cm@V=1")
		b.ReportMetric(r.MedianCmByV[r.Vs[len(r.Vs)-1]], "median-cm@V=max")
	}
}

func BenchmarkDynEnvironmentalDynamics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Dyn(experiments.Fast)
		b.ReportMetric(r.StaticErrCm, "static-median-cm")
		b.ReportMetric(r.DynamicErrCm, "dynamic-median-cm")
	}
}

func BenchmarkFig18Handwriting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig18(experiments.Fast)
		b.ReportMetric(r.OverallMeanCm, "mean-trajectory-err-cm")
	}
}

func BenchmarkFig19Gesture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig19(experiments.Fast)
		b.ReportMetric(r.DetectionRate*100, "detection-rate-pct")
	}
}

func BenchmarkFig20PureTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig20(experiments.Fast)
		b.ReportMetric(sigproc.Median(r.MedianErrM)*100, "median-err-cm")
	}
}

func BenchmarkFig21FusedTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig21(experiments.Fast)
		b.ReportMetric(r.RawMedianErrM*100, "raw-median-err-cm")
		b.ReportMetric(r.PFMedianErrM*100, "pf-median-err-cm")
	}
}

func BenchmarkAblationSanitize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationSanitize(experiments.Fast)
		b.ReportMetric(r.With, "with-cm")
		b.ReportMetric(r.Without, "without-cm")
	}
}

func BenchmarkAblationDPTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationDP(experiments.Fast)
		b.ReportMetric(r.With, "dp-outlier-rate")
		b.ReportMetric(r.Without, "argmax-outlier-rate")
	}
}

func BenchmarkAblationPairAveraging(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationPairAvg(experiments.Fast)
		b.ReportMetric(r.With, "with-cm")
		b.ReportMetric(r.Without, "without-cm")
	}
}

func BenchmarkAblationAmplitudeSimilarity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.AblationAmplitude(experiments.Fast)
		b.ReportMetric(r.With, "trrs-prominence")
		b.ReportMetric(r.Without, "amplitude-prominence")
	}
}

func BenchmarkExtWiBallComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.ExtWiBall(experiments.Fast)
		b.ReportMetric(r.RIMErrCm, "rim-median-cm")
		b.ReportMetric(r.WiBallErrCm, "wiball-median-cm")
	}
}

func BenchmarkPerfEngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Perf(experiments.Fast)
		b.ReportMetric(r.IncrementalSlotsPerSec, "slots/s")
		b.ReportMetric(r.HopNs, "hop-ns")
	}
}

// --- §6.2.9 system complexity micro-benchmarks -------------------------

// benchSeries builds a small processed CSI series once per benchmark.
func benchSeries(b *testing.B, slots int) *csi.Series {
	b.Helper()
	cfg := rf.FastConfig()
	env := rf.NewEnvironment(cfg, geom.Vec2{}, geom.Vec2{X: 10}, nil)
	arr := array.NewLinear3(0.029)
	rate := 100.0
	tr := traj.Line(rate, geom.Vec2{X: 10}, 0, 0, float64(slots)/rate*0.4, 0.4)
	s, err := csi.Collect(env, arr, tr, csi.RealisticReceiver(1)).Process(true)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkComplexityTRRSBase measures the pairwise TRRS kernel (Eq. 3) —
// the innermost operation of the system (§6.2.9: the main computation
// burden lies in the calculation of TRRS).
func BenchmarkComplexityTRRSBase(b *testing.B) {
	s := benchSeries(b, 100)
	e := trrs.NewEngine(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Base(0, 2, 50, 40)
	}
}

// BenchmarkComplexityTRRSMatrix measures building one pair's full alignment
// matrix (the per-sample cost is m·(m−1)·W TRRS values for an m-antenna
// array), pinned to one worker (GOMAXPROCS 1) as the historical reference.
func BenchmarkComplexityTRRSMatrix(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := benchSeries(b, 200)
	e := trrs.NewEngine(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PairMatrix(0, 2, 30, 16)
	}
}

// BenchmarkComplexityTRRSMatrixParallel is the same matrix built through
// the worker pool at GOMAXPROCS (the pipeline's default since the engine
// went parallel).
func BenchmarkComplexityTRRSMatrixParallel(b *testing.B) {
	s := benchSeries(b, 200)
	e := trrs.NewEngine(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.PairMatrix(0, 2, 30, 16)
	}
}

// BenchmarkComplexityFullPipeline measures the end-to-end per-trace cost of
// the RIM pipeline (excluding CSI simulation), the number the paper's
// real-time C++ implementation is sized against.
func BenchmarkComplexityFullPipeline(b *testing.B) {
	s := benchSeries(b, 300)
	arr := array.NewLinear3(0.029)
	cfg := FastCoreConfig(arr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Process(s, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComplexityCFRSynthesis measures the simulation substrate itself
// (not part of the paper's system, but it bounds experiment runtimes).
func BenchmarkComplexityCFRSynthesis(b *testing.B) {
	cfg := rf.DefaultConfig()
	env := rf.NewEnvironment(cfg, geom.Vec2{}, geom.Vec2{X: 10}, nil)
	out := make([]complex128, cfg.NumSubcarriers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.CFR(geom.Vec2{X: 10, Y: 0.001 * float64(i%100)}, i%3, 0, out)
	}
}

// BenchmarkComplexityDPTracking measures the Eq. 6–8 dynamic program on a
// realistic matrix size.
func BenchmarkComplexityDPTracking(b *testing.B) {
	s := benchSeries(b, 300)
	e := trrs.NewEngine(s)
	m := e.PairMatrix(0, 2, 30, 16)
	cfg := align.DefaultTrackConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTrack = align.TrackPeaks(m, 0, m.NumSlots(), cfg)
	}
}

var sinkTrack *align.Track

func BenchmarkExtContinuousHeading(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.ExtHeading(experiments.Fast)
		b.ReportMetric(r.DiscreteMeanDeg, "discrete-mean-deg")
		b.ReportMetric(r.ContinuousMeanDeg, "continuous-mean-deg")
	}
}
