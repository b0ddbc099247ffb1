// Command perfbench measures how fast the simulator turns simulated
// transactions into results, and checks that the results are still right.
// It runs one workload for a fixed host-time budget and prints, as its
// last line, one JSON object with the run's correctness and metrics.
//
//	go build -o perfbench . && ./perfbench --workload dc-disk --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root (it reads perfbench/fingerprints.json);
// perfbench/run.sh builds and runs it in one step. README.md describes the
// workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload     string
	seed         int64
	seconds      int
	trace        int
	fingerprints string
	record       bool
	inject       float64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: dc-disk, trace-nvem or pdes64-shared")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the workload's inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "host seconds of engine calls to measure")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.fingerprints, "fingerprints", "perfbench/fingerprints.json", "expected-output fingerprints")
	flag.BoolVar(&o.record, "record", false, "store this seed's fingerprints instead of checking them (needs --trace 1)")
	flag.Float64Var(&o.inject, "inject-slowdown", 0, "self-test: busy-wait in the generator wrapper to slow engine calls by this fraction")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench holds one run's state.
type bench struct {
	o        options
	w        *workloadDef
	expected fingerprint
	haveFP   bool
	// refReport is the report of the first engine call; every later call
	// on the same inputs must reproduce it byte for byte.
	refReport string
	refOut    *outcome

	batch             int // set-ups per measured call
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	samples           map[string][]float64
	notApplicable     []string
}

func run(o options) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if o.record && o.trace != 1 {
		return errors.New("--record needs --trace 1")
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	fps, err := loadFingerprints(o.fingerprints)
	if err != nil {
		if !o.record || !errors.Is(err, os.ErrNotExist) {
			return err
		}
		fps = fingerprintFile{}
	}
	b := &bench{o: o, w: w, metrics: map[string]metric{}, samples: map[string][]float64{}}
	b.expected, b.haveFP = fps.expected(w.name, o.seed)
	if o.record {
		b.haveFP = false
	}

	if o.trace == 0 {
		err = b.untraced()
	} else {
		err = b.traced()
	}
	if err != nil {
		return err
	}
	if o.record {
		if err := fps.record(o.fingerprints, w.name, o.seed, b.expected); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "recorded %s seed %d in %s\n", w.name, o.seed, o.fingerprints)
	}
	return b.report()
}

// fail records one failed check.
func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// checkOutcome counts one engine call and checks its output: the laws, and
// the report against the committed fingerprint when this seed has one,
// otherwise against the run's first call.
func (b *bench) checkOutcome(out *outcome) {
	b.attempted++
	ok := b.matchesReference("engine call", out.report)
	if err := checkLaws(out); err != nil {
		b.fail("laws: %v", err)
		ok = false
	}
	if !ok {
		b.failed++
	}
}

// matchesReference checks a report against the committed fingerprint when
// this seed has one, otherwise against the run's first engine call.
func (b *bench) matchesReference(who, report string) bool {
	if b.haveFP {
		if got := sha(report); got != b.expected.Report {
			b.fail("%s: report sha256 %s, expected %s", who, got, b.expected.Report)
			return false
		}
		return true
	}
	if report != b.refReport {
		b.fail("%s: report differs from the run's first engine call on the same inputs", who)
		return false
	}
	return true
}

// setup builds one instance, failing the run on error.
func (b *bench) setup(st *setupTimes) (*instance, error) {
	if st == nil {
		st = &setupTimes{}
	}
	in, err := b.w.setup(b.o.seed, st)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", b.w.name, err)
	}
	return in, nil
}

// setupBatch is about the host time one set-up sample spans: a cheap
// set-up is timed as the mean of a batch, and the engine runs the batch's
// last instance. Sampling set-up before every engine call spreads the
// samples over the whole run, like the engine calls.
const setupBatch = 25 * time.Millisecond

// call is one measured set-up plus engine call.
type call struct {
	out          *outcome
	gens         []*tracedGen
	setup        float64       // seconds per set-up, the batch's mean
	build, synth float64       // the layers' share of setup, seconds
	run          time.Duration // the engine call
	peakRSSMB    float64       // peak resident set during the engine call
	allocBytes   uint64        // allocated by one set-up plus the engine call
	mallocs      uint64        // allocations of the engine call
	gcCycles     uint32        // GC cycles during the engine call
	gcPause      time.Duration // GC pause time during the engine call
}

// measure sets the workload up batch times, then runs the engine once on
// the last instance, its generators wrapped (timing and capturing Next
// calls when capture is set, busy-waiting spin per call). A GC before the
// set-up and another before the engine call keep each phase's garbage out
// of the other's timing; the second also returns the set-up's garbage to
// the OS, so the call's peak resident set is its own.
func (b *bench) measure(batch int, capture bool, spin time.Duration) (*call, error) {
	var st setupTimes
	var in *instance
	var m0, m1, m2, m3 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for j := 0; j < batch; j++ {
		var err error
		if in, err = b.setup(&st); err != nil {
			return nil, err
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	gens := wrap(in, capture, spin)
	debug.FreeOSMemory()
	resetPeakRSS()
	runtime.ReadMemStats(&m2)
	t1 := time.Now()
	out, err := in.run()
	if err != nil {
		return nil, fmt.Errorf("%s engine call: %w", b.w.name, err)
	}
	run := time.Since(t1)
	peak := peakRSSMB()
	runtime.ReadMemStats(&m3)
	n := float64(batch)
	return &call{
		out: out, gens: gens,
		setup: el.Seconds() / n, build: st.build.Seconds() / n, synth: st.synth.Seconds() / n,
		run:        run,
		peakRSSMB:  peak,
		allocBytes: (m1.TotalAlloc-m0.TotalAlloc)/uint64(batch) + m3.TotalAlloc - m2.TotalAlloc,
		mallocs:    m3.Mallocs - m2.Mallocs,
		gcCycles:   m3.NumGC - m2.NumGC,
		gcPause:    time.Duration(m3.PauseTotalNs - m2.PauseTotalNs),
	}, nil
}

// warmUp makes two engine calls outside the measurement. They fill lazy
// caches (the registry trace TraceSetup keeps, the heap), and the first
// fixes the reference report. Then it sizes the run's set-up batch.
func (b *bench) warmUp() error {
	c, err := b.measure(1, false, 0)
	if err != nil {
		return err
	}
	b.refReport, b.refOut = c.out.report, c.out
	b.checkOutcome(c.out)
	c, err = b.measure(1, false, 0)
	if err != nil {
		return err
	}
	b.checkOutcome(c.out)
	// The batch is as many set-ups as fill setupBatch once the lazy caches
	// are warm; timing a single cheap set-up would overstate it many times.
	b.batch = 1
	if c.setup < setupBatch.Seconds() {
		b.batch = 0
		for t0 := time.Now(); time.Since(t0) < setupBatch; b.batch++ {
			if _, err := b.setup(nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() error {
	if err := b.warmUp(); err != nil {
		return err
	}
	var spin time.Duration
	if b.o.inject > 0 {
		// Spread inject × the host time of a call made like the measured
		// ones over its generator calls.
		c, err := b.measure(b.batch, false, 0)
		if err != nil {
			return err
		}
		b.checkOutcome(c.out)
		var calls int64
		for _, g := range c.gens {
			calls += g.calls
		}
		spin = time.Duration(b.o.inject * float64(c.run) / float64(max(calls, 1)))
		// A wait overshoots by the cost of reading the clock; shrink the
		// target so the waits still add up to inject × the call.
		const probes = 1000
		t0 := time.Now()
		for i := 0; i < probes; i++ {
			busyWait(spin)
		}
		actual := time.Since(t0) / probes
		spin = time.Duration(float64(spin) * float64(spin) / float64(max(actual, 1)))
	}
	var wall, setups, txPerS, allocMB, rssMB []float64
	deadline := time.Now().Add(time.Duration(b.o.seconds) * time.Second)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		c, err := b.measure(b.batch, false, spin)
		if err != nil {
			return err
		}
		b.checkOutcome(c.out)
		wall = append(wall, c.setup+c.run.Seconds())
		setups = append(setups, c.setup)
		txPerS = append(txPerS, float64(c.out.agg.Commits)/c.run.Seconds())
		allocMB = append(allocMB, float64(c.allocBytes)/1e6)
		rssMB = append(rssMB, c.peakRSSMB)
	}
	b.set("wall_s", median(wall), "s")
	b.set("setup_s", median(setups), "s")
	b.set("sim_tx_per_s", median(txPerS), "1/s")
	b.set("alloc_mb", median(allocMB), "MB")
	b.set("peak_rss_mb", median(rssMB), "MB")
	b.samples["wall_s"], b.samples["setup_s"] = wall, setups
	b.samples["sim_tx_per_s"], b.samples["alloc_mb"] = txPerS, allocMB
	b.samples["peak_rss_mb"] = rssMB
	if b.refOut.nodes != nil {
		_, err := b.serialCheck()
		return err
	}
	return nil
}

// serialCheck reruns the cluster workload with one PDES worker; its report
// must equal the multi-worker report byte for byte. It returns the serial
// call's host time.
func (b *bench) serialCheck() (time.Duration, error) {
	in, err := b.setup(nil)
	if err != nil {
		return 0, err
	}
	in.cluster.PDES.Workers = 1
	runtime.GC()
	t0 := time.Now()
	out, err := in.run()
	if err != nil {
		return 0, err
	}
	el := time.Since(t0)
	b.attempted++
	if !b.matchesReference("1-worker PDES call", out.report) {
		b.failed++
	}
	return el, nil
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// na reports a per-layer metric the workload does not exercise; it reads 0.
func (b *bench) na(name, unit string) {
	b.set(name, 0, unit)
	b.notApplicable = append(b.notApplicable, name)
}

// report writes the results file and prints the summary; the JSON object
// is the last line of standard output.
func (b *bench) report() error {
	sum := summary{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	}
	failFrac := float64(b.failed) / float64(max(b.attempted, 1))
	host := hostInfo()
	sort.Strings(b.notApplicable)
	var paperRef any = "none: the paper reports no figure for this workload"
	if b.w.paperMMHitPct > 0 {
		paperRef = map[string]float64{"mm_hit_pct": b.w.paperMMHitPct}
	}
	results := map[string]any{
		"workload": b.w.name, "seed": b.o.seed, "seconds": b.o.seconds, "trace": b.o.trace,
		"inject_slowdown": b.o.inject, "host": host, "setup_batch": b.batch,
		"correct": sum.Correct, "attempted": b.attempted, "failed": b.failed, "fail_frac": failFrac,
		"fingerprint_known": b.haveFP, "problems": b.problems,
		"metrics": b.metrics, "samples": b.samples, "not_applicable": b.notApplicable,
		"paper_reference": paperRef,
	}
	path := filepath.Join(".bench_build", "results",
		fmt.Sprintf("%s-seed%d-trace%d.json", b.w.name, b.o.seed, b.o.trace))
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}

	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)
	fmt.Printf("workload %s seed %d trace %d: %d engine calls, %d failed (fail_frac %g), fingerprint known: %v\n",
		b.w.name, b.o.seed, b.o.trace, b.attempted, b.failed, failFrac, b.haveFP)
	for _, p := range b.problems {
		fmt.Printf("FAIL %s\n", p)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	fmt.Printf("results written to %s\n", path)
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostInfo is the host block every results file carries: numbers from
// different hosts are never compared.
func hostInfo() map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"cpu_model":  cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"git_commit": commit,
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// resetPeakRSS restarts the kernel's count of the process's peak resident
// set (VmHWM) from the current resident set.
func resetPeakRSS() {
	// Where the kernel refuses the write, the peak covers the whole process
	// so far, which can only overstate the call's own peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set since the last reset.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
