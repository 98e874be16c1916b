// Command perfbench is the clustercolor benchmark. It measures the library
// from outside, through the calls a user makes, on one named workload:
//
//	perfbench --workload planted-high --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it times clustercolor.Color on a pre-generated instance for
// --seconds seconds, then makes one untimed call for the peak live heap, and
// reports the end-to-end metrics. With --trace 1 it
// replays Color's public steps layer by layer, adds the acd and sketch probes,
// and reports the per-layer metrics. Every coloring is checked with
// clustercolor.Verify outside the timer; a call that errors, fails
// verification or departs from the first call's deterministic counters is
// counted as failed.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it stamps the run
// with commit, Go version, GOMAXPROCS, nproc and seed. Spans of a traced run
// go to standard error as one JSON document at the end.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"clustercolor"
	"clustercolor/internal/core"
)

// commit is set at build time (-ldflags "-X main.commit=...").
var commit = "unknown"

// Setup repeats instance generation at least minSetups times and, while the
// repeats stay under setupBudget, up to maxSetups times; setup_s is their
// median.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = time.Second
)

// minCalls is the fewest timed calls a run makes, however long they take.
const minCalls = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark run.
type config struct {
	w       workload
	seed    uint64
	seconds float64
	tamper  func(call int, colors []int) // see tally.tamper
	log     io.Writer
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: planted-high, gnp-low or ring-sharded")
	seed := fs.Uint64("seed", 1, "seed of the generated instance and of Options.Seed")
	seconds := fs.Int("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkArgs(*seconds, *trace, fs.NArg()); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := checkProcs(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := lookupWorkload(*name, false)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: float64(*seconds), log: stderr}
	var res result
	var spans []span
	if *trace == 1 {
		res, spans, err = traceRun(cfg)
	} else {
		res, err = measure(cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if spans != nil {
		if err := json.NewEncoder(stderr).Encode(map[string]any{"spans": spans}); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	stamp := map[string]any{
		"commit": commit, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "seed": *seed, "workload": *name, "trace": *trace,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"stamp": stamp}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

func checkArgs(seconds, trace, extra int) error {
	switch {
	case extra > 0:
		return errors.New("unexpected positional arguments")
	case seconds < 1:
		return fmt.Errorf("--seconds %d must be at least 1", seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	return nil
}

// checkProcs refuses a run that asks for more parallelism than the box has
// CPUs: its wall times would measure oversubscription, not the library.
func checkProcs() error {
	if p, n := runtime.GOMAXPROCS(0), runtime.NumCPU(); p > n {
		return fmt.Errorf("GOMAXPROCS=%d exceeds nproc=%d; refusing to measure an oversubscribed run", p, n)
	}
	return nil
}

// setUp generates the instance repeatedly (see minSetups) and returns the
// last graph with the median generation time in seconds.
func setUp(w workload, seed uint64) (*clustercolor.Graph, float64, error) {
	var times []float64
	var h *clustercolor.Graph
	start := time.Now()
	for len(times) < minSetups || (len(times) < maxSetups && time.Since(start) < setupBudget) {
		h = nil
		runtime.GC()
		t0 := time.Now()
		g, err := w.generate(seed)
		d := time.Since(t0).Seconds()
		if err != nil {
			return nil, 0, fmt.Errorf("generate %s: %w", w.name, err)
		}
		h = g
		times = append(times, d)
	}
	return h, median(times), nil
}

// signature is what every call at one seed must reproduce exactly.
type signature struct {
	rounds, fallbackRounds int64
	maxPayloadBits         int
	colors                 uint64
}

func signatureOf(st *core.Stats, colors []int) signature {
	// FNV-1a over the color sequence.
	h := uint64(14695981039346656037)
	for _, c := range colors {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return signature{rounds: st.Rounds, fallbackRounds: st.FallbackRounds, maxPayloadBits: st.MaxPayloadBits, colors: h}
}

// tally counts attempted and failed operations and holds the reference
// signature the first good call sets.
type tally struct {
	attempted, failed int
	ref               *signature
	// tamper, when non-nil, edits each coloring before it is verified; the
	// self-test uses it to show a corrupted coloring counts as failed.
	tamper func(call int, colors []int)
	log    io.Writer
}

// record counts one call with its colors and stats (both nil when err is
// set). The call fails if err is set, if Verify rejects the colors, or if
// its signature departs from the reference.
func (t *tally) record(h *clustercolor.Graph, colors []int, st *core.Stats, err error) bool {
	call := t.attempted
	t.attempted++
	var fp signature
	if err == nil {
		if t.tamper != nil {
			t.tamper(call, colors)
		}
		fp = signatureOf(st, colors)
		err = clustercolor.Verify(h, colors)
	}
	if err == nil && t.ref != nil && *t.ref != fp {
		err = fmt.Errorf("nondeterministic call: %+v, first call %+v", fp, *t.ref)
	}
	if err != nil {
		t.failed++
		fmt.Fprintf(t.log, "perfbench: call %d failed: %v\n", t.attempted, err)
		return false
	}
	if t.ref == nil {
		t.ref = &fp
	}
	return true
}

// recordResult is record for a clustercolor.Color return.
func (t *tally) recordResult(h *clustercolor.Graph, res *clustercolor.Result, err error) {
	if err != nil {
		t.record(h, nil, nil, err)
		return
	}
	t.record(h, res.Colors(), res.Stats(), nil)
}

// measure is the tracing-off run: timed clustercolor.Color calls on one
// pre-generated instance for cfg.seconds (at least minCalls calls).
func measure(cfg config) (result, error) {
	h, setup, err := setUp(cfg.w, cfg.seed)
	if err != nil {
		return result{}, err
	}
	opts := cfg.w.options(cfg.seed)
	t := tally{tamper: cfg.tamper, log: cfg.log}
	var walls, cpus []float64
	start := time.Now()
	for t.attempted < minCalls || time.Since(start).Seconds() < cfg.seconds {
		runtime.GC()
		cpu0 := cpuSeconds()
		t0 := time.Now()
		res, err := clustercolor.Color(h, opts)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		if err == nil {
			walls = append(walls, wall)
			cpus = append(cpus, cpu)
		}
		t.recordResult(h, res, err)
	}
	res, peak, err := peakMemory(h, opts)
	t.recordResult(h, res, err)
	if len(walls) == 0 {
		return result{}, fmt.Errorf("all %d Color calls returned errors", t.attempted)
	}
	ref := t.ref
	if ref == nil {
		return result{}, fmt.Errorf("no Color call of %d passed verification", t.attempted)
	}
	wall := median(walls)
	fmt.Fprintf(cfg.log, "perfbench: %s n=%d m=%d calls=%d wall_s=%v\n", cfg.w.name, h.N(), h.M(), len(walls), walls)
	return result{
		Correct:   t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"wall_s":           {wall, "s"},
			"edges_per_s":      {float64(h.M()) / wall, "edges/s"},
			"cpu_s":            {median(cpus), "s"},
			"setup_s":          {setup, "s"},
			"rounds":           {float64(ref.rounds), "rounds"},
			"max_payload_bits": {float64(ref.maxPayloadBits), "bits"},
			"peak_heap_bytes":  {peak, "bytes"},
		},
	}, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSeconds returns the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// memoryGCPercent is the GOGC of the untimed memory call: the GC then marks
// after every tenth of heap growth, so the largest live heap it marks is
// within a few percent of the call's true peak live set.
const memoryGCPercent = 10

// peakMemory runs one untimed Color call at memoryGCPercent and returns it
// with the largest live heap marked during the call. Process RSS is not
// used: its high-water mark swings by whole sketch arenas and graph buffers
// with the timing of concurrent GC cycles, while the peak live heap repeats.
func peakMemory(h *clustercolor.Graph, opts clustercolor.Options) (*clustercolor.Result, float64, error) {
	old := debug.SetGCPercent(memoryGCPercent)
	defer debug.SetGCPercent(old)
	runtime.GC()
	mem := startHeapSampler()
	res, err := clustercolor.Color(h, opts)
	return res, mem.stop(), err
}

// heapSampler polls the live heap as of the last GC mark while one call runs
// and keeps the largest value.
type heapSampler struct {
	done chan struct{}
	peak chan float64
}

// heapPoll is the sampling period, shorter than a GC cycle on these heaps.
const heapPoll = time.Millisecond

func startHeapSampler() *heapSampler {
	s := &heapSampler{done: make(chan struct{}), peak: make(chan float64)}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	live := func() float64 {
		metrics.Read(sample)
		return float64(sample[0].Value.Uint64())
	}
	go func() {
		tick := time.NewTicker(heapPoll)
		defer tick.Stop()
		peak := live()
		for {
			select {
			case <-tick.C:
				peak = max(peak, live())
			case <-s.done:
				s.peak <- max(peak, live())
				return
			}
		}
	}()
	return s
}

// stop ends the sampling goroutine and returns the peak in bytes.
func (s *heapSampler) stop() float64 {
	close(s.done)
	return <-s.peak
}

// peakRSS returns the process's high-water resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}
