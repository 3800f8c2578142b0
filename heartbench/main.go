// Command heartbench is heartshield's benchmark. It runs one closed-loop
// workload from a single process against an in-process heartshield.Server
// on real loopback sockets (or, for reproduce, against the experiment
// registry), checks the outputs, and prints one JSON result line.
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it
// reports the per-layer ledger instead: a CPU-profiled rerun of the
// workload and stage-by-stage replays of the physics, attack, serving and
// handshake paths. See README.md for the workloads and the metrics.
//
//	bash heartbench/run.sh --workload exchange --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// setupRounds is how many times an end-to-end run sets its workload up;
// it reports the median set-up time and measures on the last set-up.
const setupRounds = 7

func main() {
	name := flag.String("workload", "", "exchange, control, churn or reproduce")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "seconds each measured phase lasts")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 the traced per-layer ledger")
	work := flag.String("work", ".bench_build/heartbench", "directory for the CPU profile of a traced run")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "heartbench: need -workload exchange|control|churn|reproduce, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = perLayer(mk, *seed, d, *work)
	} else {
		res, err = endToEnd(mk, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "heartbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heartbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) put(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// fail marks a result incorrect, reporting why.
func (r *result) fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "heartbench: check failed:", err)
		r.Correct = false
	}
}

// setUp sets a workload up rounds times, tearing down all but the last,
// and returns the last with every round's set-up time in seconds.
func setUp(mk func() workload, seed int64, rounds int) (workload, []float64, error) {
	var times []float64
	for r := 0; ; r++ {
		wl := mk()
		t0 := time.Now()
		err := wl.setup(seed)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			wl.finish()
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if r == rounds-1 {
			return wl, times, nil
		}
		if _, err := wl.finish(); err != nil {
			return nil, nil, fmt.Errorf("set-up round %d: %w", r, err)
		}
	}
}

// phase is one measured stretch of a workload's closed loop.
type phase struct {
	*tally
	elapsed             time.Duration
	cpu                 time.Duration
	heapPeak            float64 // bytes
	mallocs, allocBytes uint64
}

func (p *phase) throughput() float64 { return float64(p.completed()) / p.elapsed.Seconds() }

// measure drives the workload for d and records its cost.
func measure(wl workload, d time.Duration) phase {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	peak := sampleHeap()
	t0 := time.Now()
	p := phase{tally: wl.drive(t0.Add(d))}
	p.elapsed = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	p.heapPeak = peak()
	runtime.ReadMemStats(&ms1)
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return p
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleHeap samples the live heap every 5 ms until the returned function
// is called. That returns, in bytes, the median over one-second windows of
// each window's largest sample: the peak the heap holds through the run,
// not a spike that one garbage-collection cycle happened to catch.
func sampleHeap() func() float64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	const perWindow = 200
	var (
		wg    sync.WaitGroup
		peaks []float64
		stop  = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		peak, n := read(), 0
		for {
			select {
			case <-stop:
				if len(peaks) == 0 {
					peaks = append(peaks, float64(max(peak, read())))
				}
				return
			case <-tick.C:
				peak = max(peak, read())
				if n++; n == perWindow {
					peaks = append(peaks, float64(peak))
					peak, n = 0, 0
				}
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		return median(peaks)
	}
}

// endToEnd is the untraced run: set-up time over setupRounds set-ups,
// then the closed loop for d, then the output checks.
func endToEnd(mk func() workload, seed int64, d time.Duration) (*result, error) {
	wl, setupTimes, err := setUp(mk, seed, setupRounds)
	if err != nil {
		return nil, err
	}
	p := measure(wl, d)
	res := &result{Correct: true, Attempted: p.attempted, Failed: p.failed, Metrics: metricSet{}}
	_, err = wl.finish()
	res.fail(err)

	p90, ok := tail(p.latMS, 0.9)
	if !ok {
		return nil, fmt.Errorf("%d latency samples are too few to report p90", len(p.latMS))
	}
	m := res.Metrics
	m.put("setup_s", "s", median(setupTimes))
	m.put("latency_p50_ms", "ms", median(p.latMS))
	m.put("latency_p90_ms", "ms", p90)
	m.put("throughput_ops_s", "1/s", p.throughput())
	m.put("cpu_ms_per_op", "ms", float64(p.cpu)/float64(time.Millisecond)/float64(p.completed()))
	m.put("success_ratio", "ratio", 1-p.failedRatio())
	m.put("heap_peak_mb", "MB", p.heapPeak/(1<<20))
	return res, nil
}

// perLayer is the traced run: the workload untraced for d, then again for
// d under the CPU profiler, then the ledger of stage replays and
// micro-costs.
func perLayer(mk func() workload, seed int64, d time.Duration, work string) (*result, error) {
	wl, _, err := setUp(mk, seed, 1)
	if err != nil {
		return nil, err
	}
	plain := measure(wl, d)
	prof, err := startProfile(work)
	if err != nil {
		wl.finish()
		return nil, err
	}
	traced := measure(wl, d)
	shares, profErr := prof.stop()
	cnt, checkErr := wl.finish()
	if profErr != nil {
		return nil, profErr
	}

	res := &result{Correct: true, Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed, Metrics: metricSet{}}
	res.fail(checkErr)
	m := res.Metrics

	for _, b := range cpuBuckets {
		m.put("cpu."+b+"_pct", "%", shares[b])
	}
	ops := float64(plain.completed() + traced.completed())
	srv, cli := cnt.server, cnt.client
	opens := max(float64(srv.TotalSessions), 1)
	m.put("shieldd.wire_bytes_per_op", "B", float64(srv.BytesSealed+srv.BytesOpened)/ops)
	m.put("transport.retransmits_per_op", "count", float64(srv.TotalRetransmits+cli.retransmits)/ops)
	m.put("securelink.window_accepts", "count", float64(srv.WindowAccepts+cli.windowAccepts))
	m.put("securelink.late_drops", "count", float64(srv.LateDrops+cli.lateDrops))
	m.put("securelink.replay_drops", "count", float64(srv.ReplayDrops+cli.replayDrops))
	m.put("securelink.rekeys", "count", float64(srv.Rekeys+cli.rekeys))
	m.put("shieldd.shed_ratio", "ratio", float64(srv.ShedHandshakes+srv.ShedRequests)/(ops+opens))
	m.put("shieldd.cookies_per_open", "ratio", float64(srv.CookiesSent)/opens)
	m.put("process.allocs_per_op", "count", float64(plain.mallocs)/float64(plain.completed()))
	m.put("process.alloc_bytes_per_op", "B", float64(plain.allocBytes)/float64(plain.completed()))
	p99 := -1.0
	if v, ok := tail(plain.latMS, 0.99); ok {
		p99 = v
	}
	m.put("client.latency_p99_ms", "ms", p99)
	m.put("trace.overhead_pct", "%", 100*(plain.throughput()-traced.throughput())/plain.throughput())

	exchanges, lost, err := runLedger(seed, wl.message(), m)
	res.fail(err)
	if _, ok := wl.(*exchangeLoad); ok {
		exchanges += plain.completed() + traced.completed()
		lost += plain.simLoss + traced.simLoss
	}
	m.put("physics.sim_loss_ratio", "ratio", float64(lost)/float64(exchanges))
	return res, nil
}
