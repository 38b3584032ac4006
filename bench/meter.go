package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// The benchmark shares its host with other virtual machines. Wall time
// there grows whenever the host runs another guest, so the meter counts
// CPU time instead (see processCPU). CPU time still drifts by up to a
// third between runs, because how fast the host runs this machine's code
// changes with the other tenants' load (a busy sibling hyperthread, shared
// caches, the clock). The meter therefore runs a fixed reference job
// between the workload's operations, about every refInterval, and rescales
// the run's CPU times by the median time the job took in the run: where
// the host slows the workload down, it slows the job down with it. The
// reported times are those of a machine on which the job takes
// refNominal. One job's time varies by about a fifth from one job to the
// next, so the run's median rests on many of them rather than on the ones
// nearest to each stretch of the workload. Each sample runs the job once alone and
// then twice at once, on two threads, because a workload that keeps both
// cores busy meets the host differently from one that keeps one busy; the
// scale uses the geometric mean of the two medians. The job is built from
// the standard library only, so changes to the program under test leave it
// alone, and it mixes the kinds of work the workloads do: an HTTP round
// trip over loopback with JSON bodies, JSON encoding and decoding, a
// Monte-Carlo loop, floating-point math, sorting, hashing and a subset
// table.

// processCPU returns the CPU time all of the process's threads have used,
// in user and kernel mode. It counts only time a thread actually ran: not
// time spent waiting for a CPU and, on a virtual machine whose kernel
// accounts steal time (Linux with paravirtual time accounting), not time
// the host gave the virtual CPU to other guests. Unlike wall time it
// therefore does not grow when other tenants load a shared host. It is 0
// when the platform cannot report it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refNominal is the reference job's CPU time on the machine the rescaled
// times are expressed for (the geometric mean of the job alone and of each
// of two jobs at once), about what it takes on the baseline machine.
const refNominal = 10 * time.Millisecond

// refInterval is the time between two reference jobs in a measured phase,
// which keeps them to a few percent of it. After an operation that took
// several intervals, the jobs the interval owes run back to back, up to
// maxCatchUp of them.
const (
	refInterval = 250 * time.Millisecond
	maxCatchUp  = 40
)

// stretch is one timed set-up.
type stretch struct {
	cpu, wall float64 // seconds
}

// meter times a workload run in CPU time and runs the reference job.
type meter struct {
	srv     *httptest.Server
	jobs    [3]*refJob    // one to run alone, two to run at once
	solo    []float64     // CPU seconds of each job run alone
	pair    []float64     // CPU seconds per job of each pair run at once
	refCPU  time.Duration // process CPU time of all the jobs
	refWall time.Duration // wall time of all the jobs
	last    time.Time     // when the last reference job ended
	err     error         // the first reference job that failed

	// The measured phase: whether it runs, its start, and its length
	// without the reference jobs once it has ended.
	inPhase                     bool
	start                       time.Time
	cpu0, refCPU0               time.Duration
	refWall0                    time.Duration
	phaseCPUSecs, phaseWallSecs float64
}

func newMeter() *meter {
	srv := newRefServer()
	return &meter{srv: srv, jobs: [3]*refJob{newRefJob(srv), newRefJob(srv), newRefJob(srv)}}
}

func (m *meter) close() { m.srv.Close() }

// due reports whether the last reference job ended refInterval ago or
// earlier.
func (m *meter) due() bool { return time.Since(m.last) >= refInterval }

// sample runs and times the reference job once alone, then twice at
// once. It runs between the workload's operations, while the workload's
// goroutines wait. The lone job stays on the thread that reads the clock:
// the kernel brings that thread's CPU time up to date, but that of another
// running thread only at its next timer tick.
func (m *meter) sample() {
	runtime.LockOSThread()
	start, cpu0 := time.Now(), processCPU()
	err := m.jobs[0].run()
	cpu1 := processCPU()
	runtime.UnlockOSThread()
	errs := make(chan error, 2)
	for _, j := range m.jobs[1:] {
		go func(j *refJob) { errs <- j.run() }(j)
	}
	for range m.jobs[1:] {
		if e := <-errs; err == nil {
			err = e
		}
	}
	cpu2 := processCPU()
	m.last = time.Now()
	m.refCPU += cpu2 - cpu0
	m.refWall += m.last.Sub(start)
	if err != nil {
		if m.err == nil {
			m.err = fmt.Errorf("reference job: %w", err)
		}
		return
	}
	m.solo = append(m.solo, (cpu1 - cpu0).Seconds())
	m.pair = append(m.pair, (cpu2-cpu1).Seconds()/2)
}

// timeStretch runs f once and times it. The caller runs the reference job
// now and then in between.
func (m *meter) timeStretch(f func() error) (stretch, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start, cpu0 := time.Now(), processCPU()
	err := f()
	return stretch{cpu: (processCPU() - cpu0).Seconds(), wall: time.Since(start).Seconds()}, err
}

// begin starts the measured phase with a reference job.
func (m *meter) begin() {
	m.sample()
	m.inPhase = true
	m.start, m.cpu0, m.refCPU0, m.refWall0 = time.Now(), processCPU(), m.refCPU, m.refWall
}

// tick runs the reference jobs that are due in the measured phase. The
// workload calls it between operations.
func (m *meter) tick() {
	if !m.inPhase || !m.due() {
		return
	}
	owed := min(maxCatchUp, max(1, int(time.Since(m.last)/refInterval)))
	for i := 0; i < owed; i++ {
		m.sample()
	}
}

// end ends the measured phase.
func (m *meter) end() {
	if !m.inPhase {
		return
	}
	m.inPhase = false
	m.phaseCPUSecs = (processCPU() - m.cpu0 - (m.refCPU - m.refCPU0)).Seconds()
	m.phaseWallSecs = (time.Since(m.start) - (m.refWall - m.refWall0)).Seconds()
}

// scale is the factor that rescales the run's CPU times to the nominal
// machine: refNominal over the geometric mean of the median lone job and
// the median job of a pair.
func (m *meter) scale() float64 {
	return refNominal.Seconds() / math.Sqrt(median(m.solo)*median(m.pair))
}

// phase returns the measured phase's CPU time rescaled to the nominal
// machine, and its wall time, both without the reference jobs.
func (m *meter) phase() (cpu, wall float64) {
	return m.phaseCPUSecs * m.scale(), m.phaseWallSecs
}

// refJob is the reference job and the state it reuses between runs. That
// state is small, because heap_p90_mb counts it with the workload's heap.
type refJob struct {
	srv      *httptest.Server // shared by the meter's jobs
	items    []refItem
	body     []byte
	ints     []int
	set      map[int]int
	table    []float64
	checksum uint64 // the job's result, the same every time
}

// refItem is the JSON document the job encodes and sends.
type refItem struct {
	N     int       `json:"n"`
	Delta float64   `json:"delta"`
	Pi    []float64 `json:"pi"`
	Kind  string    `json:"kind"`
}

// newRefServer starts the loopback server the jobs send their documents
// to; it answers each with the document's capacity doubled.
func newRefServer() *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var it refItem
		if err := json.NewDecoder(r.Body).Decode(&it); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		it.Delta *= 2
		json.NewEncoder(w).Encode(it)
	}))
}

func newRefJob(srv *httptest.Server) *refJob {
	j := &refJob{srv: srv, ints: make([]int, 1024), set: make(map[int]int, 1024), table: make([]float64, 1<<12)}
	for i := 0; i < 40; i++ {
		pi := make([]float64, 10)
		for k := range pi {
			pi[k] = 0.5 + float64((i*7+k*3)%50)/100
		}
		j.items = append(j.items, refItem{N: 10, Delta: 3.3 + float64(i)/10, Pi: pi, Kind: "threshold"})
	}
	j.body, _ = json.Marshal(j.items[0]) // plain data; Marshal cannot fail
	return j
}

// run runs the job once and checks that it computed what it always does.
func (j *refJob) run() error {
	var sum uint64
	for k := 0; k < 20; k++ {
		resp, err := j.srv.Client().Post(j.srv.URL, "application/json", bytes.NewReader(j.body))
		if err != nil {
			return err
		}
		var it refItem
		err = json.NewDecoder(resp.Body).Decode(&it)
		resp.Body.Close()
		if err != nil {
			return err
		}
		sum += uint64(it.Delta * 10)
	}
	for k := 0; k < 4; k++ {
		b, err := json.Marshal(j.items)
		if err != nil {
			return err
		}
		var back []refItem
		if err := json.Unmarshal(b, &back); err != nil {
			return err
		}
		sum += uint64(len(back))
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 60_000; i++ {
		s := 0.0
		for k := 0; k < 3; k++ {
			if u := rng.Float64(); u < 0.6 {
				s += u
			}
		}
		if s <= 1 {
			sum++
		}
	}
	f := 0.0
	for i := 1; i < 40_000; i++ {
		f += math.Exp(-float64(i)*1e-5) * math.Log(float64(i))
	}
	sum += uint64(f)
	x := uint64(1)
	for round := 0; round < 6; round++ {
		for i := range j.ints {
			x = x*6364136223846793005 + 1442695040888963407
			j.ints[i] = int(x >> 20)
		}
		slices.Sort(j.ints)
		clear(j.set)
		for i, v := range j.ints {
			j.set[v&0xfffff] += i
		}
		sum += uint64(len(j.set))
	}
	var p [12]float64
	for i := range p {
		p[i] = 0.3 + 0.05*float64(i)
	}
	for rep := 0; rep < 64; rep++ {
		j.table[0] = 1
		for mask := 1; mask < len(j.table); mask++ {
			j.table[mask] = j.table[mask&(mask-1)]*p[bits.TrailingZeros(uint(mask))] + 0.5*j.table[mask>>1]
		}
	}
	sum += uint64(j.table[len(j.table)-1] * 1e6)
	if j.checksum != 0 && sum != j.checksum {
		return fmt.Errorf("checksum %d, want %d", sum, j.checksum)
	}
	j.checksum = sum
	return nil
}
