package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vgiw/internal/bench"
	"vgiw/internal/kernels"
	"vgiw/internal/server"
	"vgiw/internal/store"
)

// mix is the vgiwd workload's job stream: seeded scale-1 kernel jobs of
// which about two thirds repeat an earlier job (store reads) and one third
// are fresh draws from kernel × LVC size × CVT budget × L1 write policy
// (executions plus store writes). The repeat share and the grid are an
// assumption about shared-daemon traffic, not a measurement: the repository
// records no daemon traffic, and the sweeps it documents submit each spec
// once. The sweep workload covers that no-repeat side.
// Fresh draws deal the kernels from shuffled rounds of the registry, so
// every kernel gets an equal share of executions whatever the seed: kernel
// run times span two orders of magnitude, and an unequal share would make
// the seed, not the code, move the workload's cost.
type mix struct {
	mu    sync.Mutex
	rng   *rand.Rand
	deck  []string        // kernels left in the current round
	specs []bench.JobSpec // the stream so far
	fresh []bench.JobSpec // its distinct specs, in first-seen order
	seen  map[bench.JobSpec]bool
}

func newMix(seed int64) *mix {
	return &mix{rng: rand.New(rand.NewPCG(uint64(seed), 1)), seen: map[bench.JobSpec]bool{}}
}

// at returns the i-th job of the stream.
func (m *mix) at(i int) bench.JobSpec {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.specs) <= i {
		m.specs = append(m.specs, m.draw())
	}
	return m.specs[i]
}

func (m *mix) draw() bench.JobSpec {
	if len(m.fresh) > 0 && m.rng.IntN(3) != 0 {
		return m.fresh[m.rng.IntN(len(m.fresh))]
	}
	if len(m.deck) == 0 {
		m.deck = kernels.Names()
		m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	for {
		s := bench.JobSpec{
			Kernel:  m.deck[0],
			Scale:   1,
			LVCKB:   16 + m.rng.IntN(241),
			CVTBits: 4096 * (1 + m.rng.IntN(32)),
			Mem:     [...]string{"writeback", "writethrough"}[m.rng.IntN(2)],
		}
		if !m.seen[s] {
			m.seen[s] = true
			m.fresh = append(m.fresh, s)
			m.deck = m.deck[1:]
			return s
		}
	}
}

// daemon is an in-process vgiwd: the default server configuration with a
// persistent store, behind an HTTP test server.
type daemon struct {
	dir string
	srv *server.Server
	web *httptest.Server
}

// startDaemon boots a daemon on a new, empty store directory under work.
func startDaemon(work string) (*daemon, error) {
	dir, err := os.MkdirTemp(work, "vgiwd-store-")
	if err != nil {
		return nil, err
	}
	return bootDaemon(dir)
}

// bootDaemon is the set-up of the daemon workloads: open the store in dir,
// start the server and its listener, and wait until /readyz answers. The
// store directory already exists, as a daemon's usually does; making it is
// left out because its cost on the reference host swings tenfold over
// minutes with the host's file-system load, and a daemon boot is not what
// moves it.
func bootDaemon(dir string) (*daemon, error) {
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
		return nil, err
	}
	d := &daemon{dir: dir, srv: server.New(server.Config{Store: st})}
	d.web = httptest.NewServer(d.srv.Handler())
	for attempt := 0; ; attempt++ {
		resp, err := d.web.Client().Get(d.web.URL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if attempt == 100 {
			d.stop()
			return nil, fmt.Errorf("vgiwd not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the listener once its requests are done, drains the server
// and deletes the store.
func (d *daemon) stop() {
	d.web.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "vgiwd shutdown:", err)
	}
	os.RemoveAll(d.dir) //nolint:errcheck // best-effort cleanup
}

// submit posts one job and waits for its reply, as vgiwctl and sweep
// scripts do. Anything but a 200 with state "done" is an error.
func (d *daemon) submit(spec bench.JobSpec) (*server.JobView, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := d.web.Client().Post(d.web.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d: %s", spec.Kernel, resp.StatusCode, bytes.TrimSpace(data))
	}
	var v server.JobView
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	if v.State != server.StateDone {
		return nil, fmt.Errorf("%s: job %s is %s: %s", spec.Kernel, v.ID, v.State, v.Reason)
	}
	return &v, nil
}

// results checks every reply for a spec against the first reply for it. A
// store hit or a job sharing an execution must return the first reply's
// bytes. A repeat that arrives after an execution finished but before the
// daemon filed it in the store is executed again, as is every job of a
// sweep on a fresh daemon; such a result may differ only in its host
// telemetry, so it is compared in canonical form.
type results struct {
	mu    sync.Mutex
	first map[bench.JobSpec]firstReply
}

type firstReply struct{ raw, simulated [sha256.Size]byte }

func newResults() *results { return &results{first: map[bench.JobSpec]firstReply{}} }

func (r *results) check(spec bench.JobSpec, v *server.JobView) error {
	raw := sha256.Sum256(v.Result)
	r.mu.Lock()
	first, ok := r.first[spec]
	r.mu.Unlock()
	if ok && first.raw == raw {
		return nil
	}
	sim, err := canonicalResult(v.Result)
	if err != nil {
		return fmt.Errorf("%s: %w", spec.Kernel, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	first, ok = r.first[spec]
	if !ok {
		r.first[spec] = firstReply{raw, sim}
		return nil
	}
	if first.simulated != sim {
		return fmt.Errorf("%s (lvc %d KB, cvt %d bits, %s): result differs from the first reply for the same spec",
			spec.Kernel, spec.LVCKB, spec.CVTBits, spec.Mem)
	}
	return nil
}

// canonicalResult hashes a kernel job's result in the canonical form the
// determinism tests and the fleet compare: its simulated content alone.
func canonicalResult(raw []byte) ([sha256.Size]byte, error) {
	var rep bench.JSONReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("result: %w", err)
	}
	b, err := json.Marshal(rep.Canonical())
	return sha256.Sum256(b), err
}

// vgiwdClients is the number of closed-loop clients: one per host core.
const vgiwdClients = 2

// daemonSetup repeats bootDaemon on a new store directory under work.
func daemonSetup(work string) setup {
	return func() (time.Duration, func(), error) {
		dir, err := os.MkdirTemp(work, "vgiwd-store-")
		if err != nil {
			return 0, nil, err
		}
		t0 := time.Now()
		d, err := bootDaemon(dir)
		took := time.Since(t0)
		if err != nil {
			return 0, nil, err
		}
		return took, d.stop, nil
	}
}

func timeVgiwd(cfg config) (*outcome, error) {
	d, err := startDaemon(cfg.work)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	jobs := newMix(cfg.seed)
	res := newResults()
	return timedRun(cfg, daemonSetup(cfg.work), vgiwdClients, false, func(i int) error {
		spec := jobs.at(i)
		v, err := d.submit(spec)
		if err != nil {
			return err
		}
		return res.check(spec, v)
	}), nil
}

// traceJobs is the traced run's length: enough jobs that the executions
// among them (about a third) give server.run_ms_p99 ten samples beyond it.
const traceJobs = 3600

// reply is one traced job: when the client sent it and got the answer, and
// the server's view of it.
type reply struct {
	start, end time.Time
	view       *server.JobView
}

// traceVgiwd runs traceJobs jobs, times each layer from the jobs' server
// timestamps, then replays the run's store entries into a fresh store to
// time store reads and writes alone.
func traceVgiwd(cfg config) (*outcome, error) {
	d, err := startDaemon(cfg.work)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	n := traceJobs
	if cfg.quick {
		n = 20
	}
	jobs := newMix(cfg.seed)
	res := newResults()
	replies := make([]reply, n)
	rec := newRecorder()
	s := runSliced(newCalibration(), vgiwdClients, budget{ops: n}, func(i int) error {
		spec := jobs.at(i)
		start := time.Now()
		v, err := d.submit(spec)
		replies[i] = reply{start, time.Now(), v}
		if err != nil {
			return err
		}
		return res.check(spec, v)
	}, nil)
	if s.failed > 0 {
		return nil, fmt.Errorf("%d of %d traced jobs failed", s.failed, n)
	}
	o, err := daemonOutcome(cfg, rec, replies, median(s.factors))
	if err != nil {
		return nil, err
	}
	return o, replayStore(o.metrics, d, cfg.work)
}

// daemonOutcome records each traced job as a client span whose children are
// the server-side queue wait and execution, writes the spans, and sets the
// server and http metrics. The harness layers run inside the daemon, where
// the benchmark cannot wrap their calls. The reconciliation does not apply:
// server spans are read off timestamps rather than recorded around calls, so
// they cost the run nothing and cover each job by construction.
func daemonOutcome(cfg config, rec *recorder, replies []reply, timeScale float64) (*outcome, error) {
	var hits, shared float64
	var queue, run, hitTrip, overhead []float64
	for i, r := range replies {
		v := r.view
		root := rec.add("vgiwd.job", i, -1, r.start, r.end)
		roundTrip := ms(r.end.Sub(r.start))
		ended := v.Created
		if v.Ended != nil {
			ended = *v.Ended
		}
		overhead = append(overhead, roundTrip-ms(ended.Sub(v.Created)))
		switch {
		case v.Cached == "store":
			hits++
			hitTrip = append(hitTrip, roundTrip)
		case v.Shared:
			shared++
		case v.Started != nil && v.Ended != nil:
			rec.add("server.queue", i, root, v.Created, *v.Started)
			rec.add("server.run", i, root, *v.Started, *v.Ended)
			queue = append(queue, ms(v.Started.Sub(v.Created)))
			run = append(run, ms(v.Ended.Sub(*v.Started)))
		}
	}
	if err := rec.write(filepath.Join(cfg.work, "spans-"+cfg.workload+".json")); err != nil {
		return nil, err
	}
	if !cfg.quick && !tailMeasurable(len(run), 0.99) {
		return nil, fmt.Errorf("only %d executions: too few for server.run_ms_p99", len(run))
	}
	n := float64(len(replies))
	o := &outcome{attempted: len(replies), metrics: map[string]float64{},
		bypassed:  []string{"kernels", "compile", "fabric", "core", "mem", "simt", "sgmf", "power", "bench"},
		timeScale: timeScale}
	m := o.metrics
	m["server.hit_ratio"] = hits / n
	m["server.dedup_ratio"] = shared / n
	m["server.queue_wait_ms_p50"] = median(queue)
	m["server.run_ms_p50"] = median(run)
	m["server.run_ms_p99"] = percentile(run, 0.99)
	m["http.hit_roundtrip_ms_p50"] = median(hitTrip)
	m["http.overhead_ms_p50"] = median(overhead)
	return o, nil
}

// replayStore times store reads and writes alone: it copies every entry the
// run stored into a fresh store, then reads each back.
func replayStore(m map[string]float64, d *daemon, work string) error {
	src, err := store.Open(d.dir)
	if err != nil {
		return err
	}
	entries, err := src.List()
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("the run stored no entries")
	}
	dir, err := os.MkdirTemp(work, "vgiwd-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup
	dst, err := store.Open(dir)
	if err != nil {
		return err
	}
	var puts, gets []float64
	bytesTotal := 0
	for _, e := range entries {
		data, err := json.Marshal(e)
		if err != nil {
			return err
		}
		bytesTotal += len(data)
		t0 := time.Now()
		if err := dst.Put(e); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	for _, e := range entries {
		t0 := time.Now()
		got, err := dst.Get(e.Key)
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return err
		}
		if got == nil || !bytes.Equal(got.Result, e.Result) {
			return fmt.Errorf("store replay: entry %s did not read back", e.Key)
		}
	}
	m["store.put_us_p50"] = median(puts)
	m["store.get_us_p50"] = median(gets)
	m["store.entry_kb_mean"] = float64(bytesTotal) / 1024 / float64(len(entries))
	return nil
}
