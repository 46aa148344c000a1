package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hornet/internal/scenario"
	"hornet/internal/service"
	"hornet/internal/service/client"
	"hornet/internal/service/journal"
	"hornet/internal/sweep"
)

// serve-mix sizes. The warm-up ops are set-up (connections, lazy init,
// first checkpoints); the timed region then runs until both job classes
// have serveMinPerClass samples and the requested time has passed, so a
// p95 always has ten samples beyond it.
const (
	serveWarmOps     = 40   // per client, untimed
	serveMinPerClass = 200  // timed jobs of each class, over all clients
	serveMaxOps      = 8000 // per client; a sequence no run exhausts
	serveSampled     = 4    // cold jobs re-executed directly as a check
)

// jobResult is one completed closed-loop operation.
type jobResult struct {
	hit        bool
	ok         bool
	traced     bool
	ms         float64 // Submit call to result bytes
	queueMS    float64 // Started - Created
	runMS      float64 // Finished - Started
	tileCycles float64 // simulated tile-cycles the job covered (cold jobs)
}

// serveClient is one closed-loop client: it walks its own seed-fixed op
// sequence, one request in flight at a time.
type serveClient struct {
	id   int
	api  *client.Client
	ops  []serveOp
	sums [][sha256.Size]byte // document hash per completed op
	raw  map[int][]byte      // documents of the first cold ops, kept for the direct-execution check
	next int
}

// do runs the client's next op: Submit, Wait, Result.
func (c *serveClient) do(ctx context.Context, tr *tracer) jobResult {
	i := c.next
	c.next++
	op := c.ops[i]
	res := jobResult{hit: op.Repeat >= 0, traced: tr != nil}
	req := fmt.Sprintf("c%d-op%d", c.id, i)
	start := time.Now()
	root := tr.begin("job", -1, c.id+1, req)
	defer func() { tr.end(root, map[string]any{"hit": res.hit, "ok": res.ok}) }()

	id := tr.begin("service.submit", root, c.id+1, req)
	info, err := c.api.Submit(ctx, op.Req)
	tr.end(id, nil)
	if err == nil {
		id = tr.begin("service.wait", root, c.id+1, req)
		info, err = c.api.Wait(ctx, info.ID)
		tr.end(id, nil)
	}
	var doc sweep.Document
	var raw []byte
	if err == nil && info.State == service.StateDone {
		id = tr.begin("service.fetch", root, c.id+1, req)
		doc, raw, err = c.api.Result(ctx, info.ID)
		tr.end(id, nil)
	}
	res.ms = float64(time.Since(start)) / 1e6
	if err != nil || info.State != service.StateDone || info.CacheHit != res.hit || len(doc.Runs) != 1 || doc.Runs[0].Err != "" {
		fmt.Fprintf(logw, "bench: %s failed: err=%v state=%s cache_hit=%v\n", req, err, info.State, info.CacheHit)
		c.sums = append(c.sums, [sha256.Size]byte{})
		return res
	}
	sum := sha256.Sum256(raw)
	c.sums = append(c.sums, sum)
	if res.hit {
		// A cache hit must serve the cold run's bytes.
		res.ok = sum == c.sums[op.Repeat]
		return res
	}
	res.ok = true
	res.queueMS = float64(info.Started.Sub(info.Created)) / 1e6
	res.runMS = float64(info.Finished.Sub(info.Started)) / 1e6
	if v, ok := doc.Runs[0].Value.(map[string]any); ok {
		nodes, _ := v["nodes"].(float64)
		cycles, _ := v["cycles"].(float64)
		if op.Cycles > 0 {
			cycles = float64(op.Cycles) // the document omits the warm-up window
		}
		res.tileCycles = nodes * cycles
	}
	if len(c.raw) < serveSampled {
		c.raw[i] = raw
	}
	return res
}

func runServe(o childOpts, r *Report) error {
	var tr *tracer
	if o.Trace {
		tr = newTracer()
	}
	ctx := context.Background()
	warmOps := max(serveWarmOps/o.Scale, 2)
	minPerClass := max(serveMinPerClass/o.Scale, 2)

	// Set-up: boot the durable daemon on scratch directories inside the
	// output directory, connect the clients, run the warm-up ops.
	setup := tr.begin("setup", -1, 0, "")
	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.Out, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := service.NewDurable(service.Options{
		Budget:          2,
		JournalDir:      filepath.Join(dir, "journal"),
		CheckpointDir:   filepath.Join(dir, "checkpoints"),
		CheckpointEvery: serveCheckpointEvery,
	})
	if err != nil {
		return err
	}
	ts := httptest.NewServer(srv)
	defer srv.Close()
	defer ts.Close()
	clients := make([]*serveClient, parWorkers())
	for i := range clients {
		clients[i] = &serveClient{id: i, api: client.New(ts.URL),
			ops: serveOps(o.Seed, i, serveMaxOps), raw: map[int][]byte{}}
	}
	perClient := func(fn func(c *serveClient)) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(c)
			}()
		}
		wg.Wait()
	}
	var warmFailed atomic.Int64
	perClient(func(c *serveClient) {
		for i := 0; i < warmOps; i++ {
			if res := c.do(ctx, nil); !res.ok {
				warmFailed.Add(1)
			}
		}
	})
	r.check("warm-up-jobs", warmFailed.Load() == 0, fmt.Sprintf("%d warm-up jobs failed", warmFailed.Load()))
	// The first client's warm-up documents are the same on every host
	// whatever the client count, so they are what the golden file pins.
	h := sha256.New()
	for _, s := range clients[0].sums[:warmOps] {
		h.Write(s[:])
	}
	r.Digest = fmt.Sprintf("%x", h.Sum(nil))
	tr.end(setup, nil)
	r.EndToEnd["setup_s"] = Metric{Value: time.Since(procStart).Seconds(), Unit: "s"}
	if o.SetupOnly {
		return nil
	}

	budget := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		budget /= 2
	}
	var cold, hit atomic.Int64
	var rssOnce sync.Once
	results := make([][]jobResult, len(clients))
	timed := tr.begin("timed", -1, 0, "")
	start := time.Now()
	perClient(func(c *serveClient) {
		for c.next < len(c.ops) {
			enough := cold.Load() >= int64(minPerClass) && hit.Load() >= int64(minPerClass)
			if enough {
				// Peak RSS is read when the fixed minimum of work is
				// done, not after however many more jobs the host fits
				// into the measuring time.
				rssOnce.Do(func() { r.EndToEnd["peak_rss_mb"] = Metric{Value: peakRSSMB(), Unit: "MB"} })
				if time.Since(start) >= budget {
					return
				}
			}
			// The traced run records spans for every other op, so one
			// run yields both latencies and their ratio is the tracer's cost.
			t := tr
			if c.next%2 == 0 {
				t = nil
			}
			res := c.do(ctx, t)
			results[c.id] = append(results[c.id], res)
			if res.hit {
				hit.Add(1)
			} else {
				cold.Add(1)
			}
		}
	})
	wall := time.Since(start)
	tr.end(timed, nil)
	rssOnce.Do(func() { r.EndToEnd["peak_rss_mb"] = Metric{Value: peakRSSMB(), Unit: "MB"} })

	var coldMS, hitMS, coldTraced, coldPlain, queueMS, runMS []float64
	var tileCycles float64
	for _, rs := range results {
		for _, res := range rs {
			r.Attempted++
			if !res.ok {
				r.Failed++
				continue
			}
			if res.hit {
				hitMS = append(hitMS, res.ms)
				continue
			}
			coldMS = append(coldMS, res.ms)
			queueMS, runMS = append(queueMS, res.queueMS), append(runMS, res.runMS)
			tileCycles += res.tileCycles
			if res.traced {
				coldTraced = append(coldTraced, res.ms)
			} else {
				coldPlain = append(coldPlain, res.ms)
			}
		}
	}
	E := r.EndToEnd
	E["jobs_per_s"] = Metric{Value: float64(len(coldMS)+len(hitMS)) / wall.Seconds(), Unit: "1/s", N: len(coldMS) + len(hitMS)}
	E["tile_cycles_per_s"] = Metric{Value: tileCycles / wall.Seconds(), Unit: "1/s", N: len(coldMS)}
	E["job_cold_ms_p50"] = summarize(coldMS, "ms")
	E["job_cold_ms_p95"] = Metric{Value: percentile(coldMS, 95), Unit: "ms", N: len(coldMS)}
	E["job_hit_ms_p50"] = summarize(hitMS, "ms")
	E["job_hit_ms_p95"] = Metric{Value: percentile(hitMS, 95), Unit: "ms", N: len(hitMS)}

	// A sample of cold documents must equal what executing the same
	// request directly — no HTTP, no scheduler, no cache — produces.
	var execMS []float64
	same := true
	for i, raw := range clients[0].raw {
		var res *service.ExecResult
		d := tr.time("service.execute", -1, func() {
			res, err = service.Execute(ctx, clients[0].ops[i].Req, service.ExecOptions{Workers: 1})
		})
		if err != nil {
			return fmt.Errorf("direct execution of op %d: %w", i, err)
		}
		execMS = append(execMS, float64(d)/1e6)
		same = same && bytes.Equal(res.Doc, raw)
	}
	r.check("served-equals-direct", same && len(execMS) > 0, "a served document differs from direct execution of the same request")
	if !o.Trace {
		return nil
	}

	L := r.PerLayer
	for _, name := range []string{"jobs_per_s", "job_cold_ms_p50", "job_cold_ms_p95", "job_hit_ms_p50", "job_hit_ms_p95"} {
		L["service."+name] = E[name]
	}
	L["trace.rate_ratio"] = Metric{Value: median(coldPlain) / median(coldTraced), Unit: "ratio"}
	L["service.submit_ms"] = summarize(tr.durationsMS("service.submit"), "ms")
	L["service.fetch_ms"] = summarize(tr.durationsMS("service.fetch"), "ms")
	L["service.queue_ms"] = summarize(queueMS, "ms")
	L["service.run_ms"] = summarize(runMS, "ms")
	L["service.execute_ms"] = summarize(execMS, "ms")
	L["service.overhead_share"] = Metric{Value: 1 - median(execMS)/median(coldMS), Unit: "share"}
	st := srv.Stats()
	L["service.cache_hit_ratio"] = Metric{Value: float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses), Unit: "share"}
	L["service.checkpoints_written"] = Metric{Value: float64(st.CheckpointsWritten), Unit: "count"}
	if err := layerSubmission(clients[0].ops, dir, tr, r); err != nil {
		return err
	}
	return writeTrace(tr, o, r)
}

// layerSubmission times the steps a submission passes through before and
// around the simulation, each on its own: compiling the scenario
// document, the service's dry run, a journal append and the sweep
// dispatcher on items that do nothing.
func layerSubmission(ops []serveOp, dir string, tr *tracer, r *Report) error {
	var cold []serveOp
	for _, op := range ops {
		if op.Repeat < 0 && len(cold) < 200 {
			cold = append(cold, op)
		}
	}
	var compileErr *scenario.FieldError
	d := tr.time("scenario.compile", -1, func() {
		for _, op := range cold {
			doc, ferr := scenario.Decode(op.Req.Scenario)
			if ferr == nil {
				_, ferr = scenario.Compile(doc) // normalizes first
			}
			if ferr != nil {
				compileErr = ferr
			}
		}
	})
	if compileErr != nil {
		return fmt.Errorf("scenario compile: %v", compileErr)
	}
	r.PerLayer["scenario.compile_us"] = Metric{Value: float64(d.Nanoseconds()) / 1e3 / float64(len(cold)), Unit: "us", N: len(cold)}

	var dryErr *service.APIError
	d = tr.time("service.dryrun", -1, func() {
		for _, op := range cold {
			if _, apiErr := service.DryRun(op.Req); apiErr != nil {
				dryErr = apiErr
			}
		}
	})
	if dryErr != nil {
		return fmt.Errorf("dry run: %v", dryErr)
	}
	r.PerLayer["service.dryrun_us"] = Metric{Value: float64(d.Nanoseconds()) / 1e3 / float64(len(cold)), Unit: "us", N: len(cold)}

	j, _, err := journal.Open(filepath.Join(dir, "journal-layer"))
	if err != nil {
		return err
	}
	d = tr.time("journal.append", -1, func() {
		for i, op := range cold {
			if aerr := j.Append(journal.Record{Type: journal.TypeSubmit, Job: fmt.Sprintf("job-%06d", i),
				Request: op.Req.Scenario}); aerr != nil {
				err = aerr
			}
		}
	})
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	r.PerLayer["journal.append_us"] = Metric{Value: float64(d.Nanoseconds()) / 1e3 / float64(len(cold)), Unit: "us", N: len(cold)}

	items := make([]sweep.Item, 2000)
	for i := range items {
		items[i] = sweep.Item{Key: fmt.Sprintf("item-%d", i), Run: func(sweep.Ctx) (any, error) { return nil, nil }}
	}
	d = tr.time("sweep.dispatch", -1, func() {
		sink += len(sweep.Run(context.Background(), items, sweep.Config{Workers: parWorkers()}))
	})
	r.PerLayer["sweep.dispatch_us_per_item"] = Metric{Value: float64(d.Nanoseconds()) / 1e3 / float64(len(items)), Unit: "us", N: len(items)}
	return nil
}
