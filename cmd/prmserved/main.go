// Command prmserved runs the online selectivity-estimation service: it
// learns one model per requested dataset, then serves concurrent estimate
// requests over an HTTP JSON API with an inference cache, background
// rebuilds with atomic hot-swap, and metrics at /debug/vars.
//
//	prmserved -addr :8080 -datasets census,tb
//	curl -s localhost:8080/v1/estimate -d '{"model":"census","query":"FROM Census c WHERE c.Sex = sex0"}'
//
// Query syntax is the internal/queryparse dialect (see cmd/prmquery).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"prmsel/internal/cliutil"
	"prmsel/internal/serve"
	"prmsel/internal/store"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("prmserved: ")
	addr := flag.String("addr", ":8080", "listen address")
	datasets := flag.String("datasets", "census", "comma-separated models to serve: "+cliutil.DatasetHelp)
	csvDir := flag.String("csv", "", "directory of <table>.csv files, served as model \"csv\" (in addition to -datasets)")
	rows := flag.Int("rows", 40000, "census rows")
	scale := flag.Float64("scale", 1.0, "TB/FIN/Shop scale")
	seed := flag.Int64("seed", 1, "generator seed")
	budget := flag.Int("budget", 4400, "model storage budget in bytes")
	cacheCap := flag.Int("cache", 4096, "inference cache capacity (entries)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline on /v1/*, /healthz and /debug/vars; an estimate still running at it answers a structured 503")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "max time to read a full request, body included")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "max time to write a full response")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "max keep-alive idle time per connection")
	maxBody := flag.Int64("max-body", 1<<20, "request body limit in bytes")
	exactEvery := flag.Int("exact-every", 0, "run every Nth estimate through the exact executor for q-error metrics (0 = off)")
	logJSON := flag.Bool("log-json", false, "emit request logs as JSON (default: logfmt-style text)")
	maxCells := flag.Int("max-cells", 0, "elimination budget in factor cells; over-budget queries degrade to sampling (0 = unlimited)")
	approxSamples := flag.Int("approx-samples", 4096, "likelihood-weighting samples for the degraded tier")
	maxConcurrent := flag.Int("max-concurrent", 0, "admission-control weight capacity (0 = 8×GOMAXPROCS, negative = off)")
	maxQueued := flag.Int("max-queued", 0, "admission queue length before 429 (0 = 4×capacity)")
	queueTimeout := flag.Duration("queue-timeout", time.Second, "max wait for an inference slot before 503")
	rebuildRetries := flag.Int("rebuild-retries", 5, "max build attempts per rebuild cycle")
	storeDir := flag.String("store-dir", "", "durable model store directory: snapshots persist across restarts and recovery serves them immediately on startup (empty = in-memory only)")
	keepGenerations := flag.Int("keep-generations", 3, "snapshot generations kept per model in the store")
	driftThreshold := flag.Float64("drift-threshold", 0, "p90 observed q-error (from /v1/feedback) above which a model reports drifted (0 = watchdog off)")
	driftWindow := flag.Int("drift-window", 64, "rolling window size for the accuracy watchdog")
	rebuildOnDrift := flag.Bool("rebuild-on-drift", false, "trigger an early background rebuild when a model drifts")
	ingestOn := flag.Bool("ingest", false, "enable the WAL-backed streaming write path (POST /v1/ingest); requires -store-dir")
	refitRows := flag.Int64("refit-rows", 1024, "pending rows that trigger an incremental refit (negative = row trigger off)")
	refitInterval := flag.Duration("refit-interval", 0, "refit pending rows at least this often (0 = off)")
	maxPending := flag.Int64("max-pending", 65536, "pending-row backlog before ingest returns 429")
	journalSize := flag.Int("journal-size", 0, "request journal ring capacity in events (0 = default 1024, negative = journal off)")
	journalSample := flag.Int("journal-sample", 0, "journal 1 in N ordinary successes; errors, degraded, and slow requests are always kept (0 = default)")
	slowThreshold := flag.Duration("slow-threshold", 0, "latency above which a request is journaled as slow (0 = default: the SLO latency threshold)")
	sloLatency := flag.Duration("slo-latency", 0, "latency SLO threshold for estimate requests (0 = default 100ms)")
	sloLatencyTarget := flag.Float64("slo-latency-target", 0, "fraction of estimate requests that must meet -slo-latency (0 = default 0.999)")
	sloQErrorMax := flag.Float64("slo-qerror-max", 0, "q-error SLO threshold for feedback and exact-checked estimates (0 = default 16)")
	drainGrace := flag.Duration("drain-grace", 0, "pause between flipping /readyz to 503 and closing the listener, so upstreams stop routing before connections start failing (0 = immediate)")
	brownout := flag.Bool("brownout", true, "enable the adaptive brownout controller and circuit breakers")
	brownoutTick := flag.Duration("brownout-tick", 0, "brownout controller sampling period (0 = default 1s)")
	memSoftLimit := flag.Int64("mem-soft-limit", 0, "heap bytes feeding the brownout memory-pressure signal (0 = signal off)")
	mutexFraction := flag.Int("mutex-profile-fraction", 0, "sample 1 in N mutex contention events for /debug/pprof/mutex (0 = off); turn on to verify the read path takes no locks")
	blockRate := flag.Int("block-profile-rate", 0, "sample blocking events at this rate in ns for /debug/pprof/block (0 = off)")
	flag.Parse()

	if *ingestOn && *storeDir == "" {
		log.Fatal("-ingest requires -store-dir: acknowledged rows must be durable")
	}
	if *mutexFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexFraction)
		log.Printf("mutex profiling on: 1 in %d contention events → /debug/pprof/mutex", *mutexFraction)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
		log.Printf("block profiling on: %dns sampling rate → /debug/pprof/block", *blockRate)
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	reg := serve.NewRegistry()
	if *storeDir != "" {
		st, err := store.Open(*storeDir, *keepGenerations)
		if err != nil {
			log.Fatal(err)
		}
		reg.UseStore(st)
		log.Printf("durable model store at %s (keeping %d generations per model)", st.Dir(), *keepGenerations)
	}
	drift := serve.DriftPolicy{Window: *driftWindow, Threshold: *driftThreshold}
	ingestPol := serve.IngestPolicy{
		Enabled:       *ingestOn,
		RefitRows:     *refitRows,
		RefitInterval: *refitInterval,
		MaxPending:    *maxPending,
	}
	add := func(name string, spec serve.BuildSpec) {
		start := time.Now()
		m, err := reg.Add(name, spec)
		if err != nil {
			log.Fatal(err)
		}
		snap := m.Current()
		var storage int
		for _, e := range snap.Estimators {
			storage += e.StorageBytes()
		}
		state := "built"
		if h := m.Health(); h.Recovered {
			state = "recovered"
			if h.Ingest != nil && h.Ingest.PendingRows > 0 {
				state = fmt.Sprintf("recovered (+%d rows replayed from WAL)", h.Ingest.PendingRows)
			}
		}
		log.Printf("model %s ready: %d estimators, %d bytes, %s in %v",
			m.Name, len(snap.Estimators), storage, state, time.Since(start).Round(time.Millisecond))
	}
	for _, name := range strings.Split(*datasets, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		add(name, serve.BuildSpec{
			Dataset:     name,
			Rows:        *rows,
			Scale:       *scale,
			Seed:        *seed,
			BudgetBytes: *budget,
			Retry:       serve.RetryPolicy{MaxAttempts: *rebuildRetries},
			Drift:       drift,
			Ingest:      ingestPol,
		})
	}
	if *csvDir != "" {
		add("csv", serve.BuildSpec{
			CSVDir:      *csvDir,
			Seed:        *seed,
			BudgetBytes: *budget,
			Retry:       serve.RetryPolicy{MaxAttempts: *rebuildRetries},
			Drift:       drift,
			Ingest:      ingestPol,
		})
	}
	if len(reg.Names()) == 0 {
		log.Fatal("no models to serve (set -datasets or -csv)")
	}

	srv := serve.NewServer(serve.Config{
		Registry:           reg,
		CacheCapacity:      *cacheCap,
		RequestTimeout:     *timeout,
		MaxBodyBytes:       *maxBody,
		ExactEvery:         *exactEvery,
		MaxCells:           *maxCells,
		ApproxSamples:      *approxSamples,
		MaxConcurrent:      *maxConcurrent,
		MaxQueued:          *maxQueued,
		QueueTimeout:       *queueTimeout,
		RebuildOnDrift:     *rebuildOnDrift,
		Logger:             logger,
		JournalSize:        *journalSize,
		JournalSampleEvery: *journalSample,
		DisableJournal:     *journalSize < 0,
		SlowThreshold:      *slowThreshold,
		SLOLatency:         *sloLatency,
		SLOLatencyTarget:   *sloLatencyTarget,
		SLOQErrorMax:       *sloQErrorMax,
		DisableBrownout:    !*brownout,
		BrownoutTick:       *brownoutTick,
		MemSoftLimit:       *memSoftLimit,
	})
	srv.Metrics().Publish()

	// Full server-side timeouts, not just the header read: a client that
	// trickles a body or never drains a response must not pin a
	// connection (and its admission slot) forever.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving %s on %s", strings.Join(reg.Names(), ", "), *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown, in dependency order: flip /readyz to not-ready
	// first and give upstreams (the cluster gate, load balancers) a grace
	// period to notice and stop routing here, then stop accepting and
	// drain in-flight HTTP requests (which empties the admission queue —
	// every queued request either finishes or times out under the server
	// deadline), then stop the rebuild loops and wait for any pending
	// snapshot flush to the durable store, so a SIGTERM never loses a
	// just-built generation.
	srv.StartDrain()
	if *drainGrace > 0 {
		log.Printf("shutting down: not-ready on /readyz, waiting %v for upstreams", *drainGrace)
		time.Sleep(*drainGrace)
	}
	log.Print("shutting down: draining requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "prmserved: shutdown: %v\n", err)
	}
	srv.Close() // stop the brownout controller before model teardown
	log.Print("shutting down: stopping rebuilds and flushing snapshots")
	if err := reg.Close(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "prmserved: shutdown: %v\n", err)
	}
	log.Print("shutdown complete")
}
