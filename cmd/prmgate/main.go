// Command prmgate is the cluster routing gateway: it spreads estimate
// traffic across a set of prmserved replicas with consistent-hash
// routing, health-checks them through /readyz, circuit-breaks replicas
// that fail, retries idempotent requests along the failover chain, and
// orchestrates rolling rollout of model generations.
//
//	prmgate -addr :8090 -replicas http://127.0.0.1:9001,http://127.0.0.1:9002,http://127.0.0.1:9003
//	curl -s localhost:8090/v1/estimate -d '{"model":"census","query":"FROM Census c WHERE c.Sex = sex0"}'
//	curl -s localhost:8090/v1/cluster | jq .
//	curl -s localhost:8090/v1/cluster/rollout -d '{"model":"census"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"prmsel/internal/cluster"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("prmgate: ")
	addr := flag.String("addr", ":8090", "listen address")
	replicas := flag.String("replicas", "", "comma-separated prmserved base URLs (required)")
	healthInterval := flag.Duration("health-interval", time.Second, "readiness poll period; the routing ring converges within one interval of a replica dying")
	healthTimeout := flag.Duration("health-timeout", 0, "per-check timeout (0 = the health interval)")
	downAfter := flag.Int("down-after", 1, "consecutive failed checks before a replica leaves the ring")
	upAfter := flag.Int("up-after", 1, "consecutive passing checks before a replica rejoins")
	vnodes := flag.Int("vnodes", 64, "virtual nodes per replica on the consistent-hash ring")
	maxAttempts := flag.Int("max-attempts", 3, "total forwarding attempts per idempotent request")
	retryBackoff := flag.Duration("retry-backoff", 25*time.Millisecond, "pause before re-forwarding after a transport failure (jittered)")
	quorum := flag.Int("quorum", 0, "replicas that must serve a generation before rollout promotes it (0 = majority)")
	forwardTimeout := flag.Duration("forward-timeout", 10*time.Second, "per-attempt forwarding timeout")
	drainGrace := flag.Duration("drain-grace", 0, "pause between flipping /readyz to 503 and closing the listener (0 = immediate)")
	flag.Parse()

	urls := make([]string, 0, 4)
	for _, u := range strings.Split(*replicas, ",") {
		u = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(u), "/"))
		if u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		log.Fatal("-replicas is required (comma-separated base URLs)")
	}

	gate, err := cluster.NewGate(cluster.Config{
		Replicas:       urls,
		Client:         &http.Client{Timeout: *forwardTimeout},
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
		DownAfter:      *downAfter,
		UpAfter:        *upAfter,
		VNodes:         *vnodes,
		MaxAttempts:    *maxAttempts,
		RetryBackoff:   *retryBackoff,
		Quorum:         *quorum,
		Logf:           log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	gate.Start()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gate.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * *forwardTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("routing to %d replicas on %s", len(urls), *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Mirror the replica shutdown sequence: not-ready first, grace for
	// whatever balances across gates, then drain in-flight forwards,
	// then stop the health loop and wait out background rollouts.
	gate.StartDrain()
	if *drainGrace > 0 {
		log.Printf("shutting down: not-ready on /readyz, waiting %v for upstreams", *drainGrace)
		time.Sleep(*drainGrace)
	}
	log.Print("shutting down: draining forwards")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "prmgate: shutdown: %v\n", err)
	}
	gate.Close()
	log.Print("shutdown complete")
}
