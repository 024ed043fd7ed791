// Command tfrec-router is the scatter-gather front of a sharded serving
// topology. Point it at N tfrec-serve backends started in shard mode
// (-item-range), each owning a contiguous slice of the item catalog; the
// router fans every recommend request out to all of them and merges the
// per-shard rankings into a response byte-identical to a single
// full-catalog node's — same items, same scores, same tie-breaks, same
// JSON bytes.
//
// Usage:
//
//	tfrec-serve -model model.tfrec -item-range 0:400   -addr :9001 &
//	tfrec-serve -model model.tfrec -item-range 400:800 -addr :9002 &
//	tfrec-serve -model model.tfrec -item-range 800:1200 -addr :9003 &
//	tfrec-router -shards http://localhost:9001,http://localhost:9002,http://localhost:9003 -addr :8080
//	curl -d '{"user":17,"k":10}' localhost:8080/v1/recommend
//
// The router serves the full endpoint surface of a node — POST
// /v1/recommend, /v1/stats and /healthz — plus the edge stack:
// admission control, per-request deadlines, hedged shard requests
// (-hedge), and a merged-result cache versioned by the minimum snapshot
// epoch across the shard set. Per-request model fingerprint checks keep
// a mid-SIGHUP topology from ever mixing snapshots; -degraded picks
// between shedding and serving the reachable part of the catalog when a
// shard is down. SIGHUP re-reads the shard topology.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tfrec-router: ")

	shards := flag.String("shards", "", "comma-separated shard base URLs (each a tfrec-serve started with -item-range); ranges must tile the catalog")
	addr := flag.String("addr", ":8080", "listen address")
	hedge := flag.Duration("hedge", 0, "re-send a shard request not answered within this delay and take the first response (0 = hedging off)")
	degraded := flag.String("degraded", "shed", "policy when a shard is unreachable: shed (503 shard_unavailable) or partial (serve reachable shards, mark the response degraded)")
	cacheSize := flag.Int("cache-size", 0, "merged-result LRU cache capacity in entries, versioned by the minimum shard epoch (0 = off)")
	maxInflight := flag.Int("max-inflight", 0, "admission control: max concurrently routed requests (0 = unlimited)")
	queueWait := flag.Duration("queue-wait", 10*time.Millisecond, "admission control: max wait for a routing slot before shedding")
	timeout := flag.Duration("timeout", 0, "per-request budget covering queue wait and the whole fan-out (0 = unbounded)")
	maxBody := flag.Int64("max-body", 0, "request body size limit in bytes (0 = 1MiB default)")
	bootstrap := flag.Duration("bootstrap-timeout", 30*time.Second, "how long to retry the initial topology probe while shards come up")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
	flag.Parse()

	var urls []string
	for _, u := range strings.Split(*shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		log.Fatal("-shards is required (comma-separated backend URLs)")
	}
	var partial bool
	switch *degraded {
	case "shed":
	case "partial":
		partial = true
	default:
		log.Fatalf("-degraded must be shed or partial, got %q", *degraded)
	}

	cfg := router.Config{
		Shards:          urls,
		HedgeDelay:      *hedge,
		Timeout:         *timeout,
		DegradedPartial: partial,
		CacheSize:       *cacheSize,
		MaxInflight:     *maxInflight,
		QueueWait:       *queueWait,
		MaxBody:         *maxBody,
	}
	// shards typically start alongside the router; retry the bootstrap
	// probe until the whole topology answers or the budget runs out
	var rt *router.Router
	var err error
	deadline := time.Now().Add(*bootstrap)
	for {
		rt, err = router.New(cfg)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("topology bootstrap: %v", err)
		}
		log.Printf("topology not ready (%v), retrying", err)
		time.Sleep(250 * time.Millisecond)
	}
	log.Printf("routing %d shards, degraded=%s, hedge=%s, cache=%d, max-inflight=%d, timeout=%s on %s",
		len(urls), *degraded, *hedge, *cacheSize, *maxInflight, *timeout, *addr)

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := rt.Refresh(context.Background()); err != nil {
				log.Printf("topology refresh failed, keeping current topology: %v", err)
				continue
			}
			log.Print("topology refreshed")
		}
	}()

	h := router.NewHTTP(rt)
	httpSrv := &http.Server{Addr: *addr, Handler: h.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, os.Interrupt, syscall.SIGTERM)
		<-quit
		log.Print("shutting down")
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done
}
