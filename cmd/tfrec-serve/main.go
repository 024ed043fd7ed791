// Command tfrec-serve exposes a model trained by tfrec-train as an
// HTTP/JSON recommendation service: one POST /v1/recommend route for
// user, session, cascaded and diversified rankings plus snapshot stats
// (see serve.HTTP for the wire format). SIGHUP re-reads the model file and hot-swaps the serving
// snapshot without dropping in-flight requests; SIGINT/SIGTERM shut down
// gracefully.
//
// Usage:
//
//	tfrec-serve -model model.tfrec -addr :8080
//	curl -d '{"user":17,"k":10}' localhost:8080/v1/recommend
//	kill -HUP $(pidof tfrec-serve)   # after tfrec-train rewrites model.tfrec
//
// A v4 (TFRECMDL flat) model file is memory-mapped and served zero-copy:
// startup does no Compose pass and no quantization pass, so load time is
// O(1) in catalog size and resident memory stays flat until request
// traffic faults slabs in. v1-v3 gob files still load via the legacy
// decode+compose path. Every load — startup and SIGHUP — logs its
// duration, the file's format version, whether it is mapped, and the
// snapshot epoch.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/serve"
)

// loadSnapshot opens the model file for serving (memory-mapping v4
// files) and reports how long the load took — the number the flat format
// exists to shrink.
func loadSnapshot(path string) (*model.Snapshot, time.Duration, error) {
	start := time.Now()
	sn, err := model.LoadFile(path)
	return sn, time.Since(start), err
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tfrec-serve: ")

	modelPath := flag.String("model", "model.tfrec", "model file from tfrec-train (v4 flat files are memory-mapped; gob files load via the legacy path)")
	dataDir := flag.String("data", "", "directory with purchases.tsv backing ?exclude_purchased= filtering (empty = requests exclude only their own recent baskets)")
	addr := flag.String("addr", ":8080", "listen address")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown timeout")
	workers := flag.Int("workers", 0, "inference pool parallelism (0 = GOMAXPROCS, 1 = serial sweeps)")
	maxBody := flag.Int64("max-body", 0, "request body size limit in bytes (0 = 1MiB default); oversize bodies get 413")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	cacheSize := flag.Int("cache-size", 0, "versioned LRU result cache capacity in entries (0 = caching off); SIGHUP reload invalidates all entries atomically")
	maxInflight := flag.Int("max-inflight", 0, "admission control: max concurrently executing recommend requests (0 = unlimited); excess waits briefly, then sheds 429/503 with Retry-After")
	queueWait := flag.Duration("queue-wait", 10*time.Millisecond, "admission control: how long a request may wait for an execution slot before shedding 503 (queue depth is 2x -max-inflight)")
	timeout := flag.Duration("timeout", 0, "per-request budget covering queue wait and sweep (0 = unbounded); a deadline firing mid-sweep sheds 503, never a partial ranking")
	pruned := flag.Bool("pruned", false, "default naive sweeps to taxonomy-guided branch-and-bound retrieval (rankings stay byte-identical)")
	itemRange := flag.String("item-range", "", "shard mode: serve only catalog items in the half-open range lo:hi (empty = full catalog); a tfrec-router merges shard rankings")
	flag.Parse()

	sn, loadDur, err := loadSnapshot(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	opts := []serve.Option{serve.WithWorkers(*workers), serve.WithCache(*cacheSize), serve.WithPruned(*pruned)}
	if *itemRange != "" {
		rng, err := api.ParseItemRange(*itemRange)
		if err != nil {
			log.Fatalf("-item-range: %v", err)
		}
		if n := sn.Composed.NumItems(); rng.Hi > n {
			log.Fatalf("-item-range %s exceeds the catalog size %d", rng, n)
		}
		opts = append(opts, serve.WithItemRange(rng.Lo, rng.Hi))
		log.Printf("shard mode: serving items [%d,%d) of the catalog", rng.Lo, rng.Hi)
	}
	if *dataDir != "" {
		pf, err := os.Open(filepath.Join(*dataDir, "purchases.tsv"))
		if err != nil {
			log.Fatalf("-data: %v", err)
		}
		data, err := dataset.ReadTSV(pf)
		pf.Close()
		if err != nil {
			log.Fatalf("-data purchases: %v", err)
		}
		opts = append(opts, serve.WithHistory(data))
		log.Printf("purchase filtering armed from %s (%d users)", *dataDir, data.NumUsers())
	}
	srv := serve.NewSnapshot(sn, opts...)
	h := serve.NewHTTP(srv, nil)
	var lastLoad atomic.Int64 // nanoseconds of the most recent reload
	h.SetSnapshotReload(func() (*model.Snapshot, error) {
		sn, dur, err := loadSnapshot(*modelPath)
		lastLoad.Store(int64(dur))
		return sn, err
	})
	h.SetMaxBodyBytes(*maxBody)
	if *maxInflight > 0 {
		h.SetAdmission(*maxInflight, 2*(*maxInflight), *queueWait)
	}
	h.SetTimeout(*timeout)
	if *debugAddr != "" {
		// pprof lives on its own listener so profiling stays reachable
		// (and firewallable) independently of the serving port
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
		log.Printf("pprof on %s/debug/pprof/", *debugAddr)
	}
	c := sn.Composed
	log.Printf("loaded %s in %s: format v%d, mapped=%v, epoch %d", *modelPath, loadDur, sn.Format, sn.Mapped, srv.Epoch())
	log.Printf("serving %d users x %d items (K=%d) on %s, %d sweep workers, precision %s, pruned=%v, cache=%d, max-inflight=%d, timeout=%s",
		c.User.Rows(), c.NumItems(), c.K(), *addr, srv.Pool().Workers(), srv.Precision(), *pruned, *cacheSize, *maxInflight, *timeout)

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := h.Reload(); err != nil {
				log.Printf("reload failed, keeping current snapshot: %v", err)
				continue
			}
			format, mapped := srv.SnapshotInfo()
			log.Printf("reloaded %s in %s: format v%d, mapped=%v, epoch %d",
				*modelPath, time.Duration(lastLoad.Load()), format, mapped, srv.Epoch())
		}
	}()

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
