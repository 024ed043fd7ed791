// Command tfrec-loadgen drives a running tfrec-serve or tfrec-router
// with an open-loop arrival process and reports the latency
// distribution and error breakdown — the soak driver behind the CI
// loadtest and topology jobs and the local tool for sizing
// -workers/-max-inflight/-cache-size.
//
// Open-loop means arrivals fire on a fixed schedule (the target RPS)
// regardless of how many requests are still in flight, the way real
// traffic behaves: a slow server faces a growing backlog instead of the
// flattering closed-loop regime where slow responses throttle the load.
// That is exactly what makes it an honest probe of the admission layer —
// overdrive the server and the shed responses (429/503) show up here as
// a separate class, distinguished from real errors and timeouts. Every
// non-2xx body is parsed as the structured error envelope and the run
// reports a per-code breakdown, so "queue_full" pressure reads
// differently from "shard_unavailable" outages.
//
// The request mix comes from a scenario file (-scenario, JSON) weighting
// strategies, precisions, pruned retrieval, filters and pagination;
// without one a built-in mix of naive/pruned/cascade/diversified/filtered
// traffic runs. Model shape (user count, item count, Markov order) is
// discovered from /v1/stats — a router answers the same probe, so the
// same invocation drives either.
//
// Usage:
//
//	tfrec-loadgen -addr http://127.0.0.1:8080 -rps 200 -duration 20s
//	tfrec-loadgen -rps 2000 -duration 5s -shed-ok -require-shed   # overload probe
//	tfrec-loadgen -addr http://router:8080 -mirror http://single:8090 \
//	    -rps 100 -duration 10s -fail-on-error                     # byte-identity gate
//
// -addr takes a comma-separated list and round-robins across it.
// -mirror sends every request to a control server too and fails the run
// unless each response pair is byte-identical — the CI proof that a
// router over N shards answers exactly like one full-catalog node.
//
// CI gates: -fail-on-error (any non-2xx that is not an allowed shed, or
// any transport error, fails), -max-p99 (latency budget over successful
// requests), -require-shed (the overload run must actually shed),
// -max-goroutines (post-run leak check against /v1/stats), -mirror
// (any response divergence fails).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
)

// scenario is one weighted request template of the mix.
type scenario struct {
	Name   string `json:"name"`
	Weight int    `json:"weight"`
	K      int    `json:"k"`
	Offset int    `json:"offset"`
	// Strategy: "", "naive", "cascade", "diversified" (unified endpoint).
	Strategy         string  `json:"strategy"`
	Keep             float64 `json:"keep"`             // cascade keep fraction
	MaxPerCategory   int     `json:"max_per_category"` // diversified quota
	CatDepth         int     `json:"cat_depth"`
	Precision        string  `json:"precision"` // "", "f32", "f64", "int8" (query param; validated, no effect)
	Workers          int     `json:"workers"`   // > 0 sends ?workers= (validated, no effect)
	Pruned           bool    `json:"pruned"`    // branch-and-bound taxonomy descent (query param)
	Session          bool    `json:"session"`   // user = -1 (needs markov_order > 0)
	ExcludePurchased bool    `json:"exclude_purchased"`
	// Categories/ExcludeCategories name taxonomy node ids; ids are taken
	// modulo the live model's node count so one scenario file works across
	// world sizes.
	Categories        []int32 `json:"categories"`
	ExcludeCategories []int32 `json:"exclude_categories"`
	// RecentBaskets attaches this many random single-item baskets (drives
	// the Markov term; ignored when the model has markov_order = 0).
	RecentBaskets int `json:"recent_baskets"`
}

type scenarioFile struct {
	Scenarios []scenario `json:"scenarios"`
}

// defaultScenarios is the built-in mix: mostly naive full-catalog
// traffic with strategy, filter, pagination and precision variety.
func defaultScenarios() []scenario {
	return []scenario{
		{Name: "naive", Weight: 6},
		{Name: "naive-f64", Weight: 1, Precision: "f64"},
		{Name: "naive-int8", Weight: 1, Precision: "int8"},
		{Name: "naive-f32-serial", Weight: 1, Precision: "f32", Workers: 1},
		{Name: "naive-pruned", Weight: 1, Pruned: true},
		{Name: "paged", Weight: 1, Offset: 5},
		{Name: "cascade", Weight: 1, Strategy: "cascade", Keep: 0.4},
		{Name: "diversified", Weight: 1, Strategy: "diversified", MaxPerCategory: 2},
		{Name: "filtered", Weight: 1, ExcludeCategories: []int32{1}},
		{Name: "session", Weight: 1, Session: true, RecentBaskets: 2},
	}
}

// modelInfo is the slice of /v1/stats loadgen needs to synthesize
// requests and run the post-load leak check. api.Stats and
// api.RouterStats share the model and goroutines sections, so one probe
// shape covers a single node and a router alike.
type modelInfo = api.Stats

func fetchStats(client *http.Client, addr string) (modelInfo, error) {
	var info modelInfo
	resp, err := client.Get(addr + "/v1/stats")
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return info, json.NewDecoder(resp.Body).Decode(&info)
}

// buildRequest renders one scenario instance against the live model
// shape. It returns the request path (precision rides as a query
// parameter) and the JSON body.
func buildRequest(rng *rand.Rand, sc scenario, info modelInfo, defaultK int) (string, []byte) {
	k := sc.K
	if k <= 0 {
		k = defaultK
	}
	body := api.RecommendRequest{
		User:             rng.Intn(max(info.Model.Users, 1)),
		K:                k,
		Offset:           sc.Offset,
		Strategy:         sc.Strategy,
		Keep:             sc.Keep,
		MaxPerCategory:   sc.MaxPerCategory,
		CatDepth:         sc.CatDepth,
		ExcludePurchased: sc.ExcludePurchased,
	}
	if sc.Session {
		body.User = -1
	}
	clampNodes := func(ids []int32) []int32 {
		if len(ids) == 0 || info.Model.Nodes == 0 {
			return nil
		}
		out := make([]int32, len(ids))
		for i, id := range ids {
			out[i] = id % int32(info.Model.Nodes)
		}
		return out
	}
	body.Categories = clampNodes(sc.Categories)
	body.ExcludeCategories = clampNodes(sc.ExcludeCategories)
	if sc.RecentBaskets > 0 && info.Model.MarkovOrder > 0 && info.Model.Items > 0 {
		for i := 0; i < sc.RecentBaskets; i++ {
			body.Recent = append(body.Recent, []int32{int32(rng.Intn(info.Model.Items))})
		}
	}
	raw, _ := json.Marshal(body)
	path := api.EndpointUnified.Path()
	sep := "?"
	if sc.Precision != "" {
		path += sep + "precision=" + sc.Precision
		sep = "&"
	}
	if sc.Workers > 0 {
		path += sep + "workers=" + strconv.Itoa(sc.Workers)
		sep = "&"
	}
	if sc.Pruned {
		path += sep + "pruned=true"
	}
	return path, raw
}

// pickScenario samples the mix by weight.
func pickScenario(rng *rand.Rand, scs []scenario, totalWeight int) scenario {
	n := rng.Intn(totalWeight)
	for _, sc := range scs {
		n -= weightOf(sc)
		if n < 0 {
			return sc
		}
	}
	return scs[len(scs)-1]
}

func weightOf(sc scenario) int {
	if sc.Weight <= 0 {
		return 1
	}
	return sc.Weight
}

// shot is one completed arrival.
type shot struct {
	status  int // 0 = transport error
	latency time.Duration
	err     error
	// code is the typed envelope code parsed from a non-2xx body
	// ("unparsed" when the body is not the structured envelope).
	code string
	// degraded marks a 2xx whose ranking covered only part of the catalog
	// (router in -degraded partial with a shard down).
	degraded bool
	// compared/mismatch track the -mirror byte-identity check for this
	// arrival; mismatch carries the first-line description of a divergence.
	compared bool
	mismatch string
}

// shedStatus reports whether a status is load-dependent (shed or
// transport failure) and therefore outside the -mirror identity contract.
func shedStatus(status int) bool {
	return status == 0 || status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// percentile returns the p-quantile (0..100) of sorted latencies.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(float64(len(sorted)-1) * p / 100)
	return sorted[idx]
}

// histogram renders a coarse log-spaced latency histogram.
func histogram(w io.Writer, sorted []time.Duration) {
	if len(sorted) == 0 {
		return
	}
	bounds := []time.Duration{
		100 * time.Microsecond, 300 * time.Microsecond,
		time.Millisecond, 3 * time.Millisecond, 10 * time.Millisecond,
		30 * time.Millisecond, 100 * time.Millisecond, 300 * time.Millisecond,
		time.Second,
	}
	counts := make([]int, len(bounds)+1)
	for _, l := range sorted {
		i := sort.Search(len(bounds), func(i int) bool { return l < bounds[i] })
		counts[i]++
	}
	fmt.Fprintf(w, "  histogram:")
	prev := time.Duration(0)
	for i, c := range counts {
		if c == 0 {
			if i < len(bounds) {
				prev = bounds[i]
			}
			continue
		}
		if i < len(bounds) {
			fmt.Fprintf(w, "  [%v..%v) %d", prev, bounds[i], c)
			prev = bounds[i]
		} else {
			fmt.Fprintf(w, "  [>=%v] %d", prev, c)
		}
	}
	fmt.Fprintln(w)
}

// report is the machine-readable summary (-json).
type report struct {
	Requests     int            `json:"requests"`
	TargetRPS    float64        `json:"target_rps"`
	AchievedRPS  float64        `json:"achieved_rps"`
	StatusCounts map[string]int `json:"status_counts"`
	// ErrorCodes breaks every non-2xx down by its typed envelope code
	// ("unparsed" = the body was not the structured envelope).
	ErrorCodes map[string]int `json:"error_codes,omitempty"`
	Transport  int            `json:"transport_errors"`
	Shed       int            `json:"shed"`
	Success    int            `json:"success_2xx"`
	// Degraded counts 2xx responses flagged "degraded":true (partial
	// catalog coverage from a router with a shard down).
	Degraded int `json:"degraded_responses"`
	// MirrorCompared/MirrorMismatches summarize the -mirror byte-identity
	// check; any mismatch fails the run.
	MirrorCompared   int     `json:"mirror_compared,omitempty"`
	MirrorMismatches int     `json:"mirror_mismatches,omitempty"`
	P50MS            float64 `json:"p50_ms"`
	P95MS            float64 `json:"p95_ms"`
	P99MS            float64 `json:"p99_ms"`
	MaxMS            float64 `json:"max_ms"`
	Goroutines       int     `json:"server_goroutines_after"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tfrec-loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8080", "comma-separated base URLs (tfrec-serve or tfrec-router); arrivals round-robin across them")
	mirror := fs.String("mirror", "", "control base URL: every request is sent here too and any non-shed response pair that is not byte-identical fails the run")
	rps := fs.Float64("rps", 100, "open-loop arrival rate (requests per second)")
	duration := fs.Duration("duration", 20*time.Second, "how long to generate load")
	scenarioPath := fs.String("scenario", "", "JSON scenario file weighting the request mix (empty = built-in mix)")
	k := fs.Int("k", 10, "default result size for scenarios that don't set k")
	seed := fs.Int64("seed", 1, "random seed (users, mix sampling)")
	reqTimeout := fs.Duration("request-timeout", 5*time.Second, "client-side per-request timeout (expiries count as transport errors)")
	maxP99 := fs.Duration("max-p99", 0, "fail if the 2xx p99 latency exceeds this (0 = no gate)")
	failOnError := fs.Bool("fail-on-error", false, "fail on any transport error or any non-2xx that is not an allowed shed")
	shedOK := fs.Bool("shed-ok", false, "treat 429/503 as intentional shedding, not errors")
	requireShed := fs.Bool("require-shed", false, "fail unless at least one request was shed (429/503); implies -shed-ok")
	maxGoroutines := fs.Int("max-goroutines", 0, "fail if the server reports more goroutines than this after the run settles (0 = no gate)")
	jsonOut := fs.String("json", "", "also write the report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *requireShed {
		*shedOK = true
	}
	if *rps <= 0 || *duration <= 0 {
		fmt.Fprintln(stderr, "tfrec-loadgen: -rps and -duration must be positive")
		return 2
	}

	scenarios := defaultScenarios()
	if *scenarioPath != "" {
		raw, err := os.ReadFile(*scenarioPath)
		if err != nil {
			fmt.Fprintf(stderr, "tfrec-loadgen: %v\n", err)
			return 2
		}
		var sf scenarioFile
		if err := json.Unmarshal(raw, &sf); err != nil || len(sf.Scenarios) == 0 {
			fmt.Fprintf(stderr, "tfrec-loadgen: bad scenario file %s: %v\n", *scenarioPath, err)
			return 2
		}
		scenarios = sf.Scenarios
	}

	var targets []string
	for _, t := range strings.Split(*addr, ",") {
		if t = strings.TrimSpace(t); t != "" {
			targets = append(targets, strings.TrimRight(t, "/"))
		}
	}
	if len(targets) == 0 {
		fmt.Fprintln(stderr, "tfrec-loadgen: -addr must name at least one base URL")
		return 2
	}
	*mirror = strings.TrimRight(strings.TrimSpace(*mirror), "/")

	client := &http.Client{
		Timeout: *reqTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 512,
		},
	}
	info, err := fetchStats(client, targets[0])
	if err != nil {
		fmt.Fprintf(stderr, "tfrec-loadgen: cannot reach server: %v\n", err)
		return 2
	}
	// drop scenarios the live model cannot serve (session needs a Markov
	// term) instead of generating guaranteed 400s
	kept := scenarios[:0]
	for _, sc := range scenarios {
		if sc.Session && info.Model.MarkovOrder == 0 {
			fmt.Fprintf(stdout, "tfrec-loadgen: dropping scenario %q (model has markov_order=0)\n", sc.Name)
			continue
		}
		kept = append(kept, sc)
	}
	scenarios = kept
	if len(scenarios) == 0 {
		fmt.Fprintln(stderr, "tfrec-loadgen: no runnable scenarios")
		return 2
	}
	totalWeight := 0
	for _, sc := range scenarios {
		totalWeight += weightOf(sc)
	}

	interval := time.Duration(float64(time.Second) / *rps)
	n := int(*duration / interval)
	if n < 1 {
		n = 1
	}
	shots := make([]shot, n)
	rng := rand.New(rand.NewSource(*seed))

	// pre-render every request so the hot loop only sends: open-loop
	// pacing must not jitter on JSON marshalling
	paths := make([]string, n)
	bodies := make([][]byte, n)
	for i := range paths {
		sc := pickScenario(rng, scenarios, totalWeight)
		paths[i], bodies[i] = buildRequest(rng, sc, info, *k)
	}

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		// open loop: fire at the scheduled instant no matter how many
		// requests are still outstanding
		time.Sleep(time.Until(start.Add(time.Duration(i) * interval)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			target := targets[i%len(targets)]
			t0 := time.Now()
			resp, err := client.Post(target+paths[i], "application/json", bytes.NewReader(bodies[i]))
			lat := time.Since(t0)
			if err != nil {
				shots[i] = shot{status: 0, latency: lat, err: err}
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			s := shot{status: resp.StatusCode, latency: lat}
			if resp.StatusCode/100 != 2 {
				var eb api.ErrorBody
				if json.Unmarshal(body, &eb) == nil && eb.Err.Code != "" {
					s.code = string(eb.Err.Code)
				} else {
					s.code = "unparsed"
				}
			} else if bytes.Contains(body, []byte(`"degraded":true`)) {
				s.degraded = true
			}
			if *mirror != "" {
				mresp, merr := client.Post(*mirror+paths[i], "application/json", bytes.NewReader(bodies[i]))
				if merr != nil {
					s.mismatch = fmt.Sprintf("%s: mirror transport error: %v", paths[i], merr)
				} else {
					mbody, _ := io.ReadAll(mresp.Body)
					mresp.Body.Close()
					// shed responses (and transport drops) are load-dependent;
					// everything else — rankings and deterministic 4xx envelopes
					// alike — must match the control byte for byte
					if !shedStatus(resp.StatusCode) && !shedStatus(mresp.StatusCode) {
						s.compared = true
						switch {
						case resp.StatusCode != mresp.StatusCode:
							s.mismatch = fmt.Sprintf("%s %s: status %d vs mirror %d",
								paths[i], bodies[i], resp.StatusCode, mresp.StatusCode)
						case !bytes.Equal(body, mbody):
							s.mismatch = fmt.Sprintf("%s %s: bodies diverge (%d vs %d bytes)",
								paths[i], bodies[i], len(body), len(mbody))
						}
					}
				}
			}
			shots[i] = s
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	client.CloseIdleConnections()

	rep := report{
		Requests:     n,
		TargetRPS:    *rps,
		AchievedRPS:  float64(n) / elapsed.Seconds(),
		StatusCounts: map[string]int{},
	}
	var okLats []time.Duration
	var firstErr error
	firstMismatch := ""
	hardErrors := 0
	for _, s := range shots {
		switch {
		case s.status == 0:
			rep.Transport++
			hardErrors++
			if firstErr == nil {
				firstErr = s.err
			}
		case s.status/100 == 2:
			rep.Success++
			okLats = append(okLats, s.latency)
			if s.degraded {
				rep.Degraded++
			}
		case (s.status == http.StatusTooManyRequests || s.status == http.StatusServiceUnavailable) && *shedOK:
			rep.Shed++
		default:
			hardErrors++
		}
		if s.status != 0 {
			rep.StatusCounts[fmt.Sprint(s.status)]++
		}
		if s.code != "" {
			if rep.ErrorCodes == nil {
				rep.ErrorCodes = map[string]int{}
			}
			rep.ErrorCodes[s.code]++
		}
		if s.compared {
			rep.MirrorCompared++
		}
		if s.mismatch != "" {
			rep.MirrorMismatches++
			if firstMismatch == "" {
				firstMismatch = s.mismatch
			}
		}
	}
	sort.Slice(okLats, func(i, j int) bool { return okLats[i] < okLats[j] })
	p50, p95, p99 := percentile(okLats, 50), percentile(okLats, 95), percentile(okLats, 99)
	rep.P50MS = float64(p50) / float64(time.Millisecond)
	rep.P95MS = float64(p95) / float64(time.Millisecond)
	rep.P99MS = float64(p99) / float64(time.Millisecond)
	if len(okLats) > 0 {
		rep.MaxMS = float64(okLats[len(okLats)-1]) / float64(time.Millisecond)
	}

	fmt.Fprintf(stdout, "tfrec-loadgen: %d requests in %.1fs (target %.1f rps, achieved %.1f)\n",
		n, elapsed.Seconds(), *rps, rep.AchievedRPS)
	fmt.Fprintf(stdout, "  status:")
	codes := make([]string, 0, len(rep.StatusCounts))
	for code := range rep.StatusCounts {
		codes = append(codes, code)
	}
	sort.Strings(codes)
	for _, code := range codes {
		fmt.Fprintf(stdout, " %sx%d", code, rep.StatusCounts[code])
	}
	if rep.Transport > 0 {
		fmt.Fprintf(stdout, " transport-errors x%d (first: %v)", rep.Transport, firstErr)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "  latency (2xx): p50=%v p95=%v p99=%v max=%.1fms\n", p50, p95, p99, rep.MaxMS)
	histogram(stdout, okLats)
	if len(rep.ErrorCodes) > 0 {
		names := make([]string, 0, len(rep.ErrorCodes))
		for name := range rep.ErrorCodes {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(stdout, "  error codes:")
		for _, name := range names {
			fmt.Fprintf(stdout, " %s x%d", name, rep.ErrorCodes[name])
		}
		fmt.Fprintln(stdout)
	}
	if rep.Shed > 0 {
		fmt.Fprintf(stdout, "  shed (429/503): %d\n", rep.Shed)
	}
	if rep.Degraded > 0 {
		fmt.Fprintf(stdout, "  degraded responses: %d\n", rep.Degraded)
	}
	if *mirror != "" {
		fmt.Fprintf(stdout, "  mirror: %d response pairs compared, %d mismatches\n",
			rep.MirrorCompared, rep.MirrorMismatches)
	}

	// settle, then read the server's goroutine count for the leak gate
	if *maxGoroutines > 0 {
		time.Sleep(time.Second)
		after, err := fetchStats(client, *addr)
		if err != nil {
			fmt.Fprintf(stderr, "tfrec-loadgen: post-run stats: %v\n", err)
			return 1
		}
		rep.Goroutines = after.Goroutines
		fmt.Fprintf(stdout, "  server goroutines after settle: %d (limit %d)\n", after.Goroutines, *maxGoroutines)
	}

	if *jsonOut != "" {
		raw, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "tfrec-loadgen: %v\n", err)
			return 2
		}
	}

	failed := false
	if *failOnError && hardErrors > 0 {
		fmt.Fprintf(stdout, "FAIL: %d hard errors (non-2xx beyond allowed sheds, or transport failures)\n", hardErrors)
		failed = true
	}
	if *maxP99 > 0 {
		if len(okLats) == 0 {
			fmt.Fprintln(stdout, "FAIL: no successful requests to measure p99 over")
			failed = true
		} else if p99 > *maxP99 {
			fmt.Fprintf(stdout, "FAIL: p99 %v exceeds budget %v\n", p99, *maxP99)
			failed = true
		}
	}
	if *requireShed && rep.Shed == 0 {
		fmt.Fprintln(stdout, "FAIL: overload run shed nothing — admission control not engaging")
		failed = true
	}
	if *mirror != "" {
		if rep.MirrorMismatches > 0 {
			fmt.Fprintf(stdout, "FAIL: %d mirror mismatches (first: %s)\n", rep.MirrorMismatches, firstMismatch)
			failed = true
		} else if rep.MirrorCompared == 0 {
			fmt.Fprintln(stdout, "FAIL: -mirror compared nothing — every pair was shed or dropped")
			failed = true
		}
	}
	if *maxGoroutines > 0 && rep.Goroutines > *maxGoroutines {
		fmt.Fprintf(stdout, "FAIL: server reports %d goroutines after settle (limit %d) — possible leak\n", rep.Goroutines, *maxGoroutines)
		failed = true
	}
	if failed {
		return 1
	}
	fmt.Fprintln(stdout, "tfrec-loadgen: ok")
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
