package api

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/vecmath"
)

// ItemRange is a half-open contiguous slice [Lo, Hi) of the item catalog
// — the unit of catalog sharding. A shard-scoped server owns one range;
// a router's shard set must tile [0, items) exactly.
type ItemRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Contains reports whether item falls inside the range.
func (r ItemRange) Contains(item int) bool { return item >= r.Lo && item < r.Hi }

// Len returns the number of items in the range.
func (r ItemRange) Len() int { return r.Hi - r.Lo }

// String renders the range in the "lo:hi" flag form.
func (r ItemRange) String() string { return fmt.Sprintf("%d:%d", r.Lo, r.Hi) }

// ParseItemRange parses the "lo:hi" form of a catalog range (half-open,
// hi exclusive) used by the -item-range flag.
func ParseItemRange(s string) (ItemRange, error) {
	los, his, ok := strings.Cut(s, ":")
	if !ok {
		return ItemRange{}, fmt.Errorf("api: item range %q is not lo:hi", s)
	}
	lo, err := strconv.Atoi(los)
	if err != nil {
		return ItemRange{}, fmt.Errorf("api: item range %q: bad lo: %v", s, err)
	}
	hi, err := strconv.Atoi(his)
	if err != nil {
		return ItemRange{}, fmt.Errorf("api: item range %q: bad hi: %v", s, err)
	}
	if lo < 0 || hi <= lo {
		return ItemRange{}, fmt.Errorf("api: item range %q must satisfy 0 <= lo < hi", s)
	}
	return ItemRange{Lo: lo, Hi: hi}, nil
}

// StatsModel is the model section of /v1/stats: the shape of the serving
// snapshot plus its identity (epoch, content fingerprint, shard range).
type StatsModel struct {
	Users       int  `json:"users"`
	Items       int  `json:"items"`
	Nodes       int  `json:"nodes"`
	Depth       int  `json:"depth"`
	K           int  `json:"k"`
	MarkovOrder int  `json:"markov_order"`
	UseBias     bool `json:"use_bias"`
	// Epoch counts hot swaps; FormatVersion is the model file format the
	// snapshot came from (-1 = composed in-process) and Mapped whether
	// its slabs are served from a memory mapping.
	Epoch         uint64 `json:"epoch"`
	FormatVersion int    `json:"format_version"`
	Mapped        bool   `json:"mapped"`
	// ModelID fingerprints the snapshot's content — identical bytes on
	// every replica serving the same model file, unlike Epoch, which is a
	// per-process swap counter. Routers compare ModelIDs, not Epochs, to
	// detect a mid-reload topology mixing snapshots.
	ModelID string `json:"model_id"`
	// ItemRange is present on shard-scoped servers (-item-range): the
	// contiguous catalog slice this process answers for. Absent on a
	// full-catalog server.
	ItemRange *ItemRange `json:"item_range,omitempty"`
}

// StatsServed counts recommend traffic: Plan is one per successful POST
// /v1/recommend, whatever its strategy; Errors counts error responses;
// Panics counts requests whose execution panicked and was answered
// 500 internal (each also counts as an error) — any non-zero value is a
// bug worth a log dive.
type StatsServed struct {
	Plan   int64 `json:"plan"`
	Errors int64 `json:"errors"`
	Panics int64 `json:"panics"`
}

// StatsFilters counts how many served requests used each request-time
// filtering capability.
type StatsFilters struct {
	ExcludePurchased int64 `json:"exclude_purchased"`
	Category         int64 `json:"category"`
	Paged            int64 `json:"paged"`
}

// StatsPruning mirrors infer.PruneCounters: how much dense-sweep work the
// category sweep saved (categories and items skipped, items versus the
// catalog size), what it spent (bound_evals, one per cut category per
// sweep), and how often the first-fill checkpoint handed a query to the
// dense sweep (checkpoint_bails, which also counts the rare query whose
// rounding allowance is not finite).
type StatsPruning struct {
	CategoriesSkipped int64 `json:"categories_skipped"`
	ItemsSkipped      int64 `json:"items_skipped"`
	BoundEvals        int64 `json:"bound_evals"`
	CheckpointBails   int64 `json:"checkpoint_bails"`
}

// StatsInference describes the parallel sweep and precision
// configuration. Precision is the host's sweep tier, the one every
// request runs: "int8" where the fused AVX2 int8 kernel runs, else "f64".
// I8Escalations counts process-wide int8 margin escalations — a steady
// climb means scores are tighter than the quantization error and requests
// pay re-sweeps. F32Escalations is always 0: the float32 tier it counted
// is retired, and the field stays for wire compatibility.
// DiversifyRefetches counts diversified requests' doubled
// prefix re-fetches (infer.DiversifyRefetches) — a climb means a few
// categories dominate the top of the ranking and quota pages cost extra
// sweeps.
type StatsInference struct {
	PoolWorkers        int          `json:"pool_workers"`
	Precision          string       `json:"precision"`
	F32Escalations     int64        `json:"f32_escalations"`
	I8Escalations      int64        `json:"i8_escalations"`
	DiversifyRefetches int64        `json:"diversify_refetches"`
	Filters            StatsFilters `json:"filters"`
	// Kernels is the active vecmath dispatch table — which scoring kernel
	// implementation (avx2 or generic) serves each of its four ops on
	// this process, plus why SIMD is off when it is.
	Kernels vecmath.KernelSet `json:"kernels"`
	Pruning StatsPruning      `json:"pruning"`
}

// CacheStats is the cache section of /v1/stats.
type CacheStats struct {
	Capacity  int    `json:"capacity"`
	Size      int    `json:"size"`
	Epoch     uint64 `json:"epoch"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Stale     int64  `json:"stale"`
	Evictions int64  `json:"evictions"`
}

// StatsCache is CacheStats plus HTTPHits, the cache hits that answered
// HTTP recommend requests.
type StatsCache struct {
	CacheStats
	HTTPHits int64 `json:"http_hits"`
}

// AdmissionStats is the admission section of /v1/stats.
type AdmissionStats struct {
	MaxInflight   int   `json:"max_inflight"`
	MaxQueue      int   `json:"max_queue"`
	QueueWaitMS   int64 `json:"queue_wait_ms"`
	Inflight      int64 `json:"inflight"`
	Queued        int64 `json:"queued"`
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedWait      int64 `json:"shed_wait_timeout"`
	QueueAborted  int64 `json:"queue_abandoned"`
}

// Stats is the GET /v1/stats body of a tfrec-serve node.
type Stats struct {
	Model     StatsModel     `json:"model"`
	Served    StatsServed    `json:"served"`
	Inference StatsInference `json:"inference"`
	// Cache is present when the server was built with a result cache.
	Cache *StatsCache `json:"cache,omitempty"`
	// Admission is present when the load shedder is armed.
	Admission *AdmissionStats `json:"admission,omitempty"`
	// DeadlineExceeded counts requests whose per-request timeout fired
	// mid-sweep (answered 503, never a partial ranking).
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// TimeoutMS is the configured per-request budget (0 = unbounded).
	TimeoutMS int64 `json:"timeout_ms"`
	// Goroutines is runtime.NumGoroutine() — the loadtest gate watches it
	// to catch handler leaks under sustained load.
	Goroutines    int     `json:"goroutines"`
	Reloads       int64   `json:"reloads"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ShardStats is one backend's row in a router's /v1/stats.
type ShardStats struct {
	URL       string    `json:"url"`
	ItemRange ItemRange `json:"item_range"`
	Epoch     uint64    `json:"epoch"`
	ModelID   string    `json:"model_id"`
	Healthy   bool      `json:"healthy"`
	Requests  int64     `json:"requests"`
	Errors    int64     `json:"errors"`
	Hedges    int64     `json:"hedges"`
	HedgeWins int64     `json:"hedge_wins"`
}

// RouterCounters is the router section of a router's /v1/stats.
type RouterCounters struct {
	Requests      int64 `json:"requests"`
	Errors        int64 `json:"errors"`
	Degraded      int64 `json:"degraded"`
	Shed          int64 `json:"shed"`
	Hedges        int64 `json:"hedges"`
	HedgeWins     int64 `json:"hedge_wins"`
	EpochMismatch int64 `json:"epoch_mismatch"`
	CacheHits     int64 `json:"cache_hits"`
	// Panics counts router requests whose handler panicked and was
	// answered 500 internal (also counted in Errors).
	Panics int64 `json:"panics"`
	// HedgeDelayMS and DegradedMode echo the router's configuration.
	HedgeDelayMS int64  `json:"hedge_delay_ms"`
	DegradedMode string `json:"degraded_mode"`
}

// RouterStats is the GET /v1/stats body of a tfrec-router. Model carries
// the aggregate catalog shape (summed users/items from the shard set)
// in the same section a tfrec-serve node uses, so load generators drive
// a router and a single node with the same probe.
type RouterStats struct {
	Model     StatsModel      `json:"model"`
	Shards    []ShardStats    `json:"shards"`
	Router    RouterCounters  `json:"router"`
	Cache     *CacheStats     `json:"cache,omitempty"`
	Admission *AdmissionStats `json:"admission,omitempty"`
	// DeadlineExceeded counts router requests whose budget expired before
	// enough shards answered.
	DeadlineExceeded int64   `json:"deadline_exceeded"`
	TimeoutMS        int64   `json:"timeout_ms"`
	Goroutines       int     `json:"goroutines"`
	UptimeSeconds    float64 `json:"uptime_seconds"`
}
