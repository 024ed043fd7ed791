package main

import "time"

// workload is one benchmark workload. Every workload runs both halves of
// the system — it serves a model over HTTP and it trains one — so every
// end-to-end metric is measured on every workload; what differs is which
// half gets the bulk of the run and which layers the traffic stresses.
type workload struct {
	name string
	// world is the served world. The zero value means "serve the model
	// this run trained" (train_tf): the serving phases then follow
	// training instead of preceding it.
	world  worldSpec
	mix    []mixEntry
	zipf   float64 // > 0: users are Zipf(zipf)-distributed
	shards int     // > 1: a router over that many range-scoped nodes
	// reload hot-swaps a fresh mapping of the model file in the middle of
	// every measured phase.
	reload bool
	// hitMin/hitMax bound the result-cache hit ratio the traffic is
	// designed to produce; outside the band the run is not the workload.
	hitMin, hitMax float64

	// Frozen offered load and latency limit. Constants, never derived at
	// run time, so both sides of a comparison are offered the same load:
	// about 20% and 40% of the closed-loop throughput and ten times the
	// low-rate median measured when the benchmark was defined (README).
	rateLo, rateHi float64 // requests per second
	sloMS          float64

	train trainSpec

	// Shares of the run length (-seconds) each serving phase gets. The
	// training half is fixed work sized to take roughly the remainder.
	warmShare, closedShare, openShare float64
}

// servesTrained reports whether the workload serves its own trained
// model.
func (w *workload) servesTrained() bool { return w.world.name == "" }

// purchaseWorld is the training world of train_tf, trained on every core
// (Workers = min(nproc, 4)). probeWorld is the same recipe at a fifth of
// the size — the training half of the serving workloads — on the serial
// lock-free trainer: it times the SGD step's row math, which is what a
// serving-side layout or kernel change could slow, and leaves the
// parallel machinery, whose speed on two vCPUs swings with how the host
// schedules them, to train_tf.
var (
	purchaseWorld = trainSpec{
		levels: []int{12, 72, 480}, items: 30000, users: 20000, meanTxns: 6, k: 20,
		epochsPerSecond: 2.0,
	}
	probeWorld = trainSpec{
		levels: []int{8, 36, 160}, items: 6000, users: 4000, meanTxns: 6, k: 20,
		epochsPerSecond: 0.8, serial: true,
	}
)

// A serving workload spends 90% of its run in the three measured serving
// phases; the rest is warm-up and the training probe.
const (
	servingWarm   = 0.05
	servingClosed = 0.25
	servingOpen   = 0.325
)

var workloads = []workload{
	{
		name: "node_dense", world: wideWorld, mix: denseMix, hitMax: 0.05,
		rateLo: 225, rateHi: 450, sloMS: 30,
		train: probeWorld, warmShare: servingWarm, closedShare: servingClosed, openShare: servingOpen,
	},
	{
		name: "node_hot", world: wideWorld, mix: hotMix, zipf: 1.1, reload: true, hitMin: 0.6, hitMax: 0.97,
		rateLo: 750, rateHi: 1500, sloMS: 12,
		train: probeWorld, warmShare: servingWarm, closedShare: servingClosed, openShare: servingOpen,
	},
	{
		name: "router3_taxo", world: skewedWorld, mix: taxoMix, shards: 3, hitMax: 0.05,
		rateLo: 100, rateHi: 200, sloMS: 100,
		train: probeWorld, warmShare: servingWarm, closedShare: servingClosed, openShare: servingOpen,
	},
	{
		name: "train_tf", mix: denseMix, hitMax: 0.05,
		rateLo: 900, rateHi: 1800, sloMS: 10,
		train: purchaseWorld, warmShare: 0.05, closedShare: 0.1, openShare: 0.15,
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// share converts a share of the run length into a duration.
func share(seconds, s float64) time.Duration {
	return time.Duration(seconds * s * float64(time.Second))
}
