package main

import (
	"strings"

	"lightvm/internal/profiling"
)

// layers are the simulator packages the traced run reports a CPU share
// for. Every other package of the repository is charged to "other".
var layers = []string{
	"sim", "xenstore", "xenbus", "noxs", "hv", "mm", "devd", "toolstack",
	"migrate", "traffic", "metrics", "cluster", "faults", "core", "experiments",
}

// Attribution buckets besides the layers.
const (
	bucketOther = "other" // a repository frame outside the listed layers
	bucketBg    = "bg"    // no repository frame at all: GC workers, scheduler
)

// layerOf charges one stack (leaf first) to a bucket: the nearest
// repository frame decides, so time the runtime or the standard library
// spends on a layer's behalf (allocation, GC assists, map and sort
// work) is the caller's. frame resolves a location id to its function.
func layerOf(stack []uint64, frame func(uint64) string) string {
	for _, id := range stack {
		sub := profiling.Subsystem(frame(id))
		if name, ok := strings.CutPrefix(sub, "internal/"); ok {
			for _, l := range layers {
				if l == name {
					return l
				}
			}
			return bucketOther
		}
		if sub == "lightvm" {
			return bucketOther
		}
	}
	return bucketBg
}

// layerShares partitions a CPU profile by layerOf and returns each
// bucket's share of all sampled CPU time in percent; every layer,
// "other" and "bg" is present, and the shares sum to 100 (all zero for
// an empty profile).
func layerShares(p *profiling.Profile) map[string]float64 {
	out := make(map[string]float64, len(layers)+2)
	for _, l := range layers {
		out[l] = 0
	}
	out[bucketOther], out[bucketBg] = 0, 0
	vi := p.SampleType("cpu")
	if vi < 0 {
		return out
	}
	frame := func(id uint64) string {
		return p.LeafFunction(&profiling.Sample{LocationIDs: []uint64{id}})
	}
	totals := make(map[string]int64, len(out))
	var total int64
	for i := range p.Samples {
		s := &p.Samples[i]
		if vi >= len(s.Values) {
			continue
		}
		totals[layerOf(s.LocationIDs, frame)] += s.Values[vi]
		total += s.Values[vi]
	}
	if total == 0 {
		return out
	}
	for b, v := range totals {
		out[b] = 100 * float64(v) / float64(total)
	}
	return out
}
