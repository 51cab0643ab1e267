package experiments

import "lightvm/internal/traffic"

// ServingSummary condenses a serving figure's aggregate traffic
// outcome for the bench report: the tail quantiles and the rejection
// breakdown are what the benchdiff regression gate watches, so a
// change that shifts the serving tail or starts shedding for a new
// reason fails `make bench-compare` even when wall time and allocation
// counts are unchanged.
type ServingSummary struct {
	Arrived          int            `json:"arrived"`
	Served           int            `json:"served"`
	TimedOut         int            `json:"timed_out"`
	Rejected         int            `json:"rejected"`
	RejectedByReason map[string]int `json:"rejected_by_reason,omitempty"`
	Retries          int            `json:"retries,omitempty"`
	P50MS            float64        `json:"p50_ms"`
	P99MS            float64        `json:"p99_ms"`
	P999MS           float64        `json:"p999_ms"`
	RejectPct        float64        `json:"reject_pct"`
	BrownoutMS       float64        `json:"brownout_ms,omitempty"`
	SheddingMS       float64        `json:"shedding_ms,omitempty"`
	StateChanges     int            `json:"state_changes,omitempty"`
}

// summarizeServing folds a figure's per-cell stats into one summary.
func summarizeServing(cells []*traffic.Stats) *ServingSummary {
	var all traffic.Stats
	for _, c := range cells {
		all.Merge(c)
	}
	s := &ServingSummary{
		Arrived:      all.Arrived,
		Served:       all.Served,
		TimedOut:     all.TimedOut,
		Rejected:     all.Rejected,
		Retries:      all.Retries,
		P50MS:        ms(all.Latency.P50()),
		P99MS:        ms(all.Latency.P99()),
		P999MS:       ms(all.Latency.P999()),
		RejectPct:    100 * all.RejectRate(),
		BrownoutMS:   ms(all.BrownoutTime),
		SheddingMS:   ms(all.SheddingTime),
		StateChanges: all.StateChanges,
	}
	// Indexed by traffic.RejectReason; only the reasons that shed work
	// are reported.
	byReason := [...]int{all.RejectedBacklog, all.RejectedCapacity, all.RejectedOverload, all.RejectedQuota, all.RejectedBudget}
	for r, n := range byReason {
		if n == 0 {
			continue
		}
		if s.RejectedByReason == nil {
			s.RejectedByReason = map[string]int{}
		}
		s.RejectedByReason[traffic.RejectReason(r).String()] = n
	}
	return s
}
