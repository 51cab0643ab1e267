// Package syscalls carries the Linux x86_32 system-call count dataset
// behind the paper's Figure 1 ("The unrelenting growth of the Linux
// syscall API over the years"), which motivates the security argument:
// the syscall API containers must trust keeps widening, while the x86
// ABI a VM exposes stays put.
package syscalls

import "sort"

// Release is one kernel release data point.
type Release struct {
	Version  string
	Year     int
	Syscalls int
}

// Releases is the x86_32 syscall-table history the figure plots
// (2002–2018, ~200 → ~400 calls; counts follow the syscall_32.tbl
// growth across major releases).
var Releases = []Release{
	{"2.5.0", 2002, 243},
	{"2.6.0", 2003, 274},
	{"2.6.10", 2004, 289},
	{"2.6.14", 2005, 299},
	{"2.6.19", 2006, 317},
	{"2.6.24", 2008, 325},
	{"2.6.31", 2009, 333},
	{"2.6.36", 2010, 340},
	{"3.1", 2011, 347},
	{"3.7", 2012, 349},
	{"3.12", 2013, 350},
	{"3.17", 2014, 356},
	{"4.2", 2015, 364},
	{"4.8", 2016, 377},
	{"4.14", 2017, 385},
	{"4.17", 2018, 397},
}

// GrowthPerYear returns the least-squares slope of syscall count over
// years — the "unrelenting growth" rate.
func GrowthPerYear() float64 {
	n := float64(len(Releases))
	var sx, sy, sxx, sxy float64
	for _, r := range Releases {
		x, y := float64(r.Year), float64(r.Syscalls)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// Sorted returns the dataset ordered by year (it already is; this is
// a defensive copy for callers that mutate).
func Sorted() []Release {
	out := append([]Release(nil), Releases...)
	sort.Slice(out, func(i, j int) bool { return out[i].Year < out[j].Year })
	return out
}

// X86ABISurface is the contrast point the paper draws: the virtual
// machine interface is "memory isolation (with hardware support) and
// CPU protection rings" — a handful of interaction points (hypercalls
// in our Xen model) instead of hundreds of syscalls.
const X86ABISurface = 20
